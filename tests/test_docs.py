"""The README's library-layout table names only what its modules define."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def layout_rows():
    """``(module, [backticked names])`` per row of the library-layout table."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`blocksrc."):
            yield cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])


def test_layout_names_resolve():
    rows = list(layout_rows())
    assert len(rows) >= 10
    for module, names in rows:
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"README names {module}.{name}, which does not exist"

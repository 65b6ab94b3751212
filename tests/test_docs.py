"""The README stays in step with the code: its library-layout table names
only what its modules define and every name the package re-exports, its
command-line block parses, and its config block lists every key once."""

import ast
import importlib
import pathlib
import re
import shlex
from dataclasses import fields

from blocksrc.cli import build_parser
from blocksrc.config import ExperimentConfig, parse_config_text

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_layout_names_every_export():
    rows = dict(layout_rows())
    tree = ast.parse((ROOT / "src" / "blocksrc" / "__init__.py").read_text(encoding="utf-8"))
    exports = [(f"blocksrc.{node.module}", alias.name)
               for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(exports) >= 40
    for module, name in exports:
        assert name in rows.get(module, []), f"README's {module} row lacks {name}, which blocksrc re-exports"


def test_command_line_block_parses():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("blocksrc ")]
    assert {argv[0] for argv in commands} == {"prepare-rois", "cv", "grid", "train", "evaluate", "synth", "mosaic"}
    for argv in commands:
        build_parser().parse_args(argv)  # argparse exits on a flag it does not know


def config_block():
    section = README.read_text(encoding="utf-8").split("## Configuration file", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def test_config_block_lists_every_key_once_with_its_default():
    text = config_block()
    keys = [line.split("#", 1)[0].split("=", 1)[0].strip() for line in text.splitlines()]
    keys = [k for k in keys if k]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
    assert parse_config_text(text) == ExperimentConfig()

"""``scripts/output_digest.py`` digests every file a workload pass writes."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_one_repeats_across_runs():
    # two runs of the three workloads at seed 1 print the same lines, one
    # per kind of report file
    script = load_script()
    lines = script.output_digest(seeds=(1,))
    assert lines == script.output_digest(seeds=(1,))
    assert [line.split()[0] for line in lines] == [".csv", ".json", "_roc.csv", "_roc.svg"]
    for line in lines:
        assert re.fullmatch(r"\S+ [1-9]\d* files [0-9a-f]{64}", line)


def test_seed_one_outputs_are_pinned():
    # every report file the three workloads write at seed 1, by kind, to the
    # last byte: a change that moves a score, a rate or the rounding of a
    # written number changes these lines, and one that does so on purpose
    # records them again and says why in CHANGES.md
    assert load_script().output_digest(seeds=(1,)) == [
        ".csv 41 files a8625a98b43c09788b3f605626850ab2f04c849cb2adda3da4b2497a7090ef4d",
        ".json 40 files 6ca0586c9428ac925338765b4312f81dfdd7c6e64219bc39307bb15ba697402d",
        "_roc.csv 40 files f0dc5a622aabf60dafe1a690f142983457153798d9feb0bd55e365d74f6071e0",
        "_roc.svg 40 files db77ce74954c75aaac8d9b7a0d0282226231284dff18bdc80f7647258e173412",
    ]

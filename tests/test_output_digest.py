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
    # per kind of report file and one over the reports' answers
    script = load_script()
    lines = script.output_digest(seeds=(1,))
    assert lines == script.output_digest(seeds=(1,))
    assert [line.split()[0] for line in lines] == [".csv", ".json", "_roc.csv", "_roc.svg", "answers"]
    for line in lines:
        assert re.fullmatch(r"\S+ [1-9]\d* files [0-9a-f]{64}", line)


def test_seed_one_outputs_are_pinned():
    # every report file the three workloads write at seed 1, by kind, to the
    # last byte: a change that moves a score, a rate or the rounding of a
    # written number changes these lines, and one that does so on purpose
    # records them again and says why in CHANGES.md. The .json and _roc.csv
    # lines were recorded again when the block stack came to be cut
    # C-contiguous, which moved score rounding only: the answers line, every
    # report's test indices, truth, predictions and confusion counts, kept
    # the bytes it had before
    assert load_script().output_digest(seeds=(1,)) == [
        ".csv 41 files a8625a98b43c09788b3f605626850ab2f04c849cb2adda3da4b2497a7090ef4d",
        ".json 40 files e9d846d42379a4fe5918e8308c1d9f8914bd11cc621bd5144fd27fef77c14e9c",
        "_roc.csv 40 files 2f89cbe05d72a81fdbe9d205a8bb4fb4f9a201e483b5f3c5657f798b30de2c6b",
        "_roc.svg 40 files db77ce74954c75aaac8d9b7a0d0282226231284dff18bdc80f7647258e173412",
        "answers 40 files ed09cc8facf6ef313c8f1955f224a2ca90cc6f83dfe5b2883556f45323569db0",
    ]

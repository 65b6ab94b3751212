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

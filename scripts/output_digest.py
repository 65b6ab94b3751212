"""Print one sha256 per kind of file over every output of the benchmark's
workload passes.

Run from anywhere; the script imports blocksrc from the ``src/`` directory
and the workloads from the ``benchmark/`` directory of the checkout it
lives in, and changes nothing in either:

    python scripts/output_digest.py               # seeds 1, 2 and 3
    python scripts/output_digest.py --seeds 1

For each seed and each of the workloads ``learn``, ``code8`` and ``grid``,
it draws the workload's inputs and runs one pass
(``benchmark/workloads.run_pass``) into a fresh temporary directory. It
then prints one line per kind of file written (``.json``, ``.csv``,
``_roc.csv``, ``_roc.svg``): the kind, the file count and one sha256 over
those files' names and bytes, in the order of their names. A last line,
``answers``, digests what every ``.json`` report decides: each fold's test
indices, truth and predictions, and the pooled confusion counts, with no
score. Two trees write the same reports when they print the same lines; a
kind whose line differs names the files to compare, and a change that moves
only the rounding of the scores keeps the ``answers`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import workloads  # noqa: E402

NAMES = ("learn", "code8", "grid")
KINDS = ("_roc.csv", "_roc.svg")  # the suffixes that name a kind ahead of the extension


def kind(path: Path) -> str:
    return next((k for k in KINDS if path.name.endswith(k)), path.suffix)


def answers(report: bytes) -> bytes:
    """What a ``.json`` report decides, as bytes: each fold's test indices,
    truth and predictions (None for a failed fold), and the pooled
    confusion counts."""
    rep = json.loads(report)
    folds = [[entry.get(k) for k in ("test_indices", "truth", "predictions")] for entry in rep["folds"]]
    return json.dumps([folds, rep["confusion"]], sort_keys=True).encode()


def pass_outputs(name: str, seed: int) -> dict[str, bytes]:
    """The files one pass of workload ``name`` at ``seed`` writes, by their
    paths under its output directory."""
    w = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        out.mkdir()
        workloads.run_pass(w, workloads.make_inputs(w, seed, work), seed, str(out))
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def output_digest(seeds=(1, 2, 3), names=NAMES) -> list[str]:
    """One line per kind of file, ``<kind> <count> files <sha256>``, in the
    order of the kinds, then ``answers <count> files <sha256>`` over the
    :func:`answers` of the ``.json`` reports."""
    files = {}
    for seed in seeds:
        for name in names:
            for path, data in pass_outputs(name, seed).items():
                files[f"{name}/{seed}/{path}"] = data
    digests, counts, decided = {}, {}, hashlib.sha256()
    for path in sorted(files):
        k = kind(Path(path))
        digest = digests.setdefault(k, hashlib.sha256())
        digest.update(path.encode() + b"\0" + files[path])
        counts[k] = counts.get(k, 0) + 1
        if k == ".json":
            decided.update(path.encode() + b"\0" + answers(files[path]))
    lines = [f"{k} {counts[k]} files {digests[k].hexdigest()}" for k in sorted(digests)]
    return lines + [f"answers {counts.get('.json', 0)} files {decided.hexdigest()}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    for line in output_digest(seeds=tuple(args.seeds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

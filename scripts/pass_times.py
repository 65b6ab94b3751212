"""Time one benchmark workload's in-process passes on two checkouts, in
alternating child processes.

    python scripts/pass_times.py TREE_A TREE_B --workload grid --seeds 1 2 3 4 --passes 20

Each seed makes one pair: a child process per tree, A first at the first
seed, B first at the next, and so on; a seed may be listed more than once.
A child imports blocksrc from its tree's ``src/`` and the workloads from its
tree's ``benchmark/``, draws the workload's inputs
(``workloads.make_inputs``), runs ``workloads.warm_up`` and one untimed
pass, then times ``--passes`` passes of ``workloads.run_pass``, each into
an emptied output directory, and reports their median with the minor
page faults and system-CPU milliseconds per pass (its ``getrusage`` deltas
over the timed passes and the emptying of their directories, divided by the
pass count). The script prints each pair's figures, each tree's median over
the pairs (with its quartiles for the pass time), and in how many pairs B
was faster. It imports neither tree itself and writes only to temporary
directories.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# the child: argv is (tree, workload, seed, passes); prints the median pass
# seconds, then the minor faults and system-CPU ms per timed pass
CHILD = """
import os, resource, shutil, statistics, sys, tempfile, time
tree, name, seed, passes = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "benchmark")]
import workloads
w = workloads.WORKLOADS[name]
with tempfile.TemporaryDirectory() as work:
    inputs = workloads.make_inputs(w, seed, work)
    workloads.warm_up(w, seed, os.path.join(work, "warm"))
    out = os.path.join(work, "out")
    times = []
    for i in range(passes + 1):
        if i == 1:
            before = resource.getrusage(resource.RUSAGE_SELF)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        t0 = time.perf_counter()
        workloads.run_pass(w, inputs, seed, out)
        times.append(time.perf_counter() - t0)
    after = resource.getrusage(resource.RUSAGE_SELF)
faults = (after.ru_minflt - before.ru_minflt) / passes
sys_ms = 1e3 * (after.ru_stime - before.ru_stime) / passes
print(statistics.median(times[1:]), faults, sys_ms)
"""


def child_median(tree: Path, workload: str, seed: int, passes: int) -> tuple[float, float, float]:
    """The median pass seconds of one child process on ``tree``, and its
    minor faults and system-CPU ms per timed pass."""
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(tree), workload, str(seed), str(passes)],
            cwd=cwd, stdout=subprocess.PIPE, text=True, check=True,
        )
    seconds, faults, sys_ms = map(float, done.stdout.splitlines()[-1].split())
    return seconds, faults, sys_ms


def pass_times(tree_a, tree_b, workload: str, seeds, passes: int):
    """Yield one pair per seed, ``{"seed", "first", "a_s", "b_s",
    "a_faults", "b_faults", "a_sys_ms", "b_sys_ms"}``: the children's
    medians and per-pass counts, with the tree that runs first alternating."""
    trees = {"A": Path(tree_a).resolve(), "B": Path(tree_b).resolve()}
    for i, seed in enumerate(seeds):
        order = "AB" if i % 2 == 0 else "BA"
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            key = side.lower()
            pair[f"{key}_s"], pair[f"{key}_faults"], pair[f"{key}_sys_ms"] = child_median(
                trees[side], workload, seed, passes)
        yield pair


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


HEADER = "seed first    A ms    B ms  A faults  B faults  A sys ms  B sys ms"


def pair_line(p: dict) -> str:
    return (f"{p['seed']:>4} {p['first']:>5} {1e3 * p['a_s']:7.2f} {1e3 * p['b_s']:7.2f}"
            f" {p['a_faults']:9.1f} {p['b_faults']:9.1f} {p['a_sys_ms']:9.2f} {p['b_sys_ms']:9.2f}")


def summary(pairs: list[dict]) -> list[str]:
    """Each tree's median pass time over ``pairs`` with its quartiles, and
    its median minor faults and system-CPU ms per pass; and in how many
    pairs B was faster."""
    lines, medians = [], {}
    for side in "AB":
        key = side.lower()
        q1, medians[side], q3 = quartiles([1e3 * p[f"{key}_s"] for p in pairs])
        faults = statistics.median(p[f"{key}_faults"] for p in pairs)
        sys_ms = statistics.median(p[f"{key}_sys_ms"] for p in pairs)
        lines.append(f"{side}: median {medians[side]:.2f} ms [{q1:.2f}, {q3:.2f}], "
                     f"{faults:.1f} minor faults, {sys_ms:.2f} sys ms per pass")
    won = sum(p["b_s"] < p["a_s"] for p in pairs)
    change = 100.0 * (medians["B"] / medians["A"] - 1.0)
    lines.append(f"B faster in {won} of {len(pairs)} pairs; median {change:+.1f}%")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", help="the checkout timed as A (the parent, say)")
    ap.add_argument("tree_b", help="the checkout timed as B (the change)")
    ap.add_argument("--workload", required=True, help="a name in benchmark/workloads.WORKLOADS")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--passes", type=int, default=20, help="timed passes per child")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    print(HEADER, flush=True)
    pairs = []
    for pair in pass_times(args.tree_a, args.tree_b, args.workload, args.seeds, args.passes):
        pairs.append(pair)
        print(pair_line(pair), flush=True)
    print("\n".join(summary(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

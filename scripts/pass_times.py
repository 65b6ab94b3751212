"""Time one benchmark workload's in-process passes on two checkouts, in
alternating child processes.

    python scripts/pass_times.py TREE_A TREE_B --workload grid --seeds 1 2 3 4 --passes 20

Each seed makes one pair: a child process per tree, A first at the first
seed, B first at the next, and so on; a seed may be listed more than once.
A child imports blocksrc from its tree's ``src/`` and the workloads from its
tree's ``benchmark/``, draws the workload's inputs
(``workloads.make_inputs``), runs ``workloads.warm_up`` and one untimed
pass, then times ``--passes`` passes of ``workloads.run_pass``, each into
an emptied output directory, and reports their median. The script prints
each pair's medians, each tree's median over the pairs with its quartiles,
and in how many pairs B was faster. It imports neither tree itself and
writes only to temporary directories.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# the child: argv is (tree, workload, seed, passes); prints the median pass seconds
CHILD = """
import os, shutil, statistics, sys, tempfile, time
tree, name, seed, passes = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "benchmark")]
import workloads
w = workloads.WORKLOADS[name]
with tempfile.TemporaryDirectory() as work:
    inputs = workloads.make_inputs(w, seed, work)
    workloads.warm_up(w, seed, os.path.join(work, "warm"))
    out = os.path.join(work, "out")
    times = []
    for _ in range(passes + 1):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        t0 = time.perf_counter()
        workloads.run_pass(w, inputs, seed, out)
        times.append(time.perf_counter() - t0)
print(statistics.median(times[1:]))
"""


def child_median(tree: Path, workload: str, seed: int, passes: int) -> float:
    """The median pass seconds of one child process on ``tree``."""
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(tree), workload, str(seed), str(passes)],
            cwd=cwd, stdout=subprocess.PIPE, text=True, check=True,
        )
    return float(done.stdout.splitlines()[-1])


def pass_times(tree_a, tree_b, workload: str, seeds, passes: int):
    """Yield one pair per seed, ``{"seed", "first", "a_s", "b_s"}``: the
    children's medians, with the tree that runs first alternating."""
    trees = {"A": Path(tree_a).resolve(), "B": Path(tree_b).resolve()}
    for i, seed in enumerate(seeds):
        order = "AB" if i % 2 == 0 else "BA"
        medians = {side: child_median(trees[side], workload, seed, passes) for side in order}
        yield {"seed": seed, "first": order[0], "a_s": medians["A"], "b_s": medians["B"]}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


HEADER = "seed first    A ms    B ms"


def pair_line(p: dict) -> str:
    return f"{p['seed']:>4} {p['first']:>5} {1e3 * p['a_s']:7.2f} {1e3 * p['b_s']:7.2f}"


def summary(pairs: list[dict]) -> list[str]:
    """Each tree's median over ``pairs`` with its quartiles, and in how many
    pairs B was faster."""
    lines, medians = [], {}
    for side, key in (("A", "a_s"), ("B", "b_s")):
        q1, medians[side], q3 = quartiles([1e3 * p[key] for p in pairs])
        lines.append(f"{side}: median {medians[side]:.2f} ms [{q1:.2f}, {q3:.2f}]")
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

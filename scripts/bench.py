"""Time the MIAS-sized cross-validation cells and write them to a JSON file.

Run from anywhere; the script imports blocksrc from the ``src/`` directory
of the checkout it lives in:

    python scripts/bench.py --quick --out BENCH_26.json   # about a minute
    python scripts/bench.py --out BENCH_26.json           # adds the K < s cells

The real MIAS set is not part of the repository, so every cell runs on
the synthetic set shaped like it: 37 ROIs per class of 64x64 pixels, seed 20,
with the synthetic block equal to the cell's block. The cells are

- ``none`` at 64, 32, 16 and 8 px, on noise 0.05 and 1.0;
- lcksvd2 at K = 16 on 16 px and at K = 32 on 8 px, on noise 1.0 (left out
  by ``--quick``);
- the default grid, ``run_grid`` on the set at noise 0.05 with synthetic
  block 16.

A cell runs one cross-validation pass, as ``run_experiment`` runs it
(``block_vectors``, then ``cross_validate``), and builds its report once
per decision rule from that pass with ``build_report``; the grid runs
through ``run_grid`` once, with ``persist=False``. A cell records the wall
and CPU seconds of the pass and both reports, and per rule its AUC,
accuracy and failed folds. Work counts come without a tracer: a learned
cell trains fold 0 once more and records the K-SVD iterations of each
position from the model traces, with that training's wall seconds, and
an 8-px ``none`` cell codes fold 0's held-out blocks with ``bpdn_batch``,
position by position, and records the path steps per block. The run
records the commit (and whether tracked files differ from it), a sha256 of the
``src/blocksrc/*.py`` files it ran (as ``benchmark/run.py`` digests them, so
a file run on an uncommitted tree names its source), the numpy and BLAS
versions, the CPU count, and the wall seconds and tracemalloc
peak of one 8-px coding call: every held-out block of position 0 on its
own fold's training blocks, as a pooled pass codes it (the peak from a
second, traced run of the call).

The file records; it gates nothing. Compare two files only when they were
run alternately on one host. A cell the set cannot run (a block that does
not divide the ROIs, or a grid with fewer samples than its 30 folds) is
listed under ``skipped``; ``--folds`` outside 2 to the sample count (twice
``--per-class``) is refused before any cell runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from blocksrc import (  # noqa: E402
    Dictionary,
    ExperimentConfig,
    SynthSpec,
    block_vectors,
    bpdn_batch,
    lcksvd_train_stack,
    run_grid,
    stratified_folds,
    synth_dataset,
)
from blocksrc.config import DECISIONS  # noqa: E402
from blocksrc.harness import GRID_FOLDS, build_report, cross_validate  # noqa: E402

SEED = 20  # of the synthetic set and of the folds


def cells(quick: bool) -> list[dict]:
    """The cells, in the order they run: ``(name, dl_mode, block, noise,
    dict_size)`` as a dict each, then the grid."""
    out = [dict(name=f"none-b{b}-n{noise}", dl_mode="none", block=b, noise=noise, dict_size=0)
           for noise in (0.05, 1.0) for b in (64, 32, 16, 8)]
    if not quick:
        out += [dict(name="lcksvd2-b16-K16-n1.0", dl_mode="lcksvd2", block=16, noise=1.0, dict_size=16),
                dict(name="lcksvd2-b8-K32-n1.0", dl_mode="lcksvd2", block=8, noise=1.0, dict_size=32)]
    out.append(dict(name="grid", dl_mode=None, block=16, noise=0.05, dict_size=0))
    return out


def cell_config(cell: dict, args) -> ExperimentConfig:
    """The config of a cell: the default one, on the cell's set and block."""
    return ExperimentConfig(
        roi_size=args.roi_size, block_sizes=(cell["block"],), k_folds=args.folds, dl_mode=cell["dl_mode"] or "none",
        dict_size=cell["dict_size"], seed=SEED, synthetic=True, synth_noise_sigma=cell["noise"],
        synth_samples_per_class=args.per_class,
    )


def cell_samples(cell: dict, args) -> list:
    spec = SynthSpec(roi_size=args.roi_size, block_size=cell["block"], samples_per_class=args.per_class,
                     noise_sigma=cell["noise"])
    return synth_dataset(spec, SEED)


def timed(fn):
    """``(result, wall seconds, CPU seconds)`` of ``fn()``; CPU seconds
    count every thread of the process."""
    w, c = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - w, time.process_time() - c


def fold0(cfg: ExperimentConfig, samples: list):
    """Fold 0's training stack, its labels, and its held-out stack, as a
    cross-validation pass gathers them."""
    labels = np.array([s.label for s in samples])
    folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
    train, test = np.flatnonzero(folds != 0), np.flatnonzero(folds == 0)
    cut = block_vectors(samples, cfg.block_sizes[0])
    return cut[:, :, train], labels[train], np.take(cut, test, axis=2)


def walk_steps(cfg: ExperimentConfig, samples: list) -> dict:
    """Path steps of fold 0's held-out blocks, each position in one
    ``bpdn_batch`` call on fold 0's raw training blocks."""
    stack, labels, held = fold0(cfg, samples)
    steps, infeasible = [], 0
    for p in range(stack.shape[0]):
        D = Dictionary.from_matrix(stack[p], labels)
        Y = held[p]
        _, _, feasible, iters = bpdn_batch(D, Y, cfg.eps_rel * np.linalg.norm(Y, axis=0))
        steps += iters.tolist()
        infeasible += int((~feasible).sum())
    return {"blocks": len(steps), "mean": statistics.fmean(steps), "median": statistics.median(steps),
            "max": max(steps), "infeasible": infeasible}


def ksvd_iterations(cfg: ExperimentConfig, samples: list) -> tuple[list[int], float]:
    """K-SVD iterations run at each position when fold 0 trains (the length
    of each position's objective trace), and that training's wall seconds."""
    stack, labels, _ = fold0(cfg, samples)
    model, wall, _ = timed(lambda: lcksvd_train_stack(stack, labels, cfg.train_params(), cfg.dl_mode))
    return [len(trace) for trace in model.objective_traces], wall


def pooled_call(cfg: ExperimentConfig, samples: list) -> dict:
    """Wall seconds and tracemalloc peak of one 8-px coding call: every
    held-out block of position 0 on its own fold's training blocks, through
    the atom mask a pooled pass uses. ``wall_s`` and ``steps_mean`` come
    from a first, untraced call; ``tracemalloc_peak_mb`` from the same call
    repeated under tracemalloc, whose allocation hook would slow a timed
    call several times over."""
    labels = np.array([s.label for s in samples])
    folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
    stack = block_vectors(samples, 8)
    D = Dictionary.from_matrix(stack[0], labels)
    test = np.concatenate([np.flatnonzero(folds == f) for f in range(cfg.k_folds)])
    allowed = folds[:, None] != folds[test][None, :]
    Y = stack[0][:, test]
    eps = cfg.eps_rel * np.linalg.norm(Y, axis=0)
    (_, _, _, iters), wall, _ = timed(lambda: bpdn_batch(D, Y, eps, allowed=allowed))
    tracemalloc.start()
    bpdn_batch(D, Y, eps, allowed=allowed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"blocks": int(Y.shape[1]), "wall_s": wall, "tracemalloc_peak_mb": peak / 1e6,
            "steps_mean": float(iters.mean())}


def run_cell(cell: dict, args) -> dict:
    cfg = cell_config(cell, args)
    if cell["dl_mode"] is None:
        reports, wall, cpu = timed(lambda: run_grid(cfg, persist=False))
        return {"wall_s": wall, "cpu_s": cpu, "reports": len(reports),
                "failed_folds": sum(len(r.incomplete_folds) for r in reports),
                "cells": [[r.config["decision"], r.config["k_folds"], r.config["dl_mode"], r.block_size,
                           r.metrics["auc"], r.metrics["acc"]] for r in reports]}
    samples = cell_samples(cell, args)
    block = cell["block"]

    def reports():
        cv_pass = cross_validate(cfg, block_vectors(samples, block), [s.label for s in samples])
        return [build_report(replace(cfg, decision=rule), block, samples, cv_pass) for rule in DECISIONS]

    reps, wall, cpu = timed(reports)
    out = {"wall_s": wall, "cpu_s": cpu}
    for rule, rep in zip(DECISIONS, reps):
        out[rule] = {"auc": rep.metrics["auc"], "acc": rep.metrics["acc"], "failed_folds": list(rep.incomplete_folds)}
    if cell["dl_mode"] != "none":
        out["ksvd_iterations_fold0"], out["train_s_fold0"] = ksvd_iterations(cfg, samples)
    elif cell["block"] == 8:
        out["walk_steps_fold0"] = walk_steps(cfg, samples)
    return out


def skip_reason(cell: dict, args) -> str | None:
    if args.roi_size % cell["block"]:
        return f"block {cell['block']} does not divide roi_size {args.roi_size}"
    if cell["dl_mode"] is None and 2 * args.per_class < max(GRID_FOLDS):
        return f"the grid's {max(GRID_FOLDS)} folds need {max(GRID_FOLDS)} samples"
    return None


def environment() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        # dirty: tracked files differ from the commit
        commit, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blocksrc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {"commit": commit, "dirty": dirty, "src_sha256": digest.hexdigest(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "python": platform.python_version()}


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--quick", action="store_true", help="leave out the two K < s cells")
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    ap.add_argument("--roi-size", type=int, default=64)
    ap.add_argument("--per-class", type=int, default=37)
    ap.add_argument("--folds", type=int, default=10)
    args = ap.parse_args(argv)
    if not 2 <= args.folds <= 2 * args.per_class:
        ap.error(f"--folds must be in [2, {2 * args.per_class}] (the sample count), got {args.folds}")
    settings = {"seed": SEED, **{k: v for k, v in vars(args).items() if k != "out"}}
    result = {"environment": environment(), "args": settings, "cells": {}, "skipped": {}}
    for cell in cells(args.quick):
        reason = skip_reason(cell, args)
        if reason:
            result["skipped"][cell["name"]] = reason
            continue
        result["cells"][cell["name"]] = run_cell(cell, args)
        print(f"bench: {cell['name']} done", file=sys.stderr)
    if args.roi_size % 8 == 0:
        cell = dict(dl_mode="none", block=8, noise=0.05, dict_size=0)
        result["pooled_8px_call"] = pooled_call(cell_config(cell, args), cell_samples(cell, args))
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return result


if __name__ == "__main__":
    main()

"""Span tracer that wraps blocksrc's public functions from outside.

Each target is looked up where its caller looks it up (the attribute of the
calling module), so wrapping ``blocksrc.dictlearn.omp_batch`` sees every OMP
call K-SVD makes without touching ``src/``. Every call becomes a span
``(name, start, end, parent)``; hooks read counts from the call's arguments
and return value. Time spent inside hooks is subtracted from the span and
from every open ancestor, so per-layer times measure the program, not the
tracer.

A target whose module or attribute is missing (a later change renamed or
deleted it) is recorded as absent and skipped; a hook that can no longer
read its call's arguments or result marks that span's counts unreadable.
Either way the run goes on; the untraced run never installs the tracer.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np


def _omp_batch(tr, args, kwargs, result):
    D, Y = args[0], args[1]
    T = args[2] if len(args) > 2 else kwargs["T"]
    rows, signals = Y.shape
    tr.count("solvers.omp_signals", signals)
    tr.peak("solvers.omp_rows_max", rows)
    t_max = min(int(T), int(np.count_nonzero(D.usable)))
    # Computed, not measured: the (T, rows, signals) float64 Gram-Schmidt
    # basis the batch routine allocates.
    tr.peak("solvers.omp_buffer_mb_max", t_max * rows * signals * 8 / 1e6)


def _bpdn_batch(tr, args, kwargs, result):
    D, Y = args[0], np.asarray(args[1], dtype=float)
    eps = args[2] if len(args) > 2 else kwargs["eps"]
    X, _, feas, iters = result
    feas = np.asarray(feas, dtype=bool)
    iters = np.asarray(iters)
    tr.count("solvers.bpdn_codes", Y.shape[1])
    tr.count("solvers.bpdn_iters", int(iters.sum()))
    tr.count("solvers.bpdn_infeasible", int(np.count_nonzero(~feas)))
    tr.count("solvers.bpdn_shortcut", int(np.count_nonzero(~feas & (iters == 0))))
    tr.count("solvers.bpdn_support", int(np.count_nonzero(X)))
    tr.count("solvers.bpdn_feasible", int(np.count_nonzero(feas)))
    tr.count("solvers.bpdn_l1_feasible", float(np.abs(X[:, feas]).sum()))
    tr.iters_per_code.extend(int(v) for v in iters)
    if feas.any():
        eps_vec = np.broadcast_to(np.asarray(eps, dtype=float), (Y.shape[1],))
        resid = np.linalg.norm(D.atoms @ X[:, feas] - Y[:, feas], axis=0)
        bad = int(np.count_nonzero(resid > eps_vec[feas] * (1 + 1e-3)))
        if bad:
            tr.flag_fold()


def _ksvd(tr, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    ran = len(result[2])
    tr.count("dictlearn.ksvd_iters", ran)
    tr.count("dictlearn.early_stops", int(ran < params.iterations))


def _decide(tr, args, kwargs, result):
    tr.count("ensemble.block_decisions", np.shape(args[1])[1])


# (module the caller reads the name from, attribute, span name, count hook)
TARGETS = (
    ("blocksrc.synth", "synth_dataset", "synth.draw", None),
    ("blocksrc.synth", "write_synth_cache", "synth.cache_write", None),
    ("blocksrc.harness", "run_grid", "harness.grid", None),
    ("blocksrc.harness", "run_experiment", "harness.run", None),
    ("blocksrc.harness", "load_roi_cache", "mias.cache_load", None),
    ("blocksrc.harness", "train_block_models", "harness.train", None),
    ("blocksrc.harness", "classify_samples", "harness.classify", None),
    ("blocksrc.harness", "persist_report", "harness.persist", None),
    ("blocksrc.harness", "assemble_block_dictionaries", "blocks.assemble", None),
    ("blocksrc.harness", "decompose_roi", "blocks.decompose", None),
    ("blocksrc.blocks", "decompose_roi", "blocks.decompose", None),
    ("blocksrc.harness", "lcksvd_train", "dictlearn.lcksvd", None),
    ("blocksrc.dictlearn", "init_lcksvd", "dictlearn.init", None),
    ("blocksrc.dictlearn", "ksvd", "dictlearn.ksvd", _ksvd),
    ("blocksrc.dictlearn", "omp_batch", "solvers.omp", _omp_batch),
    ("blocksrc.harness", "block_decisions_batch", "ensemble.decide", _decide),
    ("blocksrc.ensemble", "bpdn_batch", "solvers.bpdn", _bpdn_batch),
    ("blocksrc.harness", "ensemble_decision", "ensemble.fuse", None),
    ("blocksrc.harness", "roc_auc", "ensemble.roc", None),
)


class Tracer:
    """Collects spans and counts for one traced pass; not thread-safe (the
    benchmark runs the program with ``workers = 1``)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, excluded]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.iters_per_code: list[int] = []
        self.flagged_folds: set = set()
        self.absent: list[str] = []
        self.unreadable: dict[str, str] = {}
        self._saved: list[tuple] = []

    # -- counters -----------------------------------------------------
    def count(self, key: str, n) -> None:
        self.counts[key] += n

    def peak(self, key: str, v) -> None:
        self.peaks[key] = max(self.peaks[key], v)

    def flag_fold(self) -> None:
        """Mark the running fold as failing a check. It is identified by the
        open cell span and how many classify spans that cell has started."""
        cell = next((i for i in reversed(self.stack) if self._name(i) == "harness.run"), -1)
        fold = sum(1 for s in self.spans if s[3] == cell and self.names[s[0]] == "harness.classify")
        self.flagged_folds.add((cell, fold))

    def _name(self, idx: int) -> str:
        return self.names[self.spans[idx][0]]

    # -- wrapping -----------------------------------------------------
    def install(self) -> None:
        for modname, attr, span, hook in TARGETS:
            try:
                module = importlib.import_module(modname)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span: str, hook):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            rec = [name_id, 0.0, 0.0, parent, 0.0]
            self.spans.append(rec)
            self.stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            self.count(span + ".calls", 1)
            if hook is not None and span not in self.unreadable:
                h0 = time.perf_counter()
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
                    # The function changed its signature or return value:
                    # its counts stop, its spans and the run go on.
                    self.unreadable[span] = f"{type(err).__name__}: {err}"
                spent = time.perf_counter() - h0
                for open_idx in self.stack:
                    self.spans[open_idx][4] += spent
            return result

        return traced

    # -- derived metrics ----------------------------------------------
    def totals(self) -> tuple[dict, dict]:
        """Per span name: (total duration, total self time) in seconds."""
        dur = [s[2] - s[1] - s[4] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            name = self.names[s[0]]
            total[name] += dur[i]
            self_t[name] += dur[i] - child[i]
        return total, self_t

    def exact_counts(self) -> dict:
        """The counts that must repeat bit for bit at a fixed seed."""
        c = self.counts
        return {
            "harness.train_calls": int(c["harness.train.calls"]),
            "dictlearn.ksvd_iters": int(c["dictlearn.ksvd_iters"]),
            "solvers.omp_calls": int(c["solvers.omp.calls"]),
            "solvers.bpdn_codes": int(c["solvers.bpdn_codes"]),
            "solvers.bpdn_iters": int(c["solvers.bpdn_iters"]),
            "mias.cache_loads": int(c["mias.cache_load.calls"]),
        }

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> value; every value is a plain number."""
        total, self_t = self.totals()
        c, p = self.counts, self.peaks
        codes = c["solvers.bpdn_codes"]
        infeasible = c["solvers.bpdn_infeasible"]
        ksvd_calls = c["dictlearn.ksvd.calls"]
        m = dict(self.exact_counts())
        m.update({
            "mias.cache_load_s": total["mias.cache_load"],
            "blocks.decompose_calls": int(c["blocks.decompose.calls"]),
            "blocks.decompose_s": total["blocks.decompose"],
            "blocks.assemble_s": total["blocks.assemble"],
            "harness.cells": int(c["harness.run.calls"]),
            "harness.train_s": total["harness.train"],
            "harness.classify_s": total["harness.classify"],
            "harness.run_self_s": self_t["harness.run"],
            "harness.persist_s": total["harness.persist"],
            "dictlearn.trainings": int(c["dictlearn.lcksvd.calls"]),
            "dictlearn.lcksvd_s": total["dictlearn.lcksvd"],
            "dictlearn.init_s": total["dictlearn.init"],
            "dictlearn.ksvd_s": total["dictlearn.ksvd"],
            "dictlearn.ksvd_self_s": self_t["dictlearn.ksvd"],
            "dictlearn.early_stop_share": c["dictlearn.early_stops"] / ksvd_calls if ksvd_calls else 0.0,
            "solvers.omp_s": total["solvers.omp"],
            "solvers.omp_signals": int(c["solvers.omp_signals"]),
            "solvers.omp_rows_max": int(p["solvers.omp_rows_max"]),
            "solvers.omp_buffer_mb_max": p["solvers.omp_buffer_mb_max"],
            "solvers.bpdn_calls": int(c["solvers.bpdn.calls"]),
            "solvers.bpdn_s": total["solvers.bpdn"],
            "solvers.bpdn_iters_per_code": statistics.median(self.iters_per_code) if self.iters_per_code else 0,
            "solvers.bpdn_infeasible_share": infeasible / codes if codes else 0.0,
            "solvers.bpdn_shortcut_share": c["solvers.bpdn_shortcut"] / infeasible if infeasible else 0.0,
            "solvers.bpdn_support_mean": c["solvers.bpdn_support"] / codes if codes else 0.0,
            "solvers.bpdn_l1_mean": (c["solvers.bpdn_l1_feasible"] / c["solvers.bpdn_feasible"]
                                     if c["solvers.bpdn_feasible"] else 0.0),
            "ensemble.block_decisions": int(c["ensemble.block_decisions"]),
            "ensemble.decide_self_s": self_t["ensemble.decide"],
            "ensemble.fuse_s": total["ensemble.fuse"],
            "ensemble.roc_s": total["ensemble.roc"],
            "synth.draw_s": total["synth.draw"],
            "synth.cache_write_s": total["synth.cache_write"],
        })
        return m

    def dump(self) -> list:
        """Spans as ``[name, start, end, parent]`` rows for the trace file."""
        return [[self.names[s[0]], s[1], s[2] - s[4], s[3]] for s in self.spans]

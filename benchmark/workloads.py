"""The benchmark's workloads and the checks on their outputs.

Every input is drawn by blocksrc's seeded synthetic generator from the
workload seed; the program sees only those inputs (ROI samples, or a ROI
cache on disk for ``grid``). All calls go through module attributes at call
time (``blocksrc.harness.run_experiment``, not a name imported once) so the
tracer's wrappers see them.

Why these three (sizes are cut so one pass takes a few seconds on a
2-core machine while keeping each workload's character):

- ``learn`` loads dictionary learning: LC-KSVD2 cells at 64, 32 and 16 px
  blocks of 64x64 ROIs (20 per class, 4 folds), where K-SVD's OMP codes
  stacked systems of about 4,100 down to about 290 rows. Every BPDN code
  takes the least-squares shortcut, so FISTA idles.
- ``code8`` loads BPDN: no dictionary learning, 8x8 blocks with about 66
  training atoms and eps = 0.05 ||y||, the paper's 8-px coding problem, on
  8x8 ROIs: one block position per ROI instead of 64.
- ``grid`` is the only workload that runs the grid loop: 2 decisions x
  {10, 20, 30} folds x 3 modes x blocks {16, 8}, reading its dataset from
  a ROI cache and writing a report set per cell. 15 ROIs per class is the
  least that 30 folds allow, and sparsity 2 keeps a pass to a few seconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import blocksrc.config
import blocksrc.harness
import blocksrc.synth


@dataclass(frozen=True)
class Workload:
    name: str
    roi_size: int
    synth_block: int
    samples_per_class: int
    blocks: tuple[int, ...]  # () means the whole grid
    dl_mode: str = "none"
    k_folds: int = 10
    sparsity: int = 16
    write_cache: bool = False

    def spec(self):
        return blocksrc.synth.SynthSpec(
            roi_size=self.roi_size,
            block_size=self.synth_block,
            samples_per_class=self.samples_per_class,
        )

    def config(self, seed: int, out_dir: str, cache_dir: str = ""):
        return blocksrc.config.ExperimentConfig(
            roi_size=self.roi_size,
            block_sizes=self.blocks or (self.synth_block,),
            k_folds=self.k_folds,
            dl_mode=self.dl_mode,
            decision="bbll",
            sparsity=self.sparsity,
            seed=seed,
            data_dir=cache_dir,
            output_dir=out_dir,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("learn", roi_size=64, synth_block=16, samples_per_class=20,
                 blocks=(64, 32, 16), dl_mode="lcksvd2", k_folds=4),
        Workload("code8", roi_size=8, synth_block=8, samples_per_class=37,
                 blocks=(8,), dl_mode="none", k_folds=10),
        Workload("grid", roi_size=16, synth_block=16, samples_per_class=15,
                 blocks=(), sparsity=2, write_cache=True),
    )
}


@dataclass
class Inputs:
    samples: list
    cache_dir: str = ""


def make_inputs(w: Workload, seed: int, work_dir: str) -> Inputs:
    """Draw the workload's dataset; ``grid`` also writes it as a ROI cache
    that the program reads back."""
    samples = blocksrc.synth.synth_dataset(w.spec(), seed)
    if not w.write_cache:
        return Inputs(samples)
    cache_dir = os.path.join(work_dir, "roi_cache")
    blocksrc.synth.write_synth_cache(samples, cache_dir)
    return Inputs(samples, cache_dir)


def warm_up(w: Workload, seed: int, out_dir: str) -> None:
    """One tiny cell through the same code path, so lazy imports and BLAS
    thread start-up are paid before timing."""
    tiny = blocksrc.synth.synth_dataset(
        blocksrc.synth.SynthSpec(roi_size=8, block_size=8, samples_per_class=3), seed
    )
    mode = w.dl_mode if w.blocks else "lcksvd2"
    cfg = blocksrc.config.ExperimentConfig(
        roi_size=8, block_sizes=(8,), k_folds=2, dl_mode=mode, seed=seed, output_dir=out_dir
    )
    blocksrc.harness.run_experiment(cfg, samples=tiny, persist=False)


def run_pass(w: Workload, inputs: Inputs, seed: int, out_dir: str) -> list:
    """Run the workload once and return its reports (persisted to out_dir)."""
    if not w.blocks:
        cfg = w.config(seed, out_dir, inputs.cache_dir)
        return blocksrc.harness.run_grid(cfg)
    cfg = w.config(seed, out_dir)
    return [
        blocksrc.harness.run_experiment(cfg, block_size=b, samples=inputs.samples)
        for b in w.blocks
    ]


def report_stem(report) -> str:
    return blocksrc.harness.report_stem(report)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def check_reports(reports: list, out_dir: str) -> CheckResult:
    """Per report: every fold completes, the pooled predictions number
    ``n_samples``, and the persisted JSON re-parses to the returned report.
    A failing report check fails all of that report's folds; nothing stops
    at the first failure."""
    res = CheckResult()
    for rep in reports:
        k = rep.config["k_folds"]
        res.attempted += k
        stem = report_stem(rep)
        bad = set(rep.incomplete_folds)
        bad |= {e["fold"] for e in rep.folds if "predictions" not in e}
        pooled = sum(rep.confusion[key] for key in ("tp", "tn", "fp", "fn"))
        predicted = sum(len(e.get("predictions", ())) for e in rep.folds)
        if pooled != rep.n_samples or predicted != rep.n_samples:
            res.problems.append(f"{stem}: {predicted} predictions for {rep.n_samples} samples")
            bad = set(range(k))
        try:
            with open(os.path.join(out_dir, stem + ".json"), encoding="utf-8") as fh:
                reparsed = json.load(fh)
            if reparsed != json.loads(rep.to_json()):
                raise ValueError("persisted report differs from the returned one")
        except (OSError, ValueError) as err:
            res.problems.append(f"{stem}: report does not re-parse ({err})")
            bad = set(range(k))
        if rep.incomplete_folds:
            res.problems.append(f"{stem}: incomplete folds {rep.incomplete_folds}")
        res.failed += len(bad)
    return res


def quality(reports: list) -> tuple[float, float]:
    """Lowest pooled AUC and accuracy (percent) over the workload's cells."""
    aucs = [r.metrics["auc"] for r in reports if r.metrics.get("auc") is not None]
    accs = [r.metrics["acc"] for r in reports if r.metrics.get("acc") is not None]
    return (min(aucs) if aucs else 0.0), (min(accs) if accs else 0.0)

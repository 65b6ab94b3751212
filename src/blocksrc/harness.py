"""Cross-validation harness: stratified folds, metrics, experiment runner.

The ROIs are cut into block vectors once per block size, as the one
(positions, pixels, samples) stack that a pass trains and codes on. A pass
codes each fold's held-out blocks on its training split's dictionaries
(the raw ones of every fold at once, or learned fold by fold below K = s)
and returns the groups it coded, each with its block results. A report
fuses them under its decision rule, splits the predictions by fold, pools
them, and is persisted (JSON, a CSV summary row, and an SVG ROC plot).
Everything is deterministic given (config, seed).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .blocks import RoiSample, block_side, block_vectors, check_training_labels
from .config import DECISIONS, ExperimentConfig
from .dictlearn import DiscriminativeDictionary, lcksvd_train_stack
from .ensemble import BlockResults, bbll, bbmap, block_decisions, roc_auc, write_roc_csv, write_roc_svg
from .labels import BENIGN, MALIGNANT, as_label_array, class_name
from .mias import load_roi_cache
from .pgm import image_from_array, write_pgm
from .solvers import Dictionary
from .synth import synth_dataset


def stratified_folds(labels, k: int, seed: int) -> np.ndarray:
    """Assign each sample to one of ``k`` folds, stratified by class.

    Per class the samples are shuffled by a seeded generator and dealt
    round-robin; the dealing pointer carries over between classes so total
    fold sizes also differ by at most one.
    """
    labels = as_label_array(labels)
    n = labels.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    fold = np.empty(n, dtype=int)
    pointer = 0
    for cid in (BENIGN, MALIGNANT):
        idx = np.flatnonzero(labels == cid)
        if idx.size == 0:
            raise ValueError(f"class '{class_name(cid)}' has no samples")
        perm = rng.permutation(idx)
        fold[perm] = (pointer + np.arange(idx.size)) % k
        pointer = (pointer + idx.size) % k
    return fold


def compute_metrics(predictions, truths, scores=None) -> dict:
    """Confusion counts plus TPR/TNR/ACC (and AUC from the scores) as
    percentages; malignant is the positive class. Rates whose denominator is
    zero come back as None."""
    predictions = as_label_array(predictions)
    truths = as_label_array(truths)
    if predictions.size == 0 or predictions.shape != truths.shape:
        raise ValueError("predictions and truths must be non-empty and equally long")
    out = _rates(*_counts(0, truths.ravel(), predictions.ravel(), 1)[0])
    out["roc"] = None
    if scores is not None and out["tpr"] is not None and out["tnr"] is not None:
        points, auc = roc_auc(np.asarray(scores, dtype=float), truths)
        out["auc"] = 100.0 * auc
        out["roc"] = points.tolist()
    return out


def _counts(group, truths: np.ndarray, predictions: np.ndarray, n_groups: int) -> list:
    """``(tn, fp, fn, tp)`` of each of ``n_groups`` groups of samples, from
    one count of ``group * 4 + truth * 2 + prediction`` (benign is 0,
    malignant 1)."""
    counts = np.bincount(4 * group + 2 * truths + predictions, minlength=4 * n_groups)
    return counts.reshape(n_groups, 4).tolist()


def _rates(tn: int, fp: int, fn: int, tp: int) -> dict:
    """The confusion counts with TPR/TNR/ACC as percentages (None where the
    denominator is zero) and no AUC."""
    return {
        "tp": tp,
        "tn": tn,
        "fp": fp,
        "fn": fn,
        "tpr": 100.0 * tp / (tp + fn) if tp + fn else None,
        "tnr": 100.0 * tn / (tn + fp) if tn + fp else None,
        "acc": 100.0 * (tp + tn) / (tp + tn + fp + fn),
        "auc": None,
    }


@dataclass
class EvalReport:
    """Per-fold and pooled evaluation results for one configuration."""

    config: dict
    block_size: int
    seed: int
    n_samples: int
    folds: list
    incomplete_folds: list
    confusion: dict
    metrics: dict
    roc: list

    def to_dict(self) -> dict:
        """The fields by name; the values are the report's own, not copies."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary_row(self) -> dict:
        return {
            "decision": self.config["decision"],
            "k_folds": self.config["k_folds"],
            "block_size": self.block_size,
            "dl_mode": self.config["dl_mode"],
            "tpr": self.metrics.get("tpr"),
            "tnr": self.metrics.get("tnr"),
            "acc": self.metrics.get("acc"),
            "auc": self.metrics.get("auc"),
        }


SUMMARY_COLUMNS = ("decision", "k_folds", "block_size", "dl_mode", "tpr", "tnr", "acc", "auc")


def write_summary_csv(path, rows: list[dict]) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        cells = []
        for col in SUMMARY_COLUMNS:
            v = row.get(col)
            cells.append("" if v is None else (f"{v:.4f}" if isinstance(v, float) else str(v)))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(cfg: ExperimentConfig) -> list[RoiSample]:
    """Synthetic draw (seeded by the config) or a ROI cache from disk.

    The synthetic generator's block geometry comes from the first configured
    block size, so one config maps to one dataset no matter which block size
    a particular run analyzes.
    """
    if cfg.synthetic:
        return synth_dataset(cfg.synth_spec(), cfg.seed)
    if not cfg.data_dir:
        raise ValueError("config needs data_dir (or synthetic = true)")
    samples = load_roi_cache(cfg.data_dir)
    if not samples:
        raise ValueError(f"ROI cache {cfg.data_dir} is empty")
    for i, smp in enumerate(samples):
        if smp.size != cfg.roi_size:
            raise ValueError(
                f"cache ROI {smp.source_id or i} has size {smp.size}, "
                f"which does not match config roi_size {cfg.roi_size}"
            )
    return samples


def train_block_models(stack: np.ndarray, labels, cfg: ExperimentConfig) -> DiscriminativeDictionary:
    """The model of every block position of a training ``stack``
    (positions, pixels, samples) with the samples' ``labels``, as one
    (positions, pixels, atoms) stack of dictionaries: the raw training
    blocks, normalized in one call, for dl_mode "none", label-consistent
    dictionaries otherwise, learned for all positions in one stacked
    training. At the default ``dict_size = 0`` (or one equal to the
    training count) the learned dictionaries are built in closed form and
    are dl_mode "none"'s byte for byte; any other ``dict_size`` runs
    K-SVD."""
    labels = check_training_labels(labels)
    if cfg.dl_mode == "none":
        return DiscriminativeDictionary(D=Dictionary.from_matrix(stack, labels), mode="none")
    return lcksvd_train_stack(stack, labels, cfg.train_params(), cfg.dl_mode)


def classify_samples(
    D: Dictionary,
    blocks: np.ndarray,
    rows,
    cfg: ExperimentConfig,
    allowed: np.ndarray | None = None,
) -> BlockResults:
    """Code the blocks of the samples ``rows`` against the block grid's
    stack of dictionaries ``D`` and decide each block; returns the
    :class:`BlockResults`, whose (positions, samples) arrays hold the
    samples in the order of ``rows``. No decision rule is applied (see
    :func:`decision_outputs`).

    ``blocks`` (positions, pixels, ROIs) holds the :func:`block_vectors` of
    a whole pass, and ``rows`` (an index array, or ``slice(None)`` for all)
    picks the samples to code. ``slice(None)`` codes the stack itself; an
    index array gathers its samples in one C-contiguous copy, so their
    norms sum in one order however ``rows`` picks them. Every block is
    coded and decided in one :func:`block_decisions` call. ``allowed``
    (n_atoms, samples), None for everywhere, restricts each sample to its
    own atoms of every position's dictionary, so samples of several folds
    whose dictionaries are column subsets of the given ones are coded in
    the same call (see :func:`bpdn_batch`)."""
    if len(blocks) != len(D.atoms):
        raise ValueError(f"sample has {len(blocks)} blocks, model has {len(D.atoms)}")
    Y = blocks[:, :, rows] if isinstance(rows, slice) else np.take(blocks, rows, axis=2)
    return block_decisions(D, Y, cfg.eps_rel, cfg.eps_abs, cfg.invert_lls, allowed)


def decision_outputs(res: BlockResults, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(predictions, decision scores) of the samples of the block results
    ``res`` under the rule ``cfg.decision``: the one place a rule fuses
    block results. bbmap's score is the malignant share of the block
    votes; bbll's is the mean block score less ``cfg.tau``."""
    if cfg.decision == "bbmap":
        _, label, vote = bbmap(res.hard.T)
        return label, vote
    # each sample's block scores as one contiguous row, averaged in block order
    ells, label = bbll(np.ascontiguousarray(res.lls.T), cfg.tau)
    return label, ells - cfg.tau


def _pools(cfg: ExperimentConfig, folds: np.ndarray) -> bool:
    """Whether every fold's model is its training split's raw block
    dictionaries: under dl_mode "none", and under LC-KSVD at K = s."""
    params = cfg.train_params()
    return cfg.dl_mode == "none" or all(params.closed_form(n) for n in folds.size - np.bincount(folds))


def cross_validate(cfg: ExperimentConfig, blocks: np.ndarray, labels) -> tuple[np.ndarray, list, dict]:
    """One stratified cross-validation pass over the samples'
    :func:`block_vectors` ``blocks`` and their ``labels``.

    A fold whose training split is empty or lacks a class fails as its
    training would. The others train and classify in groups, each on its
    members' samples of ``blocks``: the stack itself when they are every
    sample, else a gather of their columns. When every fold's model is its
    training split's raw block dictionaries (see :func:`_pools`), the folds
    form one group: the raw dictionaries of all their training samples are
    built once, and every held-out sample is coded in one
    :func:`classify_samples` call on its own fold's training atoms alone,
    so one ``D^T D`` and one ``D^T Y`` per position serve every fold; when
    every fold trained, that call codes the stack itself. Otherwise each
    fold is a group of its own, coded unmasked. Returns ``(folds, coded,
    errors)``: the fold of each sample; ``(rows, results)`` per group that
    completed, in fold order, with its held-out samples ``rows`` in sample
    order and their :class:`BlockResults` (``(positions, len(rows))``
    arrays); and each failed fold's structured diagnostic dict, by fold. A
    group failing with a ``ValueError`` or ``LinAlgError`` books its
    diagnostic to each of its folds; any other exception raises. No decision
    rule is applied, so ``cfg.decision`` and ``cfg.tau`` play no part.
    """
    labels = as_label_array(labels)
    folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
    coded, errors = [], {}
    for f in range(cfg.k_folds):
        try:
            check_training_labels(labels[folds != f])
        except ValueError as err:
            errors[f] = _diagnostic("train", err)
    trainable = [f for f in range(cfg.k_folds) if f not in errors]
    pools = _pools(cfg, folds)
    # a pooled group's model is its members' raw dictionaries, as each fold's
    # is; training it as dl_mode "none" keeps a fixed K off the group's size
    group_cfg = replace(cfg, dl_mode="none") if pools else cfg
    for group in [trainable] if pools and trainable else [[f] for f in trainable]:
        rows = np.flatnonzero(np.isin(folds, group))
        members = np.flatnonzero(np.any([folds != f for f in group], axis=0))
        # each sample may use the atoms of its own fold's training samples
        allowed = folds[members][:, None] != folds[rows][None, :] if pools else None
        stage = "train"
        try:  # a domain error aborts the group
            # a subset's gather keeps the members' axis outermost in memory,
            # which sets how a learned model rounds
            stack = blocks if members.size == folds.size else blocks[:, :, members]
            model = train_block_models(stack, labels[members], group_cfg)
            stage = "classify"
            held = slice(None) if rows.size == folds.size else rows
            coded.append((rows, classify_samples(model.D, blocks, held, cfg, allowed)))
        except (ValueError, np.linalg.LinAlgError) as err:
            errors.update(dict.fromkeys(group, _diagnostic(stage, err)))
    return folds, coded, errors


def _diagnostic(stage: str, err: Exception) -> dict:
    return {"stage": stage, "type": type(err).__name__, "message": str(err)}


def build_report(cfg: ExperimentConfig, block_size: int, samples: list[RoiSample], cv_pass: tuple) -> EvalReport:
    """Report a cross-validation pass ``(folds, coded, errors)`` (see
    :func:`cross_validate`) under the rule ``cfg.decision``: the one place a
    pass is split by fold, and with :func:`decision_outputs` the one place
    its block results are fused. Each coded group is fused under the rule
    once and the groups' predictions joined, then put in fold order by one
    stable sort of their rows' folds, which cuts them into one entry per
    fold, between the failed folds' diagnostics. Predictions are pooled
    across the coded folds before the ROC sweep. When every fold failed, the
    report has zero confusion counts, None metrics and an empty ROC.
    """
    folds, coded, errors = cv_pass
    labels = as_label_array([s.label for s in samples])
    entries = [{"fold": f, "error": errors[f]} if f in errors else {"fold": f} for f in range(folds.max() + 1)]
    pooled = None
    if coded:
        # every group's arrays end to end, counted and converted once
        outputs = [(rows, *decision_outputs(res, cfg)) for rows, res in coded]
        idx, pred, score = (np.concatenate(arrays).astype(kind)
                            for arrays, kind in zip(zip(*outputs), (int, int, float)))
        order = np.argsort(folds[idx], kind="stable")
        idx, pred, score = idx[order], pred[order], score[order]
        truth, fold = labels[idx], folds[idx]
        counts = _counts(fold, truth, pred, len(entries))
        lists = [x.tolist() for x in (idx, truth, pred, score)]
        end = 0
        for entry, size, fold_counts in zip(entries, np.bincount(fold, minlength=len(entries)).tolist(), counts):
            if "error" not in entry:
                entry.update(zip(("test_indices", "truth", "predictions", "scores"),
                                 (x[end : end + size] for x in lists)))
                entry["metrics"] = _rates(*fold_counts) if size else None
            end += size
        if idx.size:
            pooled = compute_metrics(pred, truth, score)
    if pooled is None:  # every fold failed: nothing is counted and no rate is defined
        pooled = dict.fromkeys(("tp", "tn", "fp", "fn"), 0)
        pooled.update(dict.fromkeys(("tpr", "tnr", "acc", "auc", "roc")))
    roc = pooled.pop("roc") or []
    return EvalReport(
        config=cfg.echo(),
        block_size=block_size,
        seed=cfg.seed,
        n_samples=len(samples),
        folds=entries,
        incomplete_folds=sorted(errors),
        confusion={k: pooled[k] for k in ("tp", "tn", "fp", "fn")},
        metrics={k: pooled[k] for k in ("tpr", "tnr", "acc", "auc")},
        roc=roc,
    )


def run_experiment(
    cfg: ExperimentConfig,
    block_size: int | None = None,
    samples: list[RoiSample] | None = None,
    persist: bool = True,
) -> EvalReport:
    """Full stratified cross-validation for one block size, reported under
    ``cfg.decision``. The ROIs are cut into blocks once, before any fold, so
    ROIs of mixed sizes or a block size that does not divide them raise."""
    if block_size is None:
        if len(cfg.block_sizes) != 1:
            raise ValueError("block_size required when the config lists several")
        block_size = cfg.block_sizes[0]
    if samples is None:
        samples = load_dataset(cfg)
    blocks = block_vectors(samples, block_size)
    report = build_report(cfg, block_size, samples, cross_validate(cfg, blocks, [s.label for s in samples]))
    if persist:
        persist_report(report, cfg.output_dir)
    return report


def report_stem(report: EvalReport) -> str:
    c = report.config
    return f"{c['decision']}_{c['dl_mode']}_k{c['k_folds']}_b{report.block_size}"


def persist_report(report: EvalReport, out_dir: str, text: str | None = None) -> None:
    """Write the report's JSON, its summary CSV row and its ROC CSV and SVG.
    ``text`` is ``report.to_json()`` when the caller already has it."""
    os.makedirs(out_dir, exist_ok=True)
    stem = report_stem(report)
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        fh.write((report.to_json() if text is None else text) + "\n")
    write_summary_csv(os.path.join(out_dir, stem + ".csv"), [report.summary_row()])
    if report.roc:
        points = np.asarray(report.roc, dtype=float)
        write_roc_csv(os.path.join(out_dir, stem + "_roc.csv"), points)
        write_roc_svg(os.path.join(out_dir, stem + "_roc.svg"), points, title=stem)


GRID_FOLDS = (10, 20, 30)
GRID_BLOCKS = (64, 32, 16, 8)
GRID_MODES = ("none", "lcksvd1", "lcksvd2")


def run_grid(cfg: ExperimentConfig, persist: bool = True) -> list[EvalReport]:
    """Run the full decision x folds x block-size x learning-mode grid and
    write one summary CSV over all cells.

    The dataset is loaded once and cut into blocks once per block size;
    each (folds, mode, block size) pass runs once, under both decision
    rules. The passes of one (folds, block size) pair that code on the raw
    dictionaries (see :func:`cross_validate`) run once for all their modes:
    at the default K = s, LC-KSVD's take the "none" pass's groups. Such a
    pooled pass's report is built and, when persisted, encoded once per
    rule; every later mode reports it under its own config echo, and writes
    its text with the one ``"dl_mode"`` entry, the config echo's, swapped.
    Reports and summary rows come out decision-major. Raises ValueError when
    no grid block size divides ``roi_size``.
    """
    blocks = [b for b in GRID_BLOCKS if cfg.roi_size % b == 0]
    if not blocks:
        raise ValueError(f"no grid block size in GRID_BLOCKS {GRID_BLOCKS} divides roi_size {cfg.roi_size}")
    samples = load_dataset(cfg)
    labels = [s.label for s in samples]
    folds = {k: stratified_folds(labels, k, cfg.seed) for k in GRID_FOLDS}
    cells: dict[tuple, EvalReport] = {}
    for block in blocks:
        vectors = block_vectors(samples, block)
        for k in GRID_FOLDS:
            pooled = None  # this pair's raw-dictionary pass: its mode, and its (report, JSON) by rule
            for mode in GRID_MODES:
                sub = replace(cfg, k_folds=k, dl_mode=mode)
                pools = _pools(sub, folds[k])
                if pools and pooled:
                    # only the config echo has a "dl_mode" key, and a JSON
                    # string escapes its quotes, so the entry occurs once
                    base, reps = pooled
                    swap = (f'"dl_mode": "{base}"', f'"dl_mode": "{mode}"')
                    reps = {d: (replace(r, config=replace(sub, decision=d).echo()), text and text.replace(*swap))
                            for d, (r, text) in reps.items()}
                else:
                    cv_pass = cross_validate(sub, vectors, labels)
                    reps = {}
                    for d in DECISIONS:
                        rep = build_report(replace(sub, decision=d), block, samples, cv_pass)
                        reps[d] = rep, rep.to_json() if persist else None
                    if pools:
                        pooled = mode, reps
                for decision, (rep, text) in reps.items():
                    if persist:
                        persist_report(rep, cfg.output_dir, text)
                    cells[decision, k, mode, block] = rep
    reports = [cells[d, k, m, b] for d in DECISIONS for k in GRID_FOLDS for m in GRID_MODES for b in blocks]
    if persist:
        os.makedirs(cfg.output_dir, exist_ok=True)
        write_summary_csv(
            os.path.join(cfg.output_dir, "grid_summary.csv"), [r.summary_row() for r in reports]
        )
    return reports


def export_dictionary_mosaic(atoms: np.ndarray, path) -> np.ndarray:
    """Tile the atoms (pixels, atoms) of one block dictionary into a PGM
    mosaic.

    Atoms are de-vectorized row-major into square blocks (of the atom
    length's square root for a side), min-max scaled to [0, 255] each
    (constant atoms map to mid-gray 128), and laid out in a near-square grid
    with 1-pixel white separators.
    """
    d, n = atoms.shape
    side = block_side(d)
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    canvas = np.full((rows * (side + 1) - 1, cols * (side + 1) - 1), 255, dtype=np.uint16)
    for a in range(n):
        tile = atoms[:, a].reshape(side, side)
        lo, hi = float(tile.min()), float(tile.max())
        if hi - lo < 1e-12:
            scaled = np.full((side, side), 128, dtype=np.uint16)
        else:
            scaled = np.round((tile - lo) / (hi - lo) * 255).astype(np.uint16)
        r, c = divmod(a, cols)
        r0 = r * (side + 1)
        c0 = c * (side + 1)
        canvas[r0 : r0 + side, c0 : c0 + side] = scaled
    write_pgm(path, image_from_array(canvas, maxval=255))
    return canvas

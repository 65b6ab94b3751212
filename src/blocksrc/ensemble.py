"""Per-block sparse classification and ensemble fusion.

Each block is coded against its position's dictionary; the per-block hard
label follows the SRC rule (smallest class-restricted reconstruction
residual). Two fusion rules combine the blocks: majority voting over hard
labels (bbmap) and the mean of per-block log-likelihood sparsity scores
thresholded at tau (bbll).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .labels import BENIGN, MALIGNANT
from .solvers import DEGENERATE_NORM, Dictionary, L1_LOG_FLOOR, bpdn_batch, class_residuals


class BlockResults(NamedTuple):
    """One block position's results for ``m`` samples, as arrays.

    ``hard`` and ``lls`` (shape ``(m,)``) feed the fusion rules; the rest are
    diagnostics: class-restricted residuals ``(2, m)`` indexed by class id,
    the codes ``(n_atoms, m)``, and per-sample ``feasible``/``degenerate``
    flags.
    """

    hard: np.ndarray
    lls: np.ndarray
    residuals: np.ndarray
    codes: np.ndarray
    feasible: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class EnsembleDecision:
    """Fused decisions for ``m`` samples under both rules; every array
    field has shape ``(m,)``, and ``vote_score`` is the malignant fraction
    of the block votes."""

    vote_score: np.ndarray
    ells: np.ndarray
    label_bbmap: np.ndarray
    label_bbll: np.ndarray
    tau: float


def lls_score(per_class_l1: np.ndarray, invert: bool = False) -> np.ndarray:
    """Log ratio of class l1 masses, guarded away from log(0), elementwise
    over the trailing axes of ``per_class_l1`` (indexed by class id first).

    The default orientation is positive when the malignant mass dominates, so
    a positive score votes malignant. ``invert=True`` negates the score,
    choosing the class with the smaller coefficient mass instead; swapping the
    class roles this way negates every score exactly.
    """
    num = np.maximum(per_class_l1[BENIGN], L1_LOG_FLOOR)
    den = np.maximum(per_class_l1[MALIGNANT], L1_LOG_FLOOR)
    score = -np.log(num / den)
    return -score if invert else score


def block_decisions_batch(
    Dj: Dictionary, Yj: np.ndarray, eps, invert_lls: bool = False, allowed=None
) -> BlockResults:
    """Code the columns of ``Yj`` against one block dictionary and classify
    each by the SRC rule (smallest class-restricted residual).

    ``eps`` is the error bound per column (a scalar broadcasts). ``allowed``
    (n_atoms, m), None for everywhere, restricts each column to its own
    atoms of ``Dj`` (see :func:`bpdn_batch`). A column whose signal is
    all-zero, or whose atoms are all degenerate, is degenerate: benign (the
    prior), zero score. When the
    error bound is unreachable the column takes the least-squares code on
    the usable atoms and is marked infeasible.
    """
    Yj = np.asarray(Yj, dtype=float)
    m = Yj.shape[1]
    ynorm = np.linalg.norm(Yj, axis=0)
    hard = np.full(m, BENIGN)
    lls = np.zeros(m)
    residuals = np.tile(ynorm, (2, 1))
    codes = np.zeros((Dj.n_atoms, m))
    feasible = np.ones(m, dtype=bool)
    usable = Dj.usable[:, None] if allowed is None else Dj.usable[:, None] & allowed
    degenerate = (ynorm < DEGENERATE_NORM) | ~usable.any(axis=0)
    live = np.flatnonzero(~degenerate)
    if live.size:
        # every column live: the signals themselves, not a copy of them
        live = slice(None) if live.size == m else live
        eps_live = np.broadcast_to(np.asarray(eps, dtype=float), (m,))[live]
        own = None if allowed is None else allowed[:, live]
        codes[:, live], _, feasible[live], _ = bpdn_batch(Dj, Yj[:, live], eps_live, allowed=own)
        resid, l1 = class_residuals(Dj, codes[:, live], Yj[:, live], allowed=own)
        residuals[:, live] = resid
        # Residual tie goes to benign, the prior class.
        hard[live] = np.where(resid[BENIGN] <= resid[MALIGNANT], BENIGN, MALIGNANT)
        lls[live] = lls_score(l1, invert=invert_lls)
    return BlockResults(hard, lls, residuals, codes, feasible, degenerate)


def _check_blocks(per_block: np.ndarray) -> np.ndarray:
    per_block = np.asarray(per_block)
    if per_block.ndim != 2 or per_block.shape[1] == 0:
        raise ValueError(f"expected (samples, blocks) block results, got shape {per_block.shape}")
    return per_block


def bbmap(hard: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Majority vote over per-block hard labels of shape ``(m, nbl)``.

    Returns ``(posterior, label, vote_score)`` per sample; the posterior is
    the fraction of blocks voting for each class, ties break toward
    malignant, and ``vote_score`` is the malignant fraction (the continuous
    score).
    """
    hard = _check_blocks(hard)
    n = hard.shape[1]
    votes_mal = np.count_nonzero(hard == MALIGNANT, axis=1)
    posterior = np.column_stack(((n - votes_mal) / n, votes_mal / n))
    label = np.where(posterior[:, MALIGNANT] >= posterior[:, BENIGN], MALIGNANT, BENIGN)
    return posterior, label, posterior[:, MALIGNANT]


def bbll(lls: np.ndarray, tau: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Mean of per-block log-likelihood scores of shape ``(m, nbl)``,
    thresholded at ``tau``.

    Each sample's blocks are averaged in ascending block order. The label is
    malignant exactly when ``ells - tau >= 0`` (a unit step); the
    pre-threshold score is the ROC sweep variable.
    """
    lls = _check_blocks(lls)
    ells = lls.mean(axis=1)
    label = np.where(ells - tau >= 0, MALIGNANT, BENIGN)
    return ells, label


def ensemble_decision(hard: np.ndarray, lls: np.ndarray, tau: float = 0.0) -> EnsembleDecision:
    """Fuse ``(m, nbl)`` block results under both rules.

    The threshold branch always assigns malignant when ``ells - tau >= 0``;
    computing the block scores with ``invert_lls`` therefore yields the
    smaller-mass decision rule instead of the default larger-mass one.
    """
    _, label_map, vote = bbmap(hard)
    ells, label_ll = bbll(lls, tau)
    return EnsembleDecision(
        vote_score=vote,
        ells=ells,
        label_bbmap=label_map,
        label_bbll=label_ll,
        tau=tau,
    )


def roc_auc(scores, truth) -> tuple[np.ndarray, float]:
    """ROC curve and trapezoidal AUC with malignant as the positive class.

    Equal scores are grouped into a single threshold step. Returns
    ``(points, auc)`` where points rows are ``(threshold, fpr, tpr)`` and the
    curve runs from (0, 0) at threshold +inf to (1, 1) at the lowest score.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth, dtype=int).ravel()
    if scores.shape != truth.shape or scores.size == 0:
        raise ValueError("scores and truth must be non-empty and equally long")
    pos = truth == MALIGNANT
    n_pos = int(pos.sum())
    n_neg = int(scores.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present to sweep a ROC curve")

    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    p_sorted = pos[order]
    tp = np.cumsum(p_sorted)
    fp = np.cumsum(~p_sorted)
    # Keep only the last entry of each tied-score run.
    last = np.flatnonzero(np.diff(s_sorted) != 0)
    last = np.append(last, scores.size - 1)
    thresholds = s_sorted[last]
    tpr = tp[last] / n_pos
    fpr = fp[last] / n_neg
    points = np.column_stack(
        (
            np.concatenate(([np.inf], thresholds)),
            np.concatenate(([0.0], fpr)),
            np.concatenate(([0.0], tpr)),
        )
    )
    auc = float(np.trapezoid(points[:, 2], points[:, 1]))
    return points, auc


def write_roc_csv(path, points: np.ndarray) -> None:
    """Write ROC points as ``threshold,fpr,tpr`` rows."""
    lines = ["threshold,fpr,tpr"]
    for thr, fpr, tpr in points:
        lines.append(f"{thr!r},{fpr!r},{tpr!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_roc_svg(path, points: np.ndarray, title: str = "ROC") -> None:
    """Write a minimal standalone SVG polyline plot of the ROC curve."""
    size, margin = 480, 48
    span = size - 2 * margin

    def sx(v: float) -> float:
        return margin + v * span

    def sy(v: float) -> float:
        return size - margin - v * span

    poly = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for _, f, t in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(1)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        f'stroke="#bbbbbb" stroke-dasharray="4 4"/>',
        f'<polyline points="{poly}" fill="none" stroke="#b22222" stroke-width="2"/>',
        f'<text x="{size / 2:.0f}" y="{size - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">false positive rate</text>',
        f'<text x="14" y="{size / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 14 {size / 2:.0f})">true positive rate</text>',
        f'<text x="{size / 2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

"""Per-block sparse classification and ensemble fusion.

Each block is coded against its position's dictionary; the per-block hard
label follows the SRC rule (smallest class-restricted reconstruction
residual). Two fusion rules combine the blocks: majority voting over hard
labels (bbmap) and the mean of per-block log-likelihood sparsity scores
thresholded at tau (bbll).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .labels import BENIGN, MALIGNANT
from .solvers import (
    DEGENERATE_NORM,
    Dictionary,
    L1_LOG_FLOOR,
    bpdn_stack,
    check_mask,
    check_signals,
    class_residuals,
)


class BlockResults(NamedTuple):
    """The results of P block positions for ``m`` samples, as arrays.

    ``hard`` and ``lls`` (shape ``(P, m)``) feed the fusion rules; the rest
    are diagnostics: class-restricted residuals ``(2, P, m)`` indexed by
    class id, the codes ``(P, n_atoms, m)``, and per-block ``feasible`` and
    ``degenerate`` flags ``(P, m)``.
    """

    hard: np.ndarray
    lls: np.ndarray
    residuals: np.ndarray
    codes: np.ndarray
    feasible: np.ndarray
    degenerate: np.ndarray


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


def block_decisions(
    D: Dictionary, Y, eps_rel: float, eps_abs: float = 0.0, invert_lls: bool = False, allowed=None
) -> BlockResults:
    """Code every block of ``Y`` (P, d, m), column ``i`` of ``Y[p]`` being
    sample ``i``'s block at position ``p``, against the dictionary of its
    position in one call, and classify each block by the SRC rule (smallest
    class-restricted residual).

    ``D`` is the block grid's (P, d, n) stack of dictionaries; a single
    position's (d, n) one raises ``ValueError``. A block's error bound is
    ``eps_abs`` when that is positive, else ``eps_rel·||y||``. ``allowed``
    (n_atoms, m), None for everywhere, restricts each sample to its own
    atoms of every position's dictionary (see :func:`bpdn_batch`). The
    signals are checked and their norms taken once; one batched ``D^T D``
    and one ``D^T Y`` serve the codes (:func:`bpdn_stack`) and the class
    residuals, which come from them (:func:`class_residuals`). A block whose
    signal is all-zero, or whose atoms are all degenerate, is degenerate: its
    bound is infinite, so the origin meets it and the block keeps the zero
    code, is feasible, and is benign (the prior), with zero score. When the
    error bound is unreachable the block takes the least-squares code on
    the usable atoms and is marked infeasible.
    """
    if D.atoms.ndim != 3:
        raise ValueError(f"expected a (P, d, n) stack of block dictionaries, got atoms of shape {D.atoms.shape}")
    # C-contiguous whatever the atoms' layout, which sets how D^T Y rounds;
    # the normalized atoms of a C-contiguous block stack already are
    A, usable = np.ascontiguousarray(D.atoms), D.usable
    P, d, n = A.shape
    Y = check_signals(Y, (P, d))
    if eps_rel <= 0 and eps_abs <= 0:
        raise ValueError("one of eps_rel / eps_abs must be positive")
    m = Y.shape[2]
    allowed = check_mask(allowed, n, m)
    # the squares' sums as np.linalg.norm takes them, so a zero code's class
    # residual sqrt(ysq) is the norm itself
    ysq = np.add.reduce(Y * Y, axis=1)
    ynorm = np.sqrt(ysq)
    degenerate = (ynorm < DEGENERATE_NORM) | ~(usable @ allowed)
    eps = np.where(degenerate, np.inf, eps_abs if eps_abs > 0 else eps_rel * ynorm)
    At = A.transpose(0, 2, 1)
    G, B = At @ A, At @ Y
    codes, _, feasible, _ = bpdn_stack(A, usable, G, B, Y, ynorm, eps, allowed)
    # a sample coded at no position keeps its zero codes, and its atoms need
    # not hold both classes
    residuals, l1 = class_residuals(G, B, codes, ysq, D.atom_labels, allowed | degenerate.all(axis=0))
    # Residual tie goes to benign, the prior class: a degenerate block's
    # zero code ties
    hard = np.where(residuals[BENIGN] <= residuals[MALIGNANT], BENIGN, MALIGNANT)
    lls = np.where(degenerate, 0.0, lls_score(l1, invert=invert_lls))
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
    """Write ROC points as ``threshold,fpr,tpr`` rows of Python float
    reprs (``inf,0.0,0.0``), each of which reads back to its point."""
    lines = ["threshold,fpr,tpr"]
    for thr, fpr, tpr in np.asarray(points, dtype=float).tolist():
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

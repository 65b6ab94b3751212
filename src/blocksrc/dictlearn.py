"""K-SVD dictionary learning and its label-consistent extensions.

LC-KSVD stacks label-consistency rows (and, in mode 2, classifier rows) onto
the data matrix and runs the plain K-SVD alternation on the stacked system;
the trained stack is then split back into dictionary, transform, and
classifier parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .labels import CLASS_IDS, as_label_array
from .solvers import DEGENERATE_NORM, Dictionary, batch_omp, normalize_columns

MODES = ("none", "lcksvd1", "lcksvd2")

_RIDGE_LAMBDA = 1e-3
_UNUSED_ROW_TOL = 0.0  # a row is unused when it is exactly zero
# K-SVD runs in span coordinates when the rows outnumber the columns of
# [Y, init] this many times over; below that, numpy's unblocked QR costs
# more than it saves
_SPAN_ROWS = 8
# A problem whose objective after the atom update is at most this share of
# ||[Y, init]||_F^2 is solved: what is left is rounding, not learning
_OBJ_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainParams:
    """Dictionary learning knobs.

    ``K`` is the atom count (None means one atom per training sample), ``T``
    the sparsity bound used during coding (capped at K - 1), ``alpha`` the
    weight on the label-consistency term and ``beta`` the weight on the
    classification term. K-SVD stops early once an iteration improves the
    objective by less than ``min_rel_improvement`` of its previous value, or
    once the objective is at most ``1e-12·||[Y, init]||_F²`` (rounding
    level; at K equal to the training count that is after one iteration). A
    non-positive ``min_rel_improvement`` disables both stops.
    """

    K: int | None = None
    T: int = 16
    alpha: float = 1.0
    beta: float = 1.0
    iterations: int = 30
    seed: int = 20
    min_rel_improvement: float = 1e-5

    def __post_init__(self):
        if self.K is not None and self.K < 2:
            raise ValueError("K must be >= 2 (at least one atom per class)")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def resolved_k(self, n_samples: int) -> int:
        k = self.K if self.K is not None else n_samples
        if k < 2:
            raise ValueError("resolved K must be >= 2")
        return k

    def resolved_t(self, k: int) -> int:
        return max(1, min(self.T, k - 1))


@dataclass(frozen=True)
class LabelMatrices:
    """Discriminative code targets Q (atoms x samples) and one-hot labels H."""

    Q: np.ndarray
    H: np.ndarray


@dataclass(frozen=True)
class DiscriminativeDictionary:
    """Learned (D, A, W) triple plus training diagnostics.

    ``A`` is present unless mode is "none"; ``W`` only for mode "lcksvd2".
    ``codes`` holds the final sparse codes in the stacked, unit-norm atom
    basis; rescaling them by ``D.scales`` compensates the split
    renormalization exactly.
    """

    D: Dictionary
    A: np.ndarray | None
    W: np.ndarray | None
    mode: str
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    codes: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.A is None) != (self.mode == "none"):
            raise ValueError("A must be present exactly when mode != 'none'")
        if (self.W is not None) != (self.mode == "lcksvd2"):
            raise ValueError("W must be present exactly when mode == 'lcksvd2'")


def build_label_matrices(sample_labels, atom_labels) -> LabelMatrices:
    """Q[k, m] = 1 iff atom k and sample m share a class; H is one-hot."""
    sample_labels = as_label_array(sample_labels)
    atom_labels = as_label_array(atom_labels)
    Q = (atom_labels[:, None] == sample_labels[None, :]).astype(float)
    H = np.zeros((len(CLASS_IDS), sample_labels.shape[0]))
    H[sample_labels, np.arange(sample_labels.shape[0])] = 1.0
    return LabelMatrices(Q=Q, H=H)


def _check_training_matrix(Y, ndim: int = 2) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != ndim or 0 in Y.shape:
        raise ValueError(f"training matrix must be non-empty {ndim}-d, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise ValueError("training matrix contains non-finite values")
    return Y


def _code(D: np.ndarray, Y: np.ndarray, ysq: np.ndarray, t: int) -> np.ndarray:
    """Sparsity-bound codes of a stack of signal matrices on a stack of
    dictionaries; atoms whose norm is below ``DEGENERATE_NORM`` are skipped."""
    Dt = D.mT
    usable = np.linalg.norm(D, axis=1) >= DEGENERATE_NORM
    X, _ = batch_omp(Dt @ D, Dt @ Y, ysq, usable, t, 0.0)
    return X


def _ksvd_stack(Z: np.ndarray, s: int, params: TrainParams, probe=None):
    """K-SVD on a stack of P independent problems ``Z = [Y, init]``, shaped
    (P, rows, s + k): signals in the first ``s`` columns, initial atoms
    (normalized here, in place) in the other ``k``.

    Every problem keeps its own objective trace and stops early on its own:
    after any iteration whose objective (read after the atom update) is at
    most ``_OBJ_FLOOR·||Z_p||_F²``, or after a later one that improves on the
    previous objective by less than ``min_rel_improvement`` of it. A
    non-positive ``min_rel_improvement`` runs every iteration.
    Atoms only ever become combinations of columns of ``Y - DX`` and ``D``,
    or normalized columns of ``Y``, so they never leave ``span(Z)``. When the
    rows number at least ``_SPAN_ROWS`` times the columns of ``Z``, the
    alternation runs on the coordinates ``R`` of ``Z = basis R`` (basis
    orthonormal, so every norm and inner product is unchanged) and the atoms
    are mapped back at the end. Returns ``(atoms (P, rows, k), codes (P, k,
    s), traces)``.
    """
    P, rows, m = Z.shape
    k = m - s
    t = params.resolved_t(k)
    Z[:, :, s:], _ = normalize_columns(Z[:, :, s:])
    floor = _OBJ_FLOOR * np.einsum("prm,prm->p", Z, Z)
    basis = None
    if rows >= _SPAN_ROWS * m:
        basis, Z = np.linalg.qr(Z)
    Y, D = Z[:, :, :s], Z[:, :, s:].copy()
    ysq = np.einsum("prs,prs->ps", Y, Y)
    X = np.zeros((P, k, s))
    traces: list[list[float]] = [[] for _ in range(P)]
    prev = np.zeros(P)
    run = np.arange(P)
    for it in range(params.iterations):
        Yr, Dr = Y[run], D[run]
        Xr = _code(Dr, Yr, ysq[run], t)
        E = Yr - Dr @ Xr
        obj_coding = np.sum(E * E, axis=(1, 2))

        # The rank-1 update of atom a, over full rows: columns that do not
        # use the atom carry a zero coefficient and come out unchanged.
        for a in range(k):
            row = Xr[:, a, :]
            Ek = E + Dr[:, :, a, None] * row[:, None, :]
            dvec = (Ek @ row[:, :, None])[..., 0]
            nrm = np.linalg.norm(dvec, axis=1)
            ok = nrm >= DEGENERATE_NORM  # an unused atom has dvec = 0
            if not ok.any():
                continue
            dvec /= np.where(ok, nrm, 1.0)[:, None]
            gnew = np.where(row != 0.0, (dvec[:, None, :] @ Ek)[:, 0, :], 0.0)
            upd = Ek - dvec[:, :, None] * gnew[:, None, :]
            if ok.all():
                Dr[:, :, a], Xr[:, a, :], E = dvec, gnew, upd
            else:
                Dr[ok, :, a], Xr[ok, a, :], E[ok] = dvec[ok], gnew[ok], upd[ok]

        # Replace atoms whose coefficient row went unused by the training
        # column that is currently reconstructed worst.
        unused = ~np.any(np.abs(Xr) > _UNUSED_ROW_TOL, axis=2)
        for i in np.flatnonzero(unused.any(axis=1)):
            col_err = np.linalg.norm(E[i], axis=0)
            for a in np.flatnonzero(unused[i]):
                j = int(np.argmax(col_err))
                col_err[j] = -1.0
                nrm = np.linalg.norm(Yr[i, :, j])
                Dr[i, :, a] = Yr[i, :, j] / nrm if nrm >= DEGENERATE_NORM else 0.0

        obj = np.sum(E * E, axis=(1, 2))
        if probe is not None:
            probe(it, obj_coding, obj)
        for p, o in zip(run, obj):
            traces[p].append(float(o))
        D[run], X[run] = Dr, Xr
        done = obj <= floor[run]
        if it:
            done |= (prev[run] - obj) < params.min_rel_improvement * np.maximum(prev[run], 1e-12)
        prev[run] = obj
        if params.min_rel_improvement > 0:
            run = run[~done]
            if not run.size:
                break
    if basis is not None:
        D = basis @ D
    return D, X, [np.asarray(tr) for tr in traces]


def ksvd(Y, params: TrainParams, init: np.ndarray | None = None, atom_labels=None, probe=None):
    """Alternating sparse coding and per-atom rank-1 dictionary updates.

    Each iteration codes every column with the sparsity bound T, then updates
    every atom (and its coefficient row) against the residual restricted to
    the columns that use it; the update stage never increases the objective
    for fixed supports. Unused atoms are replaced by the currently
    worst-represented sample, normalized. Returns ``(dictionary, codes,
    objective_trace)``. This is one problem of the stacked K-SVD.

    ``probe``, when given, is called as ``probe(iteration, obj_after_coding,
    obj_after_update)`` (a testing hook).
    """
    Y = _check_training_matrix(Y)
    d, s = Y.shape
    k = params.resolved_k(s)
    if init is None:
        rng = np.random.default_rng(params.seed)
        init = Y[:, rng.choice(s, size=k, replace=s < k)]
    else:
        init = np.asarray(init, dtype=float)
        if init.shape != (d, k):
            raise ValueError(f"init must have shape ({d}, {k}), got {init.shape}")
    if atom_labels is None:
        atom_labels = np.zeros(k, dtype=int)
    hook = None
    if probe is not None:
        def hook(it, before, after):
            probe(it, float(before[0]), float(after[0]))
    D, X, traces = _ksvd_stack(np.concatenate([Y, init], axis=1)[None], s, params, hook)
    return Dictionary.from_matrix(D[0], atom_labels), X[0], traces[0]


def _ridge_fit(targets: np.ndarray, X: np.ndarray, lam: float = _RIDGE_LAMBDA) -> np.ndarray:
    """Solve min ||targets - M X||_F^2 + lam ||M||_F^2 for M (for each
    matrix of a stack ``X``)."""
    k = X.shape[-2]
    gram = X @ X.mT + lam * np.eye(k)
    return np.linalg.solve(gram, X @ targets.T).mT


def _atoms_per_class(sample_labels: np.ndarray, k: int) -> dict[int, int]:
    """Proportional allocation with at least one atom per class, summing to k."""
    s = sample_labels.shape[0]
    counts = {cid: int(np.sum(sample_labels == cid)) for cid in CLASS_IDS}
    for cid, n in counts.items():
        if n == 0:
            raise ValueError(f"class id {cid} has zero samples")
    raw = {cid: k * n / s for cid, n in counts.items()}
    alloc = {cid: int(np.floor(v)) for cid, v in raw.items()}
    rem = k - sum(alloc.values())
    by_frac = sorted(CLASS_IDS, key=lambda c: (-(raw[c] - alloc[c]), c))
    for cid in by_frac[:rem]:
        alloc[cid] += 1
    for cid in CLASS_IDS:  # enforce >= 1 atom per class
        while alloc[cid] == 0:
            donor = max(CLASS_IDS, key=lambda c: alloc[c])
            alloc[donor] -= 1
            alloc[cid] += 1
    return alloc


def _init_stack(Y: np.ndarray, sample_labels: np.ndarray, params: TrainParams):
    """:func:`init_lcksvd` for a stack of training matrices (P, d, s) that
    share their labels, so every problem draws the same sample columns.
    Returns ``(D0, scales, X0, A0, W0, atom_labels)``."""
    if sample_labels.shape[0] != Y.shape[2]:
        raise ValueError("one label per training column required")
    k = params.resolved_k(Y.shape[2])
    alloc = _atoms_per_class(sample_labels, k)

    rng = np.random.default_rng(params.seed)
    chosen: list[int] = []
    atom_labels: list[int] = []
    for cid in CLASS_IDS:
        pool = np.flatnonzero(sample_labels == cid)
        take = alloc[cid]
        picks = rng.choice(pool, size=take, replace=take > pool.size)
        chosen.extend(int(p) for p in picks)
        atom_labels.extend([cid] * take)

    D0, scales = normalize_columns(Y[:, :, chosen])
    X0 = _code(D0, Y, np.einsum("pds,pds->ps", Y, Y), params.resolved_t(k))
    lm = build_label_matrices(sample_labels, atom_labels)
    return D0, scales, X0, _ridge_fit(lm.Q, X0), _ridge_fit(lm.H, X0), np.asarray(atom_labels)


def init_lcksvd(Y, sample_labels, params: TrainParams):
    """Seeded initialization for label-consistent training.

    Initial atoms are drawn per class from that class's samples (without
    replacement when possible) and normalized; A and W start from ridge
    regressions of the label matrices onto the initial codes. Returns
    ``(D0, X0, A0, W0)``.
    """
    Y = _check_training_matrix(Y)
    D0, scales, X0, A0, W0, atom_labels = _init_stack(Y[None], as_label_array(sample_labels), params)
    return Dictionary(atoms=D0[0], atom_labels=atom_labels, scales=scales[0]), X0[0], A0[0], W0[0]


def lcksvd_train(Y, sample_labels, params: TrainParams, mode: str) -> DiscriminativeDictionary:
    """Label-consistent dictionary learning: one problem of
    :func:`lcksvd_train_stack`."""
    Y = _check_training_matrix(Y)
    return lcksvd_train_stack(Y[None], sample_labels, params, mode)[0]


def lcksvd_train_stack(Y, sample_labels, params: TrainParams, mode: str) -> list[DiscriminativeDictionary]:
    """Label-consistent dictionary learning for a stack of training matrices
    ``Y`` (P, d, s) whose columns share ``sample_labels``, such as the block
    positions of one training split; one model per matrix.

    Runs K-SVD on the stacked system [Y; sqrt(alpha) Q] (mode "lcksvd1") or
    [Y; sqrt(alpha) Q; sqrt(beta) H] (mode "lcksvd2") with the stacked
    dictionary [D; sqrt(alpha) A; sqrt(beta) W]; zero-weighted rows are left
    out entirely, so alpha = beta = 0 reduces to plain K-SVD on Y. After
    training the stack is split and renormalized so dictionary atoms have
    unit norm, with A and W rescaled by the same factors.
    """
    if mode not in ("lcksvd1", "lcksvd2"):
        raise ValueError(f"mode must be 'lcksvd1' or 'lcksvd2', got {mode!r}")
    Y = _check_training_matrix(Y, ndim=3)
    sample_labels = as_label_array(sample_labels)
    D0, _, _, A0, W0, atom_labels = _init_stack(Y, sample_labels, params)
    lm = build_label_matrices(sample_labels, atom_labels)

    P, d, s = Y.shape
    k = atom_labels.shape[0]
    use_q = params.alpha > 0
    use_h = mode == "lcksvd2" and params.beta > 0
    # the stacked system [Y, init], written once
    parts = [(Y, D0)]
    if use_q:
        parts.append((np.sqrt(params.alpha) * lm.Q, np.sqrt(params.alpha) * A0))
    if use_h:
        parts.append((np.sqrt(params.beta) * lm.H, np.sqrt(params.beta) * W0))
    Z = np.empty((P, sum(y.shape[-2] for y, _ in parts), s + k))
    pos = 0
    for y, init in parts:
        rows = y.shape[-2]
        Z[:, pos : pos + rows, :s] = y
        Z[:, pos : pos + rows, s:] = init
        pos += rows

    learned, X, traces = _ksvd_stack(Z, s, params)
    at, _ = normalize_columns(learned)
    d_final, norms = normalize_columns(at[:, :d])
    safe = np.where(norms < DEGENERATE_NORM, 1.0, norms)

    # The stacked rows hold sqrt(alpha) * A and sqrt(beta) * W; divide the
    # weights back out so A maps codes onto Q (and W onto H) directly.
    if use_q:
        A0 = at[:, d : d + k] / (np.sqrt(params.alpha) * safe[:, None, :])
    if use_h:
        W0 = at[:, d + k * use_q :] / (np.sqrt(params.beta) * safe[:, None, :])
    return [
        DiscriminativeDictionary(
            D=Dictionary(atoms=d_final[p], atom_labels=atom_labels, scales=norms[p]),
            A=A0[p],
            W=W0[p] if mode == "lcksvd2" else None,
            mode=mode,
            objective_trace=traces[p],
            codes=X[p],
        )
        for p in range(P)
    ]

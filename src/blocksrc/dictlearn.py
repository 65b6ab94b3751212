"""K-SVD dictionary learning and its label-consistent extensions.

LC-KSVD stacks label-consistency rows (and, in mode 2, classifier rows) onto
the data matrix and runs the plain K-SVD alternation on the stacked system;
the label rows shape the atoms, and only the data rows are kept, as the
dictionary ``D`` that every decision rule reads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .blocks import check_training_labels
from .labels import CLASS_IDS, as_label_array
from .solvers import DEGENERATE_NORM, Dictionary, batch_omp, normalize_columns

MODES = ("none", "lcksvd1", "lcksvd2")

_RIDGE_LAMBDA = 1e-3
# A problem whose objective after the atom update is at most this share of
# ||[Y, init]||_F^2 is solved: what is left is rounding, not learning
_OBJ_FLOOR = 1e-12


def _integer(v):  # a bool is an int subclass, but never a count, a size or a seed
    return None if isinstance(v, (int, np.integer)) and not isinstance(v, bool) else ("an integer", v)


def _number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return "a number", v
    # an int past the float range is refused too: it overflows where read as a float
    return None if abs(v) <= sys.float_info.max else ("finite", v)


# per declared field type: None for a value of it, else what the value
# must be and the value, or the element of a tuple, that is not
_TYPE_CHECKS = {
    "int": _integer,
    "int | None": lambda v: None if v is None else _integer(v),
    "tuple[int, ...]": lambda v: (next(filter(None, map(_integer, v)), None) if isinstance(v, tuple)
                                  else ("a tuple of integers", v)),
    "float": _number,
    "bool": lambda v: None if isinstance(v, bool) else ("a boolean", v),
    "str": lambda v: None if isinstance(v, str) else ("a string", v),
}


@cache
def _field_checks(cls) -> tuple:
    return tuple((f.name, _TYPE_CHECKS[f.type]) for f in fields(cls))


def check_field_types(settings, prefix: str) -> None:
    """Refuse a field of the settings dataclass ``settings`` whose value is
    not of its declared type, naming it as ``<prefix> <key>``: an integer
    that is not a bool (``int | None`` also takes None), a tuple of such
    integers, a finite number that is not a bool, a bool or a str."""
    for name, check in _field_checks(type(settings)):
        bad = check(getattr(settings, name))
        if bad:
            raise ValueError(f"{prefix} {name} must be {bad[0]}, got {bad[1]!r}")


@dataclass(frozen=True)
class TrainParams:
    """Dictionary learning knobs.

    ``K`` is the atom count (None means one atom per training sample), ``T``
    the sparsity bound used during coding (capped at K - 1), ``alpha`` the
    weight on the label-consistency term and ``beta`` the weight on the
    classification term. K-SVD stops early once an iteration improves the
    objective by less than ``min_rel_improvement`` of its previous value, or
    once the objective is at most ``1e-12·||[Y, init]||_F²`` (rounding
    level). A non-positive ``min_rel_improvement`` disables both stops. With
    the stops on and K equal to the training count, LC-KSVD builds its
    optimum in closed form and runs no K-SVD iteration.
    """

    K: int | None = None
    T: int = 16
    alpha: float = 1.0
    beta: float = 1.0
    iterations: int = 30
    seed: int = 20
    min_rel_improvement: float = 1e-5

    def __post_init__(self):
        check_field_types(self, "train param")
        if self.K is not None and self.K < 2:
            raise ValueError("K must be >= 2 (at least one atom per class)")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        for key in ("alpha", "beta", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"train param {key} must be >= 0, got {getattr(self, key)!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def resolved_k(self, n_samples: int) -> int:
        k = self.K if self.K is not None else n_samples
        if k < 2:
            raise ValueError("resolved K must be >= 2")
        return k

    def resolved_t(self, k: int) -> int:
        return max(1, min(self.T, k - 1))

    def closed_form(self, n_samples: int) -> bool:
        """Whether training on ``n_samples`` samples builds the K = s
        optimum in closed form, rather than running K-SVD."""
        return self.K in (None, n_samples) and self.min_rel_improvement > 0


@dataclass(frozen=True)
class LabelMatrices:
    """Discriminative code targets Q (atoms x samples) and one-hot labels H."""

    Q: np.ndarray
    H: np.ndarray


@dataclass(frozen=True)
class DiscriminativeDictionary:
    """A block grid's dictionaries ``D``, one (P, d, n) stack, the mode that
    learned them, and per position the stacked training objective after
    each K-SVD iteration (one entry for the closed form, none for mode
    "none", the default). The label and classifier rows that LC-KSVD trains
    beside ``D`` only shape it and are not kept.
    """

    D: Dictionary
    mode: str
    objective_traces: tuple | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.D.atoms.ndim != 3:
            raise ValueError(f"a block grid's atoms must be a (P, d, n) stack, got shape {self.D.atoms.shape}")
        P = self.D.atoms.shape[0]
        traces = [()] * P if self.objective_traces is None else self.objective_traces
        if len(traces) != P:
            raise ValueError(f"expected one objective trace per position ({P}), got {len(traces)}")
        object.__setattr__(self, "objective_traces", tuple(np.asarray(t, dtype=float) for t in traces))


def build_label_matrices(sample_labels, atom_labels) -> LabelMatrices:
    """Q[k, m] = 1 iff atom k and sample m share a class; H is one-hot."""
    sample_labels = as_label_array(sample_labels)
    atom_labels = as_label_array(atom_labels)
    Q = (atom_labels[:, None] == sample_labels[None, :]).astype(float)
    H = np.zeros((len(CLASS_IDS), sample_labels.shape[0]))
    H[sample_labels, np.arange(sample_labels.shape[0])] = 1.0
    return LabelMatrices(Q=Q, H=H)


def _check_training_matrix(Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 3 or 0 in Y.shape:
        raise ValueError(f"training stack must be non-empty 3-d, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise ValueError("training stack contains non-finite values")
    return Y


def _code(D: np.ndarray, Y: np.ndarray, ysq: np.ndarray, t: int) -> np.ndarray:
    """Sparsity-bound codes of a stack of signal matrices on a stack of
    dictionaries; atoms whose norm is below ``DEGENERATE_NORM`` are skipped."""
    Dt = D.mT
    usable = np.linalg.norm(D, axis=1) >= DEGENERATE_NORM
    X, _ = batch_omp(Dt @ D, Dt @ Y, ysq, usable, t)
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
    or normalized columns of ``Y``, so they never leave ``span(Z)``: the
    alternation runs on the coordinates ``R`` of ``Z = basis R`` (basis
    orthonormal, so every norm and inner product is unchanged) and the atoms
    are mapped back at the end. Returns ``(atoms (P, rows, k), codes (P, k,
    s), traces)``.
    """
    P, _, m = Z.shape
    k = m - s
    t = params.resolved_t(k)
    Z[:, :, s:], _ = normalize_columns(Z[:, :, s:])
    floor = _OBJ_FLOOR * np.einsum("prm,prm->p", Z, Z)
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
        unused = ~Xr.any(axis=2)
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
    return basis @ D, X, [np.asarray(tr) for tr in traces]


def _ridge_fit(targets: np.ndarray, X: np.ndarray, lam: float = _RIDGE_LAMBDA) -> np.ndarray:
    """Solve min ||targets - M X||_F^2 + lam ||M||_F^2 for M (for each
    matrix of a stack ``X``)."""
    k = X.shape[-2]
    gram = X @ X.mT + lam * np.eye(k)
    return np.linalg.solve(gram, X @ targets.T).mT


def _check_labels(sample_labels: np.ndarray, s: int) -> None:
    if sample_labels.shape[0] != s:
        raise ValueError("one label per training column required")
    check_training_labels(sample_labels)


def _draw_atoms(sample_labels: np.ndarray, s: int, params: TrainParams):
    """Seeded per-class draw of the initial atoms' training columns, in
    proportion to class size and without replacement where a class has
    enough samples, so at K = s it is a permutation of the columns. Each
    class takes the floor of its share ``K·count/s`` of the K atoms, the
    one atom the floors leave goes to the larger remainder (the benign
    class on a tie), and each class keeps at least one atom. Returns
    ``(chosen columns, atom labels)``."""
    _check_labels(sample_labels, s)
    k = params.resolved_k(s)
    raw = k * np.bincount(sample_labels, minlength=len(CLASS_IDS)) / s
    take = np.floor(raw).astype(int)
    if take.sum() < k:
        take[np.argmax(raw - take)] += 1
    take = np.clip(take, 1, k - 1)
    rng = np.random.default_rng(params.seed)
    chosen: list[int] = []
    atom_labels: list[int] = []
    for cid in CLASS_IDS:
        pool = np.flatnonzero(sample_labels == cid)
        picks = rng.choice(pool, size=take[cid], replace=take[cid] > pool.size)
        chosen.extend(int(p) for p in picks)
        atom_labels.extend([cid] * take[cid])
    return np.asarray(chosen), np.asarray(atom_labels)


def _closed_form(Y: np.ndarray, sample_labels: np.ndarray, params: TrainParams, mode: str):
    """The K = s optimum (see :func:`lcksvd_train_stack`), returned as by :func:`_ksvd_split`;
    a degenerate block's atom codes nothing, so its label rows count in full."""
    _check_labels(sample_labels, Y.shape[2])
    atoms, scales = normalize_columns(Y)
    usable = scales >= DEGENERATE_NORM
    E = atoms * np.where(usable, scales, 0.0)[:, None, :]  # each usable atom codes its block with 1
    E -= Y  # in place: one (P, d, s) temporary, not two
    lm = build_label_matrices(sample_labels, sample_labels)
    rows = [np.sqrt(params.alpha) * lm.Q]
    if mode == "lcksvd2":
        rows.append(np.sqrt(params.beta) * lm.H)
    lost = sum(np.sum(R * R, axis=0) for R in rows)
    obj = np.einsum("prs,prs->p", E, E) + np.where(usable, 0.0, lost).sum(axis=1)
    return sample_labels, atoms, scales, list(obj[:, None])


def _ksvd_split(Y: np.ndarray, sample_labels: np.ndarray, params: TrainParams, mode: str):
    """K-SVD on the stacked system from a seeded draw; returns its data rows
    as ``(atom_labels, atoms, scales, traces)``.

    The initial atoms ``D0`` are the drawn training columns, normalized;
    ``A0`` and ``W0``, ridge regressions of the label matrices onto the
    codes ``X0`` of the signals on ``D0``, start the label and classifier
    rows."""
    P, d, s = Y.shape
    chosen, atom_labels = _draw_atoms(sample_labels, s, params)
    lm = build_label_matrices(sample_labels, atom_labels)
    k = atom_labels.shape[0]
    D0, _ = normalize_columns(Y[:, :, chosen])
    X0 = _code(D0, Y, np.einsum("pds,pds->ps", Y, Y), params.resolved_t(k))
    # the stacked system [Y, init], written once
    parts = [(Y, D0)]
    if params.alpha > 0:
        parts.append((np.sqrt(params.alpha) * lm.Q, np.sqrt(params.alpha) * _ridge_fit(lm.Q, X0)))
    if mode == "lcksvd2" and params.beta > 0:
        parts.append((np.sqrt(params.beta) * lm.H, np.sqrt(params.beta) * _ridge_fit(lm.H, X0)))
    Z = np.empty((P, sum(y.shape[-2] for y, _ in parts), s + k))
    pos = 0
    for y, init in parts:
        rows = y.shape[-2]
        Z[:, pos : pos + rows, :s] = y
        Z[:, pos : pos + rows, s:] = init
        pos += rows

    learned, _, traces = _ksvd_stack(Z, s, params)
    at, _ = normalize_columns(learned)
    d_final, norms = normalize_columns(at[:, :d])
    return atom_labels, d_final, norms, traces


def lcksvd_train_stack(Y, sample_labels, params: TrainParams, mode: str) -> DiscriminativeDictionary:
    """Label-consistent dictionary learning for a stack of training matrices
    ``Y`` (P, d, s) whose columns share ``sample_labels``, such as the block
    positions of one training split; one model holds every matrix's
    dictionary and trace.

    Runs K-SVD on the stacked system [Y; sqrt(alpha) Q] (mode "lcksvd1") or
    [Y; sqrt(alpha) Q; sqrt(beta) H] (mode "lcksvd2") with the stacked
    dictionary [D; sqrt(alpha) A; sqrt(beta) W], started from a seeded
    per-class draw of training columns (see :func:`_ksvd_split`);
    zero-weighted rows are left out entirely, so alpha = beta = 0 reduces to
    plain K-SVD on Y. The model keeps the trained stack's data rows,
    renormalized to unit atoms with their norms as scales; each matrix's
    trace is its stacked objective.

    When K equals the training count and the stops are on
    (``min_rel_improvement > 0``), the optimum is built in closed form: the
    dictionary is ``Dictionary.from_matrix(Y, sample_labels)`` byte for
    byte, in training order (atom c is block c, with its label and scale
    ``||y_c||``), and each usable atom codes its own block alone. The
    one-entry trace is that optimum's objective: rounding level on the data
    rows, plus the weighted label rows of every degenerate block, which its
    atom cannot code. Any other K, or a non-positive
    ``min_rel_improvement``, runs K-SVD from a seeded draw.
    """
    if mode not in ("lcksvd1", "lcksvd2"):
        raise ValueError(f"mode must be 'lcksvd1' or 'lcksvd2', got {mode!r}")
    Y = _check_training_matrix(Y)
    sample_labels = as_label_array(sample_labels)
    fit = _closed_form if params.closed_form(Y.shape[2]) else _ksvd_split
    atom_labels, atoms, scales, traces = fit(Y, sample_labels, params, mode)
    return DiscriminativeDictionary(Dictionary(atoms=atoms, atom_labels=atom_labels, scales=scales), mode, traces)

"""Sparse-coding kernels.

Column normalization, greedy pursuit with a sparsity bound, noise-constrained
l1 minimization, and class-restricted residual diagnostics. Everything here is
a pure function of its inputs; reduction order is fixed by index, so identical
inputs give identical outputs and concurrent callers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import CLASS_IDS, as_label_array, class_name

DEGENERATE_NORM = 1e-12
L1_LOG_FLOOR = 1e-12

_OMP_PROGRESS_TOL = 1e-13
# an atom whose Schur complement against a support (its squared distance from
# the support's span, for unit atoms) is at most this never joins it
_SPAN_TOL = 1e-10
# a least-squares code is solved from its Gram only where the Gram's
# Cholesky pivots satisfy min p^2 > _GRAM_PIVOT_TOL * max p^2. For unit atoms
# p_j^2 is atom j's Schur complement against the atoms before it (the number
# _SPAN_TOL bounds), and kappa(G) >= max p^2 / min p^2, near equality when
# one atom is close to the span of the others. The normal equations' forward
# error is about kappa(G) u = kappa(A)^2 u; with u = 1.1e-16 this bound
# keeps it at 1.1e-11 where the pivots measure kappa, which leaves a
# factor of 10 under 1e-10 for Grams whose pivots understate it
_GRAM_PIVOT_TOL = 1e-5
# rows of H per block of a rank-1 update, which bounds its temporary
_UPDATE_ROWS = 8
# steps for which the l1 walk holds its rank-1 terms pending before it
# applies them to H as one product
_PENDING = 8
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def normalize_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each column of ``M`` to unit l2 norm.

    ``M`` is a matrix or a stack of matrices along its leading axes. Columns
    whose norm falls below ``DEGENERATE_NORM`` are zeroed instead of divided
    by a tiny number; they are flagged degenerate downstream through the
    returned scales. Returns ``(normalized, scales)`` where ``scales`` holds
    the original column norms. The normalized array is the one full-size
    array made: it takes the squares, then the quotients.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or 0 in M.shape:
        raise ValueError(f"expected a non-empty matrix or stack of matrices, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite values")
    # the squares' sums as np.linalg.norm takes them
    out = M * M
    scales = np.sqrt(np.add.reduce(out, axis=-2))
    degenerate = (scales < DEGENERATE_NORM)[..., None, :]
    np.divide(M, np.where(degenerate, 1.0, scales[..., None, :]), out=out)
    if degenerate.any():
        out[np.broadcast_to(degenerate, out.shape)] = 0.0
    return out, scales


@dataclass(frozen=True)
class Dictionary:
    """Column-atom dictionary with per-atom class labels: one block
    position's atoms (d, n), or a block grid's stack of them (P, d, n) with
    scales (P, n) and one label vector (n,) that every position shares. The
    properties read the trailing axes.

    Non-degenerate columns have unit l2 norm; degenerate columns (original
    norm below ``DEGENERATE_NORM``) are all-zero and never selected by the
    solvers. ``scales`` records pre-normalization column norms.
    """

    atoms: np.ndarray
    atom_labels: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        labels = as_label_array(self.atom_labels)
        scales = np.asarray(self.scales, dtype=float)
        if atoms.ndim not in (2, 3) or 0 in atoms.shape:
            raise ValueError(f"atoms must be a non-empty (d, n) or (P, d, n) array, got shape {atoms.shape}")
        n = atoms.shape[-1]
        if labels.shape != (n,):
            raise ValueError(f"atom_labels must have length {n}, got {labels.shape}")
        if scales.shape != atoms.shape[:-2] + (n,):
            raise ValueError(f"scales must have shape {atoms.shape[:-2] + (n,)}, got {scales.shape}")
        if not (np.isfinite(atoms).all() and np.isfinite(scales).all()):
            raise ValueError("dictionary atoms and scales must be finite")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "atom_labels", labels)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def from_matrix(cls, M: np.ndarray, atom_labels) -> "Dictionary":
        atoms, scales = normalize_columns(M)
        return cls(atoms=atoms, atom_labels=np.asarray(atom_labels), scales=scales)

    @property
    def dim(self) -> int:
        return self.atoms.shape[-2]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[-1]

    @property
    def degenerate(self) -> np.ndarray:
        return self.scales < DEGENERATE_NORM

    @property
    def usable(self) -> np.ndarray:
        return ~self.degenerate


def check_signals(Y, lead: tuple) -> np.ndarray:
    """``Y`` as finite float signals of shape ``lead + (m,)``."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != len(lead) + 1 or Y.shape[:-1] != lead:
        raise ValueError(f"expected signals of shape ({', '.join(map(str, lead))}, m), got {Y.shape}")
    if not np.isfinite(Y).all():
        raise ValueError("signals contain non-finite values")
    return Y


def check_mask(allowed, n: int, m: int) -> np.ndarray:
    """``allowed`` as the boolean atom mask (n, m) of ``m`` columns on ``n``
    atoms; None allows every atom to every column."""
    if allowed is None:
        return np.ones((n, m), dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if allowed.shape != (n, m):
        raise ValueError(f"expected an atom mask of shape ({n}, {m}), got {allowed.shape}")
    return allowed


def batch_omp(G: np.ndarray, B: np.ndarray, ysq: np.ndarray, usable: np.ndarray, T: int):
    """Batch-OMP (Rubinstein, Zibulevsky & Elad 2008) over a stack of P
    independent coding problems, in atom space.

    Problem ``p`` codes ``s`` signals given only the Gram matrix ``G[p] =
    D^T D`` (n x n), the correlations ``B[p] = D^T Y`` (n x s) and the
    squared signal norms ``ysq[p]``; only atoms with ``usable[p]`` may be
    picked. A column takes at most ``T`` atoms and stops early once its
    squared residual norm (read as below) is not positive; a zero signal
    takes none. Per step every live column takes the argmax of ``|B - G X|`` over its
    unblocked atoms and stops if that pick lies numerically in the span of
    its support. Each live column keeps ``H``, the inverse of its support
    Gram, in the leading slots of a zero stack, so the span test reads ``w =
    H g`` and ``sigma = 1 - g^T w`` (``g`` the pick's Gram column on the
    support; stop if ``sigma`` is at most ``_SPAN_TOL``), a pick that passes
    borders ``H`` at once by the rank-1 term of :func:`_slot_term`, which
    :func:`_flush` applies as a single term, a ``U`` of one row (the l1
    path makes and applies its terms through the same two, on a zero stack
    read through its leading view as this one is), and the refit is ``x_I =
    H b_I`` (evaluated as the step ``x_old + H c_I`` along the correlations
    ``c = B - G X`` of the pick, which keeps the rounding of ``H`` from being
    magnified by ``||H|| ||b_I|| / ||x_I||``): no step solves a system or
    gathers a support Gram. The residual norm follows from ``||y||^2 - x_I^T
    (D^T y)_I``, so nothing grows with the signal length. Columns retire as
    they stop, with no final refit.
    Returns codes ``(P, n, s)`` and support sizes ``(P, s)``.
    """
    P, n, s = B.shape
    t_max = min(int(T), int(usable.sum(axis=1).max()))
    X = np.zeros((P, n, s))
    blocked = np.repeat(~usable[:, :, None], s, axis=2)
    sizes = np.zeros((P, s), dtype=int)
    # live columns, as (problem, column) pairs, all hold supports of size t
    # at step t; their supports and inverse Grams are compacted as columns
    # retire, and a step works on the leading (t + 1) x (t + 1) window of H,
    # whose free slots are zero
    prob, col = np.nonzero(ysq > 0)
    supp = np.zeros((prob.size, t_max), dtype=int)
    H = np.zeros((prob.size, t_max, t_max))
    for t in range(t_max):
        if not prob.size:
            break
        corr = B[prob, :, col] - (G @ X)[prob, :, col]
        mag = np.abs(corr)
        mag[blocked[prob, :, col]] = 0.0
        pick = np.argmax(mag, axis=1)
        ar = np.arange(prob.size)
        # test the pick against the old support first: a pick in its span,
        # such as an exact duplicate, would make the new Gram singular (slot
        # t's zero row gives w a zero there)
        g = G[prob[:, None], supp[:, :t], pick[:, None]]
        w = (H[:, : t + 1, :t] @ g[..., None])[..., 0]
        sigma = 1.0 - np.einsum("ct,ct->c", g, w[:, :t])
        ok = (mag[ar, pick] > _OMP_PROGRESS_TOL) & (sigma > _SPAN_TOL)
        if not ok.all():
            prob, col, pick, corr, w, sigma, supp, H = (
                a[ok] for a in (prob, col, pick, corr, w, sigma, supp, H)
            )
            ar = np.arange(prob.size)
        supp[:, t] = pick
        sizes[prob, col] = t + 1
        blocked[prob, pick, col] = True
        Ht = H[:, : t + 1, : t + 1]
        # every pick enters slot t, and none leaves
        z, alpha = _slot_term(np.full(len(w), t), w, sigma, np.zeros(len(w), dtype=bool), w[:0])
        _flush(Ht, z[:, None, :], alpha[:, None])
        # the refit x_I = H b_I, taken as x_old + H c_I so that the rounding
        # of H is not magnified by ||H|| ||b_I|| / ||x_I||
        I = supp[:, : t + 1]
        rows, cols = prob[:, None], col[:, None]
        x = X[rows, I, cols] + (Ht @ corr[ar[:, None], I][..., None])[..., 0]
        X[rows, I, cols] = x
        r2 = ysq[prob, col] - np.einsum("ct,ct->c", x, B[rows, I, cols])
        keep = r2 > 0
        if not keep.all():
            prob, col, supp, H = prob[keep], col[keep], supp[keep], H[keep]
    return X, sizes


def _slot_term(k: np.ndarray, w: np.ndarray, sigma: np.ndarray, leave: np.ndarray, hk: np.ndarray):
    """The rank-1 term ``alpha z z^T`` by which ``H``, a stack (c, t, t) of
    inverse slot Grams whose free slots are zero, changes at slot ``k[i]``
    of column ``i``. Returns ``(z, alpha)``.

    An atom enters the free slot ``k`` with ``z = w - e_k`` and ``alpha = 1 /
    sigma``, from the span test's ``w = H g`` (zero at ``k``) and ``sigma = 1
    - g^T w``: the bordered inverse of the grown Gram. Where the mask
    ``leave`` holds, the atom in slot ``k`` leaves instead, with ``z = H
    e_k`` (given as ``hk``, one row per leaving column) and ``alpha = -1 /
    H_kk``: a Schur downdate, which leaves the slot's row and column zero up
    to rounding, so the caller zeroes them exactly. ``w`` is overwritten.
    """
    w[leave] = hk
    pivot = np.where(leave, -w[np.arange(len(w)), k], sigma)
    w[~leave, k[~leave]] = -1.0
    return w, 1.0 / pivot


def _inverse_times(H: np.ndarray, U: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(H + U^T diag(a) U) x`` per column: the stack (c, t, t) ``H`` with
    the pending terms, one per row of ``U`` (c, p, t) and entry of ``a`` (c,
    p), applied to ``x`` (c, t)."""
    y = (H @ x[..., None])[..., 0]
    if a.shape[1]:
        y += ((a * (U @ x[..., None])[..., 0])[:, None, :] @ U)[:, 0]
    return y


def _flush(H: np.ndarray, U: np.ndarray, a: np.ndarray) -> None:
    """Apply the rank-1 terms of :func:`_slot_term`, one per row of ``U``
    (c, p, t) and entry of ``a`` (c, p), to ``H`` (c, t, t) in place, as
    ``H += U^T diag(a) U``: the l1 walk's pending terms, or Batch-OMP's one
    entering term. A block of rows at a time in one temporary, so the
    product takes a fraction of H's memory."""
    t = H.shape[1]
    block = np.empty((len(H), min(_UPDATE_ROWS, t), t))
    for r in range(0, t, _UPDATE_ROWS):
        part = block[:, : min(_UPDATE_ROWS, t - r)]
        np.matmul(U[:, :, r : r + _UPDATE_ROWS].transpose(0, 2, 1) * a[:, None, :], U, out=part)
        H[:, r : r + _UPDATE_ROWS] += part


def _l1_paths(Gp: np.ndarray, B: np.ndarray, ysq: np.ndarray, eps: np.ndarray, slots: int, allowed: np.ndarray):
    """Follow the l1 (lasso) paths of several signals in lockstep, in atom
    space, each down to ``||Ax - y|| = eps``.

    Only the Gram ``G = A^T A`` of the usable unit atoms, given padded as
    ``Gp`` (n + 1 x n + 1, a zero last row and column), ``B = A^T Y``,
    given padded likewise as (n + 1 x m) with a zero last row, the squared
    signal norms ``ysq`` and the bounds ``eps`` are read. The atom mask
    ``allowed`` (n x m) gives the atoms each column may use: every entrant
    is an allowed one, so a column walks the path of its own atoms alone,
    and columns of several dictionaries that share one atom set walk
    together from one ``G``. Each path starts from ``x = 0`` and an empty
    support at ``lam``, the largest ``|b_j|`` over its allowed atoms, and
    lowers ``lam`` piecewise linearly (Osborne, Presnell & Turlach 2000).
    Its first step has length 0: the atom of that largest ``|b_j|`` enters
    (Efron, Hastie, Johnstone & Tibshirani 2004) through the same span test
    and rank-1 term as every later entrant, and ``steps`` do not count it.
    Per step, with
    ``c = B - G x`` and ``v`` the active set's ``G_AA^{-1} sign``, the
    coefficients move along ``v``, the correlations along ``a = G v`` (so
    ``c`` is carried as ``c - gamma a``, as LARS carries it, not formed
    again from the code), and ``r.u = c^T v``, ``||u||^2 = sign^T v`` and
    the carried ``excess = ||r||^2 - eps^2`` give where the residual norm
    meets ``eps``; the step lowers ``excess`` by ``gamma (2 r.u - gamma
    ||u||^2)``. The step ends where an atom enters, an active coefficient
    crosses zero (the atom leaves) or the residual norm reaches ``eps``.

    A column's active atoms sit in fixed slots of ``slots``. The walk keeps
    each column's signs, coefficients and direction ``v`` on its slots (c,
    slots), and a mask (n, c) of the allowed atoms that are not active, so
    a step gathers none of them and holds no code in atom space. The two
    ratio tests take their minima over ``np.fmax(ratio, ~mask * big)``,
    ``big`` the largest finite float, so a masked ratio (which may be a 0/0
    or a division by zero, inside one ``np.errstate`` around the walk)
    reads as a finite sentinel that no event's ratio reaches, without a
    masked select.
    Each column keeps ``H``, the inverse of its slot Gram, whose free slots
    stay exactly zero: an entering atom borders it by a rank-1 term from ``w
    = H g`` and ``sigma = 1 - g^T w``, the numbers of the span test
    (Rubinstein, Zibulevsky & Elad 2008), and a leaving atom is removed by a
    Schur downdate (both terms from :func:`_slot_term`), so no step solves
    a system. A term ``alpha z z^T`` stays pending for up to ``_PENDING``
    steps, as a row of ``U`` (c, _PENDING, slots) and an entry of ``a``; the
    walk reads the inverse as ``H + U^T diag(a) U``, and every ``_PENDING``
    steps the pending terms are applied to ``H`` as one product
    (:func:`_flush`), so ``H`` is rewritten once per ``_PENDING`` steps, not
    three times per step. ``w`` (:func:`_inverse_times`) is a step's one
    product with the inverse: ``v`` follows each event's own term, as LARS
    carries it, to ``v + z (alpha z^T s' - s_k)`` with ``s'`` the new signs
    and ``s_k`` the sign of an atom that leaves slot ``k`` (zero where one
    enters), and is formed again as ``H sign`` after each flush, so its
    carried rounding spans at most ``_PENDING`` events. A leaving atom's
    slot row and column are zeroed at once, in ``H`` and in ``U``, and its
    entry of ``v``, so ``v``, ``w`` and the coefficients stay exactly zero
    on free slots and no spurious exit appears.
    The inverses live in one zero stack (m, slots, slots), as Batch-OMP
    keeps its own: a step works on its leading view (c, T, T), ``T`` the
    slots up to the highest any column has used plus one for an entrant (at
    most ``slots``), and a retiring column's place (and its pending terms)
    is taken by a live one from the end.
    A column retires once its path ends and writes its code from its slots.
    A feasible one keeps its final slots and signs, and after the walk,
    with the stack and ``U`` released, every feasible column is refit
    exactly in one :func:`_refit` call, ``x = G_AA^{-1} (b_A - lam s_A)``
    with ``lam > 0`` where the residual norm equals ``eps``, which clears
    the drift of the updates.
    Returns ``(X, feasible, steps)``, ``X`` (n x m); ``feasible`` is False
    only where ``lam`` reached 0 first.
    """
    n, m = allowed.shape
    null = n  # a free slot holds this padded zero atom
    big = np.finfo(float).max  # a masked ratio, above every event's
    X_out = np.zeros((n + 1, m))
    feasible = np.zeros(m, dtype=bool)
    steps = np.zeros(m, dtype=int)
    eps2 = np.asarray(eps, dtype=float) ** 2

    # the live columns' state, compacted as columns retire; every path
    # starts from the empty support
    cols = np.arange(m)
    lam = np.where(allowed, np.abs(B[:n]), 0.0).max(axis=0)
    excess = ysq - eps2  # ||r||^2 - eps^2, carried along each step
    slot = np.full((m, slots), null)
    sign = np.zeros((m, slots))  # the active signs on the slots, zero on free ones
    coef = np.zeros((m, slots))  # the code on the slots
    cand = allowed.copy()  # allowed atoms that are not active: the entrants
    # slots at and above hi are free in every column; a step works on the
    # leading T = min(hi + 1, slots) of them (room for an entrant), through
    # the view H = Hf[:c, :T, :T]
    hi = 0
    Hf = np.zeros((m, slots, slots))
    # the rank-1 terms not yet applied to H: the walk reads H + U^T diag(a)
    # U, with terms 0 .. p - 1 of U (c, r, slots) and a (c, r) pending; U's
    # entries on free slots stay zero
    U = np.zeros((m, _PENDING, slots))
    a = np.zeros((m, _PENDING))
    p = 0
    # the direction (H + U^T diag(a) U) sign on the slots, carried through
    # each event and formed again after each flush
    v = np.zeros((m, slots))
    C = B.copy()  # the correlations B - G x, carried along each step
    # per retirement, the feasible columns and their final slots and signs,
    # refit after the walk
    fits = []
    stalls = np.zeros(m, dtype=int)
    step = -1  # the first entry, at gamma = 0, is not counted as a step
    with np.errstate(divide="ignore", invalid="ignore"):
        while cols.size:
            step += 1
            ar = np.arange(cols.size)
            T = min(hi + 1, slots)
            H = Hf[:, :T, :T]
            st, s, xs, vs = slot[:, :T], sign[:, :T], coef[:, :T], v[:, :T]
            Up, ap = U[:, :p, :T], a[:, :p]
            V = np.zeros((n + 1, cols.size))
            V[st, ar[:, None]] = vs
            Av = Gp @ V
            # exit where an active coefficient reaches zero; entry where |c_j
            # - g a_j| meets lam - g, at either sign of c_j (an atom that just
            # left has den < 0 at its old sign and stays out). A masked-out
            # ratio, which may divide by zero, reads as big and is never taken
            den = 1.0 - _SIGNS * Av[:n]
            num = np.maximum(lam - _SIGNS * C[:n], 0.0)
            ratio = np.fmax(-xs / vs, (xs * vs >= 0.0) * big)
            g_in = np.fmax(num / den, ~(cand & (den > 0.0)) * big)
            k_out = np.argmin(ratio, axis=1)
            g_out = ratio[ar, k_out]
            gamma = np.minimum(lam, g_out)
            negative = g_in[1] < g_in[0]
            g_in = np.minimum(g_in[0], g_in[1])
            # the cheapest entrant must leave the span of its column's support:
            # a duplicate, with its 0/0 ratio, would make the slot Gram singular
            # (in exact arithmetic it never enters before lam = 0); an entrant
            # that fails is passed over and the next one picked
            free = st == null
            room = free.any(axis=1)
            while True:
                pick = np.argmin(g_in, axis=0)
                enter = g_in[pick, ar] < gamma
                g = Gp[st, pick[:, None]]
                w = _inverse_times(H, Up, ap, g)
                sigma = 1.0 - np.einsum("ct,ct->c", g, w)
                fails = enter & ~((sigma > _SPAN_TOL) & room)
                if not fails.any():
                    break
                g_in[pick[fails], ar[fails]] = big
            gamma = np.where(enter, g_in[pick, ar], gamma)
            leave = ~enter & (g_out < lam)
            # the residual norm reaches eps: the smaller root of
            # ||r - g u||^2 = eps^2, written without cancellation
            ru = np.einsum("ic,ic->c", C, V)
            sv = np.einsum("ct,ct->c", s, vs)
            disc = ru * ru - sv * excess
            g_done = excess / (ru + np.sqrt(np.maximum(disc, 0.0)))
            done = (disc >= 0.0) & (g_done <= gamma)
            gamma = np.where(done, g_done, gamma)
            xs += gamma[:, None] * vs
            C -= gamma * Av
            excess -= gamma * (2.0 * ru - gamma * sv)
            stalls = np.where(lam - gamma >= lam, stalls + 1, 0)
            lam = lam - gamma
            # a column without an event has reached lam = 0 above eps
            fin = done | ~(enter | leave)
            if fin.any():
                f = np.flatnonzero(fin)
                X_out[slot[f], cols[f, None]] = coef[f]
                feasible[cols[f]] = done[f]
                steps[cols[f]] = step
                d = np.flatnonzero(done)
                if d.size:
                    fits.append((cols[d], slot[d], sign[d]))
                # the live columns from the end take the retirees' places
                c = cols.size - f.size
                holes = f[f < c]
                movers = np.flatnonzero(~fin[c:]) + c
                H[holes], U[holes], a[holes] = H[movers], U[movers], a[movers]
                keep = np.arange(c)
                keep[holes] = movers
                Hf, H, U, a = Hf[:c], H[:c], U[:c], a[:c]
                Up, ap = U[:, :p, :T], a[:, :p]
                cols, lam, excess, stalls = cols[keep], lam[keep], excess[keep], stalls[keep]
                C, cand = C[:, keep], cand[:, keep]
                slot, sign, coef, v = slot[keep], sign[keep], coef[keep], v[keep]
                leave, pick, negative = leave[keep], pick[keep], negative[:, keep]
                k_out, w, sigma, free = k_out[keep], w[keep], sigma[keep], free[keep]
                if not cols.size:
                    break
                ar = np.arange(cols.size)
                st, s, vs = slot[:, :T], sign[:, :T], v[:, :T]
            if (stalls > 2 * n).any():
                raise RuntimeError("l1 path stalled at a tie between atoms")
            # every live column now has one event, a leaving or an entering
            # atom, and changes H by a rank-1 term alpha z z^T (see
            # _slot_term), which stays pending; a leaving atom's slot is zeroed
            # now, in U too, or the pending terms would give the free slot
            # nonzero v, w and codes. The direction follows the same term and
            # the new signs s': v + z (alpha z^T s' - s_k) where slot k's atom,
            # of sign s_k, leaves, and v + alpha z z^T s' where one enters
            k = np.where(leave, k_out, np.argmax(free, axis=1))
            j = np.where(leave, st[ar, k], pick)
            e, gone = ar[leave], k[leave]
            hk = H[e, :, gone] + ((ap[e] * Up[e, :, gone])[:, None, :] @ Up[e])[:, 0]
            z, alpha = _slot_term(k, w, sigma, leave, hk)
            out_sign = s[ar, k]  # zero where the slot is free
            s[ar, k] = np.where(leave, 0.0, np.where(negative[j, ar], -1.0, 1.0))
            vs += z * (alpha * np.einsum("ct,ct->c", z, s) - out_sign)[:, None]
            vs[e, gone] = 0.0
            U[:, p, :T], a[:, p] = z, alpha
            p += 1
            H[e, gone, :] = 0.0
            H[e, :, gone] = 0.0
            U[e, :, gone] = 0.0
            if p == _PENDING:
                _flush(H, U[:, :p, :T], a[:, :p])
                U[:, :p] = 0.0
                p = 0
                # the direction formed again, so its rounding is carried
                # through at most _PENDING events
                vs[:] = (H @ s[..., None])[..., 0]
            coef[e, gone] = 0.0
            cand[j, ar] = leave
            st[ar, k] = np.where(leave, null, j)
            hi = max(hi, int(k.max()) + 1)
    # the inverses go before the refit's stack of Grams, of the same size
    Hf = H = U = Up = None
    if fits:
        c, sl, sg = (np.concatenate(z) for z in zip(*fits))
        X_out[sl, c[:, None]] = _refit(Gp, sl, sg, B[sl, c[:, None]], ysq[c], eps2[c])
    return X_out[:n], feasible, steps


def _refit(Gp: np.ndarray, slot: np.ndarray, sign: np.ndarray, b: np.ndarray, ysq, eps2) -> np.ndarray:
    """The exact codes, on their slots ``slot`` (c, slots), of c columns
    whose paths ended at their bounds, given their signs ``sign`` and
    correlations ``b`` on those slots (c, slots): ``x = G_AA^{-1} (b_A - lam
    s_A)`` with ``lam`` where the residual norm is ``sqrt(eps2)``. The slot
    Grams come from :func:`_slot_grams`; a free slot's sign and correlation
    are zero. One ``np.linalg.solve`` serves every column, and LAPACK solves
    each matrix of the stack on its own, so a column's code does not depend
    on which others share the call."""
    sol = np.linalg.solve(_slot_grams(Gp, slot), np.stack([b, sign], axis=2))
    x0, v = sol[..., 0], sol[..., 1]
    floor = ysq - np.einsum("ct,ct->c", b, x0)
    lam = np.sqrt(np.maximum(eps2 - floor, 0.0) / np.einsum("ct,ct->c", sign, v))
    return x0 - lam[:, None] * v


def _slot_grams(Gp: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The Grams (c, k, k) of the atoms that the rows of ``slot`` (c, k)
    index in ``Gp``, whose last atom is a padded zero atom: a slot that
    holds it reads the identity's row and column."""
    gram = Gp[slot[:, :, None], slot[:, None, :]]
    c, k = np.nonzero(slot == len(Gp) - 1)
    gram[c, k, k] = 1.0
    return gram


def _atom_sets(mask: np.ndarray):
    """The distinct atom sets among the columns of the atom mask ``mask``
    (n x m), in the order of their first columns, as padded index arrays.
    Returns ``(atoms, sizes, columns)``:
    row q of ``atoms`` holds set q's ``sizes[q]`` atoms in ascending order,
    then ``n``, and row q of ``columns`` holds the columns whose set it is in
    ascending order, then ``m``; the padding indexes the zero row and column
    that a gather pads its source with."""
    n, m = mask.shape
    # one key per column: its mask column's bits, packed into bytes
    packed = np.ascontiguousarray(np.packbits(mask, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, of = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(first)
    sets, of = mask[:, first[rank]].T, np.argsort(rank)[of]
    sizes = sets.sum(axis=1)
    # each set's atoms first, ascending, by a stable sort of the mask rows
    atoms = np.argsort(~sets, axis=1, kind="stable")[:, : sizes.max()]
    atoms[np.arange(atoms.shape[1]) >= sizes[:, None]] = n
    order = np.argsort(of, kind="stable")
    counts = np.bincount(of)
    columns = np.full((len(sets), counts.max()), m)
    columns[of[order], np.arange(m) - (np.cumsum(counts) - counts)[of[order]]] = order
    return atoms, sizes, columns


def _well_posed(gram: np.ndarray) -> np.ndarray:
    """Which Grams of the stack ``gram`` (c, k, k) are safe to solve: their
    Cholesky factor exists and its smallest pivot squared is above
    ``_GRAM_PIVOT_TOL`` times its largest."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        # one failure fails the whole stack: test each Gram alone
        if len(gram) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_well_posed(g[None]) for g in gram])
    return pivots.min(axis=1) ** 2 > _GRAM_PIVOT_TOL * pivots.max(axis=1) ** 2


def _set_plan(own: np.ndarray, d: int):
    """The index work of :func:`_least_squares` for the columns whose atoms,
    in ``d`` dimensions, the mask ``own`` (n x m) gives; it depends on the
    mask alone, so calls that share the mask share it. Returns ``(atoms,
    sizes, columns, wide, solvable, S, C)``: the atom sets of
    :func:`_atom_sets`; the indices of the wide sets (more atoms than
    dimensions) and of the others; and, for the others, their padded atom
    rows ``S`` and column rows ``C``, trimmed to their longest (both None
    where every set is wide)."""
    atoms, sizes, columns = _atom_sets(own)
    wide = np.flatnonzero(sizes > d)
    solvable = np.flatnonzero(sizes <= d)
    S = C = None
    if solvable.size:
        S = atoms[solvable, : sizes[solvable].max()]
        C = columns[solvable]
        C = C[:, : (C < own.shape[1]).sum(axis=1).max()]
    return atoms, sizes, columns, wide, solvable, S, C


def _least_squares(Au: np.ndarray, Gp: np.ndarray, Bp: np.ndarray, Y: np.ndarray, cols, ysq, plan):
    """Least-squares codes and floors of the signals ``Y[:, cols]`` (at
    least one), each on its own atoms: ``plan`` is the :func:`_set_plan` of
    the columns of ``Au`` (d x n, unit atoms) that each may use, ``Gp``
    their Gram ``Au^T Au`` padded by a zero last row and column, ``Bp =
    Au^T Y[:, cols]`` padded likewise (n + 1 x m + 1) and ``ysq`` the
    squared signal norms.

    The atom sets are solved from the Gram in one batch. ``Gp`` and ``Bp``
    are read through the sets' padded atom and column indices in one gather
    each:
    set q's ``G[S_q, S_q]`` and ``B[S_q, cols_q]`` fill a stack whose free
    slots hold the identity's row and column in the Gram
    (:func:`_slot_grams`) and a zero right-hand side. One
    ``np.linalg.solve`` gives every code ``x``, the floor is ``||y||^2 -
    b^T x``, and both are scattered back through the same indices. A set with more atoms than dimensions (a
    wide set; its Gram is singular) is tested instead by its d x d Gram
    ``A_S A_S^T``, every wide set in one batched :func:`_well_posed`: where
    that passes, the atoms span R^d, so the set's floor is 0, below every
    bound, and its columns get floor 0 and a zero code, which the caller
    never reads because every such column walks the path. A wide set that
    does not span, and a set whose Gram fails :func:`_well_posed`, is
    solved by ``np.linalg.lstsq`` on its atoms. Returns ``(codes,
    floors)``, codes zero off each column's atoms.
    """
    d, n = Au.shape
    m = Bp.shape[1] - 1
    atoms, sizes, columns, wide, solvable, S, C = plan
    # the padded codes and floors: row n and column m take the padding
    X = np.zeros((n + 1, m + 1))
    floor = np.empty(m + 1)
    fallback = []
    if wide.size:
        # a wide set spans R^d where its d x d Gram A_S A_S^T passes the
        # same test; its floor is then 0, below every bound
        Ap = np.zeros((d, n + 1))
        Ap[:, :n] = Au
        As = Ap[:, atoms[wide]].transpose(1, 0, 2)
        spans = _well_posed(As @ As.transpose(0, 2, 1))
        floor[columns[wide[spans]]] = 0.0
        fallback += list(wide[~spans])
    if S is not None:
        gram = _slot_grams(Gp, S)
        rhs = Bp[S[:, :, None], C[:, None, :]]
        ok = _well_posed(gram)
        if not ok.all():
            fallback += list(solvable[~ok])
            S, C, rhs, gram = S[ok], C[ok], rhs[ok], gram[ok]
        sol = np.linalg.solve(gram, rhs)
        fit = np.einsum("qkc,qkc->qc", rhs, sol)
        X[S[:, :, None], C[:, None, :]] = sol
        floor[C] = np.sqrt(np.maximum(np.append(ysq, 0.0)[C] - fit, 0.0))
    for q in fallback:
        A, pos = atoms[q, : sizes[q]], columns[q][columns[q] < m]
        Yq = Y[:, cols[pos]]
        x, *_ = np.linalg.lstsq(Au[:, A], Yq, rcond=None)
        X[np.ix_(A, pos)] = x
        floor[pos] = np.linalg.norm(Au[:, A] @ x - Yq, axis=0)
    return X[:n, :m], floor[:m]


def bpdn_batch(D: Dictionary, Y: np.ndarray, eps, allowed=None):
    """Noise-constrained l1 minimization over the columns of ``Y``.

    Per column solves ``min ||x||_1 s.t. ||Dx - y||_2 <= eps`` exactly by
    following the l1 path until the residual norm equals ``eps``. ``allowed``
    (n_atoms x m boolean, None for everywhere) restricts each column to its
    own atoms of ``D``: the column is solved as on the dictionary of those
    atoms alone, and its code is zero elsewhere, so columns of several
    dictionaries that are column subsets of ``D`` share one call, one ``D^T
    D`` and one ``D^T Y``. Columns
    with ``||y|| <= eps`` (every column at ``eps = inf``) get the zero code
    and are feasible with 0 iterations; columns whose least-squares
    floor on their usable atoms exceeds ``eps`` get the least-squares code
    and are reported infeasible. The floors and codes of every distinct
    mask column come from ``D^T D`` and ``D^T Y`` in one batched solve; a
    set with more atoms than dimensions that spans the block space has
    floor 0 with no solve, and ``np.linalg.lstsq`` on the atoms serves a
    set whose Gram is ill-conditioned or that is wide without spanning
    (see :func:`_least_squares`). Both shortcuts report 0
    iterations; other columns report their path steps. The paths of all
    other columns run in one lockstep walk in atom space, from the same
    ``D^T D`` and ``D^T Y`` (see :func:`_l1_paths`): each keeps its support
    in fixed slots with the inverse of the slot Gram, zero on free slots,
    bordered by a rank-1 term when an atom enters and Schur-downdated when
    one leaves. The terms stay pending for up to ``_PENDING`` steps and are
    then applied as one product; a leaving atom's slot is zeroed at once, so
    free slots stay exactly zero. A step forms one product with the
    inverse, the span test's; the direction and the residual norm are
    carried through each event, and the direction is formed again after
    each flush of the terms. Every feasible code is refit exactly on its
    final support and signs, in one batched solve after the walk.

    A walked column can end infeasible, with a residual several times
    ``eps``, although its least-squares floor is within ``eps``: when that
    floor needs an atom whose squared distance from the span of the
    column's support is at most ``_SPAN_TOL``, such as a near-duplicate of a
    support atom, the span test keeps the atom out and ``lam`` reaches 0
    above ``eps``. The column then gets the path's end code, as it would
    from a path walked alone.

    This is the one-position case of :func:`bpdn_stack`, through a reshape;
    a stack of dictionaries raises ``ValueError``.
    Returns ``(codes, residual_norms, feasible, iteration_counts)``.
    """
    if D.atoms.ndim != 2:
        raise ValueError(f"bpdn_batch codes one block position, got a stack of atoms {D.atoms.shape}")
    Y = check_signals(Y, (D.dim,))
    s = Y.shape[1]
    eps_vec = np.broadcast_to(np.asarray(eps, dtype=float), (s,))
    if not (eps_vec > 0).all():
        raise ValueError("eps must be > 0")
    if not D.usable.any():
        raise ValueError("dictionary has no usable atoms (all columns degenerate)")
    allowed = check_mask(allowed, D.n_atoms, s)
    if not allowed[D.usable].any(axis=0).all():
        raise ValueError("a column allows no usable atom")
    # the norms in the caller's layout, which sets their order of summation
    ynorm = np.linalg.norm(Y, axis=0)
    A, Y = np.ascontiguousarray(D.atoms)[None], np.ascontiguousarray(Y)[None]
    At = A.transpose(0, 2, 1)
    out = bpdn_stack(A, D.usable[None], At @ A, At @ Y, Y, ynorm[None], eps_vec[None], allowed)
    return tuple(a[0] for a in out)


def bpdn_stack(A, usable, G, B, Y, ynorm, eps, allowed):
    """The codes of :func:`bpdn_batch` for P block positions in one call:
    the columns of ``Y[p]`` (d, m) on the atoms ``A[p]`` (d, n), whose
    usable (non-degenerate) ones ``usable[p]`` flags, with the signal norms
    ``ynorm`` (P, m) and bounds ``eps`` (P, m).

    The atom space comes from the caller, each in one batched product: ``G =
    A^T A`` (P, n, n) and ``B = A^T Y`` (P, n, m). The atom mask ``allowed``
    (n, m) masks every position's atoms alike. Exactly the columns whose
    bound the origin misses, ``ynorm > eps``, are coded; the others keep
    the zero code, their norm as residual norm, and 0 iterations, and are
    feasible, so a caller leaves a column uncoded by giving it ``eps =
    inf``. A position is solved from its slices of ``G`` and ``B`` (their
    usable rows and columns, and its working columns) as :func:`bpdn_batch`
    describes, one position at a time, so the least-squares stack and the
    walk hold one position's columns. Both read the slices padded once per
    position, each by a zero atom row (and the Gram by a zero column, the
    correlations by a zero signal column), which free slots and padded
    sets read. The atom mask of a position's working columns and its index
    work (see :func:`_set_plan`) are made once for every position with the
    same usable atoms and working columns. Returns ``(codes (P, n, m),
    residual_norms, feasible, iteration_counts)``, the last three (P, m).
    """
    P, n, m = B.shape
    d = A.shape[1]
    X = np.zeros((P, n, m))
    rnorm = ynorm.copy()
    feasible = ynorm <= eps  # the origin is feasible with minimal l1 norm
    iters = np.zeros((P, m), dtype=int)
    # the atom mask, and so the plan, is a function of the usable atoms and
    # the working columns alone
    plans = {}  # (usable atoms, working columns) -> their atom mask and plan
    for p in range(P):
        cols = np.flatnonzero(~feasible[p])
        if not cols.size:
            continue
        idx = np.flatnonzero(usable[p])
        key = (idx.tobytes(), cols.tobytes())
        if key not in plans:
            own = allowed[np.ix_(idx, cols)]
            plans[key] = own, _set_plan(own, d)
        own, plan = plans[key]
        # a position that keeps every atom reads its slices, not gathers
        every = idx.size == n
        Au = A[p] if every else A[p][:, idx]
        Gp = np.zeros((idx.size + 1, idx.size + 1))
        Gp[:-1, :-1] = G[p] if every else G[p][np.ix_(idx, idx)]
        Bp = np.zeros((idx.size + 1, cols.size + 1))
        Bp[:-1, :-1] = B[p] if every and cols.size == m else B[p][np.ix_(idx, cols)]
        ysq = ynorm[p, cols] ** 2
        # The least-squares floor of every atom set finds the columns that
        # can never meet their bound; they take the least-squares code, where
        # the path would end, without walking it.
        xls, floor = _least_squares(Au, Gp, Bp, Y[p], cols, ysq, plan)
        lost = floor > eps[p, cols]
        X[p][np.ix_(idx, cols[lost])] = xls[:, lost]
        rnorm[p, cols[lost]] = floor[lost]
        walked = np.flatnonzero(~lost)
        if walked.size:
            todo = cols[walked]
            walk = own[:, walked]
            slots = min(d, int(walk.sum(axis=0).max()))
            xt, feasible[p, todo], iters[p, todo] = _l1_paths(Gp, Bp[:, walked], ysq[walked], eps[p, todo], slots, walk)
            X[p][np.ix_(idx, todo)] = xt
            rnorm[p, todo] = np.linalg.norm(Y[p][:, todo] - Au @ xt, axis=0)
    return X, rnorm, feasible, iters


def class_residuals(G, B, X, ysq, labels, allowed=None) -> tuple[np.ndarray, np.ndarray]:
    """Class-restricted reconstruction residuals and l1 masses of the codes
    ``X`` (..., n, m) of signals ``Y`` on atoms ``A``: the SRC rule of
    Wright et al. (2009, "Robust face recognition via sparse
    representation"), from the atom space alone.

    ``G = A^T A`` (..., n, n), ``B = A^T Y`` (..., n, m) and the squared
    signal norms ``ysq`` (..., m) share any leading axes, such as one per
    block position; ``labels`` (n,) are the atoms' class ids. For class
    ``c`` the coefficients of all other classes are zeroed: with ``x_c`` the
    code on class ``c``'s atoms, ``||y - A_c x_c||^2 = ||y||^2 - x_c^T (2
    b_c - G_cc x_c)``, clamped at 0 (Batch-OMP takes its residuals so;
    Rubinstein, Zibulevsky & Elad 2008). No reconstruction in pixel space is
    formed, and a zero code gives ``sqrt(ysq)`` for both classes. ``allowed``
    (n, m), as in :func:`bpdn_batch`, gives each column its own atoms, which
    must hold both classes; each code is first set to zero off its column's
    atoms, so a column is reckoned on those atoms alone. Each column's l1
    mass for a class is summed as one contiguous row, as a single code's
    sum is. Returns ``(residuals, l1_norms)``, each of shape ``(2, ..., m)``
    and indexed by class id.
    """
    X = np.asarray(X, dtype=float)
    labels = as_label_array(labels)
    if X.shape != B.shape:
        raise ValueError(f"expected codes of shape {B.shape}, got {X.shape}")
    allowed = check_mask(allowed, *B.shape[-2:])
    X = np.where(allowed, X, 0.0)
    resid = np.empty((2,) + ysq.shape)
    l1 = np.empty((2,) + ysq.shape)
    for cid in CLASS_IDS:
        own = labels == cid
        # refused even with no columns: the dictionary lacks the class
        if not (own.any() and (allowed & own[:, None]).any(axis=0).all()):
            raise ValueError(f"class '{class_name(cid)}' has no atoms in the dictionary")
        i = np.flatnonzero(own)
        Xc = X[..., i, :]
        q = np.einsum("...km,...km->...m", Xc, 2.0 * B[..., i, :] - G[..., i[:, None], i] @ Xc)
        resid[cid] = np.sqrt(np.maximum(ysq - q, 0.0))
        l1[cid] = np.ascontiguousarray(np.abs(Xc).swapaxes(-1, -2)).sum(axis=-1)
    return resid, l1

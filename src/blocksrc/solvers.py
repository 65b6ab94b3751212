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
    the original column norms.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or 0 in M.shape:
        raise ValueError(f"expected a non-empty matrix or stack of matrices, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite values")
    scales = np.linalg.norm(M, axis=-2)
    degenerate = (scales < DEGENERATE_NORM)[..., None, :]
    out = M / np.where(degenerate, 1.0, scales[..., None, :])
    out[np.broadcast_to(degenerate, out.shape)] = 0.0
    return out, scales


@dataclass(frozen=True)
class Dictionary:
    """Column-atom dictionary with per-atom class labels.

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
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] < 1:
            raise ValueError(f"atoms must be a non-empty 2-d matrix, got shape {atoms.shape}")
        n = atoms.shape[1]
        if labels.shape != (n,):
            raise ValueError(f"atom_labels must have length {n}, got {labels.shape}")
        if scales.shape != (n,):
            raise ValueError(f"scales must have length {n}, got {scales.shape}")
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
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    @property
    def degenerate(self) -> np.ndarray:
        return self.scales < DEGENERATE_NORM

    @property
    def usable(self) -> np.ndarray:
        return ~self.degenerate


def _check_signals(D: Dictionary, Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != D.dim:
        raise ValueError(f"expected signals of shape ({D.dim}, m), got {Y.shape}")
    if not np.isfinite(Y).all():
        raise ValueError("signals contain non-finite values")
    return Y


def batch_omp(G: np.ndarray, B: np.ndarray, ysq: np.ndarray, usable: np.ndarray, T: int, eps):
    """Batch-OMP (Rubinstein, Zibulevsky & Elad 2008) over a stack of P
    independent coding problems, in atom space.

    Problem ``p`` codes ``s`` signals given only the Gram matrix ``G[p] =
    D^T D`` (n x n), the correlations ``B[p] = D^T Y`` (n x s) and the
    squared signal norms ``ysq[p]``; only atoms with ``usable[p]`` may be
    picked, and ``eps`` (broadcast to (P, s)) bounds the residual norms. Per
    step every live column takes the argmax of ``|B - G X|`` over its
    unblocked atoms and stops if that pick lies numerically in the span of
    its support. Each live column keeps ``H``, the inverse of its support
    Gram, in the leading slots of a zero stack, so the span test reads ``w =
    H g`` and ``sigma = 1 - g^T w`` (``g`` the pick's Gram column on the
    support; stop if ``sigma`` is at most ``_SPAN_TOL``), a pick that passes
    borders ``H`` at once by the rank-1 term of :func:`_slot_term` that the
    l1 path shares (through :func:`_slot_update`), and the refit is ``x_I =
    H b_I`` (evaluated as the step ``x_old + H c_I`` along the correlations
    ``c = B - G X`` of the pick, which keeps the rounding of ``H`` from being
    magnified by ``||H|| ||b_I|| / ||x_I||``): no step solves a system or
    gathers a support Gram. The residual norm follows from ``||y||^2 - x_I^T
    (D^T y)_I``, so nothing grows with the signal length. Columns retire as
    they stop, with no final refit.
    Returns codes ``(P, n, s)`` and support sizes ``(P, s)``.
    """
    P, n, s = B.shape
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (P, s))
    t_max = min(int(T), int(usable.sum(axis=1).max()))
    X = np.zeros((P, n, s))
    blocked = np.repeat(~usable[:, :, None], s, axis=2)
    sizes = np.zeros((P, s), dtype=int)
    # live columns, as (problem, column) pairs, all hold supports of size t
    # at step t; their supports and inverse Grams are compacted as columns
    # retire, and a step works on the leading (t + 1) x (t + 1) window of H,
    # whose free slots are zero
    prob, col = np.nonzero(np.sqrt(ysq) > eps)
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
        _slot_update(Ht, t, w, sigma)
        # the refit x_I = H b_I, taken as x_old + H c_I so that the rounding
        # of H is not magnified by ||H|| ||b_I|| / ||x_I||
        I = supp[:, : t + 1]
        rows, cols = prob[:, None], col[:, None]
        x = X[rows, I, cols] + (Ht @ corr[ar[:, None], I][..., None])[..., 0]
        X[rows, I, cols] = x
        r2 = ysq[prob, col] - np.einsum("ct,ct->c", x, B[rows, I, cols])
        keep = np.sqrt(np.maximum(r2, 0.0)) > eps[prob, col]
        if not keep.all():
            prob, col, supp, H = prob[keep], col[keep], supp[keep], H[keep]
    return X, sizes


def _slot_term(k, w: np.ndarray, sigma: np.ndarray, leave=None, hk=None):
    """The rank-1 term ``alpha z z^T`` by which ``H``, a stack (c, t, t) of
    inverse slot Grams whose free slots are zero, changes at slot ``k`` of
    each column. Returns ``(z, alpha)``.

    An atom enters the free slot ``k`` with ``z = w - e_k`` and ``alpha = 1 /
    sigma``, from the span test's ``w = H g`` (zero at ``k``) and ``sigma = 1
    - g^T w``: the bordered inverse of the grown Gram. Where ``leave`` (a
    mask; None for nowhere) the atom in slot ``k`` leaves instead, with ``z =
    H e_k`` (given as ``hk``, one row per leaving column) and ``alpha = -1 /
    H_kk``: a Schur downdate, which leaves the slot's row and column zero up
    to rounding, so the caller zeroes them exactly. ``k`` is one slot per
    column, or a scalar when ``leave`` is None. ``w`` is overwritten.
    """
    ar = np.arange(len(w))
    z, pivot = w, sigma
    if leave is None:
        z[ar, k] = -1.0
    else:
        z[leave] = hk
        pivot = np.where(leave, -z[ar, k], sigma)
        z[~leave, k[~leave]] = -1.0
    return z, 1.0 / pivot


def _slot_update(H: np.ndarray, k: int, w: np.ndarray, sigma: np.ndarray) -> None:
    """Border ``H``, whose free slots are zero, in place by an atom entering
    the free slot ``k`` of every column: the term of :func:`_slot_term`,
    applied at once."""
    z, alpha = _slot_term(k, w, sigma)
    alpha = alpha[:, None, None]
    # a block of rows at a time, each in the same temporary, so the outer
    # product takes a fraction of H's memory
    t = H.shape[1]
    zz = np.empty((len(H), min(_UPDATE_ROWS, t), t))
    for r in range(0, t, _UPDATE_ROWS):
        block = zz[:, : min(_UPDATE_ROWS, t - r)]
        np.multiply(z[:, r : r + _UPDATE_ROWS, None], z[:, None, :], out=block)
        block *= alpha
        H[:, r : r + _UPDATE_ROWS] += block


def _inverse_times(H: np.ndarray, U: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(H + U diag(a) U^T) x`` per column: the stack (c, t, t) ``H`` with
    the pending terms ``U`` (c, t, p), ``a`` (c, p) applied to ``x`` (c, t)."""
    y = (H @ x[..., None])[..., 0]
    if a.shape[1]:
        y += (U @ (a * (x[:, None, :] @ U)[:, 0])[..., None])[..., 0]
    return y


def _flush(H: np.ndarray, U: np.ndarray, a: np.ndarray) -> None:
    """Apply the pending terms ``U`` (c, t, p), ``a`` (c, p) to ``H`` (c, t,
    t) in place, as ``H += U diag(a) U^T``, a block of rows at a time in one
    temporary, so the product takes a fraction of H's memory."""
    t = H.shape[1]
    block = np.empty((len(H), min(_UPDATE_ROWS, t), t))
    Ut = U.transpose(0, 2, 1)
    for r in range(0, t, _UPDATE_ROWS):
        part = block[:, : min(_UPDATE_ROWS, t - r)]
        np.matmul(U[:, r : r + _UPDATE_ROWS] * a[:, None, :], Ut, out=part)
        H[:, r : r + _UPDATE_ROWS] += part


def _l1_paths(G: np.ndarray, B: np.ndarray, ysq: np.ndarray, eps: np.ndarray, slots: int, allowed=None):
    """Follow the l1 (lasso) paths of several signals in lockstep, in atom
    space, each down to ``||Ax - y|| = eps``.

    Only ``G = A^T A`` (n x n, usable unit atoms), ``B = A^T Y`` (n x m), the
    squared signal norms ``ysq`` and the bounds ``eps`` are read. ``allowed``
    (n x m, None for everywhere) masks the atoms each column may use: its
    first atom and every entrant are allowed ones, so a column walks the path
    of its own atoms alone, and columns of several dictionaries that share
    one atom set walk together from one ``G``. Each path
    starts from ``x = 0`` at ``lam = ||A^T y||_inf`` and lowers ``lam``
    piecewise linearly (Osborne, Presnell & Turlach 2000); per step, with
    ``c = B - G X`` and ``v`` the active set's ``G_AA^{-1} sign``, the
    coefficients move along ``v``, the correlations along ``a = G v`` (so
    ``c`` is carried as ``c - gamma a``, as LARS carries it, not formed
    again from ``X``), and
    ``r.u = c_A^T v``, ``||u||^2 = sign^T v`` and ``||r||^2 = ||y||^2 -
    x^T (b + c)`` give where the residual norm meets ``eps``. The step ends
    where an atom enters, an active coefficient crosses zero (the atom
    leaves) or the residual norm reaches ``eps``.

    A column's active atoms sit in fixed slots of ``slots``, and each column
    keeps ``H``, the inverse of its slot Gram, in a zero stack (c, slots,
    slots) whose free slots stay exactly zero: an entering atom borders it
    by a rank-1 term from ``w = H g`` and ``sigma = 1 - g^T w``, the numbers
    of the span test (Rubinstein, Zibulevsky & Elad 2008), and a leaving
    atom is removed by a Schur downdate (both terms from
    :func:`_slot_term`), so no step solves a system. A term ``alpha z z^T``
    stays pending for up to ``_PENDING`` steps, as a column of ``U`` and an
    entry of ``a``; the walk reads the inverse as ``H + U diag(a) U^T``
    (``v``, ``w`` and a leaving atom's column through
    :func:`_inverse_times`), and every ``_PENDING`` steps the pending terms
    are applied to ``H`` as one product (:func:`_flush`), so ``H`` is
    rewritten once per ``_PENDING`` steps, not three times per step.
    A leaving atom's slot row and column are zeroed at once, in ``H`` and in
    ``U``, so ``v``, ``w`` and ``X`` stay exactly zero on free slots and no
    spurious exit appears. A step works on the leading (t, t) view of ``H``,
    ``t`` the slots up to the highest any column has used plus one for an
    entrant, and a retiring column's place (and its pending terms) is taken
    by a live one from the end.
    A column retires once its path ends. A feasible one keeps its final
    slots and signs, and after the walk, with ``H`` and ``U`` released,
    every feasible column is refit exactly in one :func:`_refit` call, ``x =
    G_AA^{-1} (b_A - lam s_A)`` with ``lam > 0`` where the residual norm
    equals ``eps``, which clears the drift of the updates.
    Returns ``(X, feasible, steps)``; ``feasible`` is False only where
    ``lam`` reached 0 first.
    """
    n, m = B.shape
    null = n  # a free slot holds this padded zero atom
    Gp = np.zeros((n + 1, n + 1))
    Gp[:n, :n] = G
    X_out = np.zeros((n + 1, m))
    feasible = np.zeros(m, dtype=bool)
    steps = np.zeros(m, dtype=int)

    # the live columns' state, compacted as columns retire
    cols = np.arange(m)
    allowed = np.ones((n, m), dtype=bool) if allowed is None else np.asarray(allowed, dtype=bool)
    Bp = np.zeros((n + 1, m))
    Bp[:n] = B
    eps2 = np.asarray(eps, dtype=float) ** 2
    first = np.argmax(np.where(allowed, np.abs(B), -1.0), axis=0)
    lam = np.abs(B[first, cols])
    S = np.zeros((n + 1, m))  # active signs; zero off the active set
    S[first, cols] = np.sign(B[first, cols])
    slot = np.full((m, slots), null)
    slot[:, 0] = first
    # slots at and above hi are free in every column; a step works on the
    # first t > hi of them (room for an entrant)
    hi = 1
    H = np.zeros((m, slots, slots))
    H[:, 0, 0] = 1.0 / G[first, first]
    # the rank-1 terms not yet applied to H: the walk reads H + U diag(a)
    # U^T, with terms 0 .. p - 1 of U (c, slots, r) and a (c, r) pending;
    # U's rows on free slots stay zero
    U = np.zeros((m, slots, _PENDING))
    a = np.zeros((m, _PENDING))
    p = 0
    X = np.zeros((n + 1, m))
    C = Bp.copy()  # the correlations B - G X, carried along each step
    # per retirement, the feasible columns and their final slots, signs,
    # correlations, squared norms and squared bounds, refit after the walk
    fits = []
    stalls = np.zeros(m, dtype=int)
    step = 0
    while cols.size:
        step += 1
        ar = np.arange(cols.size)
        t = min(hi + 1, slots)
        Ht, st = H[:, :t, :t], slot[:, :t]
        Up, ap = U[:, :t, :p], a[:, :p]
        s = S[st, ar[:, None]]
        v = _inverse_times(Ht, Up, ap, s)
        V = np.zeros_like(X)
        V[st, ar[:, None]] = v
        Av = Gp @ V
        # exit where an active coefficient reaches zero; entry where |c_j -
        # g a_j| meets lam - g, at either sign of c_j (an atom that just
        # left has den < 0 at its old sign and stays out). A masked-out
        # ratio may divide by zero, and is never read
        xs = X[st, ar[:, None]]
        den = 1.0 - _SIGNS * Av[:n]
        num = np.maximum(lam - _SIGNS * C[:n], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(xs * v < 0.0, -xs / v, np.inf)
            g_in = np.where(((S[:n] == 0.0) & allowed) & (den > 0.0), num / den, np.inf)
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
            w = _inverse_times(Ht, Up, ap, g)
            sigma = 1.0 - np.einsum("ct,ct->c", g, w)
            fails = enter & ~((sigma > _SPAN_TOL) & room)
            if not fails.any():
                break
            g_in[pick[fails], ar[fails]] = np.inf
        gamma = np.where(enter, g_in[pick, ar], gamma)
        leave = ~enter & (g_out < lam)
        # the residual norm reaches eps: the smaller root of
        # ||r - g u||^2 = eps^2, written without cancellation
        excess = ysq - np.einsum("ic,ic->c", X, Bp + C) - eps2
        ru = np.einsum("ic,ic->c", C, V)
        disc = ru * ru - np.einsum("ct,ct->c", s, v) * excess
        g_done = excess / (ru + np.sqrt(np.maximum(disc, 0.0)))
        done = (disc >= 0.0) & (g_done <= gamma)
        gamma = np.where(done, g_done, gamma)
        X += gamma * V
        C -= gamma * Av
        stalls = np.where(lam - gamma >= lam, stalls + 1, 0)
        lam = lam - gamma
        # a column without an event has reached lam = 0 above eps
        fin = done | ~(enter | leave)
        if fin.any():
            f = np.flatnonzero(fin)
            X_out[:, cols[f]] = X[:, f]
            feasible[cols[f]] = done[f]
            steps[cols[f]] = step
            d = np.flatnonzero(done)
            if d.size:
                sl = slot[d]
                fits.append((cols[d], sl, S[sl, d[:, None]], Bp[sl, d[:, None]], ysq[d], eps2[d]))
            # the live columns from the end take the retirees' places
            c = cols.size - f.size
            holes = f[f < c]
            movers = np.flatnonzero(~fin[c:]) + c
            H[holes], U[holes], a[holes] = H[movers], U[movers], a[movers]
            keep = np.arange(c)
            keep[holes] = movers
            H, U, a = H[:c], U[:c], a[:c]
            Ht, Up, ap = H[:, :t, :t], U[:, :t, :p], a[:, :p]
            cols, ysq, eps2, lam, stalls = cols[keep], ysq[keep], eps2[keep], lam[keep], stalls[keep]
            Bp, X, C, S, slot = Bp[:, keep], X[:, keep], C[:, keep], S[:, keep], slot[keep]
            allowed = allowed[:, keep]
            leave, pick, negative = leave[keep], pick[keep], negative[:, keep]
            k_out, w, sigma, free = k_out[keep], w[keep], sigma[keep], free[keep]
            if not cols.size:
                break
            ar = np.arange(cols.size)
            st = slot[:, :t]
        if (stalls > 2 * n).any():
            raise RuntimeError("l1 path stalled at a tie between atoms")
        # every live column now has one event, a leaving or an entering
        # atom, and changes H by a rank-1 term (see _slot_term), which stays
        # pending; a leaving atom's slot is zeroed now, in U too, or the
        # pending terms would give the free slot nonzero v, w and X
        k = np.where(leave, k_out, np.argmax(free, axis=1))
        j = np.where(leave, st[ar, k], pick)
        e, gone = ar[leave], k[leave]
        hk = Ht[e, :, gone] + (Up[e] @ (ap[e] * Up[e, gone])[..., None])[..., 0]
        U[:, :t, p], a[:, p] = _slot_term(k, w, sigma, leave, hk)
        p += 1
        H[e, gone, :] = 0.0
        H[e, :, gone] = 0.0
        U[e, gone] = 0.0
        if p == _PENDING:
            _flush(Ht, U[:, :t, :p], a[:, :p])
            U[:, :, :p] = 0.0
            p = 0
        X[j[leave], ar[leave]] = 0.0
        S[j, ar] = np.where(leave, 0.0, np.where(negative[j, ar], -1.0, 1.0))
        st[ar, k] = np.where(leave, null, j)
        hi = max(hi, int(k.max()) + 1)
    # the inverses go before the refit's stack of Grams, of the same size
    H = Ht = U = Up = None
    if fits:
        c, sl, *fit = (np.concatenate(z) for z in zip(*fits))
        X_out[sl, c[:, None]] = _refit(Gp, sl, *fit)
    return X_out[:n], feasible, steps


def _refit(Gp: np.ndarray, slot: np.ndarray, sign: np.ndarray, b: np.ndarray, ysq, eps2) -> np.ndarray:
    """The exact codes, on their slots ``slot`` (c, slots), of c columns
    whose paths ended at their bounds, given their signs ``sign`` and
    correlations ``b`` on those slots (c, slots): ``x = G_AA^{-1} (b_A - lam
    s_A)`` with ``lam`` where the residual norm is ``sqrt(eps2)``. A free
    slot reads the padded zero atom of ``Gp`` (the last), whose zero row and
    column a unit diagonal entry turns into the identity's; its sign and
    correlation are zero. One ``np.linalg.solve`` serves every column, and
    LAPACK solves each matrix of the stack on its own, so a column's code
    does not depend on which others share the call."""
    gram = Gp[slot[:, :, None], slot[:, None, :]]
    c, k = np.nonzero(slot == len(Gp) - 1)
    gram[c, k, k] = 1.0
    sol = np.linalg.solve(gram, np.stack([b, sign], axis=2))
    x0, v = sol[..., 0], sol[..., 1]
    floor = ysq - np.einsum("ct,ct->c", b, x0)
    lam = np.sqrt(np.maximum(eps2 - floor, 0.0) / np.einsum("ct,ct->c", sign, v))
    return x0 - lam[:, None] * v


def _atom_sets(mask: np.ndarray | None, n: int, m: int):
    """The distinct atom sets among the columns of the atom mask ``mask``
    (n x m; None is one set of every atom), in the order of their first
    columns, as padded index arrays. Returns ``(atoms, sizes, columns)``:
    row q of ``atoms`` holds set q's ``sizes[q]`` atoms in ascending order,
    then ``n``, and row q of ``columns`` holds the columns whose set it is in
    ascending order, then ``m``; the padding indexes the zero row and column
    that a gather pads its source with."""
    if mask is None:
        return np.arange(n)[None], np.array([n]), np.arange(m)[None]
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


def _least_squares(Au: np.ndarray, G: np.ndarray, B: np.ndarray, Y: np.ndarray, cols, ysq, own):
    """Least-squares codes and floors of the signals ``Y[:, cols]``, each on
    its own atoms: ``own`` (n x len(cols), None for everywhere) masks the
    columns of ``Au`` (d x n, unit atoms) that each may use, ``G = Au^T
    Au``, ``B = Au^T Y[:, cols]`` and ``ysq`` the squared signal norms.

    The atom sets (see :func:`_atom_sets`) are solved from the Gram in one
    batch. ``G`` and ``B``, each padded by a zero row and column, are read
    through the sets' padded atom and column indices in one gather each:
    set q's ``G[S_q, S_q]`` and ``B[S_q, cols_q]`` fill a stack whose free
    slots hold a zero row and column (a unit diagonal entry in the Gram)
    and a zero right-hand side. One ``np.linalg.solve`` gives every code
    ``x``, the floor is ``||y||^2 - b^T x``, and both are scattered back
    through the same indices. A set with more atoms than dimensions (a
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
    m = B.shape[1]
    if not m:
        return np.zeros_like(B), np.empty(0)
    atoms, sizes, columns = _atom_sets(own, n, m)
    # the padded codes and floors: row n and column m take the padding
    X = np.zeros((n + 1, m + 1))
    floor = np.empty(m + 1)
    wide = np.flatnonzero(sizes > d)
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
    solvable = np.flatnonzero(sizes <= d)
    if solvable.size:
        S = atoms[solvable, : sizes[solvable].max()]
        C = columns[solvable]
        C = C[:, : (C < m).sum(axis=1).max()]
        Gp = np.zeros((n + 1, n + 1))
        Gp[:n, :n] = G
        Bp = np.zeros((n + 1, m + 1))
        Bp[:n, :m] = B
        gram = Gp[S[:, :, None], S[:, None, :]]
        q, k = np.nonzero(S == n)
        gram[q, k, k] = 1.0
        rhs = Bp[S[:, :, None], C[:, None, :]]
        ok = _well_posed(gram)
        fallback += list(solvable[~ok])
        S, C, rhs = S[ok], C[ok], rhs[ok]
        sol = np.linalg.solve(gram[ok], rhs)
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
    with ``||y|| <= eps`` get the zero code; columns whose least-squares
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
    free slots stay exactly zero. Every feasible code is refit exactly on
    its final support and signs, in one batched solve after the walk.

    A walked column can end infeasible, with a residual several times
    ``eps``, although its least-squares floor is within ``eps``: when that
    floor needs an atom whose squared distance from the span of the
    column's support is at most ``_SPAN_TOL``, such as a near-duplicate of a
    support atom, the span test keeps the atom out and ``lam`` reaches 0
    above ``eps``. The column then gets the path's end code, as it would
    from a path walked alone.
    Returns ``(codes, residual_norms, feasible, iteration_counts)``.
    """
    Y = _check_signals(D, Y)
    s = Y.shape[1]
    eps_vec = np.broadcast_to(np.asarray(eps, dtype=float), (s,)).copy()
    if not (eps_vec > 0).all():
        raise ValueError("eps must be > 0")
    if not D.usable.any():
        raise ValueError("dictionary has no usable atoms (all columns degenerate)")
    usable_idx = np.flatnonzero(D.usable)
    mask = None  # the allowed usable atoms, per column
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (D.n_atoms, s):
            raise ValueError(f"expected an atom mask of shape ({D.n_atoms}, {s}), got {allowed.shape}")
        mask = allowed[usable_idx]
        if not mask.any(axis=0).all():
            raise ValueError("a column allows no usable atom")

    ynorm = np.linalg.norm(Y, axis=0)
    X = np.zeros((D.n_atoms, s))
    rnorm = ynorm.copy()
    feasible = ynorm <= eps_vec  # the origin is feasible with minimal l1 norm
    iters = np.zeros(s, dtype=int)

    # The least-squares floor of every atom set finds the columns that can
    # never meet their bound; they take the least-squares code, where the
    # path would end, without walking it. The floor and the paths read one
    # D^T D and one D^T Y.
    work = np.flatnonzero(~feasible)
    # the usable atoms, laid out as a selection of them would be
    Au = np.ascontiguousarray(D.atoms) if usable_idx.size == D.n_atoms else D.atoms[:, usable_idx]
    G, B = Au.T @ Au, Au.T @ Y[:, work]
    own = None if mask is None else mask[:, work]
    xls, floor = _least_squares(Au, G, B, Y, work, ynorm[work] ** 2, own)
    lost = floor > eps_vec[work]
    X[np.ix_(usable_idx, work[lost])] = xls[:, lost]
    rnorm[work[lost]] = floor[lost]
    todo = work[~lost]
    if todo.size:
        own = None if own is None else own[:, ~lost]
        slots = min(Au.shape[0], Au.shape[1] if own is None else int(own.sum(axis=0).max()))
        xt, feasible[todo], iters[todo] = _l1_paths(G, B[:, ~lost], ynorm[todo] ** 2, eps_vec[todo], slots, own)
        X[np.ix_(usable_idx, todo)] = xt
        rnorm[todo] = np.linalg.norm(Y[:, todo] - Au @ xt, axis=0)
    return X, rnorm, feasible, iters


def class_residuals(
    D: Dictionary, X: np.ndarray, Y: np.ndarray, allowed=None
) -> tuple[np.ndarray, np.ndarray]:
    """Class-restricted reconstruction residuals and l1 masses of the codes
    ``X`` (n_atoms, m) of the signals ``Y`` (d, m): the SRC rule of Wright
    et al. (2009, "Robust face recognition via sparse representation").

    For class ``i`` the coefficients of all other classes are zeroed before
    reconstructing; returns ``(residuals, l1_norms)``, each of shape
    ``(2, m)`` and indexed by class id. ``allowed`` (n_atoms, m), as in
    :func:`bpdn_batch`, gives each column its own atoms, which must hold
    both classes; each code is first set to zero off its column's atoms, so
    a column is reckoned on those atoms alone, as on a dictionary of them.
    Every column's residual and l1 mass for a class then come from one
    product and one reduction over that class's atoms.
    """
    Y = _check_signals(D, Y)
    X = np.asarray(X, dtype=float)
    m = Y.shape[1]
    if X.shape != (D.n_atoms, m):
        raise ValueError(f"expected codes of shape ({D.n_atoms}, {m}), got {X.shape}")
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        X = np.where(allowed, X, 0.0)
    resid = np.empty((2, m))
    l1 = np.empty((2, m))
    for cid in CLASS_IDS:
        own = D.atom_labels == cid
        if not (own.any() if allowed is None else (allowed & own[:, None]).any(axis=0).all()):
            raise ValueError(f"class '{class_name(cid)}' has no atoms in the dictionary")
        Xc = X[own]
        resid[cid] = np.linalg.norm(Y - D.atoms[:, own] @ Xc, axis=0)
        # each column's mass summed as one contiguous row, so it rounds as a
        # single code's sum does
        l1[cid] = np.ascontiguousarray(np.abs(Xc).T).sum(axis=1)
    return resid, l1

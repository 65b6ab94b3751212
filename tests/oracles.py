"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force and shares no code with the
solvers under test.
"""

from __future__ import annotations

import itertools

import numpy as np


def mutual_coherence(A: np.ndarray) -> float:
    G = np.abs(A.T @ A)
    np.fill_diagonal(G, 0.0)
    return float(G.max())


def low_coherence_matrix(rng, d: int, n: int, target: float = 0.5,
                         iters: int = 300, restarts: int = 50) -> np.ndarray:
    """Seeded unit-norm frame with mutual coherence below ``target``.

    Random draws almost never satisfy tight coherence targets, so the Gram
    matrix is repeatedly clipped and re-factored (a standard packing
    heuristic) until the target holds.
    """
    for _ in range(restarts):
        A = rng.standard_normal((d, n))
        A /= np.linalg.norm(A, axis=0)
        for _ in range(iters):
            if mutual_coherence(A) < target - 0.01:
                return A
            G = A.T @ A
            Gs = np.clip(G, -target + 0.03, target - 0.03)
            np.fill_diagonal(Gs, 1.0)
            w, V = np.linalg.eigh(Gs)
            w = np.clip(w, 0.0, None)
            idx = np.argsort(w)[::-1][:d]
            A = (V[:, idx] * np.sqrt(w[idx])).T
            nrm = np.linalg.norm(A, axis=0)
            if (nrm < 1e-9).any():
                break
            A /= nrm
    raise RuntimeError(f"could not reach coherence {target} for a {d}x{n} frame")


def exhaustive_sparse_fit(A: np.ndarray, y: np.ndarray, T: int):
    """Best least-squares fit over every support of size <= T.

    Returns ``(support_set, residual_norm, coefficients)`` of the
    minimal-residual support (enumeration order breaks exact ties).
    """
    n = A.shape[1]
    best = (np.inf, frozenset(), np.zeros(n))
    for k in range(1, T + 1):
        for S in itertools.combinations(range(n), k):
            S = list(S)
            xs, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
            r = float(np.linalg.norm(y - A[:, S] @ xs))
            if r < best[0] - 1e-12:
                x = np.zeros(n)
                x[S] = xs
                best = (r, frozenset(S), x)
    return best[1], best[0], best[2]


def textbook_omp(A: np.ndarray, y: np.ndarray, T: int) -> np.ndarray:
    """Orthogonal matching pursuit for one signal, straight from its definition.

    Picks the atom most correlated with the residual and refits every
    coefficient of the support with ``lstsq``; stops once the residual is
    zero, the support holds ``T`` atoms, or no atom correlates with the
    residual above 1e-10. Returns the coefficient vector.
    """
    x = np.zeros(A.shape[1])
    support: list[int] = []
    r = y
    while len(support) < T and np.linalg.norm(r) > 0:
        corr = np.abs(A.T @ r)
        j = int(np.argmax(corr))
        if corr[j] <= 1e-10:
            break
        support.append(j)
        coef, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        r = y - A[:, support] @ coef
        x[:] = 0.0
        x[support] = coef
    return x


def per_column_class_residuals(atoms: np.ndarray, atom_labels: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """Class-restricted residuals and l1 masses, one code at a time.

    For each column and class the code is restricted to that class's nonzero
    coefficients, reconstructed and subtracted from the signal. Returns
    ``(residuals, l1_norms)`` of shape ``(2, m)``, indexed by class id.
    """
    m = Y.shape[1]
    resid = np.empty((2, m))
    l1 = np.empty((2, m))
    for i in range(m):
        x, y = X[:, i], Y[:, i]
        for cid in (0, 1):
            mask = atom_labels == cid
            idx = np.flatnonzero(mask & (x != 0))
            recon = atoms[:, idx] @ x[idx] if idx.size else np.zeros(atoms.shape[0])
            resid[cid, i] = np.linalg.norm(y - recon)
            l1[cid, i] = float(np.abs(x[mask]).sum())
    return resid, l1


def class_residuals_pixels(atoms: np.ndarray, atom_labels: np.ndarray, X: np.ndarray, Y: np.ndarray, allowed=None):
    """Class-restricted residuals and l1 masses in pixel space, for all
    columns at once.

    ``allowed`` (n, m), None for everywhere, zeroes each code off its
    column's atoms first. For each class the codes of the other classes are
    zeroed, the signals are reconstructed from the rest and subtracted.
    Returns ``(residuals, l1_norms)`` of shape ``(2, m)``, indexed by class
    id.
    """
    if allowed is not None:
        X = np.where(allowed, X, 0.0)
    resid = np.empty((2, Y.shape[1]))
    l1 = np.empty((2, Y.shape[1]))
    for cid in (0, 1):
        own = atom_labels == cid
        resid[cid] = np.linalg.norm(Y - atoms[:, own] @ X[own], axis=0)
        l1[cid] = np.abs(X[own]).sum(axis=0)
    return resid, l1


# an atom whose Schur complement against the active set is at most this never
# enters it (the solvers' span tolerance, restated here)
SPAN_TOL = 1e-10


def per_column_l1_path(A: np.ndarray, G: np.ndarray, y: np.ndarray, eps: float):
    """Follow the l1 (lasso) path of one signal down to ``||Ax - y|| = eps``.

    Starts from ``x = 0`` at ``lam = ||A^T y||_inf`` and lowers ``lam``
    piecewise linearly (Osborne, Presnell & Turlach 2000; Efron et al. 2004).
    On each segment the active coefficients move along ``G_AA^{-1} sign``;
    the segment ends where an atom enters, an active coefficient crosses
    zero (the atom leaves) or the residual norm reaches ``eps``. ``A`` holds
    only usable atoms and ``G = A^T A``. Returns ``(x, residual_norm,
    feasible, steps)``; ``feasible`` is False only if ``lam`` reaches 0 first.
    """
    n = A.shape[1]
    x = np.zeros(n)
    r = y.copy()
    c = A.T @ r
    lam = float(np.abs(c).max())
    active = np.zeros(n, dtype=bool)
    sign = np.zeros(n)
    first = int(np.argmax(np.abs(c)))
    active[first] = True
    sign[first] = np.sign(c[first])
    steps = stalls = 0
    while True:
        steps += 1
        idx = np.flatnonzero(active)
        Gaa = G[np.ix_(idx, idx)]
        v = np.linalg.solve(Gaa, sign[idx])
        u = A[:, idx] @ v
        a = A.T @ u
        # exit where an active coefficient reaches zero
        shrink = np.flatnonzero(x[idx] * v < 0.0)
        gamma, event = lam, None
        if shrink.size:
            g = -x[idx[shrink]] / v[shrink]
            k = int(np.argmin(g))
            if g[k] < gamma:
                gamma, event = float(g[k]), (idx[shrink[k]], 0.0)
        # entry: the smallest g at which |c_j - g a_j| meets lam - g; an
        # atom that just left has den < 0 at its old sign and stays out
        g_in = np.full((2, n), np.inf)
        for row, sgn in enumerate((1.0, -1.0)):
            den = 1.0 - sgn * a
            ok = np.flatnonzero(~active & (den > 0.0))
            g_in[row, ok] = np.maximum(lam - sgn * c[ok], 0.0) / den[ok]
        for j in np.argsort(g_in.min(axis=0)):
            if g_in[:, j].min() >= gamma:
                break
            # an atom (numerically) in the span of the active ones, such as a
            # duplicate with its 0/0 ratio, would make the Gram system
            # singular; in exact arithmetic it never enters before lam = 0
            w = np.linalg.solve(Gaa, G[idx, j])
            if 1.0 - G[idx, j] @ w > SPAN_TOL:
                row = int(np.argmin(g_in[:, j]))
                gamma, event = float(g_in[row, j]), (j, (1.0, -1.0)[row])
                break
        # the residual norm reaches eps: the smaller root of
        # ||r - g u||^2 = eps^2, written without cancellation
        excess = float(r @ r) - eps * eps
        ru = float(r @ u)
        disc = ru * ru - float(u @ u) * excess
        done = disc >= 0.0 and excess / (ru + np.sqrt(disc)) <= gamma
        if done:
            gamma = excess / (ru + np.sqrt(disc))
        x[idx] += gamma * v
        r = y - A[:, idx] @ x[idx]
        if done or event is None:  # event None: lam reached 0 above eps
            return x, float(np.linalg.norm(r)), done, steps
        c = A.T @ r
        j, sgn = event
        if sgn == 0.0:  # j leaves; x[j] is zero up to rounding
            x[j] = 0.0
        active[j] = sgn != 0.0
        sign[j] = sgn
        stalls = stalls + 1 if lam - gamma >= lam else 0
        if stalls > 2 * n:
            raise RuntimeError("l1 path stalled at a tie between atoms")
        lam -= gamma


def per_set_least_squares(A: np.ndarray, Y: np.ndarray, allowed: np.ndarray):
    """Least-squares codes and floors, one ``lstsq`` per atom set.

    Column ``c`` of ``Y`` is fit on the columns of ``A`` that
    ``allowed[:, c]`` selects; the columns sharing one selection are solved
    in one SVD-based ``lstsq`` call. Returns ``(codes, floors)``: codes of
    shape ``(n, m)``, zero off each column's atoms, and the residual norms
    ``||A x - y||``.
    """
    X = np.zeros((A.shape[1], Y.shape[1]))
    floors = np.empty(Y.shape[1])
    sets: dict[bytes, list[int]] = {}
    for c in range(Y.shape[1]):
        sets.setdefault(allowed[:, c].tobytes(), []).append(c)
    for cols in sets.values():
        own = allowed[:, cols[0]]
        x, *_ = np.linalg.lstsq(A[:, own], Y[:, cols], rcond=None)
        X[np.ix_(own, cols)] = x
        floors[cols] = np.linalg.norm(A[:, own] @ x - Y[:, cols], axis=0)
    return X, floors


def soft_threshold(v: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def orthonormal_bpdn_oracle(A: np.ndarray, y: np.ndarray, eps: float, steps: int = 200):
    """Constrained l1 solution for an orthonormal dictionary.

    In the orthonormal basis the penalized solution is a coordinate-wise soft
    threshold of ``A.T y``; a one-dimensional bisection on the threshold finds
    the level where the residual meets ``eps``.
    """
    c = A.T @ y
    ynorm = float(np.linalg.norm(y))
    if eps >= ynorm:
        return np.zeros_like(c)

    def residual(lam: float) -> float:
        return float(np.linalg.norm(c - soft_threshold(c, lam)))

    lo, hi = 0.0, float(np.abs(c).max())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if residual(mid) <= eps:
            lo = mid
        else:
            hi = mid
    return soft_threshold(c, lo)


def atoms_per_class_largest_remainder(sample_labels: np.ndarray, k: int) -> dict[int, int]:
    """The split of ``k`` atoms between the classes 0 and 1 in proportion to
    their sample counts, by largest remainder (ties to the lower class id),
    then at least one atom per class, each taken from the class with the
    most."""
    classes = (0, 1)
    s = sample_labels.shape[0]
    counts = {cid: int(np.sum(sample_labels == cid)) for cid in classes}
    raw = {cid: k * n / s for cid, n in counts.items()}
    alloc = {cid: int(np.floor(v)) for cid, v in raw.items()}
    rem = k - sum(alloc.values())
    by_frac = sorted(classes, key=lambda c: (-(raw[c] - alloc[c]), c))
    for cid in by_frac[:rem]:
        alloc[cid] += 1
    for cid in classes:
        while alloc[cid] == 0:
            donor = max(classes, key=lambda c: alloc[c])
            alloc[donor] -= 1
            alloc[cid] += 1
    return alloc


def pair_counting_auc(scores, truth, positive: int = 1) -> float:
    """Mann-Whitney AUC: (#concordant + 0.5 #tied) / (P * N)."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=int)
    pos = scores[truth == positive]
    neg = scores[truth != positive]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes")
    conc = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                conc += 1.0
            elif p == q:
                conc += 0.5
    return conc / (pos.size * neg.size)


def confusion_by_hand(predictions, truths, positive: int = 1):
    tp = fp = tn = fn = 0
    for p, t in zip(predictions, truths):
        if t == positive:
            if p == positive:
                tp += 1
            else:
                fn += 1
        else:
            if p == positive:
                fp += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def ksvd_iteration(Y: np.ndarray, D: np.ndarray, T: int):
    """One K-SVD iteration in plain loops, from the unit atoms ``D``.

    Codes every column of ``Y`` with :func:`textbook_omp` (at most ``T``
    atoms). Then updates each atom in turn by one power step on the columns
    that use it: with ``E`` their residual plus the atom's own term, the atom
    becomes ``E`` times its coefficients, normalized, and its coefficients
    become its correlations with ``E``. Last, each atom that no column uses,
    in index order, becomes the normalized column of ``Y`` with the largest
    residual that no earlier atom took. Returns ``(atoms, codes)``.
    """
    D = D.copy()
    X = np.column_stack([textbook_omp(D, y, T) for y in Y.T])
    for a in range(D.shape[1]):
        users = np.flatnonzero(X[a])
        if users.size == 0:
            continue
        E = Y[:, users] - D @ X[:, users] + np.outer(D[:, a], X[a, users])
        v = E @ X[a, users]
        D[:, a] = v / np.linalg.norm(v)
        X[a, users] = D[:, a] @ E
    err = np.linalg.norm(Y - D @ X, axis=0)
    for a in range(D.shape[1]):
        if not X[a].any():
            j = int(np.argmax(err))
            err[j] = -1.0
            D[:, a] = Y[:, j] / np.linalg.norm(Y[:, j])
    return D, X

import numpy as np
import pytest

from blocksrc import BENIGN, MALIGNANT, Dictionary, bpdn_batch, class_residuals, normalize_columns, solvers
from blocksrc.blocks import block_stack
from blocksrc.harness import stratified_folds
from blocksrc.solvers import _well_posed, batch_omp
from blocksrc.synth import SynthSpec, synth_dataset

from .oracles import (
    exhaustive_sparse_fit,
    low_coherence_matrix,
    mutual_coherence,
    orthonormal_bpdn_oracle,
    per_column_class_residuals,
    per_column_l1_path,
    per_set_least_squares,
    textbook_omp,
)


def unit_dict(M, labels):
    return Dictionary.from_matrix(M, labels)


def omp(D, Y, T, eps=0.0):
    """:func:`batch_omp` on one problem, the dictionary ``D`` and the signals
    ``Y``: returns the codes, the residual norms computed from them, and the
    support sizes."""
    A = D.atoms
    G, B, ysq = A.T @ A, A.T @ Y, np.einsum("ij,ij->j", Y, Y)
    X, sizes = batch_omp(G[None], B[None], ysq[None], D.usable[None], T, eps)
    return X[0], np.linalg.norm(Y - A @ X[0], axis=0), sizes[0]


class TestNormalizeColumns:
    def test_euclidean_column(self):
        out, scales = normalize_columns(np.array([[3.0], [4.0], [0.0]]))
        np.testing.assert_allclose(out[:, 0], [0.6, 0.8, 0.0])
        assert scales[0] == 5.0

    def test_zero_column_degenerate(self):
        out, scales = normalize_columns(np.zeros((3, 1)))
        assert np.all(out == 0.0)
        assert scales[0] == 0.0

    def test_unit_column_unchanged(self):
        col = np.array([[1.0], [0.0]])
        out, scales = normalize_columns(col)
        np.testing.assert_allclose(out, col)
        assert scales[0] == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 9))
        M[:, 4] = 0.0
        once, _ = normalize_columns(M)
        twice, scales2 = normalize_columns(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_columns(np.array([[np.nan], [1.0]]))


class TestDictionary:
    def test_degenerate_flags(self):
        M = np.array([[1.0, 0.0], [2.0, 0.0]])
        D = unit_dict(M, [BENIGN, MALIGNANT])
        assert list(D.degenerate) == [False, True]
        assert np.all(D.atoms[:, 1] == 0.0)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="atom_labels"):
            Dictionary.from_matrix(np.eye(3), [0, 1])

    def test_unknown_label_rejected(self):
        # a code on atom 2 would count for neither class
        with pytest.raises(ValueError, match="unknown class id 2"):
            Dictionary(atoms=np.eye(3), atom_labels=[0, 1, 2], scales=np.ones(3))

    def test_non_finite_atoms_or_scales_rejected(self):
        for bad in ("atoms", "scales"):
            parts = {"atoms": np.eye(3), "atom_labels": [0, 1, 1], "scales": np.ones(3)}
            parts[bad] = parts[bad].copy()
            parts[bad][0, ...] = np.nan
            with pytest.raises(ValueError, match="finite"):
                Dictionary(**parts)


class TestOmp:
    def test_scaled_atom(self):
        D = unit_dict(np.eye(3), [0, 0, 1])
        X, rn, _ = omp(D, np.array([[0.0], [2.0], [0.0]]), 1, eps=0.0)
        np.testing.assert_allclose(X[:, 0], [0.0, 2.0, 0.0])
        assert rn[0] == 0.0
        assert list(np.flatnonzero(X[:, 0])) == [1]

    def test_zero_signal(self):
        rng = np.random.default_rng(1)
        D = unit_dict(rng.standard_normal((5, 7)), [0] * 4 + [1] * 3)
        X, rn, iters = omp(D, np.zeros((5, 1)), 4)
        assert np.all(X[:, 0] == 0.0)
        assert rn[0] == 0.0
        assert iters[0] == 0

    def test_matches_exhaustive_oracle_low_coherence(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            A = low_coherence_matrix(rng, 4, 8)
            assert mutual_coherence(A) < 0.5
            D = unit_dict(A, [0] * 4 + [1] * 4)
            i, j = rng.choice(8, size=2, replace=False)
            y = 1.0 * D.atoms[:, i] + 0.5 * D.atoms[:, j]
            X, rn, _ = omp(D, y[:, None], 2)
            support, res, _ = exhaustive_sparse_fit(D.atoms, y, 2)
            assert frozenset(np.flatnonzero(X[:, 0]).tolist()) == support
            assert rn[0] <= res + 1e-8

    def test_residual_monotone_and_support_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(4, 10))
            n = int(rng.integers(3, 14))
            t = int(rng.integers(1, min(d, n) + 1))
            D = unit_dict(rng.standard_normal((d, n)), rng.integers(0, 2, n))
            y = rng.standard_normal(d)
            prev = np.linalg.norm(y)
            # re-run step by step: residual after k atoms never increases
            last = None
            for k in range(1, t + 1):
                X, rn, _ = omp(D, y[:, None], k)
                assert rn[0] <= prev + 1e-9
                prev = rn[0]
                last = X[:, 0]
            assert np.count_nonzero(last) <= t

    def test_unit_atom_recovery(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            D = unit_dict(rng.standard_normal((6, 9)), rng.integers(0, 2, 9))
            k = int(rng.integers(0, 9))
            y = D.atoms[:, k].copy()
            X, _, _ = omp(D, y[:, None], 1)
            assert list(np.flatnonzero(X[:, 0])) == [k]

    def test_degenerate_atoms_excluded(self):
        M = np.eye(3)
        M[:, 1] = 0.0
        D = unit_dict(M, [0, 1, 1])
        X, _, _ = omp(D, np.array([[0.5], [1.0], [0.0]]), 3)
        assert 1 not in np.flatnonzero(X[:, 0])


class TestOmpBatch:
    def test_eps_stops_columns_independently(self):
        rng = np.random.default_rng(5)
        D = unit_dict(rng.standard_normal((6, 10)), [0] * 5 + [1] * 5)
        Y = np.column_stack([D.atoms[:, 0], rng.standard_normal(6)])
        X, rn, iters = omp(D, Y, 4, eps=1e-9)
        assert iters[0] == 1
        assert rn[0] <= 1e-9

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(300):
            d = int(rng.integers(3, 12))
            n = int(rng.integers(3, 20))
            M = rng.standard_normal((d, n))
            i, j, z = rng.choice(n, size=3, replace=False)
            if trial % 3 == 0:
                M[:, j] = M[:, i]  # exact duplicate atom
            if trial % 5 == 0:
                M[:, z] = 0.0  # zero atom
            D = unit_dict(M, rng.integers(0, 2, n))
            T = int(rng.integers(1, min(d, n) + 1))
            Y = rng.standard_normal((d, int(rng.integers(1, 6))))
            eps = rng.uniform(0.0, 0.5, Y.shape[1]) * np.linalg.norm(Y, axis=0)
            X, rn, iters = omp(D, Y, T, eps)
            for c in range(Y.shape[1]):
                x, ref = X[:, c].copy(), textbook_omp(D.atoms, Y[:, c], T, eps[c])
                if trial % 3 == 0:
                    # twins tie exactly, so either may enter, never both
                    assert x[i] == 0.0 or x[j] == 0.0
                    for v in (x, ref):
                        v[i], v[j] = v[i] + v[j], 0.0
                assert np.array_equal(np.flatnonzero(x), np.flatnonzero(ref))
                assert iters[c] == np.count_nonzero(ref)
                np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-9)
                assert rn[c] == pytest.approx(np.linalg.norm(Y[:, c] - D.atoms @ ref), abs=1e-9)

    def test_long_supports_on_ill_conditioned_grams_match_textbook_oracle(self):
        """Supports of d/2 to d atoms that share a common component (support
        Grams with condition numbers up to about 1e6): the per-step updates of
        the inverse Gram must not drift the codes off the oracle's."""
        rng = np.random.default_rng(41)
        for _ in range(40):
            d = int(rng.integers(32, 65))
            n = int(rng.integers(d, d + 41))
            T = int(rng.integers(d // 2, d + 1))
            M = 4.0 * rng.standard_normal(d)[:, None] + rng.standard_normal((d, n))
            D = unit_dict(M, rng.integers(0, 2, n))
            Y = rng.standard_normal((d, 4))
            X, _, iters = omp(D, Y, T, 0.0)
            for c in range(Y.shape[1]):
                ref = textbook_omp(D.atoms, Y[:, c], T, 0.0)
                assert np.array_equal(np.flatnonzero(X[:, c]), np.flatnonzero(ref))
                assert iters[c] == np.count_nonzero(ref)
                np.testing.assert_allclose(X[:, c], ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())

    def test_stacked_columns_retiring_at_different_steps_match_single_calls(self):
        """One stacked call whose columns stop at different steps (eps met,
        zero signals, exact fits, supports that exhaust a low-rank
        dictionary, unusable atoms that differ per problem) codes every
        column as a call on that problem alone, and as a call on that column
        alone, does."""
        rng = np.random.default_rng(12)
        P, d, n, s, T = 4, 8, 12, 9, 6
        M = rng.standard_normal((P, d, n))
        M[1] = rng.standard_normal((d, 3)) @ rng.standard_normal((3, n))  # rank 3
        M[2, :, 5] = M[2, :, 4]  # exact duplicate
        usable = np.ones((P, n), dtype=bool)
        for p in range(P):
            usable[p, [p, (3 * p + 5) % n]] = False
        M[~usable[:, None, :].repeat(d, axis=1)] = 0.0
        A, _ = normalize_columns(M)
        Y = rng.standard_normal((P, d, s))
        Y[:, :, 0] = 0.0
        Y[:, :, 1] = A[:, :, 7]  # fits exactly after one atom
        Y[3, :, 2] = 0.5 * A[3, :, 6] - 2.0 * A[3, :, 9]
        ynorm = np.linalg.norm(Y, axis=1)
        eps = ynorm * np.array([0.0, 0.0, 0.0, 0.0, 0.1, 0.3, 0.6, 0.0, 0.8])
        G, B, ysq = A.mT @ A, A.mT @ Y, ynorm**2
        X, sizes = batch_omp(G, B, ysq, usable, T, eps)
        assert {0, 1, 2, 3, T} <= set(sizes.ravel().tolist())
        for p in range(P):
            one = (slice(p, p + 1),)
            Xp, sp = batch_omp(G[one], B[one], ysq[one], usable[one], T, eps[one])
            np.testing.assert_array_equal(sizes[p], sp[0])
            np.testing.assert_allclose(X[p], Xp[0], rtol=0.0, atol=1e-12 * np.abs(Xp).max())
            for c in range(s):
                Xc, sc = batch_omp(G[one], B[one][..., c : c + 1], ysq[one][:, c : c + 1],
                                   usable[one], T, eps[one][:, c : c + 1])
                assert sizes[p, c] == sc[0, 0]
                np.testing.assert_allclose(X[p, :, c], Xc[0, :, 0], rtol=0.0,
                                           atol=1e-12 * max(np.abs(Xc).max(), 1e-300))

    def test_near_duplicate_atoms_never_share_a_support(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((6, 4))
        M[:, 1] = M[:, 0] + 1e-7 * rng.standard_normal(6)
        D = unit_dict(M, [0, 0, 1, 1])
        Y = rng.standard_normal((6, 20))
        X, _, _ = omp(D, Y, 4)
        assert not np.any((X[0] != 0.0) & (X[1] != 0.0))
        assert np.all(np.abs(X).sum(axis=0) <= 10.0 * np.linalg.norm(Y, axis=0))


class TestBpdn:
    def test_origin_when_eps_dominates(self):
        rng = np.random.default_rng(2)
        D = unit_dict(rng.standard_normal((5, 8)), [0] * 4 + [1] * 4)
        y = rng.standard_normal(5)
        # with an atom mask too: no column is left to solve
        for allowed in (None, np.arange(8)[:, None] % 3 > 0):
            X, _, feas, iters = bpdn_batch(D, y[:, None], float(np.linalg.norm(y)) * 1.5, allowed=allowed)
            assert feas.all()
            assert np.all(X[:, 0] == 0.0)
            assert iters[0] == 0

    def test_identity_analytic_solution(self):
        D = unit_dict(np.eye(2), [0, 1])
        y = np.array([3.0, 0.1])
        X, _, feas, _ = bpdn_batch(D, y[:, None], 0.5)
        assert feas.all()
        lam = np.sqrt(0.5**2 - 0.1**2)
        np.testing.assert_allclose(X[:, 0], [3.0 - lam, 0.0], atol=1e-4)
        oracle = orthonormal_bpdn_oracle(np.eye(2), y, 0.5)
        np.testing.assert_allclose(X[:, 0], oracle, atol=1e-4)

    def test_orthonormal_oracle_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(3, 8))
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            D = unit_dict(Q, rng.integers(0, 2, d))
            y = rng.standard_normal(d)
            eps = float(rng.uniform(0.2, 0.8)) * float(np.linalg.norm(y))
            X, _, feas, _ = bpdn_batch(D, y[:, None], eps)
            assert feas.all()
            oracle = orthonormal_bpdn_oracle(D.atoms, y, eps)
            np.testing.assert_allclose(X[:, 0], oracle, atol=1e-4)

    def test_dominant_atom_identified(self):
        rng = np.random.default_rng(21)
        A = low_coherence_matrix(rng, 5, 6, target=0.55)
        D = unit_dict(A, [0, 0, 0, 1, 1, 1])
        y = 0.9 * D.atoms[:, 3]
        X, _, feas, _ = bpdn_batch(D, y[:, None], 0.05)
        assert feas.all()
        assert int(np.argmax(np.abs(X[:, 0]))) == 3
        assert abs(X[3, 0] - 0.9) <= 0.09
        solo, _, _ = omp(D, y[:, None], 1)
        assert list(np.flatnonzero(solo[:, 0])) == [3]
        assert solo[3, 0] == pytest.approx(0.9, abs=1e-9)

    def test_feasibility_bound_random(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            d = int(rng.integers(4, 9))
            n = int(rng.integers(3, 12))
            D = unit_dict(rng.standard_normal((d, n)), rng.integers(0, 2, n))
            y = rng.standard_normal(d)
            eps = float(rng.uniform(0.1, 1.2)) * float(np.linalg.norm(y))
            X, rn, feas, _ = bpdn_batch(D, y[:, None], eps)
            assert np.isfinite(X).all()
            if not feas[0]:
                # the least-squares code, whose floor lies above the bound
                xs, *_ = np.linalg.lstsq(D.atoms, y, rcond=None)
                assert rn[0] > eps
                assert rn[0] <= np.linalg.norm(y - D.atoms @ xs) + 1e-6
                continue
            assert rn[0] <= eps * (1.0 + 1e-3)

    def test_infeasible_carries_best_iterate(self):
        rng = np.random.default_rng(4)
        D = unit_dict(rng.standard_normal((10, 2)), [0, 1])
        y = rng.standard_normal(10)
        X, rn, feas, _ = bpdn_batch(D, y[:, None], 1e-9)
        assert not feas[0]
        assert rn[0] > 1e-9
        assert np.isfinite(X).all()
        # the infeasible code is the least-squares code on the usable atoms
        xs, *_ = np.linalg.lstsq(D.atoms, y, rcond=None)
        assert rn[0] <= np.linalg.norm(y - D.atoms @ xs) + 1e-6

    def test_eps_validation(self):
        D = unit_dict(np.eye(2), [0, 1])
        with pytest.raises(ValueError, match="eps"):
            bpdn_batch(D, np.ones((2, 1)), 0.0)


def assert_kkt(D, y, x):
    """``D_i^T r = lam sign(x_i)`` on the support and ``|D_i^T r| <= lam``
    off it, to 1e-8 relative: the optimality conditions of the l1 code."""
    c = D.atoms.T @ (y - D.atoms @ x)
    on = x != 0
    assert on.any()
    lam = float(np.mean(c[on] * np.sign(x[on])))
    assert lam > 0
    np.testing.assert_allclose(c[on], lam * np.sign(x[on]), rtol=0, atol=1e-8 * lam)
    assert np.all(np.abs(c[~on]) <= lam * (1 + 1e-8))


def reachable_problems(rng, count):
    """Overcomplete 8-row problems: eps below ||y|| is always reachable."""
    for _ in range(count):
        n = int(rng.integers(12, 21))
        D = unit_dict(rng.standard_normal((8, n)), rng.integers(0, 2, n))
        Y = rng.standard_normal((8, 3))
        eps = rng.uniform(0.05, 0.9, 3) * np.linalg.norm(Y, axis=0)
        yield D, Y, eps


def assert_least_squares_shortcut(D, Y, eps, allowed, result):
    """Check one ``bpdn_batch`` call's ``result`` against the per-set
    ``lstsq`` oracle: a column whose floor on its own usable atoms exceeds
    its bound is infeasible after 0 iterations, with the oracle's code and
    floor to 1e-9 relative; every other column walks the path unless
    ``||y|| <= eps``. Returns the mask of shortcut columns."""
    X, rn, feas, iters = result
    own = D.usable[:, None] if allowed is None else D.usable[:, None] & allowed
    xo, floor = per_set_least_squares(D.atoms, Y, np.broadcast_to(own, (D.n_atoms, Y.shape[1])))
    lost = floor > eps
    assert not feas[lost].any()
    assert np.array_equal(iters > 0, ~lost & (np.linalg.norm(Y, axis=0) > eps))
    for c in np.flatnonzero(lost):
        np.testing.assert_allclose(X[:, c], xo[:, c], rtol=0.0, atol=1e-9 * np.abs(xo[:, c]).max())
    np.testing.assert_allclose(rn[lost], floor[lost], rtol=1e-9)
    return lost


class TestBpdnExactPath:
    def test_reachable_codes_meet_bound_with_equality(self):
        for D, Y, eps in reachable_problems(np.random.default_rng(31), 40):
            X, rn, feas, iters = bpdn_batch(D, Y, eps)
            assert feas.all() and (iters > 0).all()
            resid = np.linalg.norm(Y - D.atoms @ X, axis=0)
            assert np.all(np.abs(resid - eps) <= 1e-9 * eps)
            np.testing.assert_allclose(rn, resid, rtol=1e-12)

    def test_reachable_codes_satisfy_kkt(self):
        for D, Y, eps in reachable_problems(np.random.default_rng(33), 40):
            X, _, feas, _ = bpdn_batch(D, Y, eps)
            assert feas.all()
            for i in range(Y.shape[1]):
                assert_kkt(D, Y[:, i], X[:, i])

    def test_duplicate_and_zero_atoms(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            M = rng.standard_normal((8, 14))
            M[:, 5] = M[:, 2]
            M[:, 9] = 0.0
            D = unit_dict(M, [0] * 7 + [1] * 7)
            y = rng.standard_normal(8)
            eps = float(rng.uniform(0.05, 0.9)) * float(np.linalg.norm(y))
            X, rn, feas, _ = bpdn_batch(D, y[:, None], eps)
            assert feas.all()
            assert X[9, 0] == 0.0
            assert X[2, 0] == 0.0 or X[5, 0] == 0.0
            assert abs(rn[0] - eps) <= 1e-9 * eps
            assert_kkt(D, y, X[:, 0])

    def test_matches_per_column_oracle(self):
        rng = np.random.default_rng(34)
        walked = 0
        for trial in range(300):
            d = int(rng.integers(3, 17))
            n = int(rng.integers(3, 25))
            M = rng.standard_normal((d, n))
            i, j, z, *k = rng.choice(n, size=min(n, 4), replace=False)
            if trial % 3 == 0:
                M[:, j] = M[:, i]  # exact duplicate atom
            if trial % 5 == 0:
                M[:, z] = 0.0  # zero atom
            if trial % 7 == 0 and k:
                M[:, k[0]] = M[:, i] + 1e-7 * rng.standard_normal(d)  # near-duplicate atom
            D = unit_dict(M, rng.integers(0, 2, n))
            Y = rng.standard_normal((d, int(rng.integers(1, 10))))
            eps = rng.uniform(0.01, 0.5, Y.shape[1]) * np.linalg.norm(Y, axis=0)
            walked += self.assert_matches_oracle(D, Y, eps, twins=(i, j) if trial % 3 == 0 else None)
        assert walked >= 1000

    def test_columns_retiring_mid_lockstep_match_oracle(self):
        # bounds from 0.5 to 0.01 of ||y|| end the paths many steps apart
        rng = np.random.default_rng(35)
        D = unit_dict(rng.standard_normal((16, 24)), rng.integers(0, 2, 24))
        Y = rng.standard_normal((16, 9))
        eps = np.geomspace(0.5, 0.01, 9) * np.linalg.norm(Y, axis=0)
        _, _, _, iters = bpdn_batch(D, Y, eps)
        assert iters.max() - iters.min() >= 10
        assert self.assert_matches_oracle(D, Y, eps) == 9

    @staticmethod
    def assert_matches_oracle(D, Y, eps, twins=None):
        """Compare every column of one ``bpdn_batch`` call with the
        per-column l1 path; returns how many columns walked it."""
        result = X, rn, feas, iters = bpdn_batch(D, Y, eps)
        Au = D.atoms[:, D.usable]
        G = Au.T @ Au
        # columns whose least-squares floor misses the bound take the
        # shortcut and never walk the path
        walks = ~assert_least_squares_shortcut(D, Y, eps, None, result)
        assert np.array_equal(iters > 0, walks)
        for c in np.flatnonzero(walks):
            xu, _, ok, steps = per_column_l1_path(Au, G, Y[:, c], eps[c])
            ref = np.zeros(D.n_atoms)
            ref[D.usable] = xu
            x = X[:, c].copy()
            assert feas[c] == ok
            assert iters[c] == steps
            if twins is not None:
                # twins tie exactly, so either may enter, never both
                i, j = twins
                assert x[i] == 0.0 or x[j] == 0.0
                for v in (x, ref):
                    v[i], v[j] = v[i] + v[j], 0.0
            np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())
            if ok:
                assert abs(np.linalg.norm(Y[:, c] - D.atoms @ X[:, c]) - eps[c]) <= 1e-9 * eps[c]
                assert rn[c] == pytest.approx(eps[c], rel=1e-9)
        return int(walks.sum())


def fold_problem(rng, d, per_fold, k, m):
    """A shared atom set of ``k`` folds of ``per_fold`` atoms and ``m``
    signals, each of a random fold; a signal may use the atoms of every
    other fold, as a held-out block may use its fold's training blocks."""
    n = k * per_fold
    atom_fold = np.repeat(np.arange(k), per_fold)
    col_fold = rng.integers(0, k, m)
    M = rng.standard_normal((d, n))
    Y = rng.standard_normal((d, m))
    eps = rng.uniform(0.02, 0.5, m) * np.linalg.norm(Y, axis=0)
    return M, rng.integers(0, 2, n), Y, eps, atom_fold[:, None] != col_fold[None, :]


class TestBpdnMasked:
    """Each column of a masked call is the unmasked call on its own atoms."""

    @staticmethod
    def assert_matches_own_atoms(D, Y, eps, allowed, twins=()):
        """Compare every column of one masked ``bpdn_batch`` call with an
        unmasked call on a dictionary of that column's atoms alone; returns
        how many columns walked the path. ``twins`` lists pairs of equal
        atoms, whose coefficients are compared as one."""
        result = X, rn, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
        assert np.all(X[~allowed] == 0.0)
        assert_least_squares_shortcut(D, Y, eps, allowed, result)
        for c in range(Y.shape[1]):
            own = np.flatnonzero(allowed[:, c])
            sub = Dictionary(atoms=D.atoms[:, own], atom_labels=D.atom_labels[own], scales=D.scales[own])
            xs, rs, fs, its = bpdn_batch(sub, Y[:, c : c + 1], eps[c])
            ref = np.zeros(D.n_atoms)
            ref[own] = xs[:, 0]
            x = X[:, c].copy()
            assert feas[c] == fs[0]
            assert iters[c] == its[0]
            for i, j in twins:
                if allowed[i, c] and allowed[j, c]:
                    for v in (x, ref):
                        v[i], v[j] = v[i] + v[j], 0.0
            np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-9 * max(np.abs(ref).max(), 1e-300))
            assert rn[c] == pytest.approx(rs[0], rel=1e-9, abs=1e-12)
        return int((iters > 0).sum())

    def test_random_folds(self):
        rng = np.random.default_rng(41)
        walked = 0
        for _ in range(30):
            d, per_fold, k = int(rng.integers(4, 13)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
            M, labels, Y, eps, allowed = fold_problem(rng, d, per_fold, k, int(rng.integers(1, 12)))
            walked += self.assert_matches_own_atoms(unit_dict(M, labels), Y, eps, allowed)
        assert walked >= 100

    def test_atoms_duplicated_across_folds(self):
        # the same block in two folds: a column of one fold sees only the
        # other's copy, a column of a third fold sees both
        rng = np.random.default_rng(42)
        walked = 0
        for _ in range(20):
            M, labels, Y, eps, allowed = fold_problem(rng, 8, 4, 3, 9)
            M[:, 5] = M[:, 1]  # atom 1 (fold 0) and atom 5 (fold 1)
            labels[5] = labels[1]
            # one signal close to the duplicated atom, so that it enters
            Y[:, 0] = M[:, 1] + 0.1 * rng.standard_normal(8)
            walked += self.assert_matches_own_atoms(unit_dict(M, labels), Y, eps, allowed, twins=[(1, 5)])
        assert walked >= 60

    def test_zero_block(self):
        rng = np.random.default_rng(43)
        M, labels, Y, eps, allowed = fold_problem(rng, 8, 4, 3, 8)
        M[:, 6] = 0.0  # a zero training block: a degenerate atom
        Y[:, 2] = 0.0  # a zero held-out block: the zero code, feasible
        eps[2] = 0.1
        D = unit_dict(M, labels)
        assert self.assert_matches_own_atoms(D, Y, eps, allowed) >= 3
        X, rn, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
        assert np.all(X[6] == 0.0)
        assert feas[2] and iters[2] == 0 and rn[2] == 0.0 and np.all(X[:, 2] == 0.0)

    def test_fold_all_least_squares(self):
        # fold 1's columns may use only two atoms in 10 dimensions, so no
        # bound below their floor is reachable and all take the shortcut;
        # fold 0's columns span the space on ten atoms and walk
        rng = np.random.default_rng(44)
        M = rng.standard_normal((10, 12))
        labels = np.array([0, 1] * 6)
        Y = rng.standard_normal((10, 6))
        eps = 0.3 * np.linalg.norm(Y, axis=0)
        allowed = np.zeros((12, 6), dtype=bool)
        allowed[:10, :3] = True
        allowed[10:, 3:] = True
        D = unit_dict(M, labels)
        X, rn, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
        assert not feas[3:].any() and np.all(iters[3:] == 0)
        assert np.all(rn[3:] > eps[3:])
        assert self.assert_matches_own_atoms(D, Y, eps, allowed) == 3

    def test_each_column_alone_matches_the_wide_call(self):
        # every column solved again in a call of its own: a lockstep
        # boundary at every column must not change a step, a flag or a code
        rng = np.random.default_rng(45)
        M, labels, Y, eps, allowed = fold_problem(rng, 12, 6, 4, 40)
        D = unit_dict(M, labels)
        X, _, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
        for c in range(Y.shape[1]):
            xc, _, fc, ic = bpdn_batch(D, Y[:, c : c + 1], eps[c], allowed=allowed[:, c : c + 1])
            assert ic[0] == iters[c] and fc[0] == feas[c]
            np.testing.assert_allclose(xc[:, 0], X[:, c], rtol=0.0, atol=1e-9 * max(np.abs(X[:, c]).max(), 1e-300))
        assert self.assert_matches_own_atoms(D, Y, eps, allowed) >= 30

    @staticmethod
    def code8_call(seed, roi_size=8, noise_sigma=SynthSpec.noise_sigma, position=0):
        """The 8-px coding call of a 10-fold cell on 37 ROIs per class (8x8
        unless ``roi_size`` says otherwise): every held-out block of one
        position on its fold's 66 or 67 training blocks, at 64 slots, all in
        one call. Returns ``(D, Y, eps, allowed)``."""
        spec = SynthSpec(roi_size=roi_size, block_size=8, samples_per_class=37, noise_sigma=noise_sigma)
        samples = synth_dataset(spec, seed)
        folds = stratified_folds([s.label for s in samples], 10, seed)
        stack, labels = block_stack(samples, 8, 8)
        D = Dictionary.from_matrix(stack[position], labels)
        test_idx = np.concatenate([np.flatnonzero(folds == f) for f in range(10)])
        allowed = folds[:, None] != folds[test_idx][None, :]
        Y = stack[position][:, test_idx]
        assert Y.shape == (64, 74) and set(allowed.sum(axis=0)) <= {66, 67}
        return D, Y, 0.05 * np.linalg.norm(Y, axis=0), allowed

    # the code8 data at four seeds, and one noise-1.0 position of the
    # MIAS-sized cell (64x64 ROIs)
    @pytest.mark.parametrize("call", [(1,), (2,), (3,), (7919,), (20, 64, 1.0, 27)],
                             ids=lambda call: "-".join(map(str, call)))
    def test_code8_call_matches_per_column_oracle(self, call):
        D, Y, eps, allowed = self.code8_call(*call)
        X, _, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
        walks = np.flatnonzero(iters > 0)
        assert walks.size >= 60
        for c in walks:
            own = np.flatnonzero(allowed[:, c] & D.usable)
            A = D.atoms[:, own]
            xu, _, ok, steps = per_column_l1_path(A, A.T @ A, Y[:, c], eps[c])
            assert iters[c] == steps and feas[c] == ok
            ref = np.zeros(D.n_atoms)
            ref[own] = xu
            np.testing.assert_allclose(X[:, c], ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_code8_call_takes_no_lstsq_and_one_refit_solve(self, monkeypatch, seed):
        # every fold's 66 or 67 atoms span R^64, so no column needs lstsq for
        # its floor, and the walk refits every feasible column in one solve
        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        solves, in_walk = [], []
        solve, walk = np.linalg.solve, solvers._l1_paths

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        def counting_walk(*args, **kwargs):
            before = len(solves)
            out = walk(*args, **kwargs)
            in_walk.append(len(solves) - before)
            return out

        refits, refit = [], solvers._refit

        def recording_refit(Gp, slot, *args):
            refits.append(len(slot))
            return refit(Gp, slot, *args)

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(solvers, "_l1_paths", counting_walk)
        monkeypatch.setattr(solvers, "_refit", recording_refit)
        D, Y, eps, allowed = self.code8_call(seed)
        _, _, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
        assert (iters > 0).sum() >= 60 and feas.all()
        # one refit of every walked column, in one solve
        assert in_walk == [1] and refits == [int((iters > 0).sum())]

    def test_wide_set_that_does_not_span_takes_lstsq(self, monkeypatch):
        # 70 atoms in a 60-dimensional subspace of R^64 plus a duplicate: a
        # wide set that does not span keeps lstsq, beside a wide set of 67
        # atoms that spans R^64 and walks without it
        rng = np.random.default_rng(51)
        basis, _ = np.linalg.qr(rng.standard_normal((64, 60)))
        flat = basis @ rng.standard_normal((60, 70))
        M = np.hstack([flat, flat[:, :1], rng.standard_normal((64, 67))])
        D = unit_dict(M, rng.integers(0, 2, M.shape[1]))
        allowed = np.zeros((M.shape[1], 8), dtype=bool)
        allowed[:71, :4] = True
        allowed[71:, 4:] = True
        Y = rng.standard_normal((64, 8))
        eps = 0.05 * np.linalg.norm(Y, axis=0)
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(A, b, rcond=None):
            calls.append(A.shape)
            return lstsq(A, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        X, rn, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
        assert calls == [(64, 71)]
        A = D.atoms[:, np.arange(71)]  # gathered, as the solver gathers a set
        x, *_ = lstsq(A, Y[:, :4], rcond=None)
        assert np.array_equal(X[:71, :4], x) and np.all(X[71:, :4] == 0.0)
        assert np.array_equal(rn[:4], np.linalg.norm(A @ x - Y[:, :4], axis=0))
        assert np.all(rn[:4] > eps[:4]) and not feas[:4].any() and np.all(iters[:4] == 0)
        assert feas[4:].all() and np.all(iters[4:] > 0)

    def test_pending_terms_match_terms_applied_at_once(self, monkeypatch):
        # the walk holds its rank-1 terms pending for solvers._PENDING steps;
        # with one, each is applied as it is made. Both must take the same
        # steps to the same codes, also where an atom leaves on a step that
        # applies the pending terms
        events = []
        term, flush = solvers._slot_term, solvers._flush

        def record_term(k, w, sigma, leave=None, hk=None):
            events.append(int(leave.sum()))
            return term(k, w, sigma, leave, hk)

        def record_flush(*args):
            events.append("flush")
            flush(*args)

        monkeypatch.setattr(solvers, "_slot_term", record_term)
        monkeypatch.setattr(solvers, "_flush", record_flush)
        rng = np.random.default_rng(50)
        calls = [self.code8_call(1)]
        for d, per_fold, rel in ((12, 6, 0.02), (16, 10, 0.01), (8, 8, 0.001)):
            M, labels, Y, _, allowed = fold_problem(rng, d, per_fold, 4, 40)
            calls.append((unit_dict(M, labels), Y, rel * np.linalg.norm(Y, axis=0), allowed))
        leaves = leaves_on_flush = 0
        for D, Y, eps, allowed in calls:
            events.clear()
            X, _, feas, iters = bpdn_batch(D, Y, eps, allowed=allowed)
            assert solvers._PENDING > 1 and events.count("flush") >= 1
            leaves += sum(e for e in events if e != "flush")
            leaves_on_flush += sum(e for e, nxt in zip(events, events[1:]) if e != "flush" and nxt == "flush")
            with monkeypatch.context() as one:
                one.setattr(solvers, "_PENDING", 1)
                Xe, _, feas_e, iters_e = bpdn_batch(D, Y, eps, allowed=allowed)
            assert np.array_equal(iters, iters_e) and np.array_equal(feas, feas_e)
            for c in np.flatnonzero(iters > 0):
                np.testing.assert_allclose(X[:, c], Xe[:, c], rtol=0.0, atol=1e-9 * np.abs(Xe[:, c]).max())
        assert leaves >= 500 and leaves_on_flush >= 50

    @staticmethod
    def gram_route(D, allowed, c):
        """Whether column ``c``'s atom set passes the Gram route's guard."""
        own = np.flatnonzero(allowed[:, c])
        return own.size <= D.dim and _well_posed((D.atoms[:, own].T @ D.atoms[:, own])[None])[0]

    def test_atom_sets_of_different_sizes(self):
        # sets of 2 to 12 atoms in 16 dimensions share one padded stack; in
        # the same call a set of 18 atoms (more than the dimensions) and one
        # holding a duplicate atom take lstsq beside it
        rng = np.random.default_rng(47)
        shortcut = 0
        for _ in range(20):
            M, Y = rng.standard_normal((16, 12)), rng.standard_normal((16, 10))
            eps = rng.uniform(0.02, 0.5, 10) * np.linalg.norm(Y, axis=0)
            sizes = rng.choice(np.arange(2, 13), 3, replace=False)
            order = rng.permutation(12)
            allowed = np.zeros((19, 12), dtype=bool)
            for c in range(10):
                allowed[order[: sizes[rng.integers(3)]], c] = True
            # atoms 12-17 are new, atom 18 duplicates atom 0
            M = np.hstack([M, rng.standard_normal((16, 6)), M[:, :1]])
            allowed[:18, 10] = True
            allowed[[0, 1, 2, 18], 11] = True
            Y = np.hstack([Y, rng.standard_normal((16, 2))])
            eps = np.append(eps, rng.uniform(0.02, 0.5, 2) * np.linalg.norm(Y[:, 10:], axis=0))
            D = unit_dict(M, rng.integers(0, 2, 19))
            assert all(self.gram_route(D, allowed, c) for c in range(10))
            assert not self.gram_route(D, allowed, 10) and not self.gram_route(D, allowed, 11)
            self.assert_matches_own_atoms(D, Y, eps, allowed, twins=[(0, 18)])
            shortcut += int((~bpdn_batch(D, Y, eps, allowed=allowed)[2]).sum())
        assert shortcut >= 150

    def test_duplicate_and_near_duplicate_atoms_fail_the_guard(self):
        rng = np.random.default_rng(48)
        M = rng.standard_normal((12, 8))
        M[:, 3] = M[:, 1]  # an exact duplicate
        a = M[:, 5] / np.linalg.norm(M[:, 5])
        v = rng.standard_normal(12)
        v -= (v @ a) * a
        M[:, 6] = a + np.sqrt(2e-12) * v / np.linalg.norm(v)  # cos = 1 - 1e-12
        D = unit_dict(M, [0, 1] * 4)
        assert 1.0 - D.atoms[:, 5] @ D.atoms[:, 6] == pytest.approx(1e-12, rel=1e-3)
        allowed = np.ones((8, 9), dtype=bool)
        allowed[[5, 6], :3] = False  # holds the duplicate pair
        allowed[[1, 3], 3:6] = False  # holds the near-duplicate pair
        allowed[[3, 6], 6:] = False  # holds neither
        Y = rng.standard_normal((12, 9))
        eps = rng.uniform(0.02, 0.3, 9) * np.linalg.norm(Y, axis=0)
        assert [self.gram_route(D, allowed, c) for c in (0, 3, 6)] == [False, False, True]
        self.assert_matches_own_atoms(D, Y, eps, allowed, twins=[(1, 3)])
        assert not bpdn_batch(D, Y, eps, allowed=allowed)[2].any()

    def test_overcomplete_sets_beside_gram_sets(self):
        # sets of 12 and 7 atoms in 6 dimensions take lstsq (their Grams are
        # singular) and walk; a set of 3 atoms takes the Gram in the same call
        rng = np.random.default_rng(49)
        walked = shortcut = 0
        for _ in range(20):
            M, Y = rng.standard_normal((6, 12)), rng.standard_normal((6, 10))
            eps = rng.uniform(0.02, 0.5, 10) * np.linalg.norm(Y, axis=0)
            allowed = np.ones((12, 10), dtype=bool)
            allowed[3:, 4:8] = False
            allowed[7:, 8:] = False
            D = unit_dict(M, rng.integers(0, 2, 12))
            assert [self.gram_route(D, allowed, c) for c in (0, 4, 8)] == [False, True, False]
            walked += self.assert_matches_own_atoms(D, Y, eps, allowed)
            shortcut += int((~bpdn_batch(D, Y, eps, allowed=allowed)[2]).sum())
        assert walked >= 120 and shortcut >= 60

    def test_mask_shape_and_empty_columns_rejected(self):
        D = unit_dict(np.eye(3), [0, 1, 0])
        with pytest.raises(ValueError, match="atom mask of shape"):
            bpdn_batch(D, np.ones((3, 2)), 0.1, allowed=np.ones((3, 1), dtype=bool))
        allowed = np.ones((3, 2), dtype=bool)
        allowed[:, 1] = False
        with pytest.raises(ValueError, match="allows no usable atom"):
            bpdn_batch(D, np.ones((3, 2)), 0.1, allowed=allowed)

    def test_class_residuals_per_atom_set(self):
        rng = np.random.default_rng(46)
        M, labels, Y, eps, allowed = fold_problem(rng, 8, 4, 3, 7)
        labels[:] = np.tile([0, 1], 6)
        D = unit_dict(M, labels)
        X, *_ = bpdn_batch(D, Y, eps, allowed=allowed)
        resid, l1 = class_residuals(D, X, Y, allowed=allowed)
        for c in range(Y.shape[1]):
            own = np.flatnonzero(allowed[:, c])
            sub = Dictionary(atoms=D.atoms[:, own], atom_labels=D.atom_labels[own], scales=D.scales[own])
            r, m = class_residuals(sub, X[own, c : c + 1], Y[:, c : c + 1])
            np.testing.assert_allclose(resid[:, c : c + 1], r, rtol=1e-12)
            np.testing.assert_allclose(l1[:, c : c + 1], m, rtol=1e-12)
        # a column whose own atoms lack a class is refused
        one_class = allowed & (labels == 0)[:, None]
        with pytest.raises(ValueError, match="has no atoms"):
            class_residuals(D, X * one_class, Y, allowed=one_class)

    def test_class_residuals_read_no_code_off_the_mask(self):
        # each code is set to zero off its column's atoms first, so noise
        # there changes nothing, to the last bit
        rng = np.random.default_rng(50)
        M, labels, Y, eps, allowed = fold_problem(rng, 8, 4, 3, 9)
        labels[:] = np.tile([0, 1], 6)
        D = unit_dict(M, labels)
        X, *_ = bpdn_batch(D, Y, eps, allowed=allowed)
        noisy = X + np.where(allowed, 0.0, rng.standard_normal(X.shape))
        clean, dirty = class_residuals(D, X, Y, allowed=allowed), class_residuals(D, noisy, Y, allowed=allowed)
        for a, b in zip(clean, dirty):
            assert np.array_equal(a, b)


class TestInverseSlotStore:
    """Both pursuits keep each column's inverse slot Gram in a zero stack:
    the used slots hold the inverse of their atoms' Gram, the free slots
    exactly zero."""

    def test_entering_and_leaving_atoms_keep_the_store_exact(self):
        # the walk's protocol: a term per event, pending until _flush, and a
        # leaving atom's slot zeroed at once in H and in U
        rng = np.random.default_rng(61)
        c, slots, n = 5, 6, 12
        A, _ = normalize_columns(rng.standard_normal((64, n)))
        G = A.T @ A
        H = np.zeros((c, slots, slots))
        U = np.zeros((c, slots, solvers._PENDING))
        a = np.zeros((c, solvers._PENDING))
        p, ar = 0, np.arange(c)
        slot = np.full((c, slots), -1)  # each slot's atom, -1 where free
        leaves = flushes = 0
        for _ in range(80):
            used = slot >= 0
            leave = used.any(axis=1) & ((rng.random(c) < 0.4) | used.all(axis=1))
            k = np.array([rng.choice(np.flatnonzero(u)) if go else np.argmin(u) for u, go in zip(used, leave)])
            atom = np.array([rng.choice(np.setdiff1d(np.arange(n), row[row >= 0])) for row in slot])
            g = np.where(used, G[slot, atom[:, None]], 0.0)
            w = solvers._inverse_times(H, U[:, :, :p], a[:, :p], g)
            sigma = 1.0 - np.einsum("ct,ct->c", g, w)
            e, gone = ar[leave], k[leave]
            hk = solvers._inverse_times(H[e], U[e, :, :p], a[e, :p], np.eye(slots)[gone])
            U[:, :, p], a[:, p] = solvers._slot_term(k, w, sigma, leave, hk)
            p += 1
            H[e, gone, :] = 0.0
            H[e, :, gone] = 0.0
            U[e, gone] = 0.0
            if p == solvers._PENDING:
                solvers._flush(H, U[:, :, :p], a[:, :p])
                U[:], p = 0.0, 0
                flushes += 1
            slot[ar, k] = np.where(leave, -1, atom)
            leaves += int(leave.sum())
            inverse = H.copy()
            solvers._flush(inverse, U[:, :, :p], a[:, :p])
            for col in range(c):
                on, off = np.flatnonzero(slot[col] >= 0), np.flatnonzero(slot[col] < 0)
                atoms = slot[col, on]
                np.testing.assert_allclose(
                    inverse[col][np.ix_(on, on)], np.linalg.inv(G[np.ix_(atoms, atoms)]), rtol=0.0, atol=1e-12
                )
                assert np.all(inverse[col, off] == 0.0) and np.all(inverse[col, :, off] == 0.0)
        assert leaves >= 100 and flushes >= 5


class TestClassResiduals:
    def test_single_class_support(self):
        rng = np.random.default_rng(6)
        D = unit_dict(rng.standard_normal((5, 4)), [BENIGN, BENIGN, MALIGNANT, MALIGNANT])
        y = rng.standard_normal(5)
        x = np.array([0.7, -0.2, 0.0, 0.0])
        resid, l1 = class_residuals(D, x[:, None], y[:, None])
        assert l1[MALIGNANT, 0] == 0.0
        overall = np.linalg.norm(y - D.atoms @ x)
        assert resid[BENIGN, 0] == pytest.approx(overall)

    def test_zero_code(self):
        rng = np.random.default_rng(8)
        D = unit_dict(rng.standard_normal((5, 4)), [0, 0, 1, 1])
        y = rng.standard_normal(5)
        resid, l1 = class_residuals(D, np.zeros((4, 1)), y[:, None])
        assert np.all(l1 == 0.0)
        np.testing.assert_allclose(resid[:, 0], np.linalg.norm(y))

    def test_hand_built_example(self):
        rng = np.random.default_rng(10)
        D = unit_dict(rng.standard_normal((6, 4)), [0, 0, 1, 1])
        y = rng.standard_normal(6)
        x = np.array([1.0, 0.0, -2.0, 0.0])
        resid, l1 = class_residuals(D, x[:, None], y[:, None])
        np.testing.assert_allclose(l1[:, 0], [1.0, 2.0])
        np.testing.assert_allclose(resid[0, 0], np.linalg.norm(y - D.atoms[:, 0] * 1.0))
        np.testing.assert_allclose(resid[1, 0], np.linalg.norm(y - D.atoms[:, 2] * -2.0))

    def test_restriction_partition(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(4, 10))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            D = unit_dict(rng.standard_normal((6, n)), labels)
            x = rng.standard_normal(n) * (rng.random(n) > 0.4)
            y = rng.standard_normal(6)
            _, l1 = class_residuals(D, x[:, None], y[:, None])
            assert l1[:, 0].sum() == pytest.approx(np.abs(x).sum(), abs=1e-12)

    def test_matches_per_column_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            d, n, m = (int(v) for v in rng.integers(1, 12, size=3))
            n += 1
            labels = rng.integers(0, 2, n)
            labels[rng.choice(n, size=2, replace=False)] = [BENIGN, MALIGNANT]
            M = rng.standard_normal((d, n))
            M[:, rng.random(n) < 0.1] = 0.0  # degenerate atoms
            D = unit_dict(M, labels)
            X = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.5)
            X[:, rng.random(m) < 0.3] = 0.0  # all-zero codes
            Y = rng.standard_normal((d, m))
            resid, l1 = class_residuals(D, X, Y)
            ref_resid, ref_l1 = per_column_class_residuals(D.atoms, D.atom_labels, X, Y)
            assert np.array_equal(l1, ref_l1)
            np.testing.assert_allclose(resid, ref_resid, rtol=1e-12, atol=0.0)
            # the SRC rule: the smaller residual wins, a tie goes to benign
            assert np.array_equal(resid[BENIGN] <= resid[MALIGNANT], ref_resid[BENIGN] <= ref_resid[MALIGNANT])

    def test_code_shape_mismatch(self):
        D = unit_dict(np.eye(3), [0, 1, 1])
        with pytest.raises(ValueError, match="expected codes of shape"):
            class_residuals(D, np.zeros((2, 1)), np.ones((3, 1)))

    def test_missing_class_named(self):
        D = unit_dict(np.eye(3), [BENIGN, BENIGN, BENIGN])
        with pytest.raises(ValueError, match="malignant"):
            class_residuals(D, np.zeros((3, 1)), np.ones((3, 1)))

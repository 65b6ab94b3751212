import numpy as np
import pytest

from blocksrc import BENIGN, MALIGNANT, TrainParams, build_label_matrices, init_lcksvd, ksvd, lcksvd_train
from blocksrc.dictlearn import _ksvd_stack, _ridge_fit, lcksvd_train_stack
from blocksrc.solvers import class_residuals, omp_batch


def two_class_labels(n0, n1):
    return np.array([BENIGN] * n0 + [MALIGNANT] * n1)


class TestLabelMatrices:
    def test_q_definition(self):
        lm = build_label_matrices(
            sample_labels=[BENIGN, MALIGNANT],
            atom_labels=[BENIGN, BENIGN, MALIGNANT],
        )
        np.testing.assert_array_equal(lm.Q, [[1, 0], [1, 0], [0, 1]])

    def test_h_one_hot(self):
        lm = build_label_matrices([MALIGNANT], [BENIGN, MALIGNANT])
        np.testing.assert_array_equal(lm.H[:, 0], [0, 1])

    def test_single_class_atoms(self):
        labels = [BENIGN, MALIGNANT, BENIGN]
        lm = build_label_matrices(labels, [MALIGNANT, MALIGNANT])
        indicator = np.array([1 if l == MALIGNANT else 0 for l in labels])
        for row in lm.Q:
            np.testing.assert_array_equal(row, indicator)

    def test_column_sums(self):
        rng = np.random.default_rng(0)
        sample = rng.integers(0, 2, 17)
        atom = rng.integers(0, 2, 9)
        sample[0], sample[1] = 0, 1
        lm = build_label_matrices(sample, atom)
        np.testing.assert_array_equal(lm.H.sum(axis=0), np.ones(17))
        expected_ones = sum(
            int(np.sum(atom == c)) * int(np.sum(sample == c)) for c in (0, 1)
        )
        assert int(lm.Q.sum()) == expected_ones

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            build_label_matrices([0, 3], [0, 1])


class TestKsvd:
    def test_fixed_point_on_exact_atoms(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        Y = Q[:, [0, 1, 2, 3, 0, 1, 2, 3]]
        params = TrainParams(K=4, T=1, iterations=5, seed=0)
        _, _, trace = ksvd(Y, params, init=Q[:, :4])
        assert np.all(trace <= 1e-20)

    def test_self_representation(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((6, 5))
        params = TrainParams(K=5, T=1, iterations=3, seed=0)
        norms = np.linalg.norm(Y, axis=0)
        _, X, trace = ksvd(Y, params, init=Y / norms)
        assert trace[0] <= 1e-18

    def test_update_stage_never_increases_objective(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((7, 12))
        params = TrainParams(K=4, T=2, iterations=6, seed=1, min_rel_improvement=0.0)
        seen = []
        ksvd(Y, params, probe=lambda it, before, after: seen.append((before, after)))
        assert len(seen) == 6
        for before, after in seen:
            assert after <= before * (1 + 1e-9) + 1e-12

    def test_one_iteration_toy_objective_decrease(self):
        Y = np.array([[1.0, 0.9, 0.1, 0.0], [0.0, 0.2, 1.0, 0.8]])
        init = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = TrainParams(K=2, T=1, iterations=1, seed=0)
        probes = []
        D, X, trace = ksvd(Y, params, init=init, probe=lambda i, b, a: probes.append((b, a)))
        before, after = probes[0]
        assert after <= before + 1e-12
        # trace agrees with a direct recomputation from the returned factors
        assert trace[-1] == pytest.approx(float(np.sum((Y - D.atoms @ X) ** 2)), abs=1e-12)

    def test_unused_atom_replacement(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((6, 1))
        Y = np.hstack([base * s for s in (1.0, 2.0, 3.0)] + [rng.standard_normal((6, 1))])
        init = np.column_stack([base / np.linalg.norm(base), np.zeros(6)])
        init[:, 1] = 0.0
        params = TrainParams(K=2, T=1, iterations=2, seed=0)
        D, _, _ = ksvd(Y, params, init=init)
        assert np.linalg.norm(D.atoms[:, 1]) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ksvd(np.zeros((0, 0)), TrainParams(K=2, T=1))


class TestInitLcksvd:
    def test_full_size_init_is_permutation(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((6, 8))
        labels = two_class_labels(4, 4)
        params = TrainParams(K=8, T=2, seed=42)
        D0, _, _, _ = init_lcksvd(Y, labels, params)
        normalized = Y / np.linalg.norm(Y, axis=0)
        found = set()
        for k in range(8):
            matches = [
                j for j in range(8) if np.allclose(D0.atoms[:, k], normalized[:, j], atol=1e-12)
            ]
            assert matches, f"atom {k} is not a normalized sample"
            found.add(matches[0])
        assert found == set(range(8))

    def test_ridge_limit_exact_least_squares(self):
        rng = np.random.default_rng(6)
        Q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        X0 = Q.T[:4]  # orthonormal rows
        targets = rng.standard_normal((3, 9))
        exact = targets @ X0.T @ np.linalg.inv(X0 @ X0.T)
        approx = _ridge_fit(targets, X0, lam=1e-9)
        np.testing.assert_allclose(approx, exact, atol=1e-6)

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((5, 10))
        labels = two_class_labels(6, 4)
        params = TrainParams(K=6, T=2, seed=42)
        a = init_lcksvd(Y, labels, params)
        b = init_lcksvd(Y, labels, params)
        np.testing.assert_array_equal(a[0].atoms, b[0].atoms)
        np.testing.assert_array_equal(a[0].atom_labels, b[0].atom_labels)
        for x, y_ in zip(a[1:], b[1:]):
            np.testing.assert_array_equal(x, y_)

    def test_atoms_allocated_proportionally(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((5, 12))
        labels = two_class_labels(9, 3)
        params = TrainParams(K=4, T=2, seed=0)
        D0, _, _, _ = init_lcksvd(Y, labels, params)
        assert int(np.sum(D0.atom_labels == BENIGN)) == 3
        assert int(np.sum(D0.atom_labels == MALIGNANT)) == 1

    def test_class_without_samples(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((4, 5))
        with pytest.raises(ValueError, match="zero samples"):
            init_lcksvd(Y, [BENIGN] * 5, TrainParams(K=4, T=1))


class TestLcksvdTrain:
    def test_zero_weights_reduce_to_plain_ksvd(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((10, 14))
        labels = two_class_labels(7, 7)
        params = TrainParams(K=8, T=3, alpha=0.0, beta=0.0, iterations=7, seed=5,
                             min_rel_improvement=0.0)
        model = lcksvd_train(Y, labels, params, "lcksvd2")
        D0, _, _, _ = init_lcksvd(Y, labels, params)
        _, _, trace = ksvd(Y, params, init=D0.atoms, atom_labels=D0.atom_labels)
        np.testing.assert_array_equal(model.objective_trace, trace)

    def test_stacked_objective_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d, k, s = 6, 5, 9
            alpha, beta = rng.uniform(0.1, 2.0, size=2)
            Y = rng.standard_normal((d, s))
            Q = rng.standard_normal((k, s))
            H = rng.standard_normal((2, s))
            D = rng.standard_normal((d, k))
            A = rng.standard_normal((k, k))
            W = rng.standard_normal((2, k))
            X = rng.standard_normal((k, s))
            stacked_y = np.vstack([Y, np.sqrt(alpha) * Q, np.sqrt(beta) * H])
            stacked_d = np.vstack([D, np.sqrt(alpha) * A, np.sqrt(beta) * W])
            lhs = float(np.sum((stacked_y - stacked_d @ X) ** 2))
            rhs = (
                float(np.sum((Y - D @ X) ** 2))
                + alpha * float(np.sum((Q - A @ X) ** 2))
                + beta * float(np.sum((H - W @ X) ** 2))
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_trace_matches_split_model_recomputation(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((9, 12))
        labels = two_class_labels(6, 6)
        params = TrainParams(K=6, T=2, alpha=0.7, beta=1.3, iterations=5, seed=3,
                             min_rel_improvement=0.0)
        model = lcksvd_train(Y, labels, params, "lcksvd2")
        lm = build_label_matrices(labels, model.D.atom_labels)
        s = model.D.scales
        X = model.codes
        obj = (
            float(np.sum((Y - (model.D.atoms * s) @ X) ** 2))
            + params.alpha * float(np.sum((lm.Q - (model.A * s) @ X) ** 2))
            + params.beta * float(np.sum((lm.H - (model.W * s) @ X) ** 2))
        )
        assert model.objective_trace[-1] == pytest.approx(obj, rel=1e-9)

    def test_renormalization_preserves_reconstruction(self):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((8, 10))
        labels = two_class_labels(5, 5)
        params = TrainParams(K=6, T=2, alpha=1.0, beta=1.0, iterations=4, seed=9)
        model = lcksvd_train(Y, labels, params, "lcksvd2")
        X = model.codes
        rescaled = model.D.atoms @ (X * model.D.scales[:, None])
        original = (model.D.atoms * model.D.scales) @ X
        np.testing.assert_allclose(rescaled, original, atol=1e-9)
        usable = model.D.usable
        norms = np.linalg.norm(model.D.atoms[:, usable], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_mode_shapes(self):
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((7, 10))
        labels = two_class_labels(5, 5)
        params = TrainParams(K=6, T=2, iterations=3, seed=1)
        m1 = lcksvd_train(Y, labels, params, "lcksvd1")
        assert m1.A.shape == (6, 6)
        assert m1.W is None
        m2 = lcksvd_train(Y, labels, params, "lcksvd2")
        assert m2.W.shape == (2, 6)

    def test_training_determinism(self):
        rng = np.random.default_rng(15)
        Y = rng.standard_normal((8, 12))
        labels = two_class_labels(6, 6)
        params = TrainParams(K=7, T=3, iterations=5, seed=2)
        a = lcksvd_train(Y, labels, params, "lcksvd2")
        b = lcksvd_train(Y, labels, params, "lcksvd2")
        np.testing.assert_array_equal(a.D.atoms, b.D.atoms)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_separated_classes_classified_by_residual(self):
        rng = np.random.default_rng(42)
        d, per_class, atoms = 24, 30, 4
        banks = [np.abs(rng.standard_normal((d, atoms))) for _ in range(2)]
        for bank in banks:
            bank /= np.linalg.norm(bank, axis=0)

        def draw(cid, count):
            cols = []
            for _ in range(count):
                picks = rng.choice(atoms, size=2, replace=False)
                coeffs = rng.uniform(0.5, 1.5, size=2)
                cols.append(banks[cid][:, picks] @ coeffs + rng.normal(0, 0.02, d))
            return np.column_stack(cols)

        Y = np.hstack([draw(0, per_class), draw(1, per_class)])
        labels = two_class_labels(per_class, per_class)
        held = np.hstack([draw(0, 10), draw(1, 10)])
        held_labels = two_class_labels(10, 10)

        params = TrainParams(K=20, T=4, iterations=20, seed=7)
        model = lcksvd_train(Y, labels, params, "lcksvd2")
        codes, _, _ = omp_batch(model.D, held, params.resolved_t(20))
        correct = 0
        for i in range(held.shape[1]):
            resid, _ = class_residuals(model.D, codes[:, i], held[:, i])
            correct += int(np.argmin(resid) == held_labels[i])
        assert correct >= 18  # >= 90 percent


def assert_close_rel(a, b, rel):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rel * max(np.max(np.abs(b), initial=0.0), 1e-300)


class TestStackedTraining:
    """A stack of problems trains exactly as its problems do one at a time."""

    def problems(self):
        rng = np.random.default_rng(16)
        d, s, k = 7, 12, 5
        fixed, _ = np.linalg.qr(rng.standard_normal((d, k)))
        Ys = [rng.standard_normal((d, s)), fixed[:, np.arange(s) % k], rng.standard_normal((d, s))]
        inits = [rng.standard_normal((d, k)), fixed, rng.standard_normal((d, k))]
        return np.stack(Ys), np.stack(inits)

    def test_ksvd_core_stack_matches_single_problems(self):
        Ys, inits = self.problems()
        s = Ys.shape[2]
        params = TrainParams(K=5, T=2, iterations=8, seed=0, min_rel_improvement=1e-9)
        D, X, traces = _ksvd_stack(np.concatenate([Ys, inits], axis=2), s, params)
        lengths = []
        for p in range(3):
            Dp, Xp, (tp,) = _ksvd_stack(np.concatenate([Ys[p : p + 1], inits[p : p + 1]], axis=2), s, params)
            assert len(traces[p]) == len(tp)
            lengths.append(len(tp))
            assert_close_rel(traces[p], tp, 1e-12)
            assert_close_rel(D[p], Dp[0], 1e-12)
            assert_close_rel(X[p], Xp[0], 1e-12)
            np.testing.assert_array_equal(X[p] != 0, Xp[0] != 0)
        # the exact-atom problem is at rounding level after its first
        # iteration and stops there; the others run on
        assert lengths == [8, 1, 8]

    def test_lcksvd_stack_matches_single_problems(self):
        Ys, _ = self.problems()
        labels = two_class_labels(6, 6)
        params = TrainParams(K=6, T=2, alpha=0.5, beta=0.8, iterations=10, seed=4,
                             min_rel_improvement=1e-2)
        models = lcksvd_train_stack(Ys, labels, params, "lcksvd2")
        lengths = []
        for p, model in enumerate(models):
            solo = lcksvd_train(Ys[p], labels, params, "lcksvd2")
            lengths.append(solo.objective_trace.size)
            assert model.objective_trace.size == solo.objective_trace.size
            assert_close_rel(model.objective_trace, solo.objective_trace, 1e-12)
            assert_close_rel(model.D.atoms, solo.D.atoms, 1e-12)
            assert_close_rel(model.D.scales, solo.D.scales, 1e-12)
            assert_close_rel(model.A, solo.A, 1e-12)
            assert_close_rel(model.W, solo.W, 1e-12)
            assert_close_rel(model.codes, solo.codes, 1e-12)
            np.testing.assert_array_equal(model.codes != 0, solo.codes != 0)
        # the problems stop early after different iteration counts
        assert min(lengths) < params.iterations and len(set(lengths)) > 1


class TestAbsoluteStop:
    """K-SVD stops a problem once its objective is at rounding level."""

    def test_default_k_trains_in_one_iteration(self):
        rng = np.random.default_rng(21)
        labels = two_class_labels(6, 6)
        for d in (7, 200):  # overcomplete, and rows enough for span coordinates
            Y = rng.standard_normal((4, d, 12))
            for mode in ("lcksvd1", "lcksvd2"):
                models = lcksvd_train_stack(Y, labels, TrainParams(), mode)
                assert [m.objective_trace.size for m in models] == [1, 1, 1, 1], (d, mode)

    def test_learning_problems_stay_above_the_floor(self):
        rng = np.random.default_rng(22)
        Y = rng.standard_normal((9, 16))
        labels = two_class_labels(8, 8)
        _, _, trace = ksvd(Y, TrainParams(K=6, T=2, iterations=30, seed=3))
        assert trace.size == 11  # the relative stop ends it, far above the floor
        assert trace.min() > 1e-12 * (np.sum(Y**2) + 6)

        params = TrainParams(K=8, T=2, iterations=30, seed=3)
        model = lcksvd_train(Y, labels, params, "lcksvd2")
        lm = build_label_matrices(labels, model.D.atom_labels)
        zsq = np.sum(Y**2) + params.alpha * np.sum(lm.Q**2) + params.beta * np.sum(lm.H**2) + 8
        assert model.objective_trace.size == 12
        assert model.objective_trace.min() > 1e-12 * zsq

    def test_zero_min_rel_improvement_runs_every_iteration(self):
        rng = np.random.default_rng(23)
        Y = rng.standard_normal((6, 5))
        params = TrainParams(K=5, T=1, iterations=4, seed=0, min_rel_improvement=0.0)
        _, _, trace = ksvd(Y, params, init=Y / np.linalg.norm(Y, axis=0))
        assert trace.size == 4 and trace.max() <= 1e-18
        models = lcksvd_train_stack(Y[None], two_class_labels(3, 2), params, "lcksvd2")
        assert models[0].objective_trace.size == 4


class TestSpanCoordinates:
    def test_embedded_problem_trains_as_the_small_one(self):
        rng = np.random.default_rng(17)
        d, s, k = 6, 10, 5
        Y = rng.standard_normal((d, s))
        Y[:, 3] = Y[:, 1]  # a duplicate column
        Y[:, 7] = 0.0  # and a zero column: [Y, init] is rank-deficient
        D0 = rng.standard_normal((d, k))
        U, _ = np.linalg.qr(rng.standard_normal((8 * (s + k), d)))
        params = TrainParams(K=k, T=2, iterations=6, seed=0, min_rel_improvement=0.0)
        small, Xs, trace_s = ksvd(Y, params, init=D0)
        big, Xb, trace_b = ksvd(U @ Y, params, init=U @ D0)
        np.testing.assert_allclose(big.atoms, U @ small.atoms, rtol=0, atol=1e-10)
        assert_close_rel(trace_b, trace_s, 1e-10)
        np.testing.assert_allclose(Xb, Xs, rtol=0, atol=1e-10)

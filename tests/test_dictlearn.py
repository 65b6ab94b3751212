import math

import numpy as np
import pytest

from blocksrc import BENIGN, MALIGNANT, ExperimentConfig, TrainParams, build_label_matrices
from blocksrc.blocks import RoiSample, block_vectors
from blocksrc.dictlearn import _code, _draw_atoms, _ksvd_stack, _ridge_fit, lcksvd_train_stack
from blocksrc.harness import train_block_models
from blocksrc.solvers import normalize_columns
from blocksrc.synth import SynthSpec, synth_dataset

from .oracles import atoms_per_class_largest_remainder, class_residuals_pixels, ksvd_iteration
from .test_ensemble import position
from .test_solvers import omp


def two_class_labels(n0, n1):
    return np.array([BENIGN] * n0 + [MALIGNANT] * n1)


def positions(model):
    """Each block position of a trained ``model``, as ``(D, trace)``: its
    (d, n) dictionary and its objective trace."""
    return [(position(model.D, p), t) for p, t in enumerate(model.objective_traces)]


def train_one(Y, labels, params, mode="lcksvd2"):
    """:func:`lcksvd_train_stack` on the one training matrix ``Y``: its
    dictionary and objective trace."""
    ((D, trace),) = positions(lcksvd_train_stack(Y[None], labels, params, mode))
    return D, trace


def ksvd_one(Y, params, init, probe=None):
    """:func:`_ksvd_stack` on the one problem ``[Y, init]``: its atoms, codes
    and objective trace."""
    D, X, (trace,) = _ksvd_stack(np.concatenate([Y, init], axis=1)[None], Y.shape[1], params, probe)
    return D[0], X[0], trace


def drawn_columns(Y, k, seed):
    """``k`` columns of ``Y`` drawn with ``seed``, to start K-SVD from."""
    s = Y.shape[1]
    return Y[:, np.random.default_rng(seed).choice(s, size=k, replace=s < k)]


def lcksvd_init(Y, labels, params):
    """The seeded start of LC-KSVD below K = s on a stack ``Y`` (P, d, s):
    the drawn training columns, normalized, as ``D0`` (P, d, K), their atom
    labels, the codes ``X0`` of ``Y`` on ``D0``, and the ridge fits ``A0``
    and ``W0`` of the label matrices onto ``X0``. Returns ``(D0,
    atom_labels, X0, A0, W0)``."""
    chosen, atom_labels = _draw_atoms(labels, Y.shape[2], params)
    D0, _ = normalize_columns(Y[:, :, chosen])
    X0 = _code(D0, Y, np.einsum("pds,pds->ps", Y, Y), params.resolved_t(atom_labels.size))
    lm = build_label_matrices(labels, atom_labels)
    return D0, atom_labels, X0, _ridge_fit(lm.Q, X0), _ridge_fit(lm.H, X0)


class TestTrainParams:
    def test_negative_seed_names_the_key(self):
        with pytest.raises(ValueError, match="train param seed must be >= 0, got -1"):
            TrainParams(K=4, seed=-1)
        assert TrainParams(K=4, seed=0).seed == 0

    def test_non_finite_weights_name_the_key(self):
        for key in ("alpha", "beta"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"train param {key} must be finite, got {value}"):
                    TrainParams(**{key: value})
            with pytest.raises(ValueError, match=f"train param {key} must be >= 0, got -0.5"):
                TrainParams(**{key: -0.5})
            for value in ("x", None, True):
                with pytest.raises(ValueError, match=f"train param {key} must be a number, got {value!r}"):
                    TrainParams(**{key: value})

    @pytest.mark.parametrize("key", ["K", "T", "iterations", "seed"])
    def test_non_integer_names_the_key(self, key):
        # K = 4.5 would fail inside the draw and T = 2.5 would be truncated by
        # the pursuit. A bool is an int subclass, and it is refused too;
        # numpy integers are accepted
        for value in (4.5, 4.0, "4", True, False):
            with pytest.raises(ValueError, match=f"train param {key} must be an integer, got {value!r}"):
                TrainParams(**{key: value})
        assert getattr(TrainParams(**{key: np.int64(4)}), key) == 4

    def test_non_finite_min_rel_improvement_names_the_key(self):
        # a NaN fails every comparison, so it would turn the closed form and
        # both stops off without a word
        for value in (math.nan, -math.inf):
            with pytest.raises(ValueError, match=f"train param min_rel_improvement must be finite, got {value}"):
                TrainParams(min_rel_improvement=value)


class TestAtomSplit:
    def test_two_class_rule_matches_largest_remainder(self):
        # every split of s <= 30 samples with both classes present, at every
        # K from 2 to s + 11: the floors, the one atom left to the larger
        # remainder (benign on a tie) and the clip to [1, K - 1] give the
        # generic largest-remainder split with its donor loop
        cases = 0
        for s in range(2, 31):
            for n0 in range(1, s):
                labels = two_class_labels(n0, s - n0)
                for k in range(2, s + 12):
                    _, atom_labels = _draw_atoms(labels, s, TrainParams(K=k))
                    want = atoms_per_class_largest_remainder(labels, k)
                    assert np.bincount(atom_labels, minlength=2).tolist() == [want[BENIGN], want[MALIGNANT]]
                    cases += 1
        assert cases == 13340


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
        _, _, trace = ksvd_one(Y, params, Q[:, :4])
        assert np.all(trace <= 1e-20)

    def test_self_representation(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((6, 5))
        params = TrainParams(K=5, T=1, iterations=3, seed=0)
        norms = np.linalg.norm(Y, axis=0)
        _, X, trace = ksvd_one(Y, params, Y / norms)
        assert trace[0] <= 1e-18

    def test_update_stage_never_increases_objective(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((7, 12))
        params = TrainParams(K=4, T=2, iterations=6, seed=1, min_rel_improvement=0.0)
        seen = []
        ksvd_one(Y, params, drawn_columns(Y, 4, params.seed),
                 probe=lambda it, before, after: seen.append((before[0], after[0])))
        assert len(seen) == 6
        for before, after in seen:
            assert after <= before * (1 + 1e-9) + 1e-12

    def test_one_iteration_toy_objective_decrease(self):
        Y = np.array([[1.0, 0.9, 0.1, 0.0], [0.0, 0.2, 1.0, 0.8]])
        init = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = TrainParams(K=2, T=1, iterations=1, seed=0)
        probes = []
        D, X, trace = ksvd_one(Y, params, init, probe=lambda i, b, a: probes.append((b[0], a[0])))
        before, after = probes[0]
        assert after <= before + 1e-12
        # trace agrees with a direct recomputation from the returned factors
        assert trace[-1] == pytest.approx(float(np.sum((Y - D @ X) ** 2)), abs=1e-12)

    def test_unused_atom_replacement(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((6, 1))
        Y = np.hstack([base * s for s in (1.0, 2.0, 3.0)] + [rng.standard_normal((6, 1))])
        init = np.column_stack([base / np.linalg.norm(base), np.zeros(6)])
        init[:, 1] = 0.0
        params = TrainParams(K=2, T=1, iterations=2, seed=0)
        D, _, _ = ksvd_one(Y, params, init)
        assert np.linalg.norm(D[:, 1]) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            lcksvd_train_stack(np.zeros((1, 0, 0)), [], TrainParams(K=2, T=1), "lcksvd2")

    def test_one_iteration_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(29)
        rows, s, k, T = 10, 16, 6, 3
        Y = rng.standard_normal((2, rows, s))
        init = rng.standard_normal((2, rows, k))
        # in problem 1 no signal and no other atom has a last row, and the
        # last atom is that row alone: no residual correlates with it, so it
        # goes unused and is replaced by the worst-fit column
        Y[1, -1] = init[1, -1] = 0.0
        init[1, :, -1] = np.eye(rows)[-1]
        params = TrainParams(K=k, T=T, iterations=1, min_rel_improvement=0.0)
        D, X, _ = _ksvd_stack(np.concatenate([Y, init], axis=2), s, params)
        for p in range(2):
            ref_D, ref_X = ksvd_iteration(Y[p], init[p] / np.linalg.norm(init[p], axis=0), T)
            np.testing.assert_allclose(D[p], ref_D, rtol=0, atol=1e-10)
            np.testing.assert_allclose(X[p], ref_X, rtol=0, atol=1e-10)
        assert X[0].any(axis=1).all()
        assert np.flatnonzero(~X[1].any(axis=1)).tolist() == [k - 1]
        assert D[1, -1, -1] == 0.0 and np.linalg.norm(D[1, :, -1]) == pytest.approx(1.0, abs=1e-12)


class TestInitLcksvd:
    def test_full_size_init_is_permutation(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((6, 8))
        labels = two_class_labels(4, 4)
        params = TrainParams(K=8, T=2, seed=42)
        (D0,), _, _, _, _ = lcksvd_init(Y[None], labels, params)
        normalized = Y / np.linalg.norm(Y, axis=0)
        found = set()
        for k in range(8):
            matches = [
                j for j in range(8) if np.allclose(D0[:, k], normalized[:, j], atol=1e-12)
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
        a = lcksvd_init(Y[None], labels, params)
        b = lcksvd_init(Y[None], labels, params)
        for x, y_ in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y_)

    def test_atoms_allocated_proportionally(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((5, 12))
        labels = two_class_labels(9, 3)
        params = TrainParams(K=4, T=2, seed=0)
        _, atom_labels, _, _, _ = lcksvd_init(Y[None], labels, params)
        assert int(np.sum(atom_labels == BENIGN)) == 3
        assert int(np.sum(atom_labels == MALIGNANT)) == 1

    def test_class_without_samples(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((4, 5))
        with pytest.raises(ValueError, match="at least one sample per class"):
            lcksvd_train_stack(Y[None], [BENIGN] * 5, TrainParams(K=4, T=1), "lcksvd2")


def lcksvd_stack(Y, labels, params, mode):
    """The stacked K-SVD that :func:`lcksvd_train_stack` runs on ``Y`` (P, d,
    s) below K = s, started from :func:`lcksvd_init`: the trained atoms [D;
    sqrt(alpha) A; sqrt(beta) W] (P, rows, K), their codes (P, K, s) and the
    traces. Zero-weighted rows are left out."""
    D0, atom_labels, _, A0, W0 = lcksvd_init(Y, labels, params)
    lm = build_label_matrices(labels, atom_labels)
    parts = [(Y, D0)]
    if params.alpha > 0:
        parts.append((np.sqrt(params.alpha) * lm.Q, np.sqrt(params.alpha) * A0))
    if mode == "lcksvd2" and params.beta > 0:
        parts.append((np.sqrt(params.beta) * lm.H, np.sqrt(params.beta) * W0))
    Z = [np.concatenate([np.broadcast_to(y, init.shape[:1] + y.shape[-2:]), init], axis=2) for y, init in parts]
    return _ksvd_stack(np.concatenate(Z, axis=1), Y.shape[2], params)


class TestLcksvdTrain:
    def test_zero_weights_reduce_to_plain_ksvd(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((10, 14))
        labels = two_class_labels(7, 7)
        params = TrainParams(K=8, T=3, alpha=0.0, beta=0.0, iterations=7, seed=5,
                             min_rel_improvement=0.0)
        _, learned = train_one(Y, labels, params)
        (D0,), _, _, _, _ = lcksvd_init(Y[None], labels, params)
        _, _, trace = ksvd_one(Y, params, D0)
        np.testing.assert_array_equal(learned, trace)

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
        D, learned = train_one(Y, labels, params)
        (atoms,), (X,), (trace,) = lcksvd_stack(Y[None], labels, params, "lcksvd2")
        np.testing.assert_array_equal(learned, trace)
        lm = build_label_matrices(labels, D.atom_labels)
        s = D.scales
        # the model's scaled atoms are the stack's data rows, so with the
        # stack's codes they reproduce the data part of the last objective
        label_rows = atoms[9:] @ X
        obj = (
            float(np.sum((Y - (D.atoms * s) @ X) ** 2))
            + float(np.sum((np.sqrt(params.alpha) * lm.Q - label_rows[:6]) ** 2))
            + float(np.sum((np.sqrt(params.beta) * lm.H - label_rows[6:]) ** 2))
        )
        assert learned[-1] == pytest.approx(obj, rel=1e-9)

    def test_renormalization_preserves_reconstruction(self):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((8, 10))
        labels = two_class_labels(5, 5)
        params = TrainParams(K=6, T=2, alpha=1.0, beta=1.0, iterations=4, seed=9)
        D, learned = train_one(Y, labels, params)
        (atoms,), (X,), (trace,) = lcksvd_stack(Y[None], labels, params, "lcksvd2")
        np.testing.assert_array_equal(learned, trace)
        rescaled = D.atoms @ (X * D.scales[:, None])
        original = (D.atoms * D.scales) @ X
        np.testing.assert_allclose(rescaled, original, atol=1e-9)
        np.testing.assert_allclose(original, atoms[:8] @ X, atol=1e-9)
        norms = np.linalg.norm(D.atoms[:, D.usable], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_training_determinism(self):
        rng = np.random.default_rng(15)
        Y = rng.standard_normal((8, 12))
        labels = two_class_labels(6, 6)
        params = TrainParams(K=7, T=3, iterations=5, seed=2)
        a, b = (lcksvd_train_stack(Y[None], labels, params, "lcksvd2") for _ in range(2))
        np.testing.assert_array_equal(a.D.atoms, b.D.atoms)
        np.testing.assert_array_equal(a.objective_traces[0], b.objective_traces[0])

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
        D, _ = train_one(Y, labels, params)
        codes, _, _ = omp(D, held, params.resolved_t(20))
        resid, _ = class_residuals_pixels(D.atoms, D.atom_labels, codes, held)
        correct = np.count_nonzero(np.argmin(resid, axis=0) == held_labels)
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
        model = lcksvd_train_stack(Ys, labels, params, "lcksvd2")
        _, X, traces = lcksvd_stack(Ys, labels, params, "lcksvd2")
        lengths = []
        for p, (D, trace) in enumerate(positions(model)):
            np.testing.assert_array_equal(trace, traces[p])
            solo, solo_trace = train_one(Ys[p], labels, params)
            _, (solo_X,), _ = lcksvd_stack(Ys[p : p + 1], labels, params, "lcksvd2")
            lengths.append(solo_trace.size)
            assert trace.size == solo_trace.size
            assert_close_rel(trace, solo_trace, 1e-12)
            assert_close_rel(D.atoms, solo.atoms, 1e-12)
            assert_close_rel(D.scales, solo.scales, 1e-12)
            assert_close_rel(X[p], solo_X, 1e-12)
            np.testing.assert_array_equal(X[p] != 0, solo_X != 0)
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
                model = lcksvd_train_stack(Y, labels, TrainParams(), mode)
                assert [t.size for t in model.objective_traces] == [1, 1, 1, 1], (d, mode)

    def test_learning_problems_stay_above_the_floor(self):
        rng = np.random.default_rng(22)
        Y = rng.standard_normal((9, 16))
        labels = two_class_labels(8, 8)
        _, _, trace = ksvd_one(Y, TrainParams(K=6, T=2, iterations=30, seed=3), drawn_columns(Y, 6, 3))
        assert trace.size == 11  # the relative stop ends it, far above the floor
        assert trace.min() > 1e-12 * (np.sum(Y**2) + 6)

        params = TrainParams(K=8, T=2, iterations=30, seed=3)
        D, learned = train_one(Y, labels, params)
        lm = build_label_matrices(labels, D.atom_labels)
        zsq = np.sum(Y**2) + params.alpha * np.sum(lm.Q**2) + params.beta * np.sum(lm.H**2) + 8
        assert learned.size == 12
        assert learned.min() > 1e-12 * zsq

    def test_zero_min_rel_improvement_runs_every_iteration(self):
        rng = np.random.default_rng(23)
        Y = rng.standard_normal((6, 5))
        params = TrainParams(K=5, T=1, iterations=4, seed=0, min_rel_improvement=0.0)
        _, _, trace = ksvd_one(Y, params, Y / np.linalg.norm(Y, axis=0))
        assert trace.size == 4 and trace.max() <= 1e-18
        _, learned = train_one(Y, two_class_labels(3, 2), params)
        assert learned.size == 4


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
        small, Xs, trace_s = ksvd_one(Y, params, D0)
        big, Xb, trace_b = ksvd_one(U @ Y, params, U @ D0)
        np.testing.assert_allclose(big, U @ small, rtol=0, atol=1e-10)
        assert_close_rel(trace_b, trace_s, 1e-10)
        np.testing.assert_allclose(Xb, Xs, rtol=0, atol=1e-10)


def stacked_columns(Y, labels, params, mode):
    """The stacked training columns [Y; sqrt(alpha) Q; sqrt(beta) H] of a
    stack ``Y`` (P, d, s), zero-weighted parts left out, with the atoms in
    training order."""
    lm = build_label_matrices(labels, labels)
    parts = [Y]
    if params.alpha > 0:
        parts.append(np.broadcast_to(np.sqrt(params.alpha) * lm.Q, (Y.shape[0],) + lm.Q.shape))
    if mode == "lcksvd2" and params.beta > 0:
        parts.append(np.broadcast_to(np.sqrt(params.beta) * lm.H, (Y.shape[0],) + lm.H.shape))
    return np.concatenate(parts, axis=1)


def roi_samples(Y, labels):
    """ROIs whose blocks are the columns of ``Y`` (P, b*b, s): sample c's
    block at position j is ``Y[j, :, c]``, on a square grid of P positions."""
    P, d, s = Y.shape
    g, b = math.isqrt(P), math.isqrt(d)
    return [RoiSample(pixels=Y[:, :, c].reshape(g, g, b, b).transpose(0, 2, 1, 3).reshape(g * b, g * b),
                      label=int(lab))
            for c, lab in enumerate(labels)]


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExactDefaultK:
    """At K = s with the stops on, LC-KSVD is built in closed form: the raw
    training-block dictionaries, byte for byte."""

    def assert_exact(self, Y, labels, params, mode):
        b = math.isqrt(Y.shape[1])
        samples = roi_samples(Y, labels)
        stack, stack_labels = block_vectors(samples, b), [s.label for s in samples]  # the harness's layout
        assert np.array_equal(stack, Y)
        model = lcksvd_train_stack(stack, stack_labels, params, mode)
        Z = stacked_columns(Y, labels, params, mode)
        d = Y.shape[1]
        raw = train_block_models(stack, stack_labels, ExperimentConfig()).D  # dl_mode "none"
        # the dictionary is the raw one, in training order
        assert same_bytes(model.D.atoms, raw.atoms)
        assert same_bytes(model.D.atom_labels, raw.atom_labels)
        assert same_bytes(model.D.scales, raw.scales)
        for p, (D, trace) in enumerate(positions(model)):
            live = D.usable
            # each usable atom codes its own block alone, with code 1, so the
            # rescaled codes reproduce the training blocks
            X = np.diag(live.astype(float))
            recon = (D.atoms * D.scales) @ X
            np.testing.assert_allclose(recon, Y[p], rtol=0, atol=1e-13 * np.abs(Y[p]).max())
            # the one-entry trace is that optimum's objective: rounding level,
            # plus the stacked label rows a degenerate block's atom cannot code
            label_rows = Z[p, d:]
            lost = np.sum(label_rows[:, ~live] ** 2)
            obj = np.sum((Y[p] - recon) ** 2) + lost
            floor = 1e-24 * np.sum(Z[p] ** 2)
            assert trace.shape == (1,)
            assert trace[0] == pytest.approx(obj, rel=1e-9, abs=floor)
            assert trace[0] == pytest.approx(lost, rel=1e-12, abs=floor)
        return model

    @pytest.mark.parametrize("mode", ["lcksvd1", "lcksvd2"])
    def test_models_are_the_drawn_training_blocks(self, mode):
        rng = np.random.default_rng(24)
        labels = two_class_labels(7, 5)
        for d in (4, 36, 196):  # overcomplete, square-ish, and more rows than span coordinates need
            Y = np.abs(rng.standard_normal((4, d, 12)))
            self.assert_exact(Y, labels, TrainParams(alpha=0.7, beta=1.3), mode)

    @pytest.mark.parametrize("mode", ["lcksvd1", "lcksvd2"])
    def test_zero_and_duplicate_blocks_and_zero_weights(self, mode):
        rng = np.random.default_rng(25)
        labels = two_class_labels(6, 6)
        Y = np.abs(rng.standard_normal((4, 9, 12)))
        Y[0, :, 4] = 0.0  # a zero training block
        Y[:, :, 2] = Y[:, :, 3]  # a duplicate within a class
        Y[:, :, 8] = Y[:, :, 1]  # and one across the classes
        for alpha, beta in ((1.0, 1.0), (0.0, 0.0), (0.0, 2.0)):
            usable = self.assert_exact(Y, labels, TrainParams(alpha=alpha, beta=beta), mode).D.usable
            assert usable[0].sum() == 11 and not usable[0, 4]

    def test_agrees_with_ksvd_on_the_same_stack(self):
        rng = np.random.default_rng(26)
        labels = two_class_labels(6, 6)
        params = TrainParams(alpha=0.7, beta=1.3)
        for d in (7, 40, 200):
            Y = rng.standard_normal((3, d, 12))
            Y[:, :, 5] = Y[:, :, 0] + 1e-3 * Y[:, :, 5]  # a near-duplicate
            Z = stacked_columns(Y, labels, params, "lcksvd2")
            # K-SVD started from the training columns stops after one
            # iteration on them: atom c, scaled by its code, is column c
            k_atoms, k_X, k_traces = _ksvd_stack(np.concatenate([Z, Z], axis=2), 12, params)
            assert [t.size for t in k_traces] == [1, 1, 1]
            model = lcksvd_train_stack(Y, labels, params, "lcksvd2")
            for (D, trace), atoms, X, k_t, z in zip(positions(model), k_atoms, k_X, k_traces, Z):
                # K-SVD's stacked atoms, scaled by their codes, are the stacked
                # columns, and their data rows the closed form's scaled atoms
                tol = 1e-12 * np.abs(z).max()
                np.testing.assert_allclose(atoms * np.diag(X), z[:, :12], rtol=0, atol=tol)
                np.testing.assert_allclose(atoms[:d] * np.diag(X), D.atoms * D.scales, rtol=0, atol=tol)
                np.testing.assert_allclose(X - np.diag(np.diag(X)), 0.0, rtol=0, atol=1e-12 * np.abs(X).max())
                _, k_norms = normalize_columns(atoms[:d])
                np.testing.assert_allclose(atoms[:d] / k_norms, D.atoms, rtol=0, atol=1e-12)
                assert max(trace[0], k_t[0]) <= 1e-24 * np.sum(z**2)

    def test_dict_size_equal_to_the_training_count_is_the_default(self):
        rng = np.random.default_rng(27)
        Y = rng.standard_normal((2, 10, 12))
        labels = two_class_labels(5, 7)
        a = lcksvd_train_stack(Y, labels, TrainParams(), "lcksvd2")
        b = lcksvd_train_stack(Y, labels, TrainParams(K=12), "lcksvd2")
        for x, y_ in ((a.D.atoms, b.D.atoms), (a.D.atom_labels, b.D.atom_labels), (a.D.scales, b.D.scales),
                      *zip(a.objective_traces, b.objective_traces, strict=True)):
            np.testing.assert_array_equal(x, y_)


class TestLearningBelowTheTrainingCount:
    """Below K = s the learned atoms leave the raw training blocks while the
    objective falls; at K = s every atom is a raw block."""

    @staticmethod
    def farthest_atom(D, Y):
        """The smallest, over atoms, of the largest |cos| between an atom of
        the one-matrix dictionary ``D`` and any raw training block."""
        blocks, _ = normalize_columns(Y)
        return float(np.abs(D.atoms.T @ blocks).max(axis=1).min())

    @pytest.mark.parametrize("mode", ["lcksvd1", "lcksvd2"])
    def test_atoms_leave_the_raw_blocks(self, mode):
        spec = SynthSpec(roi_size=16, block_size=8, samples_per_class=10, noise_sigma=1.0)
        samples = synth_dataset(spec, 20)
        stack, labels = block_vectors(samples, 8), [s.label for s in samples]
        learned = lcksvd_train_stack(stack, labels, TrainParams(K=8), mode)
        for Y, (D, trace) in zip(stack, positions(learned), strict=True):
            assert self.farthest_atom(D, Y) < 0.99
            assert trace.size > 1
            assert np.all(np.diff(trace) <= 0.0)
        for Y, (D, _) in zip(stack, positions(lcksvd_train_stack(stack, labels, TrainParams(), mode)), strict=True):
            assert self.farthest_atom(D, Y) == pytest.approx(1.0, abs=1e-12)


class TestZeroTrainingBlock:
    """A zero training block's atom is unusable, and with alpha > 0 the
    dictionary drops its label rows: the trace counts what they lose."""

    @pytest.mark.parametrize("mode", ["lcksvd1", "lcksvd2"])
    def test_closed_form(self, mode):
        rng = np.random.default_rng(28)
        labels = two_class_labels(6, 6)
        Y = rng.standard_normal((2, 9, 12))
        Y[0, :, 4] = 0.0
        params = TrainParams(alpha=0.7, beta=1.3)
        D, trace = positions(lcksvd_train_stack(Y, labels, params, mode))[0]
        Z = stacked_columns(Y[:1], labels, params, mode)
        assert not D.usable[4] and not D.atoms[:, 4].any()
        assert np.array_equal(D.usable, np.arange(12) != 4)
        # the usable atoms, coding their own blocks, reproduce every block
        X = np.diag(D.usable.astype(float))
        np.testing.assert_allclose((D.atoms * D.scales) @ X, Y[0], rtol=0, atol=1e-14)
        # the trace counts what the block's label rows lose
        label_rows = Z[0, 9:]
        assert label_rows.shape[0] == (14 if mode == "lcksvd2" else 12) and label_rows[:, 4].any()
        assert trace[0] == pytest.approx(np.sum(label_rows[:, 4] ** 2), rel=1e-12)

    @pytest.mark.parametrize("mode", ["lcksvd1", "lcksvd2"])
    def test_ksvd_branch(self, mode):
        rng = np.random.default_rng(25)
        labels = two_class_labels(6, 6)
        Y = rng.standard_normal((2, 9, 12))
        Y[0, :, 4] = Y[0, :, 7] = 0.0  # two zero blocks, one per class
        params = TrainParams(K=12, T=2, alpha=0.7, beta=1.3, iterations=5, min_rel_improvement=0.0)
        D, learned = positions(lcksvd_train_stack(Y, labels, params, mode))[0]
        (atoms,), (X,), (trace,) = lcksvd_stack(Y[:1], labels, params, mode)
        np.testing.assert_array_equal(learned, trace)
        lm = build_label_matrices(labels, D.atom_labels)
        # an atom that codes only a zero block has a zero data part
        dead = ~D.usable
        assert dead.any() and not D.atoms[:, dead].any()
        lost = X[dead].any(axis=0)
        assert lost.any() and set(np.flatnonzero(lost)) <= {4, 7}
        # in the stack those atoms carry label rows alone, and D drops them
        np.testing.assert_allclose(np.linalg.norm(atoms[9:, dead], axis=0), 1.0, rtol=1e-12)
        np.testing.assert_allclose(D.scales[dead], 0.0, rtol=0, atol=1e-12)
        label_rows = [(params.alpha, lm.Q)]
        if mode == "lcksvd2":
            label_rows.append((params.beta, lm.H))
        assert all(target[:, lost].any(axis=0).all() for _, target in label_rows)
        # the stacked model represented those rows: K-SVD's trace, taken
        # before the split, is far below what the split model loses
        loss = sum(w * np.sum(target[:, lost] ** 2) for w, target in label_rows)
        assert learned[-1] < 1e-6 * loss

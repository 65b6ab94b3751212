from dataclasses import replace

import numpy as np
import pytest

from blocksrc import BENIGN, MALIGNANT, BlockResults, Dictionary, ExperimentConfig, bbll, bbmap, block_decisions, roc_auc
from blocksrc.ensemble import lls_score, write_roc_csv, write_roc_svg
from blocksrc.harness import decision_outputs
from blocksrc.solvers import L1_LOG_FLOOR

from .oracles import pair_counting_auc


def position(D, p):
    """Position ``p`` of the block grid ``D``: its (d, n) dictionary."""
    return Dictionary(atoms=D.atoms[p], atom_labels=D.atom_labels, scales=D.scales[p])


def grid(*dicts):
    """The block grid of the (d, n) dictionaries ``dicts``, in order."""
    return Dictionary(atoms=np.stack([D.atoms for D in dicts]), atom_labels=dicts[0].atom_labels,
                      scales=np.stack([D.scales for D in dicts]))


def block_results(hard, lls):
    """The block results of (positions, samples) ``hard`` labels and ``lls``
    scores, with zero diagnostics, which no decision rule reads."""
    P, m = np.shape(hard)
    return BlockResults(np.asarray(hard), np.asarray(lls, dtype=float), np.zeros((2, P, m)),
                        np.zeros((P, 1, m)), np.zeros((P, m), dtype=bool), np.zeros((P, m), dtype=bool))


class TestLlsScore:
    def test_malignant_only_support_is_positive(self):
        # all mass on malignant atoms: guarded benign mass pushes the default
        # score far positive (and the inverted score equally negative)
        l1 = np.array([0.0, 0.7])
        score = lls_score(l1)
        assert score == pytest.approx(-np.log(L1_LOG_FLOOR / 0.7))
        assert score > 0
        assert lls_score(l1, invert=True) == pytest.approx(-score)

    def test_equal_masses_zero(self):
        assert lls_score(np.array([0.3, 0.3])) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        l1 = rng.uniform(0, 2, size=(2, 50))
        np.testing.assert_allclose(lls_score(l1, invert=True), -lls_score(l1), rtol=0, atol=1e-12)

    def test_elementwise_over_columns(self):
        rng = np.random.default_rng(1)
        l1 = rng.uniform(0, 2, size=(2, 40)) * (rng.random((2, 40)) < 0.8)
        # one guarded log ratio per column, as scalars
        ref = np.array([-np.log(max(float(b), L1_LOG_FLOOR) / max(float(m), L1_LOG_FLOOR)) for b, m in l1.T])
        assert np.array_equal(lls_score(l1), ref)
        assert np.array_equal(lls_score(l1, invert=True), -ref)


class TestBlockDecision:
    """One block position: the P = 1 case of the stacked call."""

    def low_coherence_pair_dict(self, rng):
        A = np.abs(rng.standard_normal((1, 10, 4))) + 0.2
        return Dictionary.from_matrix(A, [BENIGN, BENIGN, MALIGNANT, MALIGNANT])

    def test_copy_of_benign_atom(self):
        rng = np.random.default_rng(1)
        D = self.low_coherence_pair_dict(rng)
        y = 1.3 * D.atoms[0, :, 0]
        res = block_decisions(D, y[None, :, None], 0.01)
        assert res.residuals[BENIGN, 0, 0] <= 0.05 * np.linalg.norm(y)
        assert res.hard[0, 0] == BENIGN
        # direct arithmetic on the returned code agrees
        x = res.codes[0, :, 0]
        mask = D.atom_labels == BENIGN
        xb = np.where(mask, x, 0.0)
        np.testing.assert_allclose(
            res.residuals[BENIGN, 0, 0], np.linalg.norm(y - D.atoms[0] @ xb), atol=1e-9
        )

    def test_degenerate_dictionary(self):
        D = Dictionary.from_matrix(np.zeros((1, 4, 3)), [0, 1, 1])
        res = block_decisions(D, np.ones((1, 4, 1)), 0.0, eps_abs=0.1)
        assert res.degenerate[0, 0]
        assert res.hard[0, 0] == BENIGN
        assert res.lls[0, 0] == 0.0

    def test_zero_block(self):
        rng = np.random.default_rng(2)
        D = self.low_coherence_pair_dict(rng)
        res = block_decisions(D, np.zeros((1, 10, 1)), 0.0, eps_abs=0.1)
        assert res.degenerate[0, 0]
        assert res.hard[0, 0] == BENIGN

    def test_infeasible_eps_uses_best_iterate(self):
        rng = np.random.default_rng(3)
        D = Dictionary.from_matrix(rng.standard_normal((1, 12, 2)), [BENIGN, MALIGNANT])
        y = rng.standard_normal(12)
        res = block_decisions(D, y[None, :, None], 0.0, eps_abs=1e-9)
        assert not res.feasible[0, 0]
        assert np.isfinite(res.lls[0, 0])

    def test_batch_matches_single(self):
        # a column's result does not depend on the other columns in its batch
        rng = np.random.default_rng(4)
        D = self.low_coherence_pair_dict(rng)
        Y = np.abs(rng.standard_normal((10, 5)))
        batch = block_decisions(D, Y[None], 0.3)
        for i in range(5):
            solo = block_decisions(D, Y[None, :, i : i + 1], 0.3)
            assert batch.hard[0, i] == solo.hard[0, 0]
            assert batch.lls[0, i] == pytest.approx(solo.lls[0, 0], abs=1e-7)

    def test_zero_code_ties_at_the_norm(self):
        # a degenerate block keeps the zero code: both class residuals are
        # its norm exactly, the tie goes to benign, and its score is +0.0
        rng = np.random.default_rng(5)
        D = self.low_coherence_pair_dict(rng)
        Y = np.abs(rng.standard_normal((1, 10, 3)))
        allowed = np.ones((4, 3), dtype=bool)
        allowed[:, 1] = False  # no atom at all for sample 1
        res = block_decisions(D, Y, 0.05, allowed=allowed)
        assert res.degenerate[0].tolist() == [False, True, False]
        norm = np.linalg.norm(Y[0, :, 1])
        assert res.residuals[BENIGN, 0, 1] == norm and res.residuals[MALIGNANT, 0, 1] == norm
        assert res.hard[0, 1] == BENIGN and res.feasible[0, 1]
        assert res.lls[0, 1] == 0.0 and not np.signbit(res.lls[0, 1])

    def test_positions_with_other_working_columns_code_as_alone(self):
        # a block within its bound at position 1 only leaves that position
        # other columns to code than the rest: each position still codes as
        # in a call of its own, byte for byte
        rng = np.random.default_rng(7)
        labels = [BENIGN, MALIGNANT] * 3
        D = Dictionary.from_matrix(np.abs(rng.standard_normal((3, 10, 6))) + 0.1, labels)
        Y = np.abs(rng.standard_normal((3, 10, 5)))
        Y[1, :, 2] *= 1e-3
        allowed = np.repeat(np.arange(3), 2)[:, None] != np.array([0, 1, 2, 0, 1])[None, :]
        res = block_decisions(D, Y, 0.0, eps_abs=0.05, allowed=allowed)
        assert res.feasible[1, 2] and not res.feasible[[0, 2], 2].any()
        for p in range(3):
            one = block_decisions(grid(position(D, p)), Y[p : p + 1], 0.0, eps_abs=0.05, allowed=allowed)
            for name in ("codes", "feasible", "hard", "lls"):
                assert getattr(one, name)[0].tobytes() == getattr(res, name)[p].tobytes()

    def test_signals_must_match_the_positions(self):
        rng = np.random.default_rng(6)
        D = Dictionary.from_matrix(np.abs(rng.standard_normal((2, 10, 4))), [BENIGN, BENIGN, MALIGNANT, MALIGNANT])
        with pytest.raises(ValueError, match=r"expected signals of shape \(2, 10, m\), got \(3, 10, 2\)"):
            block_decisions(D, np.ones((3, 10, 2)), 0.1)

    def test_one_position_dictionary_is_refused(self):
        # the grid's stack of dictionaries, not one position's matrix
        D = Dictionary.from_matrix(np.eye(4), [BENIGN, BENIGN, MALIGNANT, MALIGNANT])
        with pytest.raises(ValueError, match=r"expected a \(P, d, n\) stack of block dictionaries, "
                                             r"got atoms of shape \(4, 4\)"):
            block_decisions(D, np.ones((1, 4, 2)), 0.1)


class TestBbmap:
    def test_unanimous(self):
        posterior, label, score = bbmap(np.full((1, 64), MALIGNANT))
        np.testing.assert_allclose(posterior[0], [0.0, 1.0])
        assert label[0] == MALIGNANT
        assert score[0] == 1.0

    def test_three_quarters_benign(self):
        posterior, label, score = bbmap(np.array([[BENIGN, BENIGN, BENIGN, MALIGNANT]]))
        np.testing.assert_allclose(posterior[0], [0.75, 0.25])
        assert label[0] == BENIGN
        assert score[0] == 0.25

    def test_tie_breaks_malignant(self):
        _, label, _ = bbmap(np.array([[BENIGN, BENIGN, MALIGNANT, MALIGNANT]]))
        assert label[0] == MALIGNANT

    def test_posterior_sums_to_one_and_permutation_invariant(self):
        rng = np.random.default_rng(5)
        hard = np.array([[int(rng.integers(0, 2)) for i in range(9)]])
        posterior, label, score = bbmap(hard)
        assert posterior[0].sum() == pytest.approx(1.0)
        posterior2, label2, score2 = bbmap(hard[:, rng.permutation(9)])
        np.testing.assert_array_equal(posterior, posterior2)
        assert (label[0], score[0]) == (label2[0], score2[0])

    def test_invariant_under_hard_label_preserving_rewrites(self):
        rng = np.random.default_rng(6)
        hard = np.array([[int(rng.integers(0, 2)) for i in range(7)]])
        lls = np.zeros((1, 7))
        rewritten = np.array([[float(rng.normal()) for i in range(7)]])
        # bbmap fuses the hard labels alone, whatever the block scores
        cfg = ExperimentConfig(decision="bbmap")
        label_a, vote_a = decision_outputs(block_results(hard.T, lls.T), cfg)
        label_b, vote_b = decision_outputs(block_results(hard.T, rewritten.T), cfg)
        assert label_a[0] == label_b[0] == bbmap(hard)[1][0]
        np.testing.assert_array_equal(vote_a, vote_b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bbmap(np.zeros((1, 0), dtype=int))


class TestBbll:
    def test_mean_example(self):
        ells, _ = bbll(np.array([[1.0, -0.5, 0.5, 1.0]]))
        assert ells[0] == pytest.approx(0.5)

    def test_boundary_goes_to_positive_class(self):
        _, label = bbll(np.zeros((1, 4)), tau=0.0)
        assert label[0] == MALIGNANT

    def test_large_tau_flips_to_negative_class(self):
        _, label = bbll(np.ones((1, 4)), tau=5.0)
        assert label[0] == BENIGN

    def test_mean_identity_and_expanded_form(self):
        rng = np.random.default_rng(6)
        l1s = rng.uniform(0.0, 2.0, size=(16, 2))
        lls = lls_score(l1s.T)[None]
        ells, _ = bbll(lls)
        assert ells[0] == pytest.approx(np.mean(lls[0]), abs=1e-12)
        # expanded form: mean of log-mass differences with the same guard
        guarded = np.maximum(l1s, L1_LOG_FLOOR)
        expanded = -(np.log(guarded[:, BENIGN]).sum() - np.log(guarded[:, MALIGNANT]).sum()) / 16
        assert ells[0] == pytest.approx(expanded, abs=1e-9)

    def test_antisymmetry_of_ensemble_score(self):
        rng = np.random.default_rng(7)
        l1s = rng.uniform(0.0, 2.0, size=(8, 2))
        default = lls_score(l1s.T)[None]
        inverted = lls_score(l1s.T, invert=True)[None]
        ells_a, _ = bbll(default)
        ells_b, _ = bbll(inverted)
        assert ells_b[0] == pytest.approx(-ells_a[0], abs=1e-9)

    def test_mean_is_bitwise_the_row_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            m, nbl = (int(v) for v in rng.integers(1, 300, size=2))
            lls = rng.standard_normal((m, nbl)) * 10.0 ** rng.integers(-3, 4, size=(m, nbl))
            ells, _ = bbll(lls)
            assert np.array_equal(ells, [np.mean(row) for row in lls])

    def test_ensemble_decision_fields(self):
        # both rules fuse one sample's four blocks at tau = 0.1
        hard, lls = np.full((1, 4), MALIGNANT), np.full((1, 4), 0.2)
        res, cfg = block_results(hard.T, lls.T), ExperimentConfig(tau=0.1)
        label_bbmap, vote_score = decision_outputs(res, replace(cfg, decision="bbmap"))
        label_bbll, score = decision_outputs(res, replace(cfg, decision="bbll"))
        assert label_bbmap[0] == MALIGNANT
        assert label_bbll[0] == MALIGNANT
        assert vote_score[0] == 1.0
        # the vote score is the malignant column of bbmap's posterior
        np.testing.assert_array_equal(vote_score, bbmap(hard)[0][:, MALIGNANT])
        # the bbll score is the block mean less tau
        np.testing.assert_array_equal(score, bbll(lls)[0] - 0.1)


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0

    def test_all_tied_scores(self):
        points, auc = roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert auc == pytest.approx(0.5)
        np.testing.assert_array_equal(points[0, 1:], [0.0, 0.0])
        np.testing.assert_array_equal(points[-1, 1:], [1.0, 1.0])

    def test_six_sample_pair_counting(self):
        scores = [0.3, 0.8, 0.8, 0.1, 0.5, 0.4]
        truth = [0, 1, 0, 0, 1, 1]
        _, auc = roc_auc(scores, truth)
        assert auc == pytest.approx(pair_counting_auc(scores, truth), abs=1e-12)

    def test_matches_pair_counting_random(self):
        rng = np.random.default_rng(8)
        for n in range(2, 51):
            for _ in range(3):
                truth = rng.integers(0, 2, n)
                if truth.min() == truth.max():
                    truth[0] = 1 - truth[0]
                # quantized scores force plenty of ties
                scores = np.round(rng.random(n) * 4) / 4
                _, auc = roc_auc(scores, truth)
                assert auc == pytest.approx(pair_counting_auc(scores, truth), abs=1e-12)

    def test_exhaustive_small_binary_inputs(self):
        for n in range(2, 7):
            for smask in range(2**n):
                scores = [(smask >> i) & 1 for i in range(n)]
                for tmask in range(1, 2**n - 1):
                    truth = [(tmask >> i) & 1 for i in range(n)]
                    _, auc = roc_auc(scores, truth)
                    assert auc == pytest.approx(pair_counting_auc(scores, truth), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_endpoints(self):
        rng = np.random.default_rng(9)
        points, _ = roc_auc(rng.random(20), rng.permutation([0] * 10 + [1] * 10))
        assert points[0, 0] == np.inf
        np.testing.assert_array_equal(points[0, 1:], [0, 0])
        np.testing.assert_array_equal(points[-1, 1:], [1, 1])


class TestRocExport:
    def test_csv_and_svg(self, tmp_path):
        points, _ = roc_auc([0.9, 0.4, 0.6, 0.1], [1, 0, 1, 0])
        csv_path = tmp_path / "roc.csv"
        svg_path = tmp_path / "roc.svg"
        write_roc_csv(csv_path, points)
        write_roc_svg(svg_path, points)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == len(points) + 1
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_csv_rows_parse_to_the_points_exactly(self, tmp_path):
        # plain floats, not numpy scalar reprs such as np.float64(0.25), and
        # each written so that it reads back to the same bits
        rng = np.random.default_rng(4)
        points, _ = roc_auc(rng.random(30), rng.permutation([0] * 15 + [1] * 15))
        csv_path = tmp_path / "roc.csv"
        write_roc_csv(csv_path, points)
        rows = [[float(v) for v in line.split(",")] for line in csv_path.read_text().splitlines()[1:]]
        assert rows[0] == [np.inf, 0.0, 0.0]
        assert np.array_equal(np.array(rows), points)

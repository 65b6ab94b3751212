import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksrc import (
    BENIGN,
    MALIGNANT,
    Dictionary,
    ExperimentConfig,
    compute_metrics,
    export_dictionary_mosaic,
    load_model,
    run_experiment,
    save_model,
    stratified_folds,
    synth_dataset,
)
from blocksrc.blocks import RoiSample, block_stack, block_vectors
from blocksrc.config import parse_config_text
from blocksrc.dictlearn import DiscriminativeDictionary, TrainParams
from blocksrc.ensemble import EnsembleDecision, block_decisions_batch, ensemble_decision
from blocksrc.harness import (
    _indented,
    _join_fields,
    build_report,
    classify_samples,
    load_dataset,
    train_block_models,
)
from blocksrc.model_io import VERSION
from blocksrc.pgm import read_pgm
from blocksrc.solvers import bpdn_batch, class_residuals
from blocksrc.synth import SynthSpec

from .oracles import confusion_by_hand


def tiny_config(**overrides):
    base = dict(
        roi_size=16,
        block_sizes=(8,),
        k_folds=4,
        dl_mode="none",
        decision="bbll",
        seed=20,
        synthetic=True,
        synth_atoms_per_class=4,
        synth_sparsity=2,
        synth_noise_sigma=0.05,
        synth_samples_per_class=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestStratifiedFolds:
    def test_paper_scale_dealing(self):
        labels = np.array([BENIGN] * 36 + [MALIGNANT] * 37)
        folds = stratified_folds(labels, 10, seed=20)
        sizes = np.bincount(folds, minlength=10)
        assert set(sizes.tolist()) <= {7, 8}
        for cid in (BENIGN, MALIGNANT):
            per_class = np.bincount(folds[labels == cid], minlength=10)
            assert per_class.max() - per_class.min() <= 1
            assert set(per_class.tolist()) <= {3, 4}

    def test_leave_one_out(self):
        labels = np.array([BENIGN] * 5 + [MALIGNANT] * 4)
        folds = stratified_folds(labels, 9, seed=1)
        assert sorted(folds.tolist()) == list(range(9))

    def test_determinism(self):
        labels = np.array([BENIGN, MALIGNANT] * 20)
        a = stratified_folds(labels, 7, seed=3)
        b = stratified_folds(labels, 7, seed=3)
        np.testing.assert_array_equal(a, b)
        c = stratified_folds(labels, 7, seed=4)
        assert not np.array_equal(a, c)

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n0, n1 = int(rng.integers(3, 30)), int(rng.integers(3, 30))
            labels = np.array([BENIGN] * n0 + [MALIGNANT] * n1)
            k = int(rng.integers(2, min(n0 + n1, 12)))
            folds = stratified_folds(labels, k, seed=int(rng.integers(100)))
            assert folds.shape == labels.shape
            assert folds.min() >= 0 and folds.max() < k
            for cid in (BENIGN, MALIGNANT):
                counts = np.bincount(folds[labels == cid], minlength=k)
                assert counts.max() - counts.min() <= 1

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            stratified_folds([BENIGN, MALIGNANT], 3, seed=0)


class TestComputeMetrics:
    def test_perfect(self):
        m = compute_metrics([0, 0, 1, 1], [0, 0, 1, 1])
        assert (m["tpr"], m["tnr"], m["acc"]) == (100.0, 100.0, 100.0)

    def test_all_benign_predictor(self):
        m = compute_metrics([0, 0, 0, 0], [0, 0, 1, 1])
        assert (m["tpr"], m["tnr"], m["acc"]) == (0.0, 100.0, 50.0)

    def test_hand_tabulated_eight_samples(self):
        preds = [1, 0, 1, 1, 0, 0, 1, 0]
        truth = [1, 1, 0, 1, 0, 1, 1, 0]
        m = compute_metrics(preds, truth)
        tp, fp, tn, fn = confusion_by_hand(preds, truth)
        assert (m["tp"], m["fp"], m["tn"], m["fn"]) == (tp, fp, tn, fn)
        assert m["acc"] == pytest.approx(100.0 * (tp + tn) / 8)
        assert m["tpr"] == pytest.approx(100.0 * tp / (tp + fn))
        assert m["tnr"] == pytest.approx(100.0 * tn / (tn + fp))

    def test_integer_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            preds = rng.integers(0, 2, n)
            truth = rng.integers(0, 2, n)
            m = compute_metrics(preds, truth)
            assert m["tp"] + m["tn"] + m["fp"] + m["fn"] == n
            assert m["acc"] * n == pytest.approx(100.0 * (m["tp"] + m["tn"]))

    def test_auc_from_scores(self):
        m = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0], scores=[0.9, 0.1, 0.8, 0.2])
        assert m["auc"] == 100.0
        assert m["roc"] is not None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])


@st.composite
def pass_outcomes(draw):
    """A cross-validation pass's outcomes over folds of 1-5 samples: per
    sample a truth, a prediction and a score; some folds failed."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    n = sum(sizes)
    truth = draw(st.lists(st.sampled_from((BENIGN, MALIGNANT)), min_size=n, max_size=n))
    preds = draw(st.lists(st.sampled_from((BENIGN, MALIGNANT)), min_size=n, max_size=n))
    scores = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    failed = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    order = np.asarray(draw(st.permutations(range(n))), dtype=int)
    folds, end = [], 0
    for f, (size, fails) in enumerate(zip(sizes, failed)):
        idx = np.sort(order[end : end + size])
        end += size
        if fails:
            folds.append((f, idx, {"stage": "train", "type": "ValueError", "message": "injected"}))
            continue
        p, sc = np.asarray(preds)[idx], np.asarray(scores)[idx]
        dec = EnsembleDecision(vote_score=sc, ells=sc, label_bbmap=p, label_bbll=p, tau=0.0)
        folds.append((f, idx, dec))
    samples = [RoiSample(pixels=np.zeros((2, 2)), label=t) for t in truth]
    return samples, folds


class TestBuildReport:
    @settings(max_examples=200, deadline=None, database=None)
    @given(pass_outcomes(), st.sampled_from(("bbmap", "bbll")))
    def test_fold_metrics_match_compute_metrics(self, outcomes, decision):
        samples, folds = outcomes
        report = build_report(tiny_config(decision=decision), 8, samples, folds)
        assert [e["fold"] for e in report.folds] == [f for f, _, _ in folds]
        for entry, (f, idx, outcome) in zip(report.folds, folds):
            if isinstance(outcome, dict):
                assert entry == {"fold": f, "error": outcome}
                continue
            preds = outcome.label_bbll.tolist()
            truth = [samples[i].label for i in idx]
            expected = compute_metrics(preds, truth)
            expected.pop("roc")
            assert entry["metrics"] == expected
            assert entry["test_indices"] == idx.tolist() and entry["truth"] == truth
            assert entry["predictions"] == preds and entry["scores"] == outcome.ells.tolist()
            assert all(type(v) is int for v in entry["test_indices"] + entry["truth"] + entry["predictions"])
        booked = [e for e in report.folds if "error" not in e]
        if booked:
            pooled = compute_metrics(*(sum((e[k] for e in booked), []) for k in ("predictions", "truth")))
            assert report.confusion == {k: pooled[k] for k in ("tp", "tn", "fp", "fn")}


# text with the characters a JSON encoder must escape, and some it need not
JSON_TEXT = st.text(alphabet=st.sampled_from('ab "\\/\n\t\r\x00\u2028\u2029é中😀'), max_size=8) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestReportEncoding:
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.dictionaries(JSON_TEXT, JSON_VALUES, min_size=1, max_size=6))
    def test_field_encodings_join_to_the_whole_encoding(self, obj):
        texts = {k: _indented(v) for k, v in obj.items()}
        assert _join_fields(texts) == json.dumps(obj, sort_keys=True, indent=2)

    def test_special_values(self):
        obj = {"nan": math.nan, "inf": [math.inf, -math.inf], "empty": [{}, [], ""], "none": None,
               "flags": {"t": True, "f": False}, "text": 'a "quoted"\nline\u2028é'}
        texts = {k: _indented(v) for k, v in obj.items()}
        assert _join_fields(texts) == json.dumps(obj, sort_keys=True, indent=2)


class TestConfig:
    def test_parse_and_override(self):
        text = """
        # experiment
        roi_size = 64
        block_sizes = 16, 8
        k_folds = 20
        dl_mode = lcksvd1
        decision = bbmap
        seed = 7
        synthetic = true
        """
        cfg = parse_config_text(text, overrides={"seed": 9})
        assert cfg.block_sizes == (16, 8)
        assert cfg.k_folds == 20
        assert cfg.dl_mode == "lcksvd1"
        assert cfg.seed == 9
        assert cfg.synthetic is True

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus = 1")

    def test_repeated_key(self):
        with pytest.raises(ValueError, match="config line 3: key k_folds repeats line 1"):
            parse_config_text("k_folds = 10\n# a comment\nk_folds = 20")
        # a flag still overrides the file's one line for its key
        assert parse_config_text("k_folds = 10", {"k_folds": 20}).k_folds == 20

    def test_invalid_block_size(self):
        with pytest.raises(ValueError, match="does not divide"):
            parse_config_text("roi_size = 64\nblock_sizes = 48")

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_any_line_parses_to_finite_floats_or_raises(self, data):
        cls = data.draw(st.sampled_from((ExperimentConfig, SynthSpec)))
        key = data.draw(st.sampled_from([f.name for f in fields(cls)]))
        value = data.draw(
            st.one_of(
                st.sampled_from(("nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1e400")),
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.integers(-10**6, 10**6).map(str),
                st.text(max_size=12),
            )
        )
        try:
            cfg = parse_config_text(f"{key} = {value}", cls=cls)
        except ValueError:
            return
        for f in fields(cfg):
            v = getattr(cfg, f.name)
            if isinstance(v, float):
                assert math.isfinite(v), (f.name, v)

    def test_non_finite_float_names_the_key(self):
        for key in ("alpha", "beta", "tau", "eps_rel", "eps_abs", "synth_noise_sigma"):
            with pytest.raises(ValueError, match=key):
                parse_config_text(f"{key} = nan")
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthSpec(noise_sigma=float("inf"))

    def test_non_positive_sizes_name_the_key(self):
        for key, value in (("roi_size", 0), ("roi_size", -16), ("sparsity", -3), ("sparsity", 0),
                           ("iterations", 0), ("dict_size", -5), ("dict_size", 1), ("sparsity", "abc"),
                           ("roi_size", 1.5), ("block_sizes", "16, x"), ("alpha", "fast")):
            with pytest.raises(ValueError, match=rf"config (line 1: )?key {key}\b"):
                parse_config_text(f"{key} = {value}")
        assert parse_config_text("dict_size = 2").dict_size == 2
        with pytest.raises(ValueError, match="config line 1: key sparsity: expected an integer, got 'abc'"):
            parse_config_text("sparsity = abc")
        with pytest.raises(ValueError, match="config line 2: key noise_sigma: expected a number, got 'loud'"):
            parse_config_text("roi_size = 32\nnoise_sigma = loud", cls=SynthSpec)

    def test_negative_weights_name_the_key(self):
        for text in ("alpha = -1.0", "dl_mode = lcksvd1\nalpha = -1.0", "beta = -0.5", "seed = -3"):
            key = text.split("\n")[-1].split(" ")[0]
            with pytest.raises(ValueError, match=rf"config key {key} must be >= 0, got -"):
                parse_config_text(text)
        cfg = parse_config_text("alpha = 0\nbeta = 0")
        assert (cfg.alpha, cfg.beta) == (0.0, 0.0)

    def test_negative_error_bounds_name_the_key(self):
        # each bound is rejected on its own, even where the other one is in force
        for text in ("eps_abs = -1", "eps_rel = -0.05\neps_abs = 0.1", "eps_rel = -0.05",
                     "eps_rel = 0.05\neps_abs = -0.1"):
            key = next(line.split(" ")[0] for line in text.split("\n") if "-" in line)
            with pytest.raises(ValueError, match=rf"config key {key} must be >= 0, got -"):
                parse_config_text(text)
        with pytest.raises(ValueError, match="eps_abs"):
            ExperimentConfig(eps_abs=-1.0)
        cfg = parse_config_text("eps_rel = 0\neps_abs = 0.1")
        assert (cfg.eps_rel, cfg.eps_abs) == (0.0, 0.1)
        with pytest.raises(ValueError, match="one of eps_rel / eps_abs must be positive"):
            parse_config_text("eps_rel = 0\neps_abs = 0")

    def test_integer_keys_reject_non_integers(self):
        int_keys = [f.name for f in fields(ExperimentConfig) if type(f.default) is int]
        assert {"k_folds", "seed", "roi_size", "synth_samples_per_class"} <= set(int_keys)
        for key in int_keys:
            for value in (2.5, 16.0, True, "16"):
                with pytest.raises(ValueError, match=rf"config key {key} must be an integer, got {value!r}"):
                    ExperimentConfig(**{key: value})
        for value in (16.0, True, 2.5):
            with pytest.raises(ValueError, match=rf"config key block_sizes must be an integer, got {value!r}"):
                ExperimentConfig(block_sizes=(8, value))
        cfg = ExperimentConfig(k_folds=np.int64(3), seed=np.int32(1), block_sizes=(np.int64(16), 8))
        assert (cfg.k_folds, cfg.seed, cfg.block_sizes) == (3, 1, (16, 8))

    def test_echo_excludes_runtime_knobs(self):
        cfg = tiny_config()
        echo = cfg.echo()
        assert "output_dir" not in echo and "data_dir" not in echo
        assert echo["decision"] == "bbll"


class TestSynthData:
    def test_determinism(self):
        spec = SynthSpec(roi_size=16, block_size=8, atoms_per_class=3, sparsity=2,
                         noise_sigma=0.1, samples_per_class=4)
        a = synth_dataset(spec, 5)
        b = synth_dataset(spec, 5)
        assert len(a) == 8
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.pixels, t.pixels)
            assert s.label == t.label

    def test_pixels_are_pinned(self):
        # pixels recorded from an earlier version of the generator: the first
        # row and first column of the first and of the last ROI, which pin the
        # draw order and the layout of the blocks in the ROI
        samples = synth_dataset(SynthSpec(roi_size=16, block_size=8, samples_per_class=3), 7)
        pinned = {
            0: ([0.17573015721418342, 0.07511828952795332, 0.15750448184660082, 0.2870336734798274,
                 0.24660430842967845, 0.26540024133032586, 0.16235464057360968, 0.17505639884551308,
                 0.25379965720582104, 0.35382668311462706, 0.37138783664698044, 0.358909135855208,
                 0.5043449491471499, 0.7819148925236101, 0.41801200733924837, 0.08613964709330746],
                [0.17573015721418342, 0.30055885200239496, 0.20049880577737308, 0.1695266373345891,
                 0.16467282882523404, 0.17458669043719213, 0.36982516318238096, 0.13651867461331568,
                 0.38571043866829385, 0.3916760897126999, 0.15157116850744823, 0.09923727259592173,
                 0.7128572052207134, 0.14950689626842467, 0.3614314841583972, 0.03800498189567564]),
            -1: ([0.2666038683447252, 0.45831697323823617, 0.7610679849376698, 0.6138188703600835,
                  0.0, 0.2836518023774858, 0.11711897805507888, 0.5087731752057797,
                  0.6770608787698138, 0.3895163812506415, 0.19808014945487862, 0.43303455429650817,
                  0.350373360194119, 0.30418146636887045, 0.2561820138277845, 0.3426542664027649],
                 [0.2666038683447252, 0.5334601978862437, 0.2913809725689451, 0.37600752054710773,
                  0.13466048135195774, 0.5841369045967422, 0.40857124935786454, 0.6722664645455593,
                  0.03762757236691219, 0.7151355560195556, 0.16900933003448812, 0.5577011265560227,
                  0.23858513457679925, 0.1538814078215046, 0.5317565161820259, 0.4412984469130431]),
        }
        assert [s.source_id for s in (samples[0], samples[-1])] == ["synth0000", "synth1002"]
        for i, (row, col) in pinned.items():
            np.testing.assert_allclose(samples[i].pixels[0], row, rtol=1e-12, atol=0)
            np.testing.assert_allclose(samples[i].pixels[:, 0], col, rtol=1e-12, atol=0)

    def test_noise_free_single_block_src_is_perfect(self):
        cfg = tiny_config(
            block_sizes=(16,), synth_noise_sigma=0.0, k_folds=4, decision="bbmap"
        )
        report = run_experiment(cfg, persist=False)
        assert report.metrics["acc"] == 100.0

    def test_noise_degrades_accuracy_monotonically(self):
        accs = []
        for sigma in (0.0, 0.05, 0.2):
            per_seed = []
            for seed in range(5):
                cfg = tiny_config(
                    synth_noise_sigma=sigma,
                    seed=20 + seed,
                    synth_samples_per_class=10,
                    k_folds=5,
                )
                rep = run_experiment(cfg, persist=False)
                per_seed.append(rep.metrics["acc"])
            accs.append(np.mean(per_seed))
        assert accs[0] >= accs[1] >= accs[2]


class TestLoadDataset:
    def test_cache_roi_of_another_size_is_named(self, tmp_path):
        from blocksrc.synth import write_synth_cache

        samples = load_dataset(tiny_config())
        odd = replace(samples[5], pixels=samples[5].pixels[:8, :8], source_id="odd")
        write_synth_cache(samples[:5] + [odd] + samples[6:], str(tmp_path))
        cfg = tiny_config(synthetic=False, data_dir=str(tmp_path))
        with pytest.raises(ValueError, match="cache ROI odd has size 8, which does not match config roi_size 16"):
            load_dataset(cfg)
        write_synth_cache(samples, str(tmp_path / "even"))
        assert len(load_dataset(replace(cfg, data_dir=str(tmp_path / "even")))) == len(samples)


class TestRunExperiment:
    def test_single_block_reduces_to_src(self):
        cfg = tiny_config(block_sizes=(16,), decision="bbmap", k_folds=4)
        samples = load_dataset(cfg)
        report = run_experiment(cfg, samples=samples, persist=False)

        # replicate by hand: one dictionary per fold, SRC residual rule
        labels = np.array([s.label for s in samples])
        folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
        expected = {}
        for f in range(cfg.k_folds):
            train = [samples[i] for i in np.flatnonzero(folds != f)]
            test_idx = np.flatnonzero(folds == f)
            models = train_block_models(*block_stack(train, 16, 16), cfg)
            D = models[0].D
            for i in test_idx:
                y = block_vectors([samples[i]], 16, 16)[0, 0]
                eps = cfg.eps_rel * np.linalg.norm(y)
                X, _, _, _ = bpdn_batch(D, y[:, None], np.array([eps]))
                resid, _ = class_residuals(D, X, y[:, None])
                expected[int(i)] = BENIGN if resid[BENIGN, 0] <= resid[MALIGNANT, 0] else MALIGNANT
        got = {}
        for fold in report.folds:
            for i, p in zip(fold["test_indices"], fold["predictions"]):
                got[i] = p
        assert got == expected

    def test_pooled_predictions_cover_each_sample_once(self):
        cfg = tiny_config()
        report = run_experiment(cfg, persist=False)
        seen = []
        for fold in report.folds:
            seen.extend(fold["test_indices"])
        assert sorted(seen) == list(range(report.n_samples))

    def test_deterministic_report_bytes(self):
        cfg = tiny_config()
        a = run_experiment(cfg, persist=False).to_json()
        b = run_experiment(cfg, persist=False).to_json()
        assert a == b

    def test_persisted_artifacts(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path))
        report = run_experiment(cfg)
        stem = f"bbll_none_k{cfg.k_folds}_b8"
        assert (tmp_path / f"{stem}.json").exists()
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}_roc.csv").exists()
        assert (tmp_path / f"{stem}_roc.svg").exists()
        loaded = json.loads((tmp_path / f"{stem}.json").read_text())
        assert loaded == report.to_dict()

    def test_multi_block_config_requires_choice(self):
        cfg = tiny_config(block_sizes=(8, 16))
        with pytest.raises(ValueError, match="block_size required"):
            run_experiment(cfg, persist=False)

    def test_lcksvd_modes_run(self):
        for mode in ("lcksvd1", "lcksvd2"):
            cfg = tiny_config(dl_mode=mode, iterations=3, k_folds=3)
            rep = run_experiment(cfg, persist=False)
            assert rep.metrics["acc"] >= 50.0
            assert rep.incomplete_folds == []

    def test_default_k_learned_cells_predict_as_none(self):
        # at dict_size = 0 the learned dictionaries hold the normalized
        # training blocks, so only the atom order and scales differ from none
        for decision in ("bbmap", "bbll"):
            cfg = tiny_config(decision=decision, synth_noise_sigma=1.0)
            none = run_experiment(cfg, persist=False)
            assert 0 < none.metrics["acc"] < 100
            for mode in ("lcksvd1", "lcksvd2"):
                rep = run_experiment(replace(cfg, dl_mode=mode), persist=False)
                assert rep.confusion == none.confusion
                for fold, twin in zip(rep.folds, none.folds):
                    assert fold["predictions"] == twin["predictions"]
                    np.testing.assert_allclose(fold["scores"], twin["scores"], rtol=0, atol=1e-12)

    def test_cuts_each_roi_once(self, monkeypatch):
        # every fold's training and test blocks are indexed from one cut
        for mode, dict_size in (("none", 0), ("lcksvd1", 0), ("lcksvd1", 6)):
            cfg = tiny_config(dl_mode=mode, dict_size=dict_size, iterations=2)
            samples = load_dataset(cfg)
            cuts = spy_cuts(monkeypatch)
            run_experiment(cfg, samples=samples, persist=False)
            monkeypatch.undo()
            assert cuts == [(len(samples), 8)]

    def test_failed_fold_recorded_with_diagnostic(self):
        # the fold holding the only malignant ROI trains without that class
        samples = with_one_malignant(load_dataset(tiny_config()))
        labels = np.array([s.label for s in samples])
        for mode in ("none", "lcksvd1", "lcksvd2"):
            cfg = tiny_config(dl_mode=mode)
            report = run_experiment(cfg, samples=samples, persist=False)
            folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
            lone = int(folds[labels == MALIGNANT][0])
            assert report.incomplete_folds == [lone]
            assert report.folds[lone]["error"] == ONE_CLASS_TRAINING
            # pooled metrics cover only the completed folds
            covered = sum(len(f.get("test_indices", [])) for f in report.folds)
            assert covered == report.n_samples - int(np.sum(folds == lone))

    def test_mixed_roi_sizes_raise_once(self):
        cfg = tiny_config()
        samples = load_dataset(cfg)
        small = replace(samples[3], pixels=samples[3].pixels[:8, :8])
        mixed = samples[:3] + [small] + samples[4:]
        with pytest.raises(ValueError, match="mixed ROI sizes: 8 vs 16"):
            block_vectors(mixed, 8, 8)
        for mode in ("none", "lcksvd1"):
            for dict_size in (0, 6):
                sub = replace(cfg, dl_mode=mode, dict_size=dict_size, iterations=2)
                with pytest.raises(ValueError, match="mixed ROI sizes: 8 vs 16"):
                    run_experiment(sub, samples=mixed, persist=False)

    def test_block_not_dividing_the_rois_raises_before_any_fold(self):
        # 8-px ROIs under a 16-px config: a raw cell and a learned one below
        # K = s reject the block size alike, rather than failing each fold
        samples = load_dataset(tiny_config(roi_size=8))
        for mode, dict_size in (("none", 0), ("lcksvd1", 6)):
            cfg = tiny_config(block_sizes=(16,), dl_mode=mode, dict_size=dict_size, iterations=2, k_folds=3)
            with pytest.raises(ValueError, match="block size 16x16 does not divide ROI 8x8"):
                run_experiment(cfg, samples=samples, persist=False)

    def test_programming_error_propagates(self, monkeypatch):
        import blocksrc.harness as H

        def broken(dicts, blocks, rows, cfg, allowed=None):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(H, "classify_samples", broken)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_experiment(tiny_config(), persist=False)

    def test_programming_error_propagates_from_per_fold_classification(self, monkeypatch):
        # a learned cell's folds are classified one by one, without a mask
        import blocksrc.harness as H

        def broken(dicts, blocks, rows, cfg, allowed):
            assert allowed is None
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(H, "classify_samples", broken)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_experiment(tiny_config(dl_mode="lcksvd1", dict_size=6, iterations=2), persist=False)


def per_fold_reference(cfg, samples, block):
    """Each fold trained and classified on its own, with no atom mask, on
    its own ROIs cut afresh; a fold whose training raises gets the
    diagnostic its error makes."""
    folds = stratified_folds([s.label for s in samples], cfg.k_folds, cfg.seed)
    out = []
    for f in range(cfg.k_folds):
        try:
            stack, labels = block_stack([samples[i] for i in np.flatnonzero(folds != f)], block, block)
            models = train_block_models(stack, labels, cfg)
        except ValueError as err:
            out.append({"stage": "train", "type": type(err).__name__, "message": str(err)})
            continue
        test = [samples[i] for i in np.flatnonzero(folds == f)]
        out.append(classify_samples([m.D for m in models], block_vectors(test, block, block), slice(None), cfg))
    return out


def validate(cfg, samples, block):
    """``cross_validate`` on the samples cut into ``block``-px blocks."""
    import blocksrc.harness as H

    return H.cross_validate(cfg, block_vectors(samples, block, block), [s.label for s in samples])


def block_side(blocks) -> int:
    """The side of the square blocks of a (samples, positions, pixels) array."""
    return math.isqrt(blocks.shape[2])


def spy_cuts(monkeypatch):
    """Record ``(ROIs, block side)`` of every ``block_vectors`` call, however
    it is reached."""
    import blocksrc.blocks as B
    import blocksrc.harness as H

    cuts, real = [], B.block_vectors

    def counting(rois, block_w, block_h):
        cuts.append((len(rois), block_w))
        return real(rois, block_w, block_h)

    monkeypatch.setattr(B, "block_vectors", counting)
    monkeypatch.setattr(H, "block_vectors", counting)
    return cuts


ONE_CLASS_TRAINING = {"stage": "train", "type": "ValueError",
                      "message": "training set must contain at least one sample per class"}


def with_one_malignant(samples):
    """The benign samples and the first malignant one, in their order: the
    fold that holds the malignant one trains without its class."""
    first = next(i for i, s in enumerate(samples) if s.label == MALIGNANT)
    return [s for i, s in enumerate(samples) if s.label == BENIGN or i == first]


def assert_same_decisions(got, ref, atol=1e-9):
    assert np.array_equal(got.label_bbmap, ref.label_bbmap)
    assert np.array_equal(got.label_bbll, ref.label_bbll)
    np.testing.assert_allclose(got.vote_score, ref.vote_score, rtol=0, atol=atol)
    np.testing.assert_allclose(got.ells, ref.ells, rtol=0, atol=atol)


def walking_config(**overrides):
    """4-px blocks of 8-px ROIs, 30 of them: 4 positions whose ~28 raw atoms
    outnumber the 16 dimensions, so most blocks walk the l1 path."""
    base = dict(roi_size=8, block_sizes=(4,), synth_samples_per_class=15, synth_noise_sigma=0.3)
    base.update(overrides)
    return tiny_config(**base)


class TestStackedFolds:
    """A raw-dictionary cell codes all its folds in one masked call."""

    def spy(self, monkeypatch):
        import blocksrc.harness as H

        calls = []
        real_classify, real_decide = H.classify_samples, H.block_decisions_batch

        def classify(dicts, blocks, rows, cfg, allowed=None):
            calls.append({"blocks": blocks, "rows": rows, "allowed": allowed, "dicts": dicts, "results": []})
            return real_classify(dicts, blocks, rows, cfg, allowed)

        def decide(Dj, Yj, eps, invert_lls=False, allowed=None):
            res = real_decide(Dj, Yj, eps, invert_lls=invert_lls, allowed=allowed)
            calls[-1]["results"].append(res)
            return res

        monkeypatch.setattr(H, "classify_samples", classify)
        monkeypatch.setattr(H, "block_decisions_batch", decide)
        return calls

    @pytest.mark.parametrize("k", [10, 20, 30])
    def test_stacked_matches_per_fold(self, k, monkeypatch):
        cfg = walking_config(k_folds=k)
        samples = load_dataset(cfg)
        ref = per_fold_reference(cfg, samples, 4)
        calls = self.spy(monkeypatch)
        out = validate(cfg, samples, 4)
        assert len(calls) == 1 and calls[0]["allowed"] is not None
        assert calls[0]["blocks"][calls[0]["rows"]].shape[0] == len(samples)
        # a feasible code of a nonzero block walked the path
        walked = sum(int(b.feasible.sum()) for b in calls[0]["results"])
        assert walked >= 2 * len(samples)
        for (f, _, dec), r in zip(out, ref):
            assert_same_decisions(dec, r)

    def test_no_sample_codes_with_its_own_fold(self, monkeypatch):
        cfg = walking_config(k_folds=5)
        samples = load_dataset(cfg)
        folds = stratified_folds([s.label for s in samples], cfg.k_folds, cfg.seed)
        calls = self.spy(monkeypatch)
        validate(cfg, samples, 4)
        (call,) = calls
        # the held-out samples come fold by fold
        test = np.concatenate([np.flatnonzero(folds == f) for f in range(cfg.k_folds)])
        assert np.array_equal(call["blocks"][call["rows"]], block_vectors(samples, 4, 4)[test])
        # every sample, its own among them, has its block in the shared set
        assert call["dicts"][0].n_atoms == len(samples)
        same_fold = folds[:, None] == folds[test][None, :]
        assert np.array_equal(call["allowed"], ~same_fold)
        leaked = 0
        for j, res in enumerate(call["results"]):
            assert np.all(res.codes[same_fold] == 0.0)
            # unmasked, a block would code itself: its own atom enters first
            D = call["dicts"][j]
            y = np.stack([block_vectors([samples[i]], 4, 4)[0, j] for i in test], axis=1)
            X, *_ = bpdn_batch(D, y, cfg.eps_rel * np.linalg.norm(y, axis=0))
            leaked += int(np.count_nonzero(X[test, np.arange(test.size)]))
        assert leaked >= len(call["results"]) * len(samples) // 2

    def test_held_out_rows_are_read_from_the_pass_s_array(self, monkeypatch):
        # the pooled call codes the very array cross_validate was given, its
        # held-out samples picked fold by fold, with no copy of their rows
        import blocksrc.harness as H

        cfg = walking_config(k_folds=5)
        samples = load_dataset(cfg)
        labels = [s.label for s in samples]
        folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
        blocks = block_vectors(samples, 4, 4)
        calls = self.spy(monkeypatch)
        H.cross_validate(cfg, blocks, labels)
        (call,) = calls
        assert np.shares_memory(call["blocks"], blocks)
        test = np.concatenate([np.flatnonzero(folds == f) for f in range(cfg.k_folds)])
        assert np.array_equal(call["rows"], test)

    def test_failed_training_fold_is_left_out(self, monkeypatch):
        # the fold holding the only malignant ROI fails as its training
        # would; the other folds are coded in one masked call on the atoms
        # of every sample, since each sample is in some fold's training split
        samples = with_one_malignant(load_dataset(walking_config()))
        labels = np.array([s.label for s in samples])
        for mode in ("none", "lcksvd1", "lcksvd2"):
            cfg = walking_config(k_folds=6, dl_mode=mode)
            folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
            lone = int(folds[labels == MALIGNANT][0])
            ref = per_fold_reference(cfg, samples, 4)
            assert ref[lone] == ONE_CLASS_TRAINING
            calls = self.spy(monkeypatch)
            out = validate(cfg, samples, 4)
            monkeypatch.undo()
            assert out[lone][2] == ref[lone]
            (call,) = calls
            assert call["allowed"] is not None and call["dicts"][0].n_atoms == len(samples)
            test = [i for f in range(cfg.k_folds) if f != lone for i in np.flatnonzero(folds == f)]
            assert np.array_equal(call["blocks"][call["rows"]], block_vectors(samples, 4, 4)[test])
            for f, _, dec in out:
                if f != lone:
                    assert_same_decisions(dec, ref[f])

    def test_joint_classify_failure_is_booked_to_each_fold(self, monkeypatch):
        import blocksrc.harness as H

        def broken(Dj, Yj, eps, invert_lls=False, allowed=None):
            raise np.linalg.LinAlgError("synthetic solver failure")

        monkeypatch.setattr(H, "block_decisions_batch", broken)
        report = run_experiment(tiny_config(), persist=False)
        assert report.incomplete_folds == [0, 1, 2, 3]
        for entry in report.folds:
            assert entry["error"] == {"stage": "classify", "type": "LinAlgError",
                                      "message": "synthetic solver failure"}

    @pytest.mark.parametrize("dict_size", [0, 6])
    def test_learned_cells_classify_per_fold(self, dict_size, monkeypatch):
        # at K = s the learned dictionaries are the raw ones and pool as a raw
        # cell's do; at K < s they never fit, and each fold codes on its own
        cfg = walking_config(k_folds=4, dl_mode="lcksvd2", dict_size=dict_size, iterations=2)
        samples = load_dataset(cfg)
        ref = per_fold_reference(cfg, samples, 4)
        calls = self.spy(monkeypatch)
        out = validate(cfg, samples, 4)
        if dict_size == 0:
            assert len(calls) == 1 and calls[0]["allowed"] is not None
        else:
            assert len(calls) == 4 and all(c["allowed"] is None for c in calls)
        for (_, _, dec), r in zip(out, ref):
            assert_same_decisions(dec, r, atol=1e-9 if dict_size == 0 else 0.0)

    def test_fixed_k_equal_to_every_training_count_pools(self, monkeypatch):
        # K = 24 is every fold's training count but not the 30 samples the
        # pooled group trains on: the group still gets the raw dictionaries
        cfg = walking_config(k_folds=5, dl_mode="lcksvd1", dict_size=24, iterations=2)
        samples = load_dataset(cfg)
        folds = stratified_folds([s.label for s in samples], cfg.k_folds, cfg.seed)
        assert set(np.bincount(folds).tolist()) == {6}
        ref = per_fold_reference(cfg, samples, 4)
        calls = self.spy(monkeypatch)
        out = validate(cfg, samples, 4)
        assert len(calls) == 1 and calls[0]["dicts"][0].n_atoms == len(samples)
        for (_, _, dec), r in zip(out, ref):
            assert_same_decisions(dec, r)

    def test_cell_at_k_s_in_some_folds_codes_fold_by_fold(self, monkeypatch):
        # K equals the training count of some folds only: those build the
        # closed form and the others run K-SVD, so no pool serves the cell
        cfg = walking_config(k_folds=4, dl_mode="lcksvd1", dict_size=22, iterations=2)
        samples = load_dataset(cfg)
        folds = stratified_folds([s.label for s in samples], cfg.k_folds, cfg.seed)
        closed = [cfg.train_params().closed_form(int(np.sum(folds != f))) for f in range(cfg.k_folds)]
        assert any(closed) and not all(closed)
        ref = per_fold_reference(cfg, samples, 4)
        calls = self.spy(monkeypatch)
        out = validate(cfg, samples, 4)
        assert len(calls) == cfg.k_folds and all(c["allowed"] is None for c in calls)
        for (_, _, dec), r in zip(out, ref):
            assert_same_decisions(dec, r, atol=0.0)


class TestPoolByConstruction:
    """Every fold's dictionaries at K = s are byte-equal column subsets of
    the whole dataset's, which is what lets a cell code on those."""

    def test_fold_dictionaries_are_column_subsets_of_the_dataset_s(self):
        # MIAS-sized: 37 ROIs per class, 64x64
        samples = synth_dataset(SynthSpec(roi_size=64, block_size=16, samples_per_class=37), 20)
        labels = [s.label for s in samples]
        for block in (8, 16, 32, 64):
            raw = ExperimentConfig(roi_size=64, block_sizes=(block,))  # dl_mode "none"
            whole = [m.D for m in train_block_models(*block_stack(samples, block, block), raw)]
            for mode, k in (("none", 10), ("lcksvd1", 20), ("lcksvd2", 30)):
                cfg = ExperimentConfig(roi_size=64, block_sizes=(block,), k_folds=k, dl_mode=mode)
                folds = stratified_folds(labels, k, cfg.seed)
                for f in range(k):
                    idx = np.flatnonzero(folds != f)
                    models = train_block_models(*block_stack([samples[i] for i in idx], block, block), cfg)
                    for m, D in zip(models, whole, strict=True):
                        assert m.D.atoms.tobytes() == np.ascontiguousarray(D.atoms[:, idx]).tobytes()
                        assert m.D.atom_labels.tobytes() == D.atom_labels[idx].tobytes()
                        assert m.D.scales.tobytes() == D.scales[idx].tobytes()


class TestRunGrid:
    def test_one_pass_per_cell_serves_both_rules(self, tmp_path, monkeypatch):
        import blocksrc.harness as H

        modes, blocks = ("none", "lcksvd1"), (16, 8)
        monkeypatch.setattr(H, "GRID_FOLDS", (3,))
        monkeypatch.setattr(H, "GRID_BLOCKS", blocks)
        monkeypatch.setattr(H, "GRID_MODES", modes)
        trains, classifies, loads = [], [], []
        real_train, real_classify, real_load = H.train_block_models, H.classify_samples, H.load_dataset

        def counting_train(stack, labels, cfg):
            trains.append((cfg.k_folds, cfg.dl_mode, math.isqrt(stack.shape[1]), stack.shape[2]))
            return real_train(stack, labels, cfg)

        def counting_classify(dicts, blocks, rows, cfg, allowed=None):
            classifies.append((cfg.k_folds, block_side(blocks)))
            return real_classify(dicts, blocks, rows, cfg, allowed)

        def counting_load(cfg):
            loads.append(cfg)
            return real_load(cfg)

        real_build = H.build_report
        builds = []

        def counting_build(c, block_size, samples, folds):
            builds.append((c.k_folds, block_size, c.decision))
            return real_build(c, block_size, samples, folds)

        monkeypatch.setattr(H, "train_block_models", counting_train)
        monkeypatch.setattr(H, "classify_samples", counting_classify)
        monkeypatch.setattr(H, "load_dataset", counting_load)
        monkeypatch.setattr(H, "build_report", counting_build)
        cfg = tiny_config(iterations=3, output_dir=str(tmp_path / "grid"))
        reports = H.run_grid(cfg)
        monkeypatch.undo()

        assert len(loads) == 1
        # at K = s no fold trains: one raw training on every sample and one
        # call per (folds, block) pair serve both modes and both rules; each
        # rule's report is built once
        n = reports[0].n_samples
        assert sorted(trains) == sorted((3, "none", b, n) for b in blocks)
        assert sorted(classifies) == sorted((3, b) for b in blocks)
        assert sorted(builds) == sorted((3, b, d) for b in blocks for d in ("bbmap", "bbll"))
        cells = [(d, m, b) for d in ("bbmap", "bbll") for m in modes for b in blocks]
        assert [(r.config["decision"], r.config["dl_mode"], r.block_size) for r in reports] == cells
        solo_dir = tmp_path / "solo"
        for rep, (decision, mode, block) in zip(reports, cells):
            solo = run_experiment(
                replace(cfg, decision=decision, k_folds=3, dl_mode=mode, output_dir=str(solo_dir)),
                block_size=block,
            )
            assert rep.to_json() == solo.to_json()
        solo_files = sorted(p.name for p in solo_dir.iterdir())
        assert len(solo_files) == 4 * len(cells)  # .json, .csv, _roc.csv, _roc.svg
        assert sorted(p.name for p in (tmp_path / "grid").iterdir()) == sorted(solo_files + ["grid_summary.csv"])
        for name in solo_files:
            assert (tmp_path / "grid" / name).read_bytes() == (solo_dir / name).read_bytes(), name
        self.assert_whole_encodings(reports, tmp_path / "grid")

        # a pass whose coding fails books every fold as an error dict and
        # has None metrics; its twins still persist the whole encoding
        def failing_classify(dicts, blocks, rows, c, allowed=None):
            if block_side(blocks) == 8:
                raise ValueError("injected")
            return real_classify(dicts, blocks, rows, c, allowed)

        monkeypatch.setattr(H, "GRID_FOLDS", (3,))
        monkeypatch.setattr(H, "GRID_BLOCKS", blocks)
        monkeypatch.setattr(H, "GRID_MODES", modes)
        monkeypatch.setattr(H, "classify_samples", failing_classify)
        failed = H.run_grid(replace(cfg, output_dir=str(tmp_path / "failed")))
        monkeypatch.undo()
        for rep in failed:
            if rep.block_size == 8:
                assert all(e["error"]["message"] == "injected" for e in rep.folds)
                assert set(rep.metrics.values()) == {None} and rep.roc == []
            else:
                assert not rep.incomplete_folds
        self.assert_whole_encodings(failed, tmp_path / "failed")

    @staticmethod
    def assert_whole_encodings(reports, out_dir):
        """Every report's .json is its whole dict encoded at once."""
        import blocksrc.harness as H

        for rep in reports:
            text = (out_dir / (H.report_stem(rep) + ".json")).read_text(encoding="utf-8")
            assert text == json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"

    def test_no_grid_block_dividing_roi_size_raises(self, tmp_path):
        import blocksrc.harness as H

        cfg = tiny_config(roi_size=12, block_sizes=(12,), output_dir=str(tmp_path))
        with pytest.raises(ValueError, match=r"GRID_BLOCKS \(64, 32, 16, 8\).*roi_size 12"):
            H.run_grid(cfg)
        assert not any(tmp_path.iterdir())


class TestGridReuse:
    """The passes of one (folds, block) pair code each byte-distinct pool once."""

    FOLDS, BLOCKS = (2, 3), (16, 8)

    def grid(self, monkeypatch, cfg, train=None):
        """Run a small grid; returns its reports by (decision, k, mode, block)
        and the (k, mode, block, allowed) of every classify call."""
        import blocksrc.harness as H

        monkeypatch.setattr(H, "GRID_FOLDS", self.FOLDS)
        monkeypatch.setattr(H, "GRID_BLOCKS", self.BLOCKS)
        calls = []
        real_classify = H.classify_samples

        def classify(dicts, blocks, rows, c, allowed=None):
            calls.append((c.k_folds, c.dl_mode, block_side(blocks), allowed is not None))
            return real_classify(dicts, blocks, rows, c, allowed)

        monkeypatch.setattr(H, "classify_samples", classify)
        if train is not None:
            monkeypatch.setattr(H, "train_block_models", train)
        reports = H.run_grid(cfg, persist=False)
        monkeypatch.undo()
        by_cell = {(r.config["decision"], r.config["k_folds"], r.config["dl_mode"], r.block_size): r
                   for r in reports}
        assert len(by_cell) == len(reports)
        return by_cell, calls

    def test_default_k_reuses_the_raw_pass(self, monkeypatch):
        reports, calls = self.grid(monkeypatch, tiny_config(dict_size=0))
        # one masked call per (folds, block) pair, made by the "none" pass
        assert sorted(calls) == sorted((k, "none", b, True) for k in self.FOLDS for b in self.BLOCKS)
        for (decision, k, mode, block), rep in reports.items():
            twin = reports[decision, k, "none", block]
            assert rep.folds == twin.folds and not rep.incomplete_folds

    def test_cuts_once_per_block_size(self, monkeypatch):
        # every fold count and mode, pooled or trained fold by fold, indexes
        # its blocks from the one cut of its block size
        cfg = tiny_config(dict_size=6, iterations=2)
        cuts = spy_cuts(monkeypatch)
        reports, calls = self.grid(monkeypatch, cfg)
        assert any(not masked for *_, masked in calls)  # some passes trained per fold
        assert cuts == [(2 * cfg.synth_samples_per_class, b) for b in self.BLOCKS]

    def test_learned_passes_below_k_s_classify_on_their_own(self, monkeypatch):
        default, _ = self.grid(monkeypatch, tiny_config(dict_size=0))
        reports, calls = self.grid(monkeypatch, tiny_config(dict_size=6))
        expected = [(k, "none", b, True) for k in self.FOLDS for b in self.BLOCKS]
        expected += [(k, m, b, False) for k in self.FOLDS for b in self.BLOCKS
                     for m in ("lcksvd1", "lcksvd2") for _ in range(k)]
        assert sorted(calls) == sorted(expected)
        for cell, rep in reports.items():
            if cell[2] == "none":
                assert rep.to_json().replace('"dict_size": 6', '"dict_size": 0') == default[cell].to_json()

    def test_pass_at_k_s_in_some_folds_is_not_reused(self, monkeypatch):
        # K = 10 exceeds the 2-fold passes' training count (8), equals that
        # of one of 3 folds and is below the other two's (11): no LC pass
        # pools, so each trains and codes fold by fold
        cfg = tiny_config(dict_size=10, iterations=2)
        samples = load_dataset(cfg)
        reports, calls = self.grid(monkeypatch, cfg)
        expected = [(k, "none", b, True) for k in self.FOLDS for b in self.BLOCKS]
        expected += [(k, m, b, False) for k in self.FOLDS for b in self.BLOCKS
                     for m in ("lcksvd1", "lcksvd2") for _ in range(k)]
        assert sorted(calls) == sorted(expected)
        folds = stratified_folds([s.label for s in samples], 3, cfg.seed)
        assert sorted(int(np.sum(folds != f)) for f in range(3)) == [10, 11, 11]
        for mode in ("lcksvd1", "lcksvd2"):
            sub = replace(cfg, k_folds=3, dl_mode=mode)
            for block in self.BLOCKS:
                for f, r in enumerate(per_fold_reference(sub, samples, block)):
                    entry = reports["bbll", 3, mode, block].folds[f]
                    assert entry["predictions"] == r.label_bbll.tolist()
                    assert entry["scores"] == (r.ells - r.tau).tolist()


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    """Bytes of a two-block archive (modes lcksvd2 and none) and a scratch
    path to write variants of it to."""
    D = Dictionary.from_matrix(np.arange(1.0, 13.0).reshape(3, 4), [0, 0, 1, 1])
    models = [
        DiscriminativeDictionary(D=D, mode="lcksvd2", objective_trace=np.array([2.0, 1.0])),
        DiscriminativeDictionary(D=D, mode="none"),
    ]
    path = tmp_path_factory.mktemp("archive") / "small.blkd"
    save_model(str(path), models, TrainParams(K=4, T=2), {"block_w": 8})
    return path.read_bytes(), path.with_name("variant.blkd")


ARCHIVE_KINDS = {"f8": "<f8", "i4": "<i4"}


def archive_header(raw: bytes) -> dict:
    return json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])


def archive_with_header(raw: bytes, header) -> bytes:
    """``raw`` with its header JSON replaced by ``header``, payload kept."""
    hlen = int.from_bytes(raw[8:12], "little")
    text = json.dumps(header).encode("utf-8")
    return raw[:8] + len(text).to_bytes(4, "little") + text + raw[12 + hlen :]


def archive_with_block_arrays(raw: bytes, extra, version: int = VERSION) -> bytes:
    """``raw`` with ``extra``, ``(name, float64 array)`` pairs, appended to
    block 0's arrays and the version field set to ``version``."""
    header = archive_header(raw)
    arrays = header["blocks"][0]["arrays"]
    end = 12 + int.from_bytes(raw[8:12], "little")  # where block 0's payload ends
    end += sum(math.prod(e["shape"]) * np.dtype(ARCHIVE_KINDS[e["kind"]]).itemsize for e in arrays)
    payload = b""
    for name, value in extra:
        value = np.asarray(value, dtype="<f8")
        arrays.append({"name": name, "shape": list(value.shape), "kind": "f8"})
        payload += value.tobytes()
    out = archive_with_header(raw[:end] + payload + raw[end:], header)
    return out[:4] + version.to_bytes(4, "little") + out[8:]


def archive_with_first_value(raw: bytes, name: str, value) -> bytes:
    """``raw`` with the first element of block 0's array ``name`` set to
    ``value``."""
    pos = 12 + int.from_bytes(raw[8:12], "little")
    for entry in archive_header(raw)["blocks"][0]["arrays"]:
        dtype = np.dtype(ARCHIVE_KINDS[entry["kind"]])
        if entry["name"] == name:
            return raw[:pos] + np.array([value], dtype=dtype).tobytes() + raw[pos + dtype.itemsize :]
        pos += math.prod(entry["shape"]) * dtype.itemsize
    raise KeyError(name)


def header_key_paths(header):
    """Every key of the archive's own structure, as a path of keys and list
    indices (the free-form ``meta`` contents are not structure)."""
    for key in header:
        yield (key,)
    for key in header["params"]:
        yield ("params", key)
    for b, block in enumerate(header["blocks"]):
        for key in block:
            yield ("blocks", b, key)
        for a, entry in enumerate(block["arrays"]):
            for key in entry:
                yield ("blocks", b, "arrays", a, key)


class TestModelArchive:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config(dl_mode="lcksvd2", iterations=3)
        samples = load_dataset(cfg)
        models = train_block_models(*block_stack(samples, 8, 8), cfg)
        path = tmp_path / "model.blkd"
        save_model(str(path), models, cfg.train_params(), {"block_w": 8, "block_h": 8})
        loaded, params, meta = load_model(str(path))
        assert meta["block_w"] == 8
        assert params.T == cfg.sparsity
        assert len(loaded) == len(models)
        for a, b in zip(models, loaded):
            np.testing.assert_array_equal(a.D.atoms, b.D.atoms)
            np.testing.assert_array_equal(a.D.atom_labels, b.D.atom_labels)
            np.testing.assert_array_equal(a.D.scales, b.D.scales)
            np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
            assert a.mode == b.mode
        assert (tmp_path / "model.blkd.json").exists()

    def test_mode_none_archive(self, tmp_path):
        cfg = tiny_config(dl_mode="none")
        samples = load_dataset(cfg)
        models = train_block_models(*block_stack(samples, 8, 8), cfg)
        path = tmp_path / "raw.blkd"
        save_model(str(path), models, cfg.train_params(), {})
        loaded, _, _ = load_model(str(path))
        assert all(m.mode == "none" and m.objective_trace.size == 0 for m in loaded)

    def test_version_check(self, tmp_path, small_archive):
        path = tmp_path / "bad.blkd"
        for version in (1, 99):
            path.write_bytes(b"BLKD" + version.to_bytes(4, "little") + (2).to_bytes(4, "little") + b"{}")
            with pytest.raises(ValueError, match=rf"version {version} \(expected 2\)"):
                load_model(str(path))
        # the version-1 layout: a learned block also held its label maps A and W
        raw, _ = small_archive
        v1 = archive_with_block_arrays(raw, [("A", np.eye(4)), ("W", np.ones((2, 4)))], version=1)
        path.write_bytes(v1)
        with pytest.raises(ValueError, match=r"version 1 \(expected 2\)"):
            load_model(str(path))
        path.write_bytes(v1[:4] + VERSION.to_bytes(4, "little") + v1[8:])
        with pytest.raises(ValueError, match="unknown block array 'A'"):
            load_model(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.blkd"
        path.write_bytes(b"BLKD" + VERSION.to_bytes(4, "little"))
        with pytest.raises(ValueError, match="truncated archive header"):
            load_model(str(path))
        path.write_bytes(b"BLKD" + VERSION.to_bytes(4, "little") + (100).to_bytes(4, "little") + b"{}")
        with pytest.raises(ValueError, match="truncated archive header"):
            load_model(str(path))

    def test_trailing_byte(self, tmp_path):
        cfg = tiny_config(dl_mode="none")
        models = train_block_models(*block_stack(load_dataset(cfg), 8, 8), cfg)
        path = tmp_path / "raw.blkd"
        save_model(str(path), models, cfg.train_params(), {})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_model(str(path))

    def test_malformed_headers(self, small_archive):
        raw, path = small_archive
        unknown_kind, backwards = archive_header(raw), archive_header(raw)
        unknown_kind["blocks"][0]["arrays"][0]["kind"] = "f4"
        backwards["blocks"][0]["arrays"][0]["shape"] = [-1, 2]
        for bad, match in (({}, "header lacks"), ([], "not a JSON object"),
                           (unknown_kind, "unknown kind"), (backwards, "bad shape")):
            path.write_bytes(archive_with_header(raw, bad))
            with pytest.raises(ValueError, match=match):
                load_model(str(path))

    def test_meta_that_is_not_an_object(self, small_archive):
        # evaluate and mosaic read meta with .get
        raw, path = small_archive
        for meta in (["x"], "x", None, 3):
            header = archive_header(raw)
            header["meta"] = meta
            path.write_bytes(archive_with_header(raw, header))
            with pytest.raises(ValueError, match="archive meta is not a JSON object"):
                load_model(str(path))

    @settings(max_examples=150, deadline=None, database=None)
    @given(cut=st.integers(min_value=0, max_value=10**6))
    def test_every_prefix_raises_value_error(self, small_archive, cut):
        raw, path = small_archive
        path.write_bytes(raw[: cut % len(raw)])
        with pytest.raises(ValueError):
            load_model(str(path))

    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_every_dropped_header_key_raises_value_error(self, small_archive, data):
        raw, path = small_archive
        header = archive_header(raw)
        *parents, key = data.draw(st.sampled_from(list(header_key_paths(header))))
        node = header
        for step in parents:
            node = node[step]
        del node[key]
        path.write_bytes(archive_with_header(raw, header))
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_malformed_params_name_the_key(self, small_archive):
        raw, path = small_archive
        for key, value in (("K", "8"), ("T", None), ("alpha", "x"), ("iterations", 2.5),
                           ("seed", True), ("beta", [1.0]), ("min_rel_improvement", math.inf)):
            header = archive_header(raw)
            header["params"][key] = value
            path.write_bytes(archive_with_header(raw, header))
            with pytest.raises(ValueError, match=f"param '{key}'"):
                load_model(str(path))

    def test_negative_seed_is_rejected(self, small_archive):
        raw, path = small_archive
        header = archive_header(raw)
        header["params"]["seed"] = -1
        path.write_bytes(archive_with_header(raw, header))
        with pytest.raises(ValueError, match="train param seed must be >= 0, got -1"):
            load_model(str(path))

    def test_unknown_or_repeated_block_arrays(self, small_archive):
        raw, path = small_archive
        path.write_bytes(archive_with_block_arrays(raw, []))
        assert path.read_bytes() == raw  # appending nothing leaves the archive as it was
        for extra, match in (([("Z", [1.0])], "unknown block array 'Z'"),
                             ([("atoms", np.full((3, 4), 7.0))], "repeated block array 'atoms'"),
                             ([("objective_trace", [0.5])], "repeated block array 'objective_trace'")):
            path.write_bytes(archive_with_block_arrays(raw, extra))
            with pytest.raises(ValueError, match=match):
                load_model(str(path))

    def test_malformed_dictionaries(self, small_archive):
        raw, path = small_archive
        for name, value, match in (("atom_labels", 2, "unknown class id 2"),
                                   ("atoms", np.nan, "finite"), ("scales", np.inf, "finite")):
            path.write_bytes(archive_with_first_value(raw, name, value))
            with pytest.raises(ValueError, match=match):
                load_model(str(path))

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.blkd"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="magic"):
            load_model(str(path))


class TestMosaic:
    def test_layout_64_atoms(self, tmp_path):
        rng = np.random.default_rng(0)
        D = Dictionary.from_matrix(rng.standard_normal((64, 64)), rng.integers(0, 2, 64))
        path = tmp_path / "mosaic.pgm"
        canvas = export_dictionary_mosaic(D, 8, 8, str(path))
        assert canvas.shape == (71, 71)
        img = read_pgm(path)
        np.testing.assert_array_equal(img.pixels, canvas)

    def test_constant_atom_mid_gray(self, tmp_path):
        M = np.column_stack([np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
        D = Dictionary.from_matrix(M, [0, 1])
        canvas = export_dictionary_mosaic(D, 2, 2, str(tmp_path / "m.pgm"))
        assert np.all(canvas[0:2, 0:2] == 128)

    def test_devectorize_roundtrip(self):
        rng = np.random.default_rng(1)
        block = rng.random((4, 6))
        vec = block.reshape(-1)
        np.testing.assert_array_equal(vec.reshape(4, 6), block)

    def test_length_mismatch(self, tmp_path):
        D = Dictionary.from_matrix(np.eye(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="does not match"):
            export_dictionary_mosaic(D, 2, 2, str(tmp_path / "x.pgm"))


class TestClassifyAgainstFixedModel:
    def test_each_position_is_coded_as_its_stacked_signals(self):
        # a fold's test rows of the pass's array code exactly as the matrix
        # that stacks each test ROI's block vectors: the coder gets a
        # C-contiguous gather, not a strided view, whose norms sum otherwise
        cfg = tiny_config(roi_size=8, block_sizes=(8,), synth_samples_per_class=37, k_folds=10)
        samples = load_dataset(cfg)
        folds = stratified_folds([s.label for s in samples], cfg.k_folds, cfg.seed)
        for f in range(3):
            train, test = np.flatnonzero(folds != f), np.flatnonzero(folds == f)
            models = train_block_models(*block_stack([samples[i] for i in train], 8, 8), cfg)
            dec = classify_samples([m.D for m in models], block_vectors(samples, 8, 8), test, cfg)
            hard, lls = [], []
            for j, m in enumerate(models):
                yj = np.stack([block_vectors([samples[i]], 8, 8)[0, j] for i in test], axis=1)
                res = block_decisions_batch(m.D, yj, cfg.eps_rel * np.linalg.norm(yj, axis=0))
                hard.append(res.hard)
                lls.append(res.lls)
            ref = ensemble_decision(np.column_stack(hard), np.column_stack(lls), tau=cfg.tau)
            assert_same_decisions(dec, ref, atol=0.0)

    def test_decisions_have_both_labels(self):
        cfg = tiny_config()
        samples = load_dataset(cfg)
        models = train_block_models(*block_stack(samples, 8, 8), cfg)
        dec = classify_samples([m.D for m in models], block_vectors(samples[:4], 8, 8), slice(None), cfg)
        assert dec.label_bbmap.shape == (4,)
        for i in range(4):
            assert dec.label_bbmap[i] in (BENIGN, MALIGNANT)
            assert dec.label_bbll[i] in (BENIGN, MALIGNANT)
            assert 0.0 <= dec.vote_score[i] <= 1.0
            # the malignant share of the 4 block votes
            assert (4 * dec.vote_score[i]).is_integer()

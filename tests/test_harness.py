import hashlib
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
from blocksrc.blocks import RoiSample, block_vectors
from blocksrc.config import DECISIONS, parse_config_text
from blocksrc.dictlearn import DiscriminativeDictionary, TrainParams
from blocksrc.ensemble import BlockResults, bbll, bbmap, block_decisions
from blocksrc.harness import (
    _indented,
    _join_fields,
    build_report,
    classify_samples,
    decision_outputs,
    load_dataset,
    train_block_models,
)
from blocksrc.model_io import VERSION
from blocksrc.pgm import read_pgm
from blocksrc.solvers import bpdn_batch
from blocksrc.synth import SynthSpec

from .oracles import class_residuals_pixels, confusion_by_hand
from .test_ensemble import block_results, grid, position


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
    """A cross-validation pass ``(folds, coded, errors)`` over folds of 1-5
    samples: per sample a truth, and a hard label and a score at one block
    position; some folds failed, and the others were coded in one or
    several groups of consecutive booked folds, with failed folds between
    them."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    n = sum(sizes)
    truth = draw(st.lists(st.sampled_from((BENIGN, MALIGNANT)), min_size=n, max_size=n))
    hard = np.asarray(draw(st.lists(st.sampled_from((BENIGN, MALIGNANT)), min_size=n, max_size=n)))
    lls = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    failed = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    order = np.asarray(draw(st.permutations(range(n))), dtype=int)
    folds = np.repeat(np.arange(len(sizes)), sizes)[np.argsort(order)]
    errors = {f: {"stage": "train", "type": "ValueError", "message": "injected"}
              for f, fails in enumerate(failed) if fails}
    booked = [f for f in range(len(sizes)) if f not in errors]
    # a new group starts at each booked fold drawn to start one
    starts = draw(st.lists(st.booleans(), min_size=len(booked), max_size=len(booked)))
    groups = []
    for f, start in zip(booked, starts):
        if start or not groups:
            groups.append([])
        groups[-1].append(f)
    coded = []
    for group in groups:
        rows = np.concatenate([np.flatnonzero(folds == f) for f in group])
        coded.append((rows, block_results(hard[None, rows], lls[None, rows])))
    samples = [RoiSample(pixels=np.zeros((2, 2)), label=t) for t in truth]
    return samples, (folds, coded, errors)


class TestBuildReport:
    @settings(max_examples=200, deadline=None, database=None)
    @given(pass_outcomes(), st.sampled_from(("bbmap", "bbll")))
    def test_fold_metrics_match_compute_metrics(self, outcomes, decision):
        samples, cv_pass = outcomes
        folds, coded, errors = cv_pass
        report = build_report(tiny_config(decision=decision), 8, samples, cv_pass)
        assert [e["fold"] for e in report.folds] == list(range(folds.max() + 1))
        assert report.incomplete_folds == sorted(errors)
        # each sample's prediction and score from its one block, by the
        # rule's definition: the block's label and its 0/1 vote, or the
        # sign of its score and the score (tau is 0)
        preds, scores = {}, {}
        for rows, res in coded:
            hard, lls = res.hard[0].tolist(), res.lls[0].tolist()
            if decision == "bbmap":
                pairs = [(h, float(h == MALIGNANT)) for h in hard]
            else:
                pairs = [(MALIGNANT if v >= 0 else BENIGN, v) for v in lls]
            for i, (pred, score) in zip(rows.tolist(), pairs):
                preds[i], scores[i] = pred, score
        for entry in report.folds:
            f = entry["fold"]
            if f in errors:
                assert entry == {"fold": f, "error": errors[f]}
                continue
            idx = np.flatnonzero(folds == f)
            fold_preds = [preds[i] for i in idx.tolist()]
            truth = [samples[i].label for i in idx]
            expected = compute_metrics(fold_preds, truth)
            expected.pop("roc")
            assert entry["metrics"] == expected
            assert entry["test_indices"] == idx.tolist() and entry["truth"] == truth
            assert entry["predictions"] == fold_preds and entry["scores"] == [scores[i] for i in idx.tolist()]
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

    def test_training_defaults_are_the_train_params(self):
        # the training keys take their defaults from TrainParams, declared once
        assert ExperimentConfig().train_params() == TrainParams()

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

    def test_repeated_block_size(self):
        # a size listed twice would run, write and summarize its cell twice
        with pytest.raises(ValueError, match="block_sizes lists block size 16 twice"):
            parse_config_text("block_sizes = 16 16 8")
        with pytest.raises(ValueError, match="block_sizes lists block size 8 twice"):
            ExperimentConfig(block_sizes=(8, 16, 8))
        assert parse_config_text("block_sizes = 16 8").block_sizes == (16, 8)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_any_line_parses_to_finite_floats_or_raises(self, data):
        key = data.draw(st.sampled_from([f.name for f in fields(ExperimentConfig)]))
        value = data.draw(
            st.one_of(
                st.sampled_from(("nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1e400")),
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.integers(-10**6, 10**6).map(str),
                st.text(max_size=12),
            )
        )
        try:
            cfg = parse_config_text(f"{key} = {value}")
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
        # a synth param is checked by its declared type before its range
        for key, kw in (("sparsity", dict(sparsity=2.5, atoms_per_class=4)),
                        ("roi_size", dict(roi_size=16.0, block_size=8)),
                        ("samples_per_class", dict(samples_per_class=True)), ("noise_sigma", dict(noise_sigma="x"))):
            with pytest.raises(ValueError, match=f"synth param {key} must be"):
                SynthSpec(**kw)
        # a number key takes no text, no None and no bool
        for key, value in (("tau", "x"), ("tau", None), ("alpha", True)):
            with pytest.raises(ValueError, match=f"config key {key} must be a number, got {value!r}"):
                ExperimentConfig(**{key: value})

    def test_non_positive_sizes_name_the_key(self):
        for key, value in (("roi_size", 0), ("roi_size", -16), ("sparsity", -3), ("sparsity", 0),
                           ("iterations", 0), ("dict_size", -5), ("dict_size", 1), ("sparsity", "abc"),
                           ("roi_size", 1.5), ("block_sizes", "16, x"), ("alpha", "fast")):
            with pytest.raises(ValueError, match=rf"config (line 1: )?key {key}\b"):
                parse_config_text(f"{key} = {value}")
        assert parse_config_text("dict_size = 2").dict_size == 2
        with pytest.raises(ValueError, match="config line 1: key sparsity: expected an integer, got 'abc'"):
            parse_config_text("sparsity = abc")
        with pytest.raises(ValueError, match="config line 2: key synth_noise_sigma: expected a number, got 'loud'"):
            parse_config_text("roi_size = 32\nsynth_noise_sigma = loud")

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
        with pytest.raises(ValueError, match="config key block_sizes must be a tuple of integers, got 16"):
            ExperimentConfig(block_sizes=16)
        with pytest.raises(ValueError, match="config key block_sizes must be a tuple of integers, got 16"):
            parse_config_text("", {"block_sizes": 16})
        # the bool and str keys are held to their types alike
        for key, value, what in (("invert_lls", "yes", "a boolean"), ("data_dir", 3, "a string")):
            with pytest.raises(ValueError, match=f"config key {key} must be {what}, got {value!r}"):
                ExperimentConfig(**{key: value})
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
        assert [s.source_id for s in (samples[0], samples[-1])] == ["synth7_0000", "synth7_1002"]
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
            D = position(train_on(train, 16, cfg).D, 0)
            for i in test_idx:
                y = block_vectors([samples[i]], 16)[0, :, 0]
                eps = cfg.eps_rel * np.linalg.norm(y)
                X, _, _, _ = bpdn_batch(D, y[:, None], np.array([eps]))
                resid, _ = class_residuals_pixels(D.atoms, D.atom_labels, X, y[:, None])
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
            block_vectors(mixed, 8)
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

        def broken(D, blocks, rows, cfg, allowed=None):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(H, "classify_samples", broken)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_experiment(tiny_config(), persist=False)

    def test_programming_error_propagates_from_per_fold_classification(self, monkeypatch):
        # a learned cell's folds are classified one by one, without a mask
        import blocksrc.harness as H

        def broken(D, blocks, rows, cfg, allowed):
            assert allowed is None
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(H, "classify_samples", broken)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_experiment(tiny_config(dl_mode="lcksvd1", dict_size=6, iterations=2), persist=False)


def per_fold_reference(cfg, samples, block):
    """Each fold trained and classified on its own, with no atom mask: on
    its training samples gathered from the whole set's cut, as a pass
    gathers a fold's, and on its held-out ROIs cut afresh; a fold whose
    training raises gets the diagnostic its error makes."""
    labels = np.array([s.label for s in samples])
    folds = stratified_folds(labels, cfg.k_folds, cfg.seed)
    blocks = block_vectors(samples, block)
    out = []
    for f in range(cfg.k_folds):
        try:
            train = np.flatnonzero(folds != f)
            model = train_block_models(blocks[:, :, train], labels[train], cfg)
        except ValueError as err:
            out.append({"stage": "train", "type": type(err).__name__, "message": str(err)})
            continue
        test = [samples[i] for i in np.flatnonzero(folds == f)]
        out.append(classify_samples(model.D, block_vectors(test, block), slice(None), cfg))
    return out


def train_on(samples, block, cfg):
    """``train_block_models`` on the samples cut into ``block``-px blocks,
    with their labels."""
    return train_block_models(block_vectors(samples, block), [s.label for s in samples], cfg)


def validate(cfg, samples, block):
    """``cross_validate`` on the samples cut into ``block``-px blocks."""
    import blocksrc.harness as H

    return H.cross_validate(cfg, block_vectors(samples, block), [s.label for s in samples])


def block_side(blocks) -> int:
    """The side of the square blocks of a (positions, pixels, samples) array."""
    return math.isqrt(blocks.shape[1])


def spy_cuts(monkeypatch):
    """Record ``(ROIs, block side)`` of every ``block_vectors`` call, however
    it is reached."""
    import blocksrc.blocks as B
    import blocksrc.harness as H

    cuts, real = [], B.block_vectors

    def counting(rois, block):
        cuts.append((len(rois), block))
        return real(rois, block)

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
    """Under each rule at the default tau, ``decision_outputs`` fuses the
    block results ``got`` into the labels of ``ref[rule]``, a (labels,
    scores) pair, and into its scores within ``atol``."""
    for rule in DECISIONS:
        labels, scores = decision_outputs(got, tiny_config(decision=rule))
        assert np.array_equal(labels, ref[rule][0])
        np.testing.assert_allclose(scores, ref[rule][1], rtol=0, atol=atol)


def assert_groups_match_reference(cv_pass, ref, atol=1e-9):
    """Every coded group of a pass holds its folds' held-out samples in
    sample order, with their reference block results' decisions under each
    rule joined fold by fold and put in that order; the coded groups cover
    the folds that trained, and the others failed as their reference did."""
    folds, coded, errors = cv_pass
    assert errors == {f: r for f, r in enumerate(ref) if isinstance(r, dict)}
    covered = []
    for rows, res in coded:
        group = np.unique(folds[rows]).tolist()
        assert np.array_equal(rows, np.flatnonzero(np.isin(folds, group)))
        # the reference's samples fold by fold, put in sample order
        order = np.argsort(np.concatenate([np.flatnonzero(folds == f) for f in group]))
        joined = {}
        for rule in DECISIONS:
            outputs = [decision_outputs(ref[f], tiny_config(decision=rule)) for f in group]
            joined[rule] = [np.concatenate(part)[order] for part in zip(*outputs)]
        assert_same_decisions(res, joined, atol)
        covered += group
    assert covered == [f for f in range(len(ref)) if f not in errors]


def walking_config(**overrides):
    """4-px blocks of 8-px ROIs, 30 of them: 4 positions whose ~28 raw atoms
    outnumber the 16 dimensions, so most blocks walk the l1 path."""
    base = dict(roi_size=8, block_sizes=(4,), synth_samples_per_class=15, synth_noise_sigma=0.3)
    base.update(overrides)
    return tiny_config(**base)


def assert_feasible_within_bound(call):
    """Every block that the spied ``block_decisions`` call marks feasible
    and non-degenerate is reconstructed by its code within its error bound,
    at every position of the stack."""
    D, Y, (eps_rel, eps_abs, *_), _ = call["decide"]
    (res,) = call["results"]
    checked = 0
    for p in range(len(D.atoms)):
        cols = np.flatnonzero(res.feasible[p] & ~res.degenerate[p])
        y = Y[p][:, cols]
        eps = np.full(cols.size, eps_abs) if eps_abs > 0 else eps_rel * np.linalg.norm(y, axis=0)
        resid = np.linalg.norm(y - D.atoms[p] @ res.codes[p][:, cols], axis=0)
        assert np.all(resid <= eps * (1 + 1e-3)), f"position {p}"
        checked += cols.size
    return checked


class TestStackedFolds:
    """A raw-dictionary cell codes all its folds in one masked call."""

    def spy(self, monkeypatch):
        import blocksrc.harness as H

        calls = []
        real_classify, real_decide = H.classify_samples, H.block_decisions

        def classify(D, blocks, rows, cfg, allowed=None):
            calls.append({"blocks": blocks, "rows": rows, "allowed": allowed, "D": D, "results": []})
            return real_classify(D, blocks, rows, cfg, allowed)

        def decide(D, Y, *args, **kwargs):
            res = real_decide(D, Y, *args, **kwargs)
            calls[-1]["results"].append(res)
            calls[-1]["decide"] = D, Y, args, kwargs
            return res

        monkeypatch.setattr(H, "classify_samples", classify)
        monkeypatch.setattr(H, "block_decisions", decide)
        return calls

    @pytest.mark.parametrize("k", [10, 20, 30])
    def test_stacked_matches_per_fold(self, k, monkeypatch):
        cfg = walking_config(k_folds=k)
        samples = load_dataset(cfg)
        ref = per_fold_reference(cfg, samples, 4)
        calls = self.spy(monkeypatch)
        out = validate(cfg, samples, 4)
        assert len(calls) == 1 and calls[0]["allowed"] is not None
        assert calls[0]["blocks"][:, :, calls[0]["rows"]].shape[2] == len(samples)
        # every position is coded in one call; a feasible code of a nonzero
        # block walked the path
        (res,) = calls[0]["results"]
        walked = int(res.feasible.sum())
        assert walked >= 2 * len(samples)
        assert assert_feasible_within_bound(calls[0]) >= 2 * len(samples)
        assert len(out[1]) == 1
        assert_groups_match_reference(out, ref)

    def test_one_call_equals_a_call_per_position(self, monkeypatch):
        # a pooled 16-px pass over 64-px ROIs codes its 16 positions in one
        # call. One ROI's block at position 5 is zero: a degenerate atom
        # there, and an all-zero held-out block
        cfg = tiny_config(roi_size=64, block_sizes=(16,), synth_samples_per_class=5, k_folds=3)
        samples = load_dataset(cfg)
        pixels = samples[3].pixels.copy()
        pixels[16:32, 16:32] = 0.0
        samples[3] = replace(samples[3], pixels=pixels)
        calls = self.spy(monkeypatch)
        validate(cfg, samples, 16)
        (call,) = calls
        (res,) = call["results"]
        D, Y, args, kwargs = call["decide"]
        assert Y.shape[0] == 16 and D.degenerate[5].sum() == 1
        assert res.degenerate.sum() == 1 and res.degenerate[5].any()
        for p in range(16):
            one = block_decisions(grid(position(D, p)), Y[p : p + 1], *args, **kwargs)
            for name in ("codes", "feasible", "hard", "lls"):
                assert getattr(one, name)[0].tobytes() == getattr(res, name)[p].tobytes()
        assert_feasible_within_bound(call)

    def test_one_coding_call_per_pooled_pass(self, monkeypatch):
        # one coding-and-deciding call and one stacked solve per pass; the
        # walks stay one per position
        import blocksrc.ensemble as E
        import blocksrc.harness as H
        import blocksrc.solvers as S

        counts = {"decide": 0, "stack": 0, "walk": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(H, "block_decisions", counting("decide", H.block_decisions))
        monkeypatch.setattr(E, "bpdn_stack", counting("stack", E.bpdn_stack))
        monkeypatch.setattr(S, "_l1_paths", counting("walk", S._l1_paths))
        cfg = walking_config(k_folds=5)
        validate(cfg, load_dataset(cfg), 4)
        assert counts == {"decide": 1, "stack": 1, "walk": 4}

    def test_no_sample_codes_with_its_own_fold(self, monkeypatch):
        cfg = walking_config(k_folds=5)
        samples = load_dataset(cfg)
        folds = stratified_folds([s.label for s in samples], cfg.k_folds, cfg.seed)
        calls = self.spy(monkeypatch)
        validate(cfg, samples, 4)
        (call,) = calls
        # the held-out samples come in sample order
        test = np.arange(len(samples))
        assert np.array_equal(call["blocks"][:, :, call["rows"]], block_vectors(samples, 4)[:, :, test])
        # every sample, its own among them, has its block in the shared set
        assert call["D"].n_atoms == len(samples)
        same_fold = folds[:, None] == folds[test][None, :]
        assert np.array_equal(call["allowed"], ~same_fold)
        leaked = 0
        (res,) = call["results"]
        for j, codes in enumerate(res.codes):
            assert np.all(codes[same_fold] == 0.0)
            # unmasked, a block would code itself: its own atom enters first
            D = position(call["D"], j)
            y = np.stack([block_vectors([samples[i]], 4)[j, :, 0] for i in test], axis=1)
            X, *_ = bpdn_batch(D, y, cfg.eps_rel * np.linalg.norm(y, axis=0))
            leaked += int(np.count_nonzero(X[test, np.arange(test.size)]))
        assert leaked >= len(res.codes) * len(samples) // 2

    def test_held_out_rows_are_read_from_the_pass_s_array(self, monkeypatch):
        # the pooled group trains on and codes the very array cross_validate
        # was given, its held-out samples in sample order, with no copy of
        # the stack
        import blocksrc.harness as H

        cfg = walking_config(k_folds=5)
        samples = load_dataset(cfg)
        labels = [s.label for s in samples]
        blocks = block_vectors(samples, 4)
        stacks, real_train = [], H.train_block_models

        def train(stack, *args):
            stacks.append(stack)
            return real_train(stack, *args)

        monkeypatch.setattr(H, "train_block_models", train)
        calls = self.spy(monkeypatch)
        _, ((rows, _),), _ = H.cross_validate(cfg, blocks, labels)
        (call,), (stack,) = calls, stacks
        _, Y, _, _ = call["decide"]
        assert np.shares_memory(call["blocks"], blocks)
        assert np.shares_memory(Y, blocks) and np.shares_memory(stack, blocks)
        test = np.arange(len(samples))
        assert np.array_equal(rows, test) and call["rows"] == slice(None)

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
            assert out[2][lone] == ref[lone]
            (call,) = calls
            assert call["allowed"] is not None and call["D"].n_atoms == len(samples)
            test = np.flatnonzero(folds != lone)
            assert np.array_equal(call["blocks"][:, :, call["rows"]], block_vectors(samples, 4)[:, :, test])
            assert_groups_match_reference(out, ref)

    def test_pass_returns_the_groups_it_coded(self):
        # a pooled cell codes its trainable folds as one group, rows in
        # sample order; a K < s cell codes each trainable fold as a group of its
        # own; the one-class fold is coded in neither and has its diagnostic
        samples = with_one_malignant(load_dataset(walking_config()))
        labels = np.array([s.label for s in samples])
        for mode, dict_size in (("none", 0), ("lcksvd1", 0), ("lcksvd2", 6)):
            cfg = walking_config(k_folds=4, dl_mode=mode, dict_size=dict_size, iterations=2)
            folds, coded, errors = validate(cfg, samples, 4)
            assert np.array_equal(folds, stratified_folds(labels, cfg.k_folds, cfg.seed))
            lone = int(folds[labels == MALIGNANT][0])
            assert errors == {lone: ONE_CLASS_TRAINING}
            trainable = [f for f in range(cfg.k_folds) if f != lone]
            groups = [trainable] if dict_size == 0 else [[f] for f in trainable]
            assert len(coded) == len(groups)
            for (rows, res), group in zip(coded, groups):
                assert np.array_equal(rows, np.flatnonzero(np.isin(folds, group)))
                assert decision_outputs(res, cfg)[0].shape == rows.shape
            assert not np.isin(np.flatnonzero(folds == lone), np.concatenate([r for r, _ in coded])).any()

    def test_groups_carry_their_block_results(self):
        # each coded group carries its block results as (positions, samples)
        # arrays, and each rule's report holds what that rule fuses from them
        samples = with_one_malignant(load_dataset(walking_config()))
        for mode, dict_size in (("none", 0), ("lcksvd2", 6)):
            cfg = walking_config(k_folds=4, dl_mode=mode, dict_size=dict_size, iterations=2)
            cv_pass = validate(cfg, samples, 4)
            n_atoms = dict_size or len(samples)
            for rows, res in cv_pass[1]:
                m = rows.size
                assert isinstance(res, BlockResults)
                for name in ("hard", "lls", "feasible", "degenerate"):
                    assert getattr(res, name).shape == (4, m)
                assert res.residuals.shape == (2, 4, m) and res.codes.shape == (4, n_atoms, m)
            for rule in DECISIONS:
                rule_cfg = replace(cfg, decision=rule)
                report = build_report(rule_cfg, 4, samples, cv_pass)
                reported = {i: (p, s) for e in report.folds if "error" not in e
                            for i, p, s in zip(e["test_indices"], e["predictions"], e["scores"])}
                expected = {}
                for rows, res in cv_pass[1]:
                    preds, scores = decision_outputs(res, rule_cfg)
                    expected.update(zip(rows.tolist(), zip(preds.tolist(), scores.tolist())))
                assert reported == expected

    def test_joint_classify_failure_is_booked_to_each_fold(self, monkeypatch):
        import blocksrc.harness as H

        def broken(D, Y, eps_rel, eps_abs=0.0, invert_lls=False, allowed=None):
            raise np.linalg.LinAlgError("synthetic solver failure")

        monkeypatch.setattr(H, "block_decisions", broken)
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
        assert_groups_match_reference(out, ref, atol=1e-9 if dict_size == 0 else 0.0)

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
        assert len(calls) == 1 and calls[0]["D"].n_atoms == len(samples)
        assert_groups_match_reference(out, ref)

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
        assert_groups_match_reference(out, ref, atol=0.0)


class TestPoolByConstruction:
    """Every fold's dictionaries at K = s are byte-equal column subsets of
    the whole dataset's, which is what lets a cell code on those."""

    def test_fold_dictionaries_are_column_subsets_of_the_dataset_s(self):
        # MIAS-sized: 37 ROIs per class, 64x64
        samples = synth_dataset(SynthSpec(roi_size=64, block_size=16, samples_per_class=37), 20)
        labels = [s.label for s in samples]
        for block in (8, 16, 32, 64):
            raw = ExperimentConfig(roi_size=64, block_sizes=(block,))  # dl_mode "none"
            whole = train_on(samples, block, raw).D
            for mode, k in (("none", 10), ("lcksvd1", 20), ("lcksvd2", 30)):
                cfg = ExperimentConfig(roi_size=64, block_sizes=(block,), k_folds=k, dl_mode=mode)
                folds = stratified_folds(labels, k, cfg.seed)
                for f in range(k):
                    idx = np.flatnonzero(folds != f)
                    D = train_on([samples[i] for i in idx], block, cfg).D
                    assert D.atoms.tobytes() == whole.atoms[:, :, idx].tobytes()
                    assert D.atom_labels.tobytes() == whole.atom_labels[idx].tobytes()
                    assert D.scales.tobytes() == whole.scales[:, idx].tobytes()


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

        def counting_classify(D, blocks, rows, cfg, allowed=None):
            classifies.append((cfg.k_folds, block_side(blocks)))
            return real_classify(D, blocks, rows, cfg, allowed)

        def counting_load(cfg):
            loads.append(cfg)
            return real_load(cfg)

        real_build = H.build_report
        builds = []

        def counting_build(c, block_size, samples, cv_pass):
            builds.append((c.k_folds, block_size, c.decision))
            return real_build(c, block_size, samples, cv_pass)

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
        def failing_classify(D, blocks, rows, c, allowed=None):
            if block_side(blocks) == 8:
                raise ValueError("injected")
            return real_classify(D, blocks, rows, c, allowed)

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

        def classify(D, blocks, rows, c, allowed=None):
            calls.append((c.k_folds, c.dl_mode, block_side(blocks), allowed is not None))
            return real_classify(D, blocks, rows, c, allowed)

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
                    preds, scores = decision_outputs(r, replace(sub, decision="bbll"))
                    assert entry["predictions"] == preds.tolist()
                    assert entry["scores"] == scores.tolist()


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    """Bytes of a two-block lcksvd2 archive and a scratch path to write
    variants of it to."""
    D = Dictionary.from_matrix(np.arange(1.0, 25.0).reshape(2, 3, 4), [0, 0, 1, 1])
    model = DiscriminativeDictionary(D, "lcksvd2", [[2.0, 1.0], [3.0]])
    path = tmp_path_factory.mktemp("archive") / "small.blkd"
    save_model(str(path), model, TrainParams(K=4, T=2), {"block_w": 8})
    return path.read_bytes(), path.with_name("variant.blkd")


# the format fixes each array's dtype
ARCHIVE_DTYPES = {"atoms": "<f8", "atom_labels": "<i4", "scales": "<f8", "traces": "<f8", "trace_lengths": "<i4"}


def archive_header(raw: bytes) -> dict:
    return json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])


def archive_payload(raw: bytes) -> bytes:
    return raw[12 + int.from_bytes(raw[8:12], "little") :]


def archive_with_header(raw: bytes, header) -> bytes:
    """``raw`` with its header JSON replaced by ``header``, payload kept."""
    text = json.dumps(header).encode("utf-8")
    return raw[:8] + len(text).to_bytes(4, "little") + text + archive_payload(raw)


def archive_arrays(raw: bytes) -> list:
    """The ``(name, array)`` pairs an archive lists, in order."""
    payload, pos, out = archive_payload(raw), 0, []
    for entry in archive_header(raw)["arrays"]:
        dtype = np.dtype(ARCHIVE_DTYPES[entry["name"]])
        count = math.prod(entry["shape"])
        out.append((entry["name"], np.frombuffer(payload, dtype, count, pos).reshape(entry["shape"])))
        pos += count * dtype.itemsize
    return out


def archive_with_arrays(raw: bytes, arrays, version: int = VERSION) -> bytes:
    """``raw``'s params, meta and mode over the ``(name, values)`` pairs
    ``arrays``, each stored in the dtype its name fixes (float64 for a name
    the format does not know), and the version field set to ``version``."""
    header = archive_header(raw)
    header["arrays"], payload = [], b""
    for name, value in arrays:
        value = np.asarray(value, dtype=ARCHIVE_DTYPES.get(name, "<f8"))
        header["arrays"].append({"name": name, "shape": list(value.shape)})
        payload += value.tobytes()
    out = archive_with_header(raw[: 12 + int.from_bytes(raw[8:12], "little")] + payload, header)
    return out[:4] + version.to_bytes(4, "little") + out[8:]


def archive_with_first_value(raw: bytes, name: str, value) -> bytes:
    """``raw`` with the first element of its array ``name`` set to ``value``."""
    arrays = [(n, a.copy()) for n, a in archive_arrays(raw)]
    dict(arrays)[name].flat[0] = value
    return archive_with_arrays(raw, arrays)


def version_2_archive(raw: bytes) -> bytes:
    """The version-2 archive of ``raw``'s model: one entry per block
    position, each repeating the mode and the atom labels."""
    header, arrays = archive_header(raw), dict(archive_arrays(raw))
    traces = np.split(arrays["traces"], np.cumsum(arrays["trace_lengths"])[:-1])
    blocks, payload = [], b""
    for atoms, scales, trace in zip(arrays["atoms"], arrays["scales"], traces):
        entries = []
        for name, value, kind in (("atoms", atoms, "f8"), ("atom_labels", arrays["atom_labels"], "i4"),
                                  ("scales", scales, "f8"), ("objective_trace", trace, "f8")):
            entries.append({"name": name, "shape": list(value.shape), "kind": kind})
            payload += np.ascontiguousarray(value, dtype="<" + kind).tobytes()
        blocks.append({"mode": header["mode"], "arrays": entries})
    v2 = {"params": header["params"], "meta": header["meta"], "blocks": blocks}
    out = archive_with_header(raw[: 12 + int.from_bytes(raw[8:12], "little")] + payload, v2)
    return out[:4] + (2).to_bytes(4, "little") + out[8:]


def header_key_paths(header):
    """Every key of the archive's own structure, as a path of keys and list
    indices (the free-form ``meta`` contents are not structure)."""
    for key in header:
        yield (key,)
    for key in header["params"]:
        yield ("params", key)
    for a, entry in enumerate(header["arrays"]):
        for key in entry:
            yield ("arrays", a, key)


class TestModelArchive:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config(dl_mode="lcksvd2", dict_size=6, iterations=3)
        samples = load_dataset(cfg)
        model = train_on(samples, 8, cfg)
        path = tmp_path / "model.blkd"
        save_model(str(path), model, cfg.train_params(), {"block_w": 8, "block_h": 8})
        loaded, params, meta = load_model(str(path))
        assert meta["block_w"] == 8
        assert params.T == cfg.sparsity
        assert loaded.D.atoms.shape == model.D.atoms.shape == (4, 64, 6)
        np.testing.assert_array_equal(model.D.atoms, loaded.D.atoms)
        np.testing.assert_array_equal(model.D.atom_labels, loaded.D.atom_labels)
        np.testing.assert_array_equal(model.D.scales, loaded.D.scales)
        assert len(loaded.objective_traces) == 4
        for a, b in zip(model.objective_traces, loaded.objective_traces, strict=True):
            assert a.size > 1
            np.testing.assert_array_equal(a, b)
        assert model.mode == loaded.mode == "lcksvd2"
        assert (tmp_path / "model.blkd.json").exists()

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_every_model_loads_back_exactly(self, small_archive, data):
        # 1-4 positions, each mode, degenerate (zero-scale) atoms, and
        # traces that are ragged or empty
        _, path = small_archive
        P, d, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        live = np.array(data.draw(st.lists(st.booleans(), min_size=P * n, max_size=P * n))).reshape(P, 1, n)
        labels = data.draw(st.lists(st.sampled_from([BENIGN, MALIGNANT]), min_size=n, max_size=n))
        traces = [data.draw(st.lists(st.floats(allow_nan=False), max_size=3)) for _ in range(P)]
        model = DiscriminativeDictionary(Dictionary.from_matrix(rng.standard_normal((P, d, n)) * live, labels),
                                         data.draw(st.sampled_from(["none", "lcksvd1", "lcksvd2"])), traces)
        save_model(str(path), model, TrainParams(), {"P": P})
        loaded, _, meta = load_model(str(path))
        assert meta == {"P": P} and loaded.mode == model.mode
        for a, b in ((model.D.atoms, loaded.D.atoms), (model.D.atom_labels, loaded.D.atom_labels),
                     (model.D.scales, loaded.D.scales)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert len(loaded.objective_traces) == P
        for a, b in zip(model.objective_traces, loaded.objective_traces, strict=True):
            np.testing.assert_array_equal(a, b)
            assert a.tobytes() == b.tobytes()

    def test_mode_none_archive(self, tmp_path):
        cfg = tiny_config(dl_mode="none")
        samples = load_dataset(cfg)
        model = train_on(samples, 8, cfg)
        path = tmp_path / "raw.blkd"
        save_model(str(path), model, cfg.train_params(), {})
        loaded, _, _ = load_model(str(path))
        assert loaded.mode == "none" and [t.size for t in loaded.objective_traces] == [0, 0, 0, 0]

    def test_archive_bytes_are_pinned(self, tmp_path):
        # digests recorded when the archive came to store the model's one
        # stack (version 3), whose loaded arrays equal what version 2's
        # per-block entries loaded, byte for byte
        path = tmp_path / "m.blkd"
        for mode, overrides, digest in (
            ("none", {}, "1ed463fdbf1bca9fa5771b3c982da187457daf40ef3265500ba0a508a2587f0a"),
            ("lcksvd2", {"dict_size": 6, "iterations": 3},
             "79227c2e45320ea21939721a028b1ed0d8edd85734fca5f714d9945db415e1e5"),
        ):
            cfg = tiny_config(dl_mode=mode, **overrides)
            model = train_on(load_dataset(cfg), 8, cfg)
            save_model(str(path), model, cfg.train_params(), {"block_w": 8, "block_h": 8})
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, mode

    def test_archive_without_blocks_is_refused(self, small_archive):
        raw, path = small_archive
        path.write_bytes(archive_with_arrays(raw, [("atoms", np.zeros((0, 3, 4))), ("atom_labels", [0, 0, 1, 1]),
                                                   ("scales", np.zeros((0, 4))), ("traces", []),
                                                   ("trace_lengths", [])]))
        with pytest.raises(ValueError, match="atoms must be a non-empty"):
            load_model(str(path))

    def test_version_check(self, tmp_path, small_archive):
        path = tmp_path / "bad.blkd"
        for version in (1, 2, 99):
            path.write_bytes(b"BLKD" + version.to_bytes(4, "little") + (2).to_bytes(4, "little") + b"{}")
            with pytest.raises(ValueError, match=rf"version {version} \(expected 3\)"):
                load_model(str(path))
        raw, _ = small_archive
        v2 = version_2_archive(raw)
        path.write_bytes(v2)
        with pytest.raises(ValueError, match=r"version 2 \(expected 3\)"):
            load_model(str(path))
        # nor does a version-2 layout read as version 3
        path.write_bytes(v2[:4] + VERSION.to_bytes(4, "little") + v2[8:])
        with pytest.raises(ValueError, match="header lacks mode, arrays"):
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
        model = train_on(load_dataset(cfg), 8, cfg)
        path = tmp_path / "raw.blkd"
        save_model(str(path), model, cfg.train_params(), {})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_model(str(path))

    def test_malformed_headers(self, small_archive):
        raw, path = small_archive
        backwards, listless, unknown_mode = archive_header(raw), archive_header(raw), archive_header(raw)
        backwards["arrays"][0]["shape"] = [-1, 2]
        listless["arrays"] = {"atoms": [2, 3, 4]}
        unknown_mode["mode"] = "lcksvd3"
        for bad, match in (({}, "header lacks"), ([], "not a JSON object"), (backwards, "bad shape"),
                           (listless, "arrays must be exactly"), (unknown_mode, "unknown mode 'lcksvd3'")):
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
                           ("seed", True), ("beta", [1.0]), ("min_rel_improvement", math.inf),
                           ("alpha", 10**400)):
            header = archive_header(raw)
            header["params"][key] = value
            path.write_bytes(archive_with_header(raw, header))
            with pytest.raises(ValueError, match=f"train param {key} must be "):
                load_model(str(path))

    def test_negative_seed_is_rejected(self, small_archive):
        raw, path = small_archive
        header = archive_header(raw)
        header["params"]["seed"] = -1
        path.write_bytes(archive_with_header(raw, header))
        with pytest.raises(ValueError, match="train param seed must be >= 0, got -1"):
            load_model(str(path))

    def test_unknown_or_repeated_block_arrays(self, small_archive):
        # one check: the five arrays the format lists, in its order
        raw, path = small_archive
        arrays = archive_arrays(raw)
        path.write_bytes(archive_with_arrays(raw, arrays))
        assert path.read_bytes() == raw  # the same arrays make the same archive
        for bad in (arrays[:-1], arrays[1:], arrays + [("Z", [1.0])], arrays + [arrays[0]],
                    arrays[:1] + arrays, [arrays[2], arrays[1], arrays[0], *arrays[3:]],
                    [*arrays[:3], arrays[4], arrays[3]]):
            path.write_bytes(archive_with_arrays(raw, bad))
            with pytest.raises(ValueError, match="archive arrays must be exactly atoms, atom_labels, scales, "
                                                 "traces, trace_lengths, in that order"):
                load_model(str(path))

    def test_trace_lengths_that_do_not_split_the_traces_are_refused(self, small_archive):
        raw, path = small_archive
        arrays = archive_arrays(raw)
        assert arrays[3][1].tolist() == [2.0, 1.0, 3.0] and arrays[4][1].tolist() == [2, 1]
        for traces, lengths, match in (([2.0, 1.0, 3.0], [2, 2], "do not split the 3 traces"),
                                       ([2.0, 1.0, 3.0], [4, -1], r"trace_lengths \[4, -1\] do not split"),
                                       ([2.0, 1.0, 3.0], [[2, 1]], "do not split"),
                                       ([[2.0, 1.0, 3.0]], [2, 1], "do not split"),
                                       ([2.0, 1.0, 3.0], [3], r"one objective trace per position \(2\), got 1"),
                                       ([2.0, 1.0, 3.0], [1, 1, 1], r"one objective trace per position \(2\), got 3")):
            path.write_bytes(archive_with_arrays(raw, [*arrays[:3], ("traces", traces), ("trace_lengths", lengths)]))
            with pytest.raises(ValueError, match=match):
                load_model(str(path))

    def test_arrays_that_make_no_block_grid_are_refused(self, small_archive):
        raw, path = small_archive
        (_, atoms), (_, labels), (_, scales), *_ = archive_arrays(raw)
        for bad, match in (({"atoms": atoms[0], "scales": scales[0], "traces": [2.0, 1.0], "trace_lengths": [2]},
                            r"\(P, d, n\) stack, got shape \(3, 4\)"),
                           ({"atom_labels": labels[:3]}, r"atom_labels must have length 4, got \(3,\)"),
                           ({"scales": scales[:1]}, r"scales must have shape \(2, 4\), got \(1, 4\)"),
                           ({"scales": scales.T}, r"scales must have shape \(2, 4\), got \(4, 2\)")):
            arrays = [(name, bad.get(name, value)) for name, value in archive_arrays(raw)]
            path.write_bytes(archive_with_arrays(raw, arrays))
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
        canvas = export_dictionary_mosaic(D.atoms, str(path))
        assert canvas.shape == (71, 71)
        img = read_pgm(path)
        np.testing.assert_array_equal(img.pixels, canvas)

    def test_constant_atom_mid_gray(self, tmp_path):
        M = np.column_stack([np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
        D = Dictionary.from_matrix(M, [0, 1])
        canvas = export_dictionary_mosaic(D.atoms, str(tmp_path / "m.pgm"))
        assert np.all(canvas[0:2, 0:2] == 128)

    def test_devectorize_roundtrip(self, tmp_path):
        # five distinct 4x4 blocks, each an affine map of its own permutation
        # of 0..15, so min-max scaling takes each to 17x its permutation; a
        # permutation is not symmetric, so a transposed tile differs
        rng = np.random.default_rng(1)
        perms = np.stack([rng.permutation(16).reshape(4, 4) for _ in range(5)])
        blocks = perms * rng.uniform(0.5, 2.0, (5, 1, 1)) + rng.uniform(-1.0, 1.0, (5, 1, 1))
        atoms = blocks.reshape(5, 16).T  # row-major vectors, one atom per column
        canvas = export_dictionary_mosaic(atoms, str(tmp_path / "m.pgm"))
        assert canvas.shape == (9, 14)  # 2 rows of 3 tiles, 1-pixel separators
        for a in range(5):
            r, c = divmod(a, 3)
            np.testing.assert_array_equal(canvas[5 * r : 5 * r + 4, 5 * c : 5 * c + 4], 17 * perms[a])

    def test_length_mismatch(self, tmp_path):
        D = Dictionary.from_matrix(np.eye(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="atom length 5 is not a square"):
            export_dictionary_mosaic(D.atoms, str(tmp_path / "x.pgm"))


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
            D = train_on([samples[i] for i in train], 8, cfg).D
            res = classify_samples(D, block_vectors(samples, 8), test, cfg)
            hard, lls = [], []
            for j in range(len(D.atoms)):
                yj = np.stack([block_vectors([samples[i]], 8)[j, :, 0] for i in test], axis=1)
                one = block_decisions(grid(position(D, j)), yj[None], cfg.eps_rel)
                hard.append(one.hard[0])
                lls.append(one.lls[0])
            ells, label_bbll = bbll(np.column_stack(lls), cfg.tau)
            ref = {"bbmap": bbmap(np.column_stack(hard))[1:], "bbll": (label_bbll, ells - cfg.tau)}
            assert_same_decisions(res, ref, atol=0.0)

    def test_decisions_have_both_labels(self):
        cfg = tiny_config()
        samples = load_dataset(cfg)
        model = train_on(samples, 8, cfg)
        res = classify_samples(model.D, block_vectors(samples[:4], 8), slice(None), cfg)
        label_bbmap, vote_score = decision_outputs(res, replace(cfg, decision="bbmap"))
        label_bbll, _ = decision_outputs(res, replace(cfg, decision="bbll"))
        assert label_bbmap.shape == (4,)
        for i in range(4):
            assert label_bbmap[i] in (BENIGN, MALIGNANT)
            assert label_bbll[i] in (BENIGN, MALIGNANT)
            assert 0.0 <= vote_score[i] <= 1.0
            # the malignant share of the 4 block votes
            assert (4 * vote_score[i]).is_integer()

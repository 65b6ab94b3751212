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
from blocksrc.blocks import decompose_roi
from blocksrc.config import parse_config_text
from blocksrc.dictlearn import DiscriminativeDictionary, TrainParams
from blocksrc.harness import classify_samples, load_dataset, train_block_models
from blocksrc.pgm import read_pgm
from blocksrc.solvers import bpdn_batch, class_residuals, SparseCode
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
                           ("iterations", 0), ("dict_size", -5), ("dict_size", 1)):
            with pytest.raises(ValueError, match=f"config key {key}"):
                parse_config_text(f"{key} = {value}")
        assert parse_config_text("dict_size = 2").dict_size == 2

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
            models = train_block_models(train, cfg, 16)
            D = models[0].D
            for i in test_idx:
                y = decompose_roi(samples[i], 16, 16).vectors[0]
                eps = cfg.eps_rel * np.linalg.norm(y)
                X, rn, feas, _ = bpdn_batch(D, y[:, None], np.array([eps]))
                code = SparseCode.from_coefficients(X[:, 0], rn[0], 0, bool(feas[0]))
                resid, _ = class_residuals(D, code, y)
                expected[int(i)] = BENIGN if resid[BENIGN] <= resid[MALIGNANT] else MALIGNANT
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

    def test_learned_training_decomposes_each_roi_once(self, monkeypatch):
        import blocksrc.blocks as B
        import blocksrc.harness as H

        calls = []
        real = B.decompose_roi

        def counting(roi, *args):
            calls.append(roi)
            return real(roi, *args)

        monkeypatch.setattr(B, "decompose_roi", counting)
        monkeypatch.setattr(H, "decompose_roi", counting)
        cfg = tiny_config(dl_mode="lcksvd1", iterations=2)
        samples = load_dataset(cfg)
        models = train_block_models(samples, cfg, 8)
        assert len(models) == 4
        assert len(calls) == len(samples)

    def test_failed_fold_recorded_with_diagnostic(self, monkeypatch):
        import blocksrc.harness as H

        real = H.train_block_models
        calls = {"n": 0}

        def flaky(samples, cfg, block_size):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("synthetic training failure")
            return real(samples, cfg, block_size)

        monkeypatch.setattr(H, "train_block_models", flaky)
        cfg = tiny_config()
        report = run_experiment(cfg, persist=False)
        assert report.incomplete_folds == [0]
        entry = report.folds[0]
        assert entry["error"]["stage"] == "train"
        assert entry["error"]["type"] == "ValueError"
        # pooled metrics cover only the completed folds
        covered = sum(len(f.get("test_indices", [])) for f in report.folds)
        assert covered < report.n_samples

    def test_programming_error_propagates(self, monkeypatch):
        import blocksrc.harness as H

        def broken(models, samples, cfg, block_size):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(H, "classify_samples", broken)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_experiment(tiny_config(), persist=False)


class TestRunGrid:
    def test_one_pass_per_cell_serves_both_rules(self, tmp_path, monkeypatch):
        import blocksrc.harness as H

        modes, blocks = ("none", "lcksvd1"), (16, 8)
        monkeypatch.setattr(H, "GRID_FOLDS", (3,))
        monkeypatch.setattr(H, "GRID_BLOCKS", blocks)
        monkeypatch.setattr(H, "GRID_MODES", modes)
        trains, loads = [], []
        real_train, real_load = H.train_block_models, H.load_dataset

        def counting_train(samples, cfg, block_size):
            trains.append((cfg.k_folds, cfg.dl_mode, block_size))
            return real_train(samples, cfg, block_size)

        def counting_load(cfg):
            loads.append(cfg)
            return real_load(cfg)

        monkeypatch.setattr(H, "train_block_models", counting_train)
        monkeypatch.setattr(H, "load_dataset", counting_load)
        cfg = tiny_config(iterations=3, output_dir=str(tmp_path))
        reports = H.run_grid(cfg, persist=False)
        monkeypatch.undo()

        assert len(loads) == 1
        # one training per (k, mode, block, fold), shared by both rules
        assert sorted(trains) == sorted((3, m, b) for m in modes for b in blocks for _ in range(3))
        cells = [(d, m, b) for d in ("bbmap", "bbll") for m in modes for b in blocks]
        assert [(r.config["decision"], r.config["dl_mode"], r.block_size) for r in reports] == cells
        for rep, (decision, mode, block) in zip(reports, cells):
            solo = run_experiment(
                replace(cfg, decision=decision, k_folds=3, dl_mode=mode), block_size=block, persist=False
            )
            assert rep.to_json() == solo.to_json()


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    """Bytes of a two-block archive (modes lcksvd2 and none) and a scratch
    path to write variants of it to."""
    D = Dictionary.from_matrix(np.arange(1.0, 13.0).reshape(3, 4), [0, 0, 1, 1])
    models = [
        DiscriminativeDictionary(D=D, A=np.eye(4), W=np.ones((2, 4)), mode="lcksvd2",
                                 objective_trace=np.array([2.0, 1.0])),
        DiscriminativeDictionary(D=D, A=None, W=None, mode="none"),
    ]
    path = tmp_path_factory.mktemp("archive") / "small.blkd"
    save_model(str(path), models, TrainParams(K=4, T=2), {"block_w": 8})
    return path.read_bytes(), path.with_name("variant.blkd")


def archive_header(raw: bytes) -> dict:
    return json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])


def archive_with_header(raw: bytes, header) -> bytes:
    """``raw`` with its header JSON replaced by ``header``, payload kept."""
    hlen = int.from_bytes(raw[8:12], "little")
    text = json.dumps(header).encode("utf-8")
    return raw[:8] + len(text).to_bytes(4, "little") + text + raw[12 + hlen :]


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
        models = train_block_models(samples, cfg, 8)
        path = tmp_path / "model.blkd"
        save_model(str(path), models, cfg.train_params(), {"block_w": 8, "block_h": 8})
        loaded, params, meta = load_model(str(path))
        assert meta["block_w"] == 8
        assert params.T == cfg.sparsity
        assert len(loaded) == len(models)
        for a, b in zip(models, loaded):
            np.testing.assert_array_equal(a.D.atoms, b.D.atoms)
            np.testing.assert_array_equal(a.D.atom_labels, b.D.atom_labels)
            np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
            assert a.mode == b.mode
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.W, b.W)
        assert (tmp_path / "model.blkd.json").exists()

    def test_mode_none_archive(self, tmp_path):
        cfg = tiny_config(dl_mode="none")
        samples = load_dataset(cfg)
        models = train_block_models(samples, cfg, 8)
        path = tmp_path / "raw.blkd"
        save_model(str(path), models, cfg.train_params(), {})
        loaded, _, _ = load_model(str(path))
        assert all(m.A is None and m.W is None and m.mode == "none" for m in loaded)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.blkd"
        path.write_bytes(b"BLKD" + (99).to_bytes(4, "little") + (2).to_bytes(4, "little") + b"{}")
        with pytest.raises(ValueError, match="version"):
            load_model(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.blkd"
        path.write_bytes(b"BLKD" + (1).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="truncated archive header"):
            load_model(str(path))
        path.write_bytes(b"BLKD" + (1).to_bytes(4, "little") + (100).to_bytes(4, "little") + b"{}")
        with pytest.raises(ValueError, match="truncated archive header"):
            load_model(str(path))

    def test_trailing_byte(self, tmp_path):
        cfg = tiny_config(dl_mode="none")
        models = train_block_models(load_dataset(cfg), cfg, 8)
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
    def test_decisions_have_both_labels(self):
        cfg = tiny_config()
        samples = load_dataset(cfg)
        models = train_block_models(samples, cfg, 8)
        dec = classify_samples([m.D for m in models], samples[:4], cfg, 8)
        assert dec.label_bbmap.shape == (4,)
        for i in range(4):
            assert dec.label_bbmap[i] in (BENIGN, MALIGNANT)
            assert dec.label_bbll[i] in (BENIGN, MALIGNANT)
            assert 0.0 <= dec.vote_score[i] <= 1.0
            assert dec.posterior[i].sum() == pytest.approx(1.0)

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from blocksrc import cli, harness
from blocksrc.blocks import block_vectors
from blocksrc.cli import _config_overrides, build_parser, main
from blocksrc.config import ExperimentConfig, load_config, parse_config_text
from blocksrc.dictlearn import DiscriminativeDictionary
from blocksrc.harness import load_dataset, run_experiment
from blocksrc.mias import load_roi_cache
from blocksrc.model_io import load_model, save_model
from blocksrc.pgm import image_from_array, read_pgm, write_pgm
from blocksrc.solvers import Dictionary
from blocksrc.synth import synth_dataset, write_synth_cache

# the small synthetic set the commands below run on, as config keys
SYNTH_KEYS = {"roi_size": 16, "block_sizes": 8, "synth_atoms_per_class": 4, "synth_sparsity": 2,
              "synth_noise_sigma": 0.05, "synth_samples_per_class": 6, "seed": 20}


def write_synth_config(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in SYNTH_KEYS.items()))
    return path


@pytest.fixture()
def synth_cache(tmp_path):
    out = tmp_path / "cache"
    rc = main(["synth", "--config", str(write_synth_config(tmp_path)), "--out", str(out)])
    assert rc == 0
    return out


def write_config(tmp_path, cache, **extra):
    lines = {
        "roi_size": 16,
        "block_sizes": 8,
        "k_folds": 3,
        "dl_mode": "none",
        "decision": "bbll",
        "seed": 20,
        "data_dir": str(cache),
        "output_dir": str(tmp_path / "results"),
    }
    lines.update(extra)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def test_synth_writes_manifest_and_pgms(synth_cache):
    manifest = json.loads((synth_cache / "manifest.json").read_text())
    assert len(manifest["samples"]) == 12
    first = manifest["samples"][0]["file"]
    img = read_pgm(synth_cache / first)
    assert img.pixels.shape == (16, 16)


def test_synth_cache_holds_the_configs_synthetic_set(tmp_path):
    config = write_synth_config(tmp_path)
    by_file, by_flags = tmp_path / "by_file", tmp_path / "by_flags"
    assert main(["synth", "--config", str(config), "--out", str(by_file)]) == 0
    flags = [arg for k, v in SYNTH_KEYS.items() for arg in ("--" + k.replace("_", "-"), str(v))]
    assert main(["synth", *flags, "--out", str(by_flags)]) == 0
    names = sorted(p.name for p in by_file.iterdir())
    assert names == sorted(p.name for p in by_flags.iterdir())
    for name in names:
        assert (by_file / name).read_bytes() == (by_flags / name).read_bytes(), name

    drawn = load_dataset(replace(load_config(str(config)), synthetic=True))
    loaded = load_roi_cache(str(by_file))
    step = 1 / json.loads((by_file / "manifest.json").read_text())["intensity_scale"]
    assert [(s.source_id, s.label) for s in loaded] == [(s.source_id, s.label) for s in drawn]
    for a, b in zip(loaded, drawn, strict=True):
        assert np.abs(a.pixels - b.pixels).max() <= step / 2


def test_synth_config_unknown_key_is_structured(tmp_path, capsys):
    config = tmp_path / "synth.cfg"
    config.write_text("roi_size = 16\nbogus_key = 3\n")
    rc = main(["synth", "--config", str(config), "--out", str(tmp_path / "cache")])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["command"] == "synth"
    assert diag["message"] == "config line 2: unknown key 'bogus_key'"
    assert not (tmp_path / "cache").exists()


def test_cv_command_end_to_end(tmp_path, synth_cache):
    cfg = write_config(tmp_path, synth_cache)
    rc = main(["cv", "--config", str(cfg)])
    assert rc == 0
    results = tmp_path / "results"
    assert (results / "cv_summary.csv").exists()
    report = json.loads((results / "bbll_none_k3_b8.json").read_text())
    assert report["n_samples"] == 12
    assert report["metrics"]["acc"] >= 0.0


def test_cv_flag_overrides(tmp_path, synth_cache):
    cfg = write_config(tmp_path, synth_cache)
    rc = main(["cv", "--config", str(cfg), "--decision", "bbmap", "--k-folds", "4"])
    assert rc == 0
    assert (tmp_path / "results" / "bbmap_none_k4_b8.json").exists()


def test_cv_loads_the_dataset_once(tmp_path, synth_cache, monkeypatch):
    # two block sizes share one read of the cache, and their reports are
    # those of a run per block size that loads the cache itself
    loads = []

    def counting_load(cfg):
        loads.append(cfg)
        return load_dataset(cfg)

    monkeypatch.setattr(cli, "load_dataset", counting_load)
    monkeypatch.setattr(harness, "load_dataset", counting_load)
    cfg = write_config(tmp_path, synth_cache, block_sizes="16, 8")
    assert main(["cv", "--config", str(cfg)]) == 0
    assert len(loads) == 1
    for block in (16, 8):
        alone = run_experiment(load_config(str(cfg)), block_size=block, persist=False)
        assert (tmp_path / "results" / f"bbll_none_k3_b{block}.json").read_text() == alone.to_json() + "\n"


def test_flags_override_only_the_keys_they_set(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("invert_lls = true\nsynthetic = true\nblock_sizes = 16\nalpha = 0.5\n")

    def resolved(*flags):
        args = build_parser().parse_args(["cv", "--config", str(path), *flags])
        return load_config(args.config, _config_overrides(args))

    assert resolved() == load_config(str(path))  # an unset flag keeps the file's value
    got = resolved("--invert-lls", "--block-sizes", "8", "16", "--alpha", "2", "--seed", "3")
    assert (got.invert_lls, got.synthetic, got.block_sizes, got.alpha, got.seed) == (True, True, (8, 16), 2.0, 3)


@pytest.mark.parametrize("command", ["train", "evaluate", "cv", "grid", "synth"])
def test_every_config_key_has_a_flag(command):
    argv = {"train": ["--model", "m.blkd"], "evaluate": ["--model", "m.blkd"], "synth": ["--out", "x"]}
    args = build_parser().parse_args([command, *argv.get(command, [])])
    dests = set(vars(args)) - {"command", "func", "config", "model", "out"}
    assert dests == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("flags, line", [
    (["--k-folds", "4"], "k_folds = 4"),
    (["--synth-noise-sigma", "0.125"], "synth_noise_sigma = 0.125"),
    (["--dl-mode", "lcksvd1"], "dl_mode = lcksvd1"),
    (["--synthetic"], "synthetic = true"),
    (["--block-sizes", "8", "16"], "block_sizes = 8 16"),
])
def test_a_flag_reads_as_the_same_text_in_a_config_file(flags, line):
    args = build_parser().parse_args(["cv", *flags])
    assert load_config(None, _config_overrides(args)) == parse_config_text(line)


def test_bad_choice_flag_is_a_structured_error(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["cv", "--dl-mode", "bogus", "--synthetic", "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    diag = json.loads(err[0])
    assert diag["command"] == "cv" and diag["error"] == "ValueError"
    assert "dl_mode" in diag["message"] and "bogus" in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize("flags, key, text", [
    (["--k-folds", "x"], "k_folds", "expected an integer, got 'x'"),
    (["--block-sizes", "8", "x"], "block_sizes", "expected integers, got '8 x'"),
    (["--alpha", "two"], "alpha", "expected a number, got 'two'"),
])
def test_unparsable_flag_is_a_structured_error(tmp_path, capsys, flags, key, text):
    # the config file's message for the same text, and exit 1, not argparse's 2
    out = tmp_path / "results"
    assert main(["cv", *flags, "--synthetic", "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    diag = json.loads(err[0])
    assert diag["command"] == "cv" and diag["error"] == "ValueError"
    assert diag["message"] == f"override: key {key}: {text}"
    assert not out.exists()


def test_typed_library_overrides_are_taken_as_given():
    cfg = parse_config_text("k_folds = 4", {"k_folds": 5, "block_sizes": [8, 16], "alpha": 2, "synthetic": True})
    assert (cfg.k_folds, cfg.block_sizes, cfg.alpha, cfg.synthetic) == (5, (8, 16), 2, True)


def held_out_cache(tmp_path, name, samples):
    """A ROI cache of ``samples`` under ``tmp_path / name``."""
    out = tmp_path / name
    write_synth_cache(samples, str(out))
    return out


def other_samples(tmp_path, seed=21):
    """The synthetic set of the commands' config at another seed, whose ids
    name that seed."""
    return synth_dataset(load_config(str(write_synth_config(tmp_path))).synth_spec(), seed)


def evaluation_of(cfg_path, model, data_dir, scored):
    """The metrics ``evaluate`` gives on the samples of ``data_dir`` whose
    ids ``scored`` holds, from the library calls it makes."""
    cfg = load_config(str(cfg_path), {"data_dir": str(data_dir)})
    samples = [s for s in load_dataset(cfg) if s.source_id in scored]
    res = harness.classify_samples(load_model(str(model))[0].D, block_vectors(samples, 8), slice(None), cfg)
    preds, scores = harness.decision_outputs(res, cfg)
    metrics = harness.compute_metrics(preds, [s.label for s in samples], scores)
    metrics.pop("roc", None)
    return metrics


def test_train_evaluate_mosaic_cycle(tmp_path, synth_cache):
    cfg = write_config(tmp_path, synth_cache, dl_mode="lcksvd2", iterations=3)
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    assert model.exists() and (tmp_path / "model.blkd.json").exists()
    # the block side is read from the atoms, so the meta does not repeat it;
    # it names the samples the model trained on
    trained = sorted(s.source_id for s in load_roi_cache(str(synth_cache)))
    assert len(trained) == 12
    assert load_model(str(model))[2] == {"roi_size": 16, "dl_mode": "lcksvd2", "training_ids": trained}

    held = held_out_cache(tmp_path, "held", other_samples(tmp_path))
    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--data-dir", str(held)]) == 0
    metrics = json.loads((tmp_path / "results" / "evaluation.json").read_text())
    assert set(metrics) >= {"acc", "tpr", "tnr", "auc"}

    mosaic = tmp_path / "block0.pgm"
    assert main(["mosaic", "--model", str(model), "--block", "0", "--out", str(mosaic)]) == 0
    assert read_pgm(mosaic).pixels.ndim == 2


def test_evaluate_rejects_mismatched_model(tmp_path, synth_cache, capsys):
    cfg = write_config(tmp_path, synth_cache)
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    capsys.readouterr()

    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--roi-size", "32"]) == 1
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "ValueError"
    assert "roi_size 16" in diag["message"] and "roi_size 32" in diag["message"]

    # a block's side is the square root of its atoms' length, which a
    # 63-pixel atom does not have
    trained, params, meta = load_model(str(model))
    D = trained.D
    cut = Dictionary.from_matrix(D.atoms[:, 1:], D.atom_labels)
    bad = tmp_path / "bad.blkd"
    save_model(str(bad), DiscriminativeDictionary(cut, trained.mode, trained.objective_traces), params, meta)
    assert main(["evaluate", "--config", str(cfg), "--model", str(bad)]) == 1
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "ValueError"
    assert diag["message"] == "atom length 63 is not a square"
    assert not (tmp_path / "results" / "evaluation.json").exists()


def test_evaluate_refuses_the_set_the_model_trained_on(tmp_path, synth_cache, capsys):
    cfg = write_config(tmp_path, synth_cache)
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    diag = json.loads(err)
    assert err.count("\n") == 1 and diag["error"] == "ValueError" and diag["command"] == "evaluate"
    assert diag["message"] == "all 12 samples of the dataset trained the model; none is held out to score"
    assert not (tmp_path / "results" / "evaluation.json").exists()


def test_evaluate_scores_a_disjoint_set_whole(tmp_path, synth_cache, capsys):
    cfg = write_config(tmp_path, synth_cache)
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    others = other_samples(tmp_path)
    held = held_out_cache(tmp_path, "held", others)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--data-dir", str(held)]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads((tmp_path / "results" / "evaluation.json").read_text())
    assert printed == written
    expected = evaluation_of(cfg, model, held, {s.source_id for s in others})
    assert written == {**expected, "n_scored": 12, "n_excluded_training": 0}


def test_evaluate_scores_every_sample_of_a_set_drawn_at_another_seed(tmp_path, synth_cache, capsys):
    # the commands' set drawn again at seed 21: a synthetic id names its
    # seed, so no sample of the new draw is taken for a training sample
    cfg = write_config(tmp_path, synth_cache)
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    other = tmp_path / "other"
    assert main(["synth", "--config", str(write_synth_config(tmp_path)), "--seed", "21", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--data-dir", str(other)]) == 0
    written = json.loads((tmp_path / "results" / "evaluation.json").read_text())
    assert (written["n_scored"], written["n_excluded_training"]) == (12, 0)


def test_evaluate_scores_the_half_that_did_not_train(tmp_path, synth_cache):
    cfg = write_config(tmp_path, synth_cache)
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    # every other sample of each set, so both halves hold both classes
    trained, others = load_roi_cache(str(synth_cache))[::2], other_samples(tmp_path)[::2]
    assert sorted(s.label for s in trained) == sorted(s.label for s in others) == [0, 0, 0, 1, 1, 1]
    mixed = held_out_cache(tmp_path, "mixed", trained + others)
    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--data-dir", str(mixed)]) == 0
    written = json.loads((tmp_path / "results" / "evaluation.json").read_text())
    expected = evaluation_of(cfg, model, mixed, {s.source_id for s in others})
    assert written == {**expected, "n_scored": 6, "n_excluded_training": 6}


def test_an_archive_without_training_ids_scores_every_sample(tmp_path, synth_cache):
    # an archive written before train recorded its samples evaluates as it
    # did, and says that it could exclude none
    cfg = write_config(tmp_path, synth_cache)
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    trained, params, meta = load_model(str(model))
    del meta["training_ids"]
    save_model(str(model), trained, params, meta)
    assert main(["evaluate", "--config", str(cfg), "--model", str(model)]) == 0
    written = json.loads((tmp_path / "results" / "evaluation.json").read_text())
    expected = evaluation_of(cfg, model, synth_cache, {s.source_id for s in load_roi_cache(str(synth_cache))})
    assert written == {**expected, "n_scored": 12, "n_excluded_training": 0, "training_ids": "unknown"}


def test_train_refuses_several_block_sizes(tmp_path, synth_cache, capsys):
    cfg = write_config(tmp_path, synth_cache, block_sizes="8, 16")
    model = tmp_path / "model.blkd"
    assert main(["train", "--config", str(cfg), "--model", str(model)]) == 1
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["command"] == "train" and diag["error"] == "ValueError"
    assert diag["message"] == "train takes one block size, the config lists [8, 16]"
    assert not model.exists()


def test_prepare_rois_command(tmp_path):
    data = tmp_path / "scans"
    data.mkdir()
    rng = np.random.default_rng(0)
    for ref in ("mdb001", "mdb002"):
        arr = rng.integers(0, 256, size=(64, 64)).astype(np.uint16)
        write_pgm(data / f"{ref}.pgm", image_from_array(arr, maxval=255))
    info = tmp_path / "info.txt"
    info.write_text("mdb001 G CIRC B 32 32 20\nmdb002 F MISC M 30 30 16\n")
    out = tmp_path / "rois"
    rc = main([
        "prepare-rois", "--data-dir", str(data), "--readings", str(info),
        "--roi-size", "32", "--out", str(out),
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["samples"]) == 2


def test_prepare_rois_refuses_a_ref_id_with_a_directory_part(tmp_path, capsys):
    # the line would read scans/sub/mdb002.pgm and write rois/sub/..., a
    # sample file the cache's reader refuses
    data = tmp_path / "scans"
    (data / "sub").mkdir(parents=True)
    rng = np.random.default_rng(0)
    for ref in ("mdb001", "sub/mdb002", "mdb003"):
        write_pgm(data / f"{ref}.pgm", image_from_array(rng.integers(0, 256, size=(64, 64)).astype(np.uint16), 255))
    info = tmp_path / "info.txt"
    info.write_text("mdb001 G CIRC B 32 32 20\nsub/mdb002 F MISC M 30 30 16\nmdb003 F MISC M 30 30 16\n")
    out = tmp_path / "rois"
    (out / "sub").mkdir(parents=True)
    argv = ["prepare-rois", "--data-dir", str(data), "--readings", str(info), "--roi-size", "32", "--out", str(out)]
    assert main(argv) == 1
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["message"] == "line 2: ref_id must be a bare file name, got 'sub/mdb002'"
    assert main([*argv, "--lenient"]) == 0
    assert [s.source_id for s in load_roi_cache(str(out))] == ["mdb001", "mdb003"]
    assert not any((out / "sub").iterdir())


def test_error_is_structured_and_nonzero(tmp_path, capsys):
    rc = main(["cv", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    diag = json.loads(err)
    assert diag["command"] == "cv"
    assert "error" in diag and "message" in diag


def test_grid_command_tiny(tmp_path, synth_cache, monkeypatch):
    import blocksrc.harness as H

    monkeypatch.setattr(H, "GRID_FOLDS", (3,))
    monkeypatch.setattr(H, "GRID_BLOCKS", (16, 8))
    monkeypatch.setattr(H, "GRID_MODES", ("none",))
    cfg = write_config(tmp_path, synth_cache)
    rc = main(["grid", "--config", str(cfg)])
    assert rc == 0
    summary = (tmp_path / "results" / "grid_summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("decision,k_folds,block_size,dl_mode")
    assert len(summary) == 1 + 2 * 2  # two decisions x two block sizes


def test_grid_without_a_dividing_block_size_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["grid", "--roi-size", "12", "--block-sizes", "12", "--synthetic", "--output-dir", str(out)])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["command"] == "grid" and diag["error"] == "ValueError"
    assert "GRID_BLOCKS" in diag["message"] and "roi_size 12" in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "grid"])
def test_incomplete_folds_exit_nonzero_after_writing_reports(
    tmp_path, synth_cache, monkeypatch, capsys, command
):
    import blocksrc.harness as H

    monkeypatch.setattr(H, "GRID_FOLDS", (3,))
    monkeypatch.setattr(H, "GRID_BLOCKS", (8,))
    monkeypatch.setattr(H, "GRID_MODES", ("none",))
    check = H.check_training_labels
    calls = []

    def failing_first_fold(labels):
        # a pooled cell trains no fold, but checks each fold's training split
        calls.append(labels)
        if len(calls) == 1:
            raise ValueError("injected fold failure")
        return check(labels)

    monkeypatch.setattr(H, "check_training_labels", failing_first_fold)
    cfg = write_config(tmp_path, synth_cache)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    diag = json.loads(err[0])
    assert diag["command"] == command and diag["error"] == "IncompleteFolds"
    stems = ["bbll_none_k3_b8"] if command == "cv" else ["bbmap_none_k3_b8", "bbll_none_k3_b8"]
    assert diag["incomplete_folds"] == {stem: [0] for stem in stems}
    results = tmp_path / "results"
    assert (results / f"{command}_summary.csv").exists()
    for stem in stems:
        report = json.loads((results / f"{stem}.json").read_text())
        assert report["incomplete_folds"] == [0]
        assert report["folds"][0]["error"]["message"] == "injected fold failure"


@pytest.mark.parametrize("command", ["cv", "grid"])
def test_cell_whose_folds_all_fail_is_reported_and_the_run_finishes(
    tmp_path, synth_cache, monkeypatch, capsys, command
):
    import blocksrc.harness as H

    monkeypatch.setattr(H, "GRID_FOLDS", (3,))
    monkeypatch.setattr(H, "GRID_BLOCKS", (16, 8))
    monkeypatch.setattr(H, "GRID_MODES", ("none",))
    classify = H.classify_samples

    def failing_16px(dicts, blocks, rows, cfg, allowed=None):
        if blocks.shape[1] == 16 * 16:
            raise ValueError("injected fold failure")
        return classify(dicts, blocks, rows, cfg, allowed)

    monkeypatch.setattr(H, "classify_samples", failing_16px)
    cfg = write_config(tmp_path, synth_cache, block_sizes="8, 16")
    assert main([command, "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    if command == "cv":
        assert "block 16: acc=n/a auc=n/a" in out.splitlines()
    diag = json.loads(err.strip())
    assert diag["error"] == "IncompleteFolds"
    decisions = ["bbll"] if command == "cv" else ["bbmap", "bbll"]
    assert diag["incomplete_folds"] == {f"{d}_none_k3_b16": [0, 1, 2] for d in decisions}
    results = tmp_path / "results"
    summary = (results / f"{command}_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2 * len(decisions)
    for d in decisions:
        failed = json.loads((results / f"{d}_none_k3_b16.json").read_text())
        assert failed["incomplete_folds"] == [0, 1, 2]
        assert failed["confusion"] == {"fn": 0, "fp": 0, "tn": 0, "tp": 0}
        assert failed["metrics"] == {"acc": None, "auc": None, "tnr": None, "tpr": None}
        assert failed["roc"] == []
        assert (results / f"{d}_none_k3_b16.csv").exists()
        assert not (results / f"{d}_none_k3_b16_roc.csv").exists()
        assert f"{d},3,16,none,,,," in summary
        kept = json.loads((results / f"{d}_none_k3_b8.json").read_text())
        assert kept["incomplete_folds"] == [] and kept["metrics"]["acc"] is not None

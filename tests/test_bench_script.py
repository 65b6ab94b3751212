"""``scripts/bench.py`` runs its cell list and reports what
``run_experiment`` reports."""

import glob
import hashlib
import importlib.util
import json
import os
import pathlib
import tracemalloc

import pytest

from blocksrc import ExperimentConfig, SynthSpec, run_experiment, synth_dataset

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_on_a_tiny_set(tmp_path):
    # 16x16 ROIs, 3 per class: the 16- and 8-px none cells run, the 64- and
    # 32-px ones and the 30-fold grid cannot
    bench = load_script()
    out = tmp_path / "BENCH_0.json"
    bench.main(["--quick", "--roi-size", "16", "--per-class", "3", "--folds", "3", "--out", str(out)])
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"environment", "args", "cells", "skipped", "pooled_8px_call"}
    assert set(result["environment"]) == {"commit", "dirty", "src_sha256", "numpy", "blas", "nproc", "python"}
    # the digest of the sources run, as benchmark/run.py takes it
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "blocksrc", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    assert result["environment"]["src_sha256"] == digest.hexdigest()
    names = [c["name"] for c in bench.cells(quick=True)]
    assert len(names) == 9 and not any(n.startswith("lcksvd2") for n in names)
    assert sorted(result["cells"]) == sorted(f"none-b{b}-n{n}" for b in (16, 8) for n in (0.05, 1.0))
    assert sorted([*result["cells"], *result["skipped"]]) == sorted(names)
    for name, cell in result["cells"].items():
        _, b, noise = name.split("-")
        block, sigma = int(b[1:]), float(noise[1:])
        assert set(cell) == {"wall_s", "cpu_s", "bbll", "bbmap"} | ({"walk_steps_fold0"} if block == 8 else set())
        samples = synth_dataset(SynthSpec(roi_size=16, block_size=block, samples_per_class=3, noise_sigma=sigma),
                                bench.SEED)
        for rule in ("bbll", "bbmap"):
            assert set(cell[rule]) == {"auc", "acc", "failed_folds"}
            cfg = ExperimentConfig(roi_size=16, block_sizes=(block,), k_folds=3, decision=rule, seed=bench.SEED)
            report = run_experiment(cfg, samples=samples, persist=False)
            assert cell[rule]["auc"] == report.metrics["auc"] and cell[rule]["acc"] == report.metrics["acc"]
            assert cell[rule]["failed_folds"] == []
    assert set(result["pooled_8px_call"]) == {"blocks", "wall_s", "tracemalloc_peak_mb", "steps_mean"}
    assert result["pooled_8px_call"]["blocks"] == 6


def test_the_pooled_call_is_timed_untraced():
    # wall_s comes from an untraced call; only the repeat runs under tracemalloc
    bench = load_script()
    tracing, real = [], bench.bpdn_batch

    def spy(*args, **kwargs):
        tracing.append(tracemalloc.is_tracing())
        return real(*args, **kwargs)

    bench.bpdn_batch = spy
    cfg = ExperimentConfig(roi_size=16, block_sizes=(8,), k_folds=3, seed=bench.SEED)
    samples = synth_dataset(SynthSpec(roi_size=16, block_size=8, samples_per_class=3), bench.SEED)
    out = bench.pooled_call(cfg, samples)
    assert tracing == [False, True]
    assert out["blocks"] == 6 and out["wall_s"] > 0 and out["tracemalloc_peak_mb"] > 0


@pytest.mark.parametrize("folds", ["1", "7"])
def test_folds_outside_the_sample_count_are_refused(folds, tmp_path, capsys):
    # 3 ROIs per class: 2 to 6 folds can run; no cell starts and no file is
    # written for the others
    bench = load_script()
    out = tmp_path / "BENCH_0.json"
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--quick", "--roi-size", "16", "--per-class", "3", "--folds", folds, "--out", str(out)])
    assert exit_info.value.code == 2 and not out.exists()
    assert f"--folds must be in [2, 6] (the sample count), got {folds}" in capsys.readouterr().err

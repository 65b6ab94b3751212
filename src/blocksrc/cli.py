"""Command line interface.

Subcommands: prepare-rois, train, evaluate, cv, grid, synth, mosaic. Flags
override config-file keys; exit code 0 on success, nonzero with a structured
JSON diagnostic on stderr otherwise. ``cv`` and ``grid`` write every report
even when folds fail, then exit nonzero naming the reports with failed folds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .blocks import block_side, block_vectors
from .config import ExperimentConfig, load_config
from .harness import (
    classify_samples,
    compute_metrics,
    decision_outputs,
    export_dictionary_mosaic,
    load_dataset,
    report_stem,
    run_experiment,
    run_grid,
    train_block_models,
    write_summary_csv,
)
from .mias import build_roi_cache
from .model_io import load_model, save_model
from .synth import synth_dataset, write_synth_cache


def _config_overrides(args) -> dict:
    """Every config key a flag set, as its text (the words of a
    several-valued flag joined by spaces); an unset flag is None, which
    keeps the config file's value."""
    values = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    return {k: " ".join(v) if isinstance(v, list) else v for k, v in values.items()}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag ``--<key-with-dashes>`` per config key. A bool key's flag
    is a switch that sets it true, a tuple key's takes several values; every
    other flag takes one. Values stay text, which the config parser reads
    as it reads a config line, so a bad value gets the same message."""
    p.add_argument("--config", help="plain-text key = value config file")
    for f in fields(ExperimentConfig):
        flag, t = "--" + f.name.replace("_", "-"), type(f.default)
        if t is bool:
            p.add_argument(flag, dest=f.name, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=f.name, nargs="+" if t is tuple else None)


def _cmd_prepare_rois(args) -> int:
    manifest = build_roi_cache(
        data_dir=args.data_dir,
        readings_path=args.readings,
        roi_size=args.roi_size,
        out_dir=args.out,
        y_origin=args.y_origin,
        strict=not args.lenient,
    )
    labels = [e["label"] for e in manifest["samples"]]
    print(
        f"wrote {len(labels)} ROIs to {args.out} "
        f"({labels.count('benign')} benign, {labels.count('malignant')} malignant)"
    )
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    if len(cfg.block_sizes) != 1:
        raise ValueError(f"train takes one block size, the config lists {list(cfg.block_sizes)}")
    samples = load_dataset(cfg)
    model = train_block_models(block_vectors(samples, cfg.block_sizes[0]), [s.label for s in samples], cfg)
    # evaluate scores only the samples whose ids are not in this list
    meta = {"roi_size": cfg.roi_size, "dl_mode": cfg.dl_mode,
            "training_ids": sorted({s.source_id for s in samples})}
    os.makedirs(os.path.dirname(os.path.abspath(args.model)), exist_ok=True)
    save_model(args.model, model, cfg.train_params(), meta)
    print(f"trained {len(model.D.atoms)} block dictionaries -> {args.model}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    model, _, meta = load_model(args.model)
    if meta.get("roi_size") != cfg.roi_size:
        raise ValueError(
            f"model roi_size {meta.get('roi_size')!r} does not match config roi_size {cfg.roi_size}"
        )
    block = block_side(model.D.dim)
    if "training_ids" not in meta:
        raise ValueError("model meta has no training_ids, so its held-out samples are unknown")
    trained = meta["training_ids"]
    if not (isinstance(trained, list) and all(isinstance(i, str) for i in trained)):
        raise ValueError(f"model meta training_ids is not a list of sample ids: {trained!r}")
    samples = load_dataset(cfg)
    # a sample the model trained on is not held out, so it is not scored
    excluded = set(trained)
    held = [s for s in samples if s.source_id not in excluded]
    if not held:
        raise ValueError(f"all {len(samples)} samples of the dataset trained the model; none is held out to score")
    res = classify_samples(model.D, block_vectors(held, block), slice(None), cfg)
    preds, scores = decision_outputs(res, cfg)
    truth = [s.label for s in held]
    metrics = compute_metrics(preds, truth, scores)
    metrics.pop("roc", None)
    metrics.update(n_scored=len(held), n_excluded_training=len(samples) - len(held))
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, "evaluation.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _fold_status(command: str, reports) -> int:
    """0 when every fold of every report completed; otherwise 1, after one
    JSON line on stderr naming each report stem with its failed folds."""
    failed = {report_stem(r): r.incomplete_folds for r in reports if r.incomplete_folds}
    if not failed:
        return 0
    diag = {
        "command": command,
        "error": "IncompleteFolds",
        "message": f"{len(failed)} of {len(reports)} reports have failed folds",
        "incomplete_folds": failed,
    }
    print(json.dumps(diag, sort_keys=True), file=sys.stderr)
    return 1


def _percent(value) -> str:
    return "n/a" if value is None else f"{value:.2f}%"


def _cmd_cv(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    samples = load_dataset(cfg)
    reports = []
    for block in cfg.block_sizes:
        report = run_experiment(cfg, block_size=block, samples=samples)
        reports.append(report)
        m = report.metrics
        print(f"block {block}: acc={_percent(m['acc'])} auc={_percent(m['auc'])}")
    rows = [r.summary_row() for r in reports]
    write_summary_csv(os.path.join(cfg.output_dir, "cv_summary.csv"), rows)
    return _fold_status("cv", reports)


def _cmd_grid(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    reports = run_grid(cfg)
    print(f"grid complete: {len(reports)} configurations -> {cfg.output_dir}")
    return _fold_status("grid", reports)


def _cmd_synth(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    samples = synth_dataset(cfg.synth_spec(), cfg.seed)
    write_synth_cache(samples, args.out)
    print(f"wrote {len(samples)} synthetic ROIs to {args.out}")
    return 0


def _cmd_mosaic(args) -> int:
    D = load_model(args.model)[0].D
    if not 0 <= args.block < len(D.atoms):
        raise ValueError(f"block index {args.block} out of range [0, {len(D.atoms)})")
    export_dictionary_mosaic(D.atoms[args.block], args.out)
    print(f"wrote mosaic of block {args.block} ({D.n_atoms} atoms) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksrc",
        description="Block-based ensembles of sparse classifiers with dictionary learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-rois", help="extract lesion ROIs from MIAS scans")
    p.add_argument("--data-dir", required=True, help="directory holding <ref_id>.pgm scans")
    p.add_argument("--readings", required=True, help="radiological readings file")
    p.add_argument("--roi-size", dest="roi_size", type=int, default=ExperimentConfig.roi_size)
    p.add_argument("--out", required=True, help="ROI cache output directory")
    p.add_argument("--y-origin", dest="y_origin", choices=("top", "bottom"), default="bottom")
    p.add_argument("--lenient", action="store_true", help="skip malformed reading lines")
    p.set_defaults(func=_cmd_prepare_rois)

    p = sub.add_parser("train", help="train block dictionaries on the whole dataset")
    _add_config_flags(p)
    p.add_argument("--model", required=True, help="model archive output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="classify a dataset with a trained model")
    _add_config_flags(p)
    p.add_argument("--model", required=True, help="model archive path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("cv", help="stratified cross-validation (full pipeline)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("grid", help="run the full decision/fold/block/mode grid")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("synth", help="generate a config's synthetic ROI set as a ROI cache")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="ROI cache output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("mosaic", help="render one block dictionary as a PGM mosaic")
    p.add_argument("--model", required=True)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mosaic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        diag = {"error": type(err).__name__, "message": str(err), "command": args.command}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

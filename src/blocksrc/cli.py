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

import numpy as np

from .blocks import block_stack, block_vectors
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
from .synth import SynthSpec, synth_dataset, write_synth_cache


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
    block = cfg.block_sizes[0]
    samples = load_dataset(cfg)
    models = train_block_models(*block_stack(samples, block, block), cfg)
    meta = {"block_w": block, "block_h": block, "roi_size": cfg.roi_size, "dl_mode": cfg.dl_mode}
    os.makedirs(os.path.dirname(os.path.abspath(args.model)), exist_ok=True)
    save_model(args.model, models, cfg.train_params(), meta)
    print(f"trained {len(models)} block dictionaries -> {args.model}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    models, _, meta = load_model(args.model)
    if meta.get("roi_size") != cfg.roi_size:
        raise ValueError(
            f"model roi_size {meta.get('roi_size')!r} does not match config roi_size {cfg.roi_size}"
        )
    block_w = int(meta.get("block_w", cfg.block_sizes[0]))
    block_h = int(meta.get("block_h", block_w))
    for m in models:
        if m.D.dim != block_w * block_h:
            raise ValueError(
                f"model atom length {m.D.dim} does not match its {block_w}x{block_h} blocks "
                f"({block_w * block_h} pixels)"
            )
    samples = load_dataset(cfg)
    fused = classify_samples([m.D for m in models], block_vectors(samples, block_w, block_h), slice(None), cfg)
    preds, scores = decision_outputs(fused, cfg)
    truth = [s.label for s in samples]
    metrics = compute_metrics(preds, truth, scores)
    metrics.pop("roc", None)
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
    reports = []
    for block in cfg.block_sizes:
        report = run_experiment(cfg, block_size=block)
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
    spec = load_config(args.spec, cls=SynthSpec)
    samples = synth_dataset(spec, args.seed)
    write_synth_cache(samples, args.out)
    print(f"wrote {len(samples)} synthetic ROIs to {args.out}")
    return 0


def _cmd_mosaic(args) -> int:
    models, _, meta = load_model(args.model)
    if not 0 <= args.block < len(models):
        raise ValueError(f"block index {args.block} out of range [0, {len(models)})")
    bw = int(meta.get("block_w", int(np.sqrt(models[args.block].D.dim))))
    bh = int(meta.get("block_h", bw))
    export_dictionary_mosaic(models[args.block].D, bw, bh, args.out)
    print(f"wrote mosaic of block {args.block} ({models[args.block].D.n_atoms} atoms) to {args.out}")
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
    p.add_argument("--roi-size", dest="roi_size", type=int, default=64)
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

    p = sub.add_parser("synth", help="generate a synthetic ROI cache")
    p.add_argument("--spec", help="key = value synthetic spec file")
    p.add_argument("--seed", type=int, default=20)
    p.add_argument("--out", required=True)
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

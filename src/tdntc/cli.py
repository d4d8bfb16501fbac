"""Command-line surface: featurize captures, train/evaluate models, audit parameters.

Subcommands:
  featurize     pcap -> labelled flow-feature CSV
  synth         write a synthetic labelled CSV for desk-scale experiments
  train         CSV -> trained checkpoint + history + classification report
  evaluate      checkpoint + CSV -> classification report
  audit-params  print the per-stage trainable-parameter table for a variant

Heavy modules are imported inside the handlers so the TDNTC_THREADS cap can
be applied to the BLAS environment before numpy first loads, and so a
command that fails reports its `tdntc.Error` without loading them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import VARIANTS, Error


class UsageError(Error, ValueError):
    """Raised for an option value the command cannot use."""


def _apply_thread_cap() -> None:
    cap = os.environ.get("TDNTC_THREADS")
    if not cap:
        return
    try:
        threads = int(cap)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"TDNTC_THREADS must be an integer >= 1, got {cap!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(threads))


def _print_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"resolved-config {json.dumps(resolved, default=str)}")


def _parse_pair(text: str | None, flag: str, form: str):
    """'A,B' as two ints; None (an unset option) passes through."""
    if text is None:
        return None
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects '{form}', got {text!r}") from None
    return a, b


# ---------------------------------------------------------------------------
# handlers


def cmd_featurize(args: argparse.Namespace) -> int:
    from . import flowcap

    _print_config(args)
    native = len(flowcap.FEATURE_COLUMNS)
    if args.pad_to is not None and args.pad_to < native:
        raise UsageError(f"--pad-to must be at least the {native} native features, "
                         f"got {args.pad_to}")
    if not args.idle_timeout >= 0:
        raise UsageError(f"--idle-timeout must be >= 0, got {args.idle_timeout}")
    label = args.label if args.label is not None else Path(args.pcap).stem
    capture = flowcap.parse_pcap(args.pcap)
    flows = flowcap.assemble_flows(capture.packets, idle_timeout=args.idle_timeout)
    stats = flowcap.featurize_flows(flows)
    flowcap.write_flow_csv(stats, args.out, label, pad_to=args.pad_to)
    # Counts only, no wall times: a rerun on the same capture writes the same bytes.
    summary = {"records": capture.records, "packets_parsed": len(capture.packets),
               "skipped": capture.skipped, "flows": len(stats)}
    summary_path = Path(f"{args.out}.summary.json")
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"packets parsed: {len(capture.packets)}")
    for kind, count in capture.skipped.items():
        print(f"packets skipped ({kind}): {count}")
    print(f"flows written: {len(stats)} -> {args.out}")
    print(f"summary written: {summary_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from . import datapipe

    _print_config(args)
    ds = datapipe.generate_synthetic(args.classes, args.per_class,
                                     args.features, seed=args.seed)
    # Each row is written as it is formatted, so the text is never held whole.
    with open(args.out, "w", encoding="utf-8") as out:
        out.write(",".join(ds.feature_names + ["label"]) + "\n")
        for row, label in zip(ds.features, ds.labels.tolist()):
            out.write(",".join([*map(repr, row.tolist()), ds.class_names[label]]) + "\n")
    print(f"wrote {ds.n_flows} flows x {ds.n_features} features -> {args.out}")
    return 0


def _prepare_inputs(features, cfg, scaler):
    """Scale a feature matrix in place and shape it as `cfg`'s variant reads it."""
    from . import datapipe

    scaled = datapipe.minmax_apply(scaler, features, out=features)
    if cfg.frame_input:
        return datapipe.frames_from_flows(scaled, factor_pair=cfg.factor_pair).frames
    return scaled


def _load_csv(args: argparse.Namespace):
    """The command's CSV, with one line per column label-encoded from text."""
    from . import datapipe

    ds = datapipe.load_csv_dataset(args.csv, label_column=args.label_column)
    for name, count in ds.encoded_columns.items():
        print(f"label-encoded column {name!r}: {count} categories")
    return ds


def cmd_train(args: argparse.Namespace) -> int:
    from . import datapipe, metrics, models, trainer

    _print_config(args)
    train_cfg = trainer.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
        optimizer=args.optimizer, seed=args.seed, patience=args.patience,
        trials=args.trials, lr_jitter=args.lr_jitter,
    )
    factor_pair = _parse_pair(args.factor_pair, "--factor-pair", "R,C")
    kernel = _parse_pair(args.kernel, "--kernel", "P,Q")
    ds = _load_csv(args)
    if ds.n_classes == 1:
        raise datapipe.DataError(
            f"{args.csv}: one class ({ds.class_names[0]!r}); training needs at least two")
    split = datapipe.stratified_split(ds, seed=args.seed)
    sizes = f"train={split.train.size} val={split.val.size} test={split.test.size}"
    if split.test.size == 0:
        # Checked before training: the report needs at least one test row.
        raise datapipe.StratificationError(
            f"{args.csv}: the test split is empty ({sizes}); "
            "no class has the 5 rows one test row needs")
    rows = ds.features[split.train]
    scaler = datapipe.minmax_fit(rows)
    j = scaler.overflowing_feature()
    if j is not None:
        raise datapipe.DataError(
            f"{args.csv}: column {ds.feature_names[j]!r} spans more than float64 can hold")

    model_cfg = models.ModelConfig(
        variant=args.variant, n_features=ds.n_features, n_classes=ds.n_classes,
        units=args.units, kernel=kernel,
        td_units=args.td_units, factor_pair=factor_pair, seed=args.seed,
    )
    # Each split is gathered once and scaled and framed from its own rows;
    # the training rows are the ones the scaler was fitted on.
    splits = {}
    for name in ("train", "val", "test"):
        idx = getattr(split, name)
        if name != "train":
            rows = ds.features[idx]
        splits[name] = (_prepare_inputs(rows, model_cfg, scaler), ds.labels[idx])
    print(f"split sizes: {sizes}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_header = {"model": model_cfg.to_dict(), "training": train_cfg.to_dict()}

    # A single run is trial 1 of the protocol, so it honours --lr-jitter too.
    table = trainer.run_trials(model_cfg, train_cfg,
                               splits["train"], splits["val"], splits["test"])
    graph, result, report = table.graph, table.result, table.report
    if args.trials > 1:
        print(trainer.format_trial_table(table))
        (out_dir / "trials.txt").write_text(trainer.trial_metrics_table(table) + "\n",
                                            encoding="utf-8")
    else:
        (out_dir / "history.csv").write_text(trainer.history_csv(result.history),
                                             encoding="utf-8")
        kept = (f"best val loss {result.best_val_loss:.6f} at epoch {result.best_epoch}"
                if split.val.size else "no validation split; kept the last epoch")
        print(f"trained {len(result.history)} epochs ({kept})")

    report_text = metrics.per_class_report(report, ds.class_names)
    print(report_text)

    trainer.save_checkpoint(graph, out_dir / "model.ckpt", scaler, ds.class_names)
    (out_dir / "report.txt").write_text(
        f"# config: {json.dumps(config_header, sort_keys=True)}\n{report_text}\n",
        encoding="utf-8")
    doc = metrics.report_to_dict(report, ds.class_names)
    doc["config"] = config_header
    (out_dir / "report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    import numpy as np

    from . import datapipe, metrics, trainer

    _print_config(args)
    graph, scaler, class_names = trainer.load_checkpoint(args.checkpoint)
    ds = _load_csv(args)
    expected = graph.config.n_features
    if ds.n_features != expected:
        raise datapipe.DataError(
            f"feature count mismatch: model expects N={expected}, "
            f"found N={ds.n_features} in {args.csv}")
    index_of = {name: i for i, name in enumerate(class_names)}
    unknown = [name for name in ds.class_names if name not in index_of]
    if unknown:
        raise datapipe.DataError(
            f"{args.csv}: label {unknown[0]!r} not in the checkpoint's classes {class_names}")
    y = np.array([index_of[name] for name in ds.class_names])[ds.labels]

    inputs = _prepare_inputs(ds.features, graph.config, scaler)
    report = trainer.evaluate(graph, inputs, y)
    report_text = metrics.per_class_report(report, class_names)
    print(report_text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(report_text + "\n", encoding="utf-8")
        doc = metrics.report_to_dict(report, class_names)
        (out_dir / "report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"artifacts written to {out_dir}")
    return 0


def cmd_audit_params(args: argparse.Namespace) -> int:
    from . import models

    _print_config(args)
    cfg = models.ModelConfig(
        variant=args.variant, n_features=args.n_features, n_classes=args.n_classes,
        units=args.units, kernel=_parse_pair(args.kernel, "--kernel", "P,Q"),
        td_units=args.td_units,
        factor_pair=_parse_pair(args.factor_pair, "--factor-pair", "R,C"),
    )
    print(models.format_stage_table(cfg))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdntc",
        description="Network traffic classification with time-distributed "
                    "CNN/LSTM feature learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="extract flow features from a pcap")
    p.add_argument("pcap", help="classic pcap file (Ethernet link layer)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--label", default=None,
                   help="label value for every flow (default: pcap filename stem)")
    p.add_argument("--idle-timeout", type=float, default=60.0,
                   help="seconds of silence that split a flow (default 60)")
    p.add_argument("--pad-to", type=int, default=None,
                   help="zero-pad feature columns up to this count")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("synth", help="generate a synthetic labelled CSV")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=1000)
    p.add_argument("--features", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    def add_model_flags(p):
        p.add_argument("--units", type=int, default=128)
        p.add_argument("--td-units", type=int, default=128)
        p.add_argument("--kernel", default="3,3", help="conv kernel 'P,Q'")
        p.add_argument("--factor-pair", default=None,
                       help="frame geometry 'R,C' override")

    p = sub.add_parser("train", help="train a variant on a labelled CSV")
    p.add_argument("csv", help="flow feature CSV with a label column")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--label-column", default="label")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--lr-jitter", type=float, default=0.0)
    add_model_flags(p)
    p.add_argument("--out", default="tdntc-out", help="artifact directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against a labelled CSV")
    p.add_argument("checkpoint")
    p.add_argument("csv")
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", default=None, help="optional artifact directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit-params",
                       help="print the trainable-parameter table for a variant")
    p.add_argument("variant", choices=VARIANTS)
    p.add_argument("n_features", type=int)
    p.add_argument("n_classes", type=int)
    add_model_flags(p)
    p.set_defaults(func=cmd_audit_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_cap()
        return args.func(args)
    except (Error, OSError) as exc:  # any other exception is a bug: a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""A command's set-up, as a freshly started `tdntc` process does it.

    python3 perfbench/coldstart.py featurize
    python3 perfbench/coldstart.py train FLOWS_CSV VARIANT

starts from a new interpreter, imports the tdntc modules the command
uses and, for training, loads, splits, scales and frames the flow CSV and
builds the model; then it exits.  Its wall time from spawn to exit is one
sample of `setup_s`: everything a user waits for before the first parsed
packet or the first training step.

The benchmark's rounds call `fresh_import` and `train_setup` in process
for the same steps, so the two cannot drift apart.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"

# The program's own seed, left at its default as for a user who passes none.
PROGRAM_SEED = 0
TRAIN_MODULES = ("cli", "datapipe", "metrics", "models", "trainer")
FEATURIZE_MODULES = ("cli", "flowcap")


def fresh_import(names):
    """Import tdntc modules from scratch, as a new process would."""
    for mod in [m for m in sys.modules if m == "tdntc" or m.startswith("tdntc.")]:
        del sys.modules[mod]
    return [importlib.import_module(f"tdntc.{n}") for n in names]


def _call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def train_setup(csv_path: Path, variant: str, op=_call) -> SimpleNamespace:
    """`tdntc train`'s set-up, from import to build_model.

    `op(name, fn, *args, **kwargs)` makes each program call, so a caller
    can time and count them.
    """
    _, datapipe, metrics, models, trainer = fresh_import(TRAIN_MODULES)
    ds = op("datapipe.load_csv_dataset", datapipe.load_csv_dataset, csv_path)
    split = op("datapipe.stratified_split", datapipe.stratified_split, ds, seed=PROGRAM_SEED)
    scaler = op("datapipe.minmax_fit", datapipe.minmax_fit, ds.features[split.train])
    x = op("datapipe.minmax_apply", datapipe.minmax_apply, scaler, ds.features)
    cfg = models.ModelConfig(variant=variant, n_features=ds.n_features,
                             n_classes=ds.n_classes, seed=PROGRAM_SEED)
    if cfg.frame_input:
        x = op("datapipe.frames_from_flows", datapipe.frames_from_flows, x).frames
    graph = op("models.build_model", models.build_model, cfg)
    return SimpleNamespace(metrics=metrics, models=models, trainer=trainer, ds=ds,
                           split=split, scaler=scaler, x=x, graph=graph)


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    if argv[0] == "featurize":
        fresh_import(FEATURIZE_MODULES)
    elif argv[0] == "train":
        train_setup(Path(argv[1]), argv[2])
    else:
        raise SystemExit(f"unknown command {argv[0]!r}; expected featurize or train")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

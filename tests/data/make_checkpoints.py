"""Write the saved-checkpoint fixtures that `tests/test_checkpoint_compat.py` reads.

Run it on the tree whose checkpoints are to be kept, for instance a
`git archive` of an older commit unpacked into DIR:

    PYTHONPATH=DIR/src python tests/data/make_checkpoints.py tests/data

For each variant it trains a 2-unit model for two epochs on a seeded
48-feature, 3-class synth CSV and writes `<variant>.ckpt` and
`<variant>.json`: a seeded batch of scaled flow vectors and the
probabilities that tree predicts for it, as JSON floats (the shortest
`repr`, so they read back bit-exact).  It keeps the first training seed
whose predictions differ across the batch: a 2-unit model whose relus
all died predicts one constant row, which pins only its decision bias.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from tdntc import trainer
from tdntc.cli import main
from tdntc.models import VARIANTS


def write(out_dir: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        csv = str(Path(tmp) / "synth.csv")
        main(["synth", "--classes", "3", "--per-class", "20", "--features", "48",
              "--seed", "7", "--out", csv])
        for i, variant in enumerate(VARIANTS):
            x = np.random.default_rng(100 + i).uniform(0.0, 1.0, size=(6, 48))
            for seed in range(20):
                run = Path(tmp) / f"{variant}-{seed}"
                main(["train", csv, "--variant", variant, "--epochs", "2", "--units", "2",
                      "--td-units", "2", "--seed", str(seed), "--out", str(run)])
                graph, _, _ = trainer.load_checkpoint(run / "model.ckpt")
                batch = x.reshape(len(x), *graph.frame_dims) if graph.config.frame_input else x
                probs, _ = graph.predict(batch)
                if np.ptp(probs, axis=0).max() > 1e-3:
                    break
            (out_dir / f"{variant}.ckpt").write_bytes((run / "model.ckpt").read_bytes())
            doc = {"variant": variant, "seed": seed, "input": x.tolist(),
                   "probabilities": probs.tolist()}
            (out_dir / f"{variant}.json").write_text(json.dumps(doc, indent=1) + "\n",
                                                     encoding="utf-8")


if __name__ == "__main__":
    write(Path(sys.argv[1]))

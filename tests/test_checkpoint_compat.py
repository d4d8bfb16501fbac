"""Saved checkpoints keep predicting what they predicted when written.

`tests/data/<variant>.ckpt` were written by commit e248e65 (see
`tests/data/make_checkpoints.py`), whose conv front handed on
(batch, units, rows, cols) views.  `<variant>.json` holds a seeded input
batch and the probabilities that tree predicted for it.  m1-van's FFNN_0
weights read the pooled map units first, so a flatten in any other order
fails here.  BLAS may round the last bits differently on another CPU, so
probabilities are compared to rtol 1e-9 and the predicted classes exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tdntc import trainer
from tdntc.models import VARIANTS

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("variant", VARIANTS)
def test_saved_checkpoint_predicts_as_when_written(variant):
    doc = json.loads((DATA / f"{variant}.json").read_text(encoding="utf-8"))
    graph, _, _ = trainer.load_checkpoint(DATA / f"{variant}.ckpt")
    assert graph.config.variant == doc["variant"] == variant
    x = np.array(doc["input"])
    if graph.config.frame_input:
        x = x.reshape(len(x), *graph.frame_dims)
    probs, classes = graph.predict(x)
    want = np.array(doc["probabilities"])
    assert np.ptp(want, axis=0).max() > 1e-3  # not one constant row: more than the bias
    assert classes.tolist() == want.argmax(axis=1).tolist()
    np.testing.assert_allclose(probs, want, rtol=1e-9, atol=0)

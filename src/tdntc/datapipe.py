"""Dataset assembly, preprocessing, and the flow-to-grayscale-frame transform.

A dataset is a feature matrix of M flows by N numeric features plus an
integer label per flow.  Frames reinterpret each scaled feature vector as
an R x C grayscale image (row j holds features (j-1)*C+1 .. j*C, 1-based),
stacking all flows into an (M, R, C) "video" tensor.  The transform is a
pure reshape, so flattening a frame recovers the feature vector bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data or contract violations in this module."""


class StratificationError(DataError):
    """Raised when a class is too small to split across train/val/test."""


@dataclass
class Dataset:
    """M flows by N features, integer labels, and the label-decoding table."""

    features: np.ndarray          # (M, N) float64
    labels: np.ndarray            # (M,) int64
    class_names: List[str]

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError(f"expected a (M, N) feature matrix, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must align with feature rows")
        if self.n_classes and self.labels.max(initial=0) >= self.n_classes:
            raise DataError("label index out of range of class_names")

    @property
    def n_flows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass
class FrameStream:
    """Grayscale video form of a dataset: one (rows x cols) frame per flow."""

    frames: np.ndarray            # (M, rows, cols) float64
    rows: int
    cols: int


@dataclass
class ScalerState:
    """Per-feature min/max observed on the training split."""

    feature_min: np.ndarray
    feature_max: np.ndarray

    def to_dict(self) -> dict:
        return {"min": self.feature_min.tolist(), "max": self.feature_max.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerState":
        return cls(np.asarray(d["min"], dtype=np.float64),
                   np.asarray(d["max"], dtype=np.float64))


@dataclass
class SplitIndices:
    """Index sets of a stratified 70/10/20 split."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def choose_factor_pair(n: int) -> Tuple[int, int]:
    """Nearest-to-square factor pair (rows, cols) of n with rows >= cols.

    rows is the smallest divisor of n at or above sqrt(n); a prime n
    therefore degenerates to (n, 1).  For the 48-feature flow records this
    yields the 8x6 frame geometry.
    """
    if n < 1:
        raise DataError(f"feature count must be >= 1, got {n}")
    root = math.isqrt(n)
    if root * root < n:
        root += 1
    for rows in range(root, n + 1):
        if n % rows == 0:
            return rows, n // rows
    return n, 1


def frames_from_flows(data, factor_pair: Tuple[int, int] | None = None) -> FrameStream:
    """Reshape scaled flow vectors into the (M, rows, cols) frame tensor.

    `data` is a Dataset or a (M, N) array whose values must already lie in
    [0, 1].  Row j of frame m is the contiguous feature slice of flow m, so
    the transform is lossless by construction.
    """
    features = data.features if isinstance(data, Dataset) else np.asarray(data)
    if features.ndim != 2:
        raise DataError(f"expected (M, N) features, got {features.shape}")
    if not np.isfinite(features).all():
        raise DataError("features contain non-finite values")
    lo, hi = features.min(), features.max()
    if lo < 0.0 or hi > 1.0:
        raise DataError(
            f"features must be min-max scaled to [0,1] first (saw range [{lo}, {hi}])"
        )
    n = features.shape[1]
    rows, cols = factor_pair if factor_pair is not None else choose_factor_pair(n)
    if rows * cols != n:
        raise DataError(f"factor pair {rows}x{cols} does not cover {n} features")
    frames = np.ascontiguousarray(features, dtype=np.float64).reshape(-1, rows, cols)
    return FrameStream(frames, rows, cols)


def encode_labels(raw: Sequence[str]) -> Tuple[np.ndarray, List[str]]:
    """Map string labels to indices in lexicographic class order."""
    if len(raw) == 0:
        raise DataError("cannot encode an empty label list")
    names = sorted(set(str(x) for x in raw))
    table = {name: i for i, name in enumerate(names)}
    return np.array([table[str(x)] for x in raw], dtype=np.int64), names


def minmax_fit(train_features: np.ndarray) -> ScalerState:
    """Record per-feature min/max; call only on the training split."""
    features = np.asarray(train_features, dtype=np.float64)
    return ScalerState(features.min(axis=0), features.max(axis=0))


def minmax_apply(state: ScalerState, features: np.ndarray) -> np.ndarray:
    """Scale to [0,1] by the fitted range, clamp anything outside it.

    A constant feature (max == min on the training split) maps to 0.
    """
    features = np.asarray(features, dtype=np.float64)
    span = state.feature_max - state.feature_min
    safe_span = np.where(span == 0.0, 1.0, span)
    scaled = (features - state.feature_min) / safe_span
    scaled = np.where(span == 0.0, 0.0, scaled)
    return np.clip(scaled, 0.0, 1.0)


def stratified_split(ds: Dataset, seed: int = 0) -> SplitIndices:
    """Deterministic per-class 70/10/20 split.

    Validation and test take floor(0.1*n) and floor(0.2*n) of each class;
    the remainder trains.  Classes below 3 samples cannot be represented
    and are rejected.
    """
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == c)
        if 0 < idx.size < 3:
            raise StratificationError(
                f"class {ds.class_names[c]!r} has {idx.size} samples; need >= 3"
            )
        idx = rng.permutation(idx)
        n_val = int(0.1 * idx.size)
        n_test = int(0.2 * idx.size)
        val.append(idx[:n_val])
        test.append(idx[n_val:n_val + n_test])
        train.append(idx[n_val + n_test:])
    return SplitIndices(
        train=np.sort(np.concatenate(train)),
        val=np.sort(np.concatenate(val)),
        test=np.sort(np.concatenate(test)),
    )


def load_csv_dataset(path, label_column: str = "label") -> Dataset:
    """Load a rectangular, headered CSV of one flow per row.

    Columns other than the label are features; a column where every cell
    parses as a number is taken numerically, otherwise its distinct values
    are label-encoded lexicographically (the same rule the label column
    itself uses).  A numeric column may not hold nan or inf.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    if label_column not in header:
        raise DataError(f"{path}: no {label_column!r} column in header {header}")
    if not rows:
        raise DataError(f"{path}: no data rows below the header")
    width = len(header)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} cells, found {len(row)}")
    label_idx = header.index(label_column)
    labels_raw = [row[label_idx] for row in rows]
    feature_cols = [i for i in range(width) if i != label_idx]
    columns = []
    for i in feature_cols:
        cells = [row[i] for row in rows]
        try:
            column = np.array([float(cell) for cell in cells], dtype=np.float64)
        except ValueError:
            column = encode_labels(cells)[0].astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise DataError(f"{path}:{bad[0] + 2}: non-finite value {cells[bad[0]]!r} "
                            f"in column {header[i]!r}")
        columns.append(column)
    features = np.column_stack(columns)
    labels, class_names = encode_labels(labels_raw)
    return Dataset(features, labels, class_names)


def generate_synthetic(n_classes: int, per_class: int, n_features: int,
                       seed: int = 0) -> Dataset:
    """Deterministic learnable stand-in dataset for desk-scale experiments.

    Each class gets a mean bump on its own block of features on top of unit
    Gaussian noise, so a single-feature threshold already beats chance and
    the deep models can separate the classes quickly.
    """
    if n_classes < 2:
        raise DataError(f"need >= 2 classes, got {n_classes}")
    if n_features < 4:
        raise DataError(f"need >= 4 features, got {n_features}")
    if per_class < 1:
        raise DataError(f"need >= 1 samples per class, got {per_class}")
    rng = np.random.default_rng(seed)
    block = max(1, n_features // n_classes)
    width = len(str(n_classes - 1))
    class_names = [f"svc-{c:0{width}d}" for c in range(n_classes)]
    features = rng.normal(0.0, 1.0, size=(n_classes * per_class, n_features))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    for c in range(n_classes):
        cols = np.arange(c * block, c * block + block) % n_features
        rows = np.flatnonzero(labels == c)
        features[np.ix_(rows, cols)] += 2.5
    return Dataset(features, labels, class_names)

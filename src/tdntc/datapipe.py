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
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data or contract violations in this module."""


class StratificationError(DataError):
    """Raised when a class is too small to split across train/val/test."""


@dataclass
class Dataset:
    """M flows by N features, integer labels, and the label-decoding table.

    `feature_names` are the feature columns' names in order, and
    `encoded_columns` maps each column that was label-encoded from text to
    its number of categories.
    """

    features: np.ndarray          # (M, N) float64
    labels: np.ndarray            # (M,) int64
    class_names: List[str]
    feature_names: List[str] = field(default_factory=list)
    encoded_columns: Dict[str, int] = field(default_factory=dict)

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

    def overflowing_feature(self) -> Optional[int]:
        """The first feature whose max - min is beyond float64, or None."""
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(np.isinf(self.feature_max - self.feature_min))
        return int(bad[0]) if bad.size else None


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
    # cols is the largest divisor at or below sqrt(n): a scan of sqrt(n)
    # candidates, where scanning rows upward would take n for a prime.
    for cols in range(math.isqrt(n), 0, -1):
        if n % cols == 0:
            return n // cols, cols


def frames_from_flows(features, factor_pair: Tuple[int, int] | None = None) -> FrameStream:
    """Reshape scaled flow vectors into the (M, rows, cols) frame tensor.

    `features` is a (M, N) array whose values must already lie in [0, 1].
    Row j of frame m is the contiguous feature slice of flow m, so the
    transform is lossless by construction.  No rows give no frames.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise DataError(f"expected (M, N) features, got {features.shape}")
    if not np.isfinite(features).all():
        raise DataError("features contain non-finite values")
    lo, hi = (features.min(), features.max()) if features.size else (0.0, 1.0)
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


def minmax_fit(train_features: np.ndarray) -> ScalerState:
    """Record per-feature min/max; call only on the training split."""
    features = np.asarray(train_features, dtype=np.float64)
    return ScalerState(features.min(axis=0), features.max(axis=0))


def minmax_apply(state: ScalerState, features: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Scale to [0,1] by the fitted range, clamp anything outside it.

    A constant feature (max == min on the training split) maps to 0.  The
    result is one array, `out` if given (`features` itself may be it),
    otherwise a new one, written in place; a value so far outside the
    range that its distance overflows still clamps to 0 or 1.
    """
    features = np.asarray(features, dtype=np.float64)
    span = state.feature_max - state.feature_min
    constant = span == 0.0
    with np.errstate(over="ignore"):
        scaled = np.subtract(features, state.feature_min, out=out)
        scaled /= np.where(constant, 1.0, span)
    scaled[..., constant] = 0.0
    return np.clip(scaled, 0.0, 1.0, out=scaled)


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
    itself uses).  A numeric column may not hold nan or inf, and no two
    columns may share a name.

    The file is read as a stream: each row's numbers go straight into one
    float buffer, which becomes the feature matrix without a copy.  Text
    columns are filled in by a second pass over the file, so an input that
    cannot be read twice (a pipe) must be all numbers.  Errors keep the
    precedence of a whole-file read: a byte that is not UTF-8 comes before
    a CSV syntax error, which comes before a bad header or row.
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as f:
        try:
            try:
                return _read_csv(f, path, label_column)
            except csv.Error as exc:
                while f.read(1 << 20):  # a bad byte further on is named first
                    pass
                raise DataError(f"{path}: unreadable CSV: {exc}") from None
        except UnicodeDecodeError:
            _rewind(f, path, "not UTF-8 text; finding the byte needs a second read")
            try:
                f.buffer.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text at byte {exc.start}") from None
            raise DataError(f"{path}: changed while it was read") from None


def _read_csv(f, path: Path, label_column: str) -> Dataset:
    reader = csv.reader(f)
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if len(set(header)) < len(header):
        name = next(name for i, name in enumerate(header) if name in header[:i])
        _fail(reader, f"{path}: column {name!r} repeats in the header")
    if label_column not in header:
        _fail(reader, f"{path}: no {label_column!r} column in header {header}")
    if len(header) < 2:
        _fail(reader, f"{path}: no feature column besides {label_column!r}")
    width = len(header)
    label_idx = header.index(label_column)
    names = header[:label_idx] + header[label_idx + 1:]
    values = array("d")
    codes = array("q")   # each row's label, numbered in order of first appearance
    label_ids: Dict[str, int] = {}
    text: List[int] = []  # feature columns seen to hold a non-number
    for row in reader:
        if len(row) != width:
            _fail(reader, f"{path}:{reader.line_num}: expected {width} cells, found {len(row)}")
        codes.append(label_ids.setdefault(row.pop(label_idx), len(label_ids)))
        for j in text:
            row[j] = "0"  # a placeholder the second pass overwrites
        try:
            values.extend(map(float, row))
        except ValueError:
            del values[(len(codes) - 1) * len(names):]
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    text.append(j)
                    row[j] = "0"
            values.extend(map(float, row))
    if not codes:
        raise DataError(f"{path}: no data rows below the header")
    features = np.frombuffer(values, dtype=np.float64).reshape(len(codes), len(names))

    encoded = {}
    if text:
        text.sort()
        columns = [(array("q"), {}) for _ in text]
        reason = f"column {names[text[0]]!r} is not numeric; label-encoding it needs a second read"
        for _, row in _second_pass(f, path, header, len(codes), reason):
            del row[label_idx]
            for (column, ids), j in zip(columns, text):
                column.append(ids.setdefault(row[j], len(ids)))
        for (column, ids), j in zip(columns, text):
            features[:, j], categories = _lexicographic(column, ids)
            encoded[names[j]] = len(categories)

    finite = np.isfinite(features)
    if not finite.all():
        j = int(np.flatnonzero(~finite.all(axis=0))[0])
        r = int(np.flatnonzero(~finite[:, j])[0])
        reason = f"column {names[j]!r} holds a non-finite value; naming its line needs a second read"
        line, row = next(islice(_second_pass(f, path, header, len(codes), reason), r, None))
        raise DataError(f"{path}:{line}: non-finite value {row[j + (j >= label_idx)]!r} "
                        f"in column {names[j]!r}")

    labels, class_names = _lexicographic(codes, label_ids)
    return Dataset(features, labels, class_names, names, encoded)


def _lexicographic(codes: array, ids: Dict[str, int]) -> Tuple[np.ndarray, List[str]]:
    """Renumber first-seen codes in lexicographic order: (indices, sorted names).

    `ids` maps each distinct cell to its code, the order it first appeared.
    """
    names = sorted(ids)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[ids[name] for name in names]] = np.arange(len(names))
    return rank[np.frombuffer(codes, dtype=np.int64)], names


def _fail(reader, message: str):
    """Raise `message`, unless the rest of the file fails to read first."""
    for _ in reader:
        pass
    raise DataError(message)


def _rewind(f, path: Path, reason: str) -> None:
    if not f.seekable():
        raise DataError(f"{path}: {reason}, and the input cannot be read twice")
    f.seek(0)


def _second_pass(f, path: Path, header: List[str], n_rows: int, reason: str):
    """(line, row) for each data row again, from a file that must not have changed."""
    _rewind(f, path, reason)
    reader = csv.reader(f)
    changed = DataError(f"{path}: changed while it was read")
    if next(reader, None) != header:
        raise changed
    n = 0
    for row in reader:
        if len(row) != len(header):
            raise changed
        yield reader.line_num, row
        n += 1
    if n != n_rows:
        raise changed


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
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"need an integer seed >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    block = max(1, n_features // n_classes)
    width = len(str(n_classes - 1))
    class_names = [f"svc-{c:0{width}d}" for c in range(n_classes)]
    width = len(str(n_features - 1))
    feature_names = [f"f{j:0{width}d}" for j in range(n_features)]
    features = rng.normal(0.0, 1.0, size=(n_classes * per_class, n_features))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    for c in range(n_classes):
        cols = np.arange(c * block, c * block + block) % n_features
        rows = np.flatnonzero(labels == c)
        features[np.ix_(rows, cols)] += 2.5
    return Dataset(features, labels, class_names, feature_names)

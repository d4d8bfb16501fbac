"""The whole-file CSV loader, kept as the oracle the streaming loader is checked against.

`load_csv_dataset` below is the loader as it stood before reading became a
stream: it decodes the whole file, keeps every row as a list of cell
strings and parses one column at a time.  It shares only `Dataset`,
`DataError` and `encode_labels` with `tdntc.datapipe`, so the streaming
loader must reproduce its features, labels and class names bit for bit,
and its errors message for message.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from tdntc.datapipe import DataError, Dataset, encode_labels


def load_csv_dataset(path, label_column: str = "label") -> Dataset:
    """Load a rectangular, headered CSV of one flow per row.

    Columns other than the label are features; a column where every cell
    parses as a number is taken numerically, otherwise its distinct values
    are label-encoded lexicographically (the same rule the label column
    itself uses).  A numeric column may not hold nan or inf, and no two
    columns may share a name.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    rows, lines = [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            rows.append(row)
            lines.append(reader.line_num)  # a quoted cell may span lines
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows.pop(0)
    del lines[0]
    if len(set(header)) < len(header):
        name = next(name for i, name in enumerate(header) if name in header[:i])
        raise DataError(f"{path}: column {name!r} repeats in the header")
    if label_column not in header:
        raise DataError(f"{path}: no {label_column!r} column in header {header}")
    if len(header) < 2:
        raise DataError(f"{path}: no feature column besides {label_column!r}")
    if not rows:
        raise DataError(f"{path}: no data rows below the header")
    width = len(header)
    for line, row in zip(lines, rows):
        if len(row) != width:
            raise DataError(f"{path}:{line}: expected {width} cells, found {len(row)}")
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
            raise DataError(f"{path}:{lines[bad[0]]}: non-finite value {cells[bad[0]]!r} "
                            f"in column {header[i]!r}")
        columns.append(column)
    features = np.column_stack(columns)
    labels, class_names = encode_labels(labels_raw)
    return Dataset(features, labels, class_names)

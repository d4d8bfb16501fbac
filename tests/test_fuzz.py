"""Property tests: malformed pcap, checkpoint and CSV input ends in a typed error.

Each test starts from a valid input, damages it at random and feeds it to
the loader.  The loader may accept the input or raise one of the errors
`tdntc.cli.main` reports as `error: ...`; any other exception is a bug.
Examples are drawn deterministically, so the suite stays reproducible.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_builder as pb
from tdntc import datapipe, models, trainer
from tdntc.cli import mapped_errors
from tdntc.flowcap import parse_pcap_bytes

MAPPED = mapped_errors()
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def overwrite(data: bytes, edits) -> bytes:
    """Apply (position, byte) overwrites; positions wrap around the length."""
    out = bytearray(data)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


byte_edits = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)),
                      min_size=1, max_size=3)


# ---------------------------------------------------------------------------
# pcap

CAPTURE = pb.capture([
    (0, 0, pb.udp("10.0.0.1", 1000, "10.0.0.2", 53, payload_len=4)),
    (0, 10, pb.tcp("10.0.0.2", 53, "10.0.0.1", 1000, payload_len=9)),
    (1, 0, pb.raw_ethernet(0x86DD, b"\x60" + b"\x00" * 39)),
    (1, 5, pb.ethernet_ipv4("10.0.0.3", "10.0.0.4", 17, 7, 8, frag=0x2000)),
    (2, 0, pb.ethernet_ipv4("10.0.0.3", "10.0.0.4", 1, 0, 0, b"\x08" * 8)),
    (2, 9, pb.udp("10.0.0.1", 1000, "10.0.0.2", 53, payload_len=2, options=b"\x01" * 4)),
])


@FUZZ
@given(edits=byte_edits, cut=st.integers(0, 64))
def test_parse_pcap_bytes_on_damaged_capture(edits, cut):
    data = overwrite(CAPTURE, edits)
    data = data[:len(data) - cut]
    try:
        parsed = parse_pcap_bytes(data)
    except MAPPED:
        return
    # An accepted packet's ports lie inside its datagram.
    if len(parsed.packets):
        assert min(parsed.packets.payload_len) >= 4
    assert all(count >= 0 for count in parsed.skipped.values())


# ---------------------------------------------------------------------------
# checkpoints

@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    cfg = models.ModelConfig("m1-van", 12, 3, units=4, kernel=(3, 2), td_units=4, seed=1)
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    trainer.save_checkpoint(models.build_model(cfg), path,
                            scaler=datapipe.ScalerState(np.zeros(12), np.ones(12)),
                            class_names=["a", "b", "c"])
    return path, path.read_bytes()


def split_checkpoint(raw: bytes):
    start = len(trainer.CHECKPOINT_MAGIC) + 4
    (meta_len,) = struct.unpack_from("<I", raw, len(trainer.CHECKPOINT_MAGIC))
    return json.loads(raw[start:start + meta_len]), raw[start + meta_len:]


def join_checkpoint(meta, payload: bytes) -> bytes:
    text = json.dumps(meta).encode()
    return trainer.CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + payload


def value_paths(node, prefix=()):
    """Every key/index path into a JSON document."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from value_paths(child, prefix + (key,))


def replace_at(node, path, value):
    if not path:
        return value
    node[path[0]] = replace_at(node[path[0]], path[1:], value)
    return node


# Integers reach far beyond any real layer width: load_checkpoint sizes every
# tensor from model_config before it allocates the model.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 48) | st.integers(-3, 1 << 40)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def load_or_typed_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        graph, _, _ = trainer.load_checkpoint(path)
    except MAPPED:
        return
    assert isinstance(graph, models.ModelGraph)


@FUZZ
@given(data=st.data(), value=json_values)
def test_load_checkpoint_on_altered_metadata(checkpoint, data, value):
    path, raw = checkpoint
    meta, payload = split_checkpoint(raw)
    where = data.draw(st.sampled_from(sorted(value_paths(meta), key=repr)))
    load_or_typed_error(path, join_checkpoint(replace_at(meta, where, value), payload))


@FUZZ
@given(edits=byte_edits, cut=st.integers(0, 24))
def test_load_checkpoint_on_damaged_bytes(checkpoint, edits, cut):
    path, raw = checkpoint
    data = overwrite(raw, edits)
    load_or_typed_error(path, data[:len(data) - cut])


# ---------------------------------------------------------------------------
# CSV

CSV_ROWS = [["f0", "proto", "label"], ["1", "udp", "a"], ["2.5", "tcp", "b"],
            ["3", "udp", "a"], ["4", "tcp", "b"]]
cells = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "flows.csv"


@FUZZ
@given(changes=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), cells),
                        min_size=1, max_size=4))
def test_load_csv_dataset_on_random_cell_text(csv_path, changes):
    rows = [list(row) for row in CSV_ROWS]
    for r, c, text in changes:
        rows[r][c] = text
    csv_path.write_text("\n".join(",".join(row) for row in rows) + "\n",
                        encoding="utf-8")
    try:
        ds = datapipe.load_csv_dataset(csv_path)
    except MAPPED:
        return
    assert np.isfinite(ds.features).all()


@FUZZ
@given(edits=byte_edits)
def test_load_csv_dataset_on_damaged_bytes(csv_path, edits):
    text = "\n".join(",".join(row) for row in CSV_ROWS) + "\n"
    csv_path.write_bytes(overwrite(text.encode(), edits))
    try:
        datapipe.load_csv_dataset(csv_path)
    except MAPPED:
        pass

"""Property tests: malformed pcap, checkpoint and CSV input ends in a typed error.

Each test starts from a valid input, damages it at random and feeds it to
the loader.  The loader may accept the input or raise one of the errors
`tdntc.cli.main` reports as `error: ...`; any other exception is a bug.
The pcap parser must also agree with a naive per-record decoder written
here, packet for packet and error for error, and flow assembly plus
featurizing with a naive featurizer over per-flow lists, value for value.
Examples are drawn deterministically, so the suite stays reproducible.
"""

import json
import struct
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_builder as pb
from tdntc import datapipe, flowcap, models, trainer
from tdntc.cli import mapped_errors
from tdntc.flowcap import FlowStats, PcapFormatError, PcapParseError, parse_pcap_bytes

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
        assert min(row[1] for row in pb.packet_rows(parsed.packets)) >= 4
    assert all(count >= 0 for count in parsed.skipped.values())


def reference_frame(frame: bytes):
    """A skip kind, or the (payload_len, protocol, src, dst, sport, dport) of a kept frame."""
    if len(frame) < 14:
        return "truncated"
    ethertype = int.from_bytes(frame[12:14], "big")
    if ethertype == 0x86DD:
        return "ipv6"
    if ethertype != 0x0800:
        return "non_ip"
    ip = frame[14:]
    if len(ip) < 20:
        return "truncated"
    if ip[0] >> 4 != 4:
        return "non_ip"
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20:
        return "truncated"
    total_len = int.from_bytes(ip[2:4], "big")
    if int.from_bytes(ip[6:8], "big") & 0x3FFF:
        return "fragmented"
    if ip[9] not in (6, 17):
        return "non_tcp_udp"
    if len(ip) < ihl + 4 or total_len < ihl + 4:
        return "truncated"
    return (total_len - ihl, ip[9], int.from_bytes(ip[12:16], "big"),
            int.from_bytes(ip[16:20], "big"), int.from_bytes(ip[ihl:ihl + 2], "big"),
            int.from_bytes(ip[ihl + 2:ihl + 4], "big"))


def reference_parse(data: bytes):
    """Decode a whole capture one record at a time by slicing: (packet rows, skipped).

    Raises the parser's errors with its messages and absolute byte offsets.
    """
    if len(data) < 24:
        raise PcapFormatError("file too short for a pcap global header")
    endian = ">" if data[:4] in (b"\xa1\xb2\xc3\xd4", b"\xa1\xb2\x3c\x4d") else "<"
    magic, linktype = struct.unpack(endian + "I16xI", data[:24])
    if magic not in (pb.MAGIC_USEC, pb.MAGIC_NSEC):
        raise PcapFormatError(f"bad pcap magic 0x{int.from_bytes(data[:4], 'big'):08X}")
    if linktype != 1:
        raise PcapFormatError(f"unsupported link type {linktype}; expected Ethernet")
    tick = 1e-9 if magic == pb.MAGIC_NSEC else 1e-6
    rows = []
    skipped = dict.fromkeys(("non_ip", "ipv6", "fragmented", "non_tcp_udp", "truncated"), 0)
    pos = 24
    while pos < len(data):
        if pos + 16 > len(data):
            raise PcapParseError(f"truncated record header at byte {pos}")
        sec, frac, incl_len, _ = struct.unpack(endian + "IIII", data[pos:pos + 16])
        frame = data[pos + 16:pos + 16 + incl_len]
        if len(frame) < incl_len:
            raise PcapParseError(f"truncated packet data at byte {pos + 16}")
        pos += 16 + incl_len
        kept = reference_frame(frame)
        if isinstance(kept, str):
            skipped[kept] += 1
            continue
        rows.append((sec + frac * tick, *kept))
    return rows, skipped


def tcp_udp_frame(make, src, sport, dst, dport, size, words, total_len):
    """A TCP or UDP frame; a total_len other than None overwrites the IPv4 total length."""
    frame = make(src, sport, dst, dport, payload_len=size, options=b"\x01" * 4 * words)
    return frame if total_len is None else pb.with_total_length(frame, total_len)


# Frames of every kind the parser meets, with values up to each field's limit.
addresses = st.one_of(st.sampled_from([0, 1 << 31, (1 << 31) + 1, (1 << 32) - 1]),
                      st.integers(0, (1 << 32) - 1)).map(
    lambda n: ".".join(str(n >> shift & 255) for shift in (24, 16, 8, 0)))
ports = st.integers(0, 65535)
frames = st.one_of(
    st.builds(tcp_udp_frame, st.sampled_from([pb.udp, pb.tcp]), addresses, ports, addresses,
              ports, st.integers(0, 1600), st.sampled_from([0, 0, 1, 10]),
              st.one_of(st.none(), st.sampled_from([23, 24, 27, 28, 65535]),
                        st.integers(0, 65535))),
    st.builds(pb.ethernet_ipv4, addresses, addresses, st.sampled_from([1, 6, 17, 47]),
              ports, ports, frag=st.sampled_from([0, 0x2000, 0x4000, 0x0010])),
    st.builds(pb.raw_ethernet, st.sampled_from([0x0800, 0x0806, 0x86DD]),
              st.binary(max_size=64)),
    st.binary(max_size=40),
)
records = st.lists(st.tuples(st.integers(0, 1 << 31), st.integers(0, 999_999), frames),
                   min_size=1, max_size=16)


@FUZZ
@given(packets=records, endian=st.sampled_from("<>"), nanos=st.booleans(),
       edits=st.one_of(st.just([]), byte_edits), cut=st.one_of(st.just(0), st.integers(1, 64)),
       buffer_bytes=st.sampled_from([94, 95, 128, 1 << 20]))
def test_parse_pcap_bytes_matches_a_per_record_reference(packets, endian, nanos, edits, cut,
                                                         buffer_bytes):
    data = overwrite(pb.capture(packets, endian=endian, nanos=nanos), edits)
    data = data[:len(data) - cut]
    try:
        expected = reference_parse(data)
    except MAPPED as err:
        expected = err
    with mock.patch.object(flowcap, "_BUFFER_BYTES", buffer_bytes):
        try:
            parsed = parse_pcap_bytes(data)
        except MAPPED as err:
            assert (type(err), str(err)) == (type(expected), str(expected))
            return
    assert not isinstance(expected, Exception), f"expected {expected!r}"
    rows, skipped = expected
    assert pb.packet_rows(parsed.packets) == rows
    assert parsed.skipped == skipped


# ---------------------------------------------------------------------------
# flow statistics

def reference_gaps(times):
    """Shortest, mean and longest gap between consecutive times, summed left to right."""
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    if not gaps:
        return 0.0, 0.0, 0.0
    total = 0.0
    for gap in gaps:
        total += gap
    return min(gaps), total / len(gaps), max(gaps)


def reference_flow_stats(packets, idle_timeout):
    """Each flow's initiator and statistics, from a stable sort by time, per-flow
    packet lists and plain sums."""
    rows = pb.packet_rows(packets)
    flows, open_flows = [], {}
    for i in sorted(range(len(rows)), key=lambda i: rows[i][0]):
        t, size, protocol, src, dst, sport, dport = rows[i]
        a, b = (src, sport), (dst, dport)
        canonical = (min(a, b), max(a, b), protocol)
        flow = open_flows.get(canonical)
        if flow is None or t - flow[-1][0] > idle_timeout:
            flow = open_flows[canonical] = []
            flows.append(flow)
        flow.append((t, size, a, i))
    initiators, stats = [], []
    for flow in flows:
        first, initiator = flow[0][3], flow[0][2]
        initiators.append(initiator[0] << 16 | initiator[1])
        times = [t for t, _, _, _ in flow]
        lengths = [n for _, n, _, _ in flow]
        fwd = [(t, n) for t, n, end, _ in flow if end == initiator]
        rev = [(t, n) for t, n, end, _ in flow if end != initiator]
        iat = reference_gaps(times)
        fwd_iat, rev_iat = (reference_gaps([t for t, _ in side]) for side in (fwd, rev))
        stats.append(FlowStats(
            src_port=rows[first][5], dst_port=rows[first][6],
            protocol=rows[first][2], duration=times[-1] - times[0],
            fwd_packets=len(fwd), rev_packets=len(rev),
            fwd_bytes=sum(n for _, n in fwd), rev_bytes=sum(n for _, n in rev),
            iat_min=iat[0], iat_mean=iat[1], iat_max=iat[2],
            fwd_iat_min=fwd_iat[0], fwd_iat_mean=fwd_iat[1], fwd_iat_max=fwd_iat[2],
            rev_iat_min=rev_iat[0], rev_iat_mean=rev_iat[1], rev_iat_max=rev_iat[2],
            pkt_len_min=min(lengths), pkt_len_mean=sum(lengths) / len(lengths),
            pkt_len_max=max(lengths)))
    return initiators, stats


# Three hosts whose dotted and numeric orders differ and two ports give
# endpoints that meet in both directions.  Gaps in microseconds fall on
# both sides of a 1 s or 2 s idle timeout, and a packet written up to 3 s
# early lands out of time order or on another packet's timestamp.
endpoints = st.tuples(st.sampled_from([0x0A000002, 0x0A00000A, 0xC0A80107]),
                      st.sampled_from([53, 1000]))
gaps_us = st.one_of(st.sampled_from([0, 0, 1, 999_999, 1_000_000, 1_000_001, 2_000_000,
                                     2_000_001]),
                    st.integers(0, 3_000_000))
flow_rows = st.lists(st.tuples(gaps_us, st.one_of(st.just(0), st.integers(0, 3_000_000)),
                               endpoints, endpoints, st.sampled_from([6, 17]),
                               st.integers(24, 65535)),
                     min_size=1, max_size=40)


@FUZZ
@given(rows=flow_rows, idle_timeout=st.sampled_from([0.0, 1.0, 2.0, 60.0]))
def test_flow_stats_match_a_per_flow_list_reference(rows, idle_timeout):
    packets = flowcap.Packets(array("d"), bytearray())
    t = 5_000_000
    for gap, early, (src, sport), (dst, dport), protocol, total_len in rows:
        t += gap
        sec, usec = divmod(t - early, 1_000_000)
        packets.timestamp.append(sec + usec * 1e-6)
        packets.heads += flowcap._HEAD.pack(total_len, protocol, src, dst, sport, dport)
    flows = flowcap.assemble_flows(packets, idle_timeout=idle_timeout)
    initiators, stats = reference_flow_stats(packets, idle_timeout)
    assert [flow.initiator for flow in flows] == initiators
    assert list(map(repr, flowcap.featurize_flows(flows))) == list(map(repr, stats))


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

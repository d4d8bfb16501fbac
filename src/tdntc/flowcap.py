"""Classic-pcap parsing, bidirectional flow assembly, and flow statistics.

Stands in for the external flow-metering tool in the pipeline: it reads a
capture, groups IPv4 TCP/UDP packets into bidirectional 5-tuple flows with
an idle timeout, and emits one CSV row of statistical features per flow.
Every feature is a one-pass aggregate, so assembly keeps running counts,
sums and extremes per flow rather than the flow's packets.

The parser builds no object per packet.  A parsed packet is its timestamp
plus its 24-byte head (the IPv4 header through the ports, in `_HEAD`
layout), about 33 bytes a packet where one typed column per field took
about 25; assembly unpacks the heads as it walks them.  The module
imports no numpy, because `tdntc featurize` loads only this module and
the CLI, and importing numpy would more than double its start-up time.

The capture is read sequentially through one reused buffer of
`_BUFFER_BYTES`, never whole and never with a seek, so memory follows the
packets kept rather than the size of the file, and a pipe such as
/dev/stdin works as the input.

File format: classic pcap only (magic 0xA1B2C3D4, byte-swapped and
nanosecond variants included), Ethernet link layer.  pcapng and live
capture are out of scope.
"""

from __future__ import annotations

import io
import struct
from array import array
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import BinaryIO, Dict, List, NamedTuple, Optional, Tuple

MAGIC_USEC = 0xA1B2C3D4
MAGIC_NSEC = 0xA1B23C4D
LINKTYPE_ETHERNET = 1
SKIP_KINDS = ("non_ip", "ipv6", "fragmented", "non_tcp_udp", "truncated")

class PcapFormatError(ValueError):
    """Raised when a file is not a classic pcap this parser understands."""


class PcapParseError(ValueError):
    """Raised when a capture is structurally damaged; carries a byte offset."""


@dataclass
class Packets:
    """Parsed IPv4 TCP/UDP packets in file order: a timestamp and a 24-byte head each.

    `timestamp` is a `d` array and `heads` the packets' heads in `_HEAD`
    layout: about 33 bytes a packet, where one typed column per field took
    about 25.  A packet's payload_len, its total length less the 20-byte
    IP header, is the transport header plus application data.
    """

    timestamp: array
    heads: bytearray

    def __len__(self) -> int:
        return len(self.timestamp)


@dataclass
class ParsedCapture:
    """Parse result: packets in file order plus skip counters."""

    packets: Packets
    skipped: Dict[str, int]

    @property
    def records(self) -> int:
        """Records read: every one is either a parsed packet or a counted skip."""
        return len(self.packets) + sum(self.skipped.values())


class Flow:
    """One flow's running aggregates, updated packet by packet in time order.

    `initiator` is the endpoint (ip << 16 | port) that sent the first packet,
    whose time is `first` and whose (src_port, dst_port, protocol) is `head`.
    `len_min` and `len_max` are the shortest and longest payload_len.
    `fwd` and `rev` are the initiator's and the responder's sides: [packets,
    bytes, last time, shortest gap, longest gap, gap sum], where a gap is the
    time since the side's previous packet.  `both` is [last time, shortest
    gap, longest gap, gap sum] over all packets, whose counts are fwd + rev.
    """

    __slots__ = ("head", "initiator", "first", "len_min", "len_max", "both", "fwd", "rev")

    def __init__(self, head: tuple, initiator: int, first: float, length: int) -> None:
        self.head, self.initiator, self.first = head, initiator, first
        self.len_min = self.len_max = length
        self.both = [first, float("inf"), 0.0, 0.0]
        self.fwd = [1, length, first, float("inf"), 0.0, 0.0]
        self.rev = [0, 0, 0.0, float("inf"), 0.0, 0.0]


class FlowStats(NamedTuple):
    """A flow's 20 statistical features in CSV column order: its CSV row."""

    src_port: int
    dst_port: int
    protocol: int
    duration: float
    fwd_packets: int
    rev_packets: int
    fwd_bytes: int
    rev_bytes: int
    iat_min: float
    iat_mean: float
    iat_max: float
    fwd_iat_min: float
    fwd_iat_mean: float
    fwd_iat_max: float
    rev_iat_min: float
    rev_iat_mean: float
    rev_iat_max: float
    pkt_len_min: int
    pkt_len_mean: float
    pkt_len_max: int


# Column order of the emitted feature vector.  The label column is appended
# by the CSV writer, and optional zero padding extends the row to a fixed
# width for shape parity with wider feature sets.
FEATURE_COLUMNS = list(FlowStats._fields)


# Ethertype, version/IHL, total length, flags/fragment offset and protocol
# of an Ethernet frame: the fields that accept an option-free IPv4 TCP/UDP one.
_PLAIN_FRAME = struct.Struct(">12xHBxH2xHxB")

# The kept head of a packet: an option-free IPv4 header followed by the
# ports, as frame bytes [14, 38) hold it.  The parser packs it and
# `assemble_flows` unpacks it; payload_len is the total length less 20.
_HEAD = struct.Struct(">2xH5xB2xIIHH")

# A record header plus every frame byte a check reads: 14 Ethernet, up to
# 60 IPv4 with options, and the 4 port bytes.
_RECORD_HEAD = 16 + 78
# Size of the one buffer a capture is read through; at least _RECORD_HEAD.
_BUFFER_BYTES = 1 << 20


def parse_pcap_bytes(data: bytes) -> ParsedCapture:
    """Decode classic pcap bytes into packets.

    Non-IP, IPv6, fragmented, and non-TCP/UDP packets are counted and
    skipped, as are packets whose captured slice is too short to carry the
    headers; an IPv4 header whose IHL is below 5 (shorter than the fixed
    20 bytes), or whose total length leaves no room for the four port
    bytes after the header, counts as truncated.  A record header that
    runs past end-of-file is a hard error.
    """
    return _parse_stream(io.BytesIO(data))


def _parse_stream(stream: BinaryIO) -> ParsedCapture:
    """The one decode loop behind `parse_pcap` and `parse_pcap_bytes`.

    It reads the stream front to back with `readinto` through one reused
    buffer and never seeks, so its memory does not grow with the capture
    and pipes work.  A read that returns no bytes is end-of-file; an error
    names the absolute byte offset of the record it cuts.
    """
    readinto = stream.readinto
    buf = bytearray(_BUFFER_BYTES)
    view = memoryview(buf)
    filled = _fill(readinto, view)
    if filled < 24:
        raise PcapFormatError("file too short for a pcap global header")
    magic_be = struct.unpack_from(">I", buf)[0]
    endian = ">" if magic_be in (MAGIC_USEC, MAGIC_NSEC) else "<"
    magic, linktype = struct.unpack_from(endian + "I16xI", buf)
    if magic not in (MAGIC_USEC, MAGIC_NSEC):
        raise PcapFormatError(f"bad pcap magic 0x{magic_be:08X}")
    if linktype != LINKTYPE_ETHERNET:
        raise PcapFormatError(f"unsupported link type {linktype}; expected Ethernet")
    tick = 1e-9 if magic == MAGIC_NSEC else 1e-6

    times = array("d")
    add_time = times.append
    # The 24 bytes from the IPv4 header's start through the ports of every
    # accepted frame, in network order: the `_HEAD` layout.
    heads = bytearray()
    skipped = dict.fromkeys(SKIP_KINDS, 0)
    record_header = struct.Struct(endian + "IIII").unpack_from
    plain_frame = _PLAIN_FRAME.unpack_from
    pack_head = _HEAD.pack
    # buf[:filled] holds the file's bytes from offset `base` on.  Before
    # end-of-file a record is decoded only when its header and the frame
    # bytes any check reads lie in the buffer; at end-of-file the buffer
    # holds the rest of the file, and the record header alone must fit.
    eof = filled < len(buf)
    base, offset = 0, 24
    limit = filled - (16 if eof else _RECORD_HEAD)
    while True:
        if offset > limit:
            if eof:
                if offset == filled:
                    break
                raise PcapParseError(f"truncated record header at byte {base + offset}")
            if offset > filled:
                # The last record ran past the buffer: read past its tail.
                rest = offset - filled
                while rest:
                    got = readinto(view[:min(rest, len(buf))])
                    if not got:
                        raise PcapParseError(f"truncated packet data at byte {base + start}")
                    rest -= got
                filled = offset
            buf[:filled - offset] = buf[offset:filled]
            base, filled, offset = base + offset, filled - offset, 0
            filled += _fill(readinto, view[filled:])
            eof = filled < len(buf)
            limit = filled - (16 if eof else _RECORD_HEAD)
            continue
        ts_sec, ts_frac, incl_len, _orig_len = record_header(buf, offset)
        start = offset + 16
        offset = start + incl_len
        if offset > filled and eof:
            raise PcapParseError(f"truncated packet data at byte {base + start}")
        # One unpack accepts the common frame, whose head bytes are already
        # in the kept layout; _skip_kind would keep it too.
        if incl_len >= 38:
            ethertype, version_ihl, total_len, flags_frag, protocol = plain_frame(buf, start)
        if (incl_len >= 38 and ethertype == 0x0800 and version_ihl == 0x45
                and not flags_frag & 0x3FFF and (protocol == 6 or protocol == 17)
                and total_len >= 24):
            heads += buf[start + 14:start + 38]
        else:
            kind = _skip_kind(buf, start, incl_len)
            if kind is not None:
                skipped[kind] += 1
                continue
            # IP options: pack the option-free head of the same payload length.
            ihl = (buf[start + 14] & 0x0F) * 4
            total_len, protocol, src, dst = struct.unpack_from(">2xH5xB2xII", buf, start + 14)
            sport, dport = struct.unpack_from(">HH", buf, start + 14 + ihl)
            heads += pack_head(total_len - ihl + 20, protocol, src, dst, sport, dport)
        add_time(ts_sec + ts_frac * tick)
    return ParsedCapture(Packets(times, heads), skipped)


def _fill(readinto, view: memoryview) -> int:
    """Read into `view` until it is full or a read returns no bytes; the count read."""
    filled = 0
    while filled < len(view):
        got = readinto(view[filled:])
        if not got:
            break
        filled += got
    return filled


def _skip_kind(data: bytes, start: int, length: int) -> Optional[str]:
    """The skip counter for the `length`-byte frame at data[start], or None to keep it.

    This ladder alone decides skip kinds; its order settles a frame that fails two checks.
    """
    if length < 14:
        return "truncated"
    ethertype = data[start + 12] << 8 | data[start + 13]
    if ethertype == 0x86DD:
        return "ipv6"
    if ethertype != 0x0800:
        return "non_ip"
    if length - 14 < 20:
        return "truncated"
    version_ihl = data[start + 14]
    if version_ihl >> 4 != 4:
        return "non_ip"
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20:
        # Below 5 words the "ports" would be read from inside the IP header.
        return "truncated"
    total_len, _, flags_frag = struct.unpack_from(">HHH", data, start + 16)
    if flags_frag & 0x2000 or flags_frag & 0x1FFF:
        return "fragmented"
    if data[start + 23] not in (6, 17):
        return "non_tcp_udp"
    if length - 14 < ihl + 4 or total_len < ihl + 4:
        # The ports would lie beyond the captured slice or the datagram.
        return "truncated"
    return None


def parse_pcap(path) -> ParsedCapture:
    """Parse the classic pcap at `path`, a file or a pipe such as /dev/stdin."""
    with open(path, "rb", buffering=0) as stream:
        return _parse_stream(stream)


def assemble_flows(packets: Packets, idle_timeout: float = 60.0) -> List[Flow]:
    """Group packets into bidirectional flows, each kept as running aggregates.

    Packets are taken in timestamp order: a capture in order is walked as
    it is, any other through a stable sort, so equal timestamps keep file
    order.  Packets share a flow when their canonical 5-tuple matches and
    the gap since the flow's previous packet does not exceed idle_timeout;
    a larger gap closes the flow and starts a new one.  Each packet's
    direction is set relative to the flow's first packet (the initiator).
    A packet updates its flow's `both` side and the side of its direction;
    gap sums grow left to right from 0.0, never through sum(), whose float
    result is compensated from CPython 3.12 on, so the CSV bytes do not
    depend on the interpreter.
    """
    ts, heads = packets.timestamp, packets.heads
    rows = zip(ts, _HEAD.iter_unpack(heads))
    if not all(map(le, ts, islice(ts, 1, None))):
        unpack = _HEAD.unpack_from
        rows = ((ts[i], unpack(heads, 24 * i)) for i in sorted(range(len(ts)), key=ts.__getitem__))
    flows: List[Flow] = []
    # Canonical key -> the open flow, where an endpoint is ip << 16 | port.
    open_flows: Dict[tuple, Flow] = {}
    for t, (total_len, proto, src, dst, sport, dport) in rows:
        n = total_len - 20
        a = src << 16 | sport
        b = dst << 16 | dport
        gk = (a, b, proto) if a <= b else (b, a, proto)
        flow = open_flows.get(gk)
        if flow is None or t - flow.both[0] > idle_timeout:
            flow = open_flows[gk] = Flow((sport, dport, proto), a, t, n)
            flows.append(flow)
            continue
        if n < flow.len_min:
            flow.len_min = n
        elif n > flow.len_max:
            flow.len_max = n
        both = flow.both
        gap = t - both[0]
        if gap < both[1]:
            both[1] = gap
        if gap > both[2]:
            both[2] = gap
        both[3] += gap
        both[0] = t
        side = flow.fwd if a == flow.initiator else flow.rev
        if side[0]:
            gap = t - side[2]
            if gap < side[3]:
                side[3] = gap
            if gap > side[4]:
                side[4] = gap
            side[5] += gap
        side[0] += 1
        side[1] += n
        side[2] = t
    return flows


def _iat_stats(packets: int, gaps: list) -> Tuple[float, float, float]:
    """(shortest, mean, longest) gap from [shortest, longest, sum]; zeros below two packets."""
    shortest, longest, total = gaps
    return (shortest, total / (packets - 1), longest) if packets > 1 else (0.0, 0.0, 0.0)


def featurize_flows(flows: List[Flow]) -> List[FlowStats]:
    """Compute the 20-feature statistics row for every assembled flow."""
    stats = []
    for flow in flows:
        both, fwd, rev = flow.both, flow.fwd, flow.rev
        n = fwd[0] + rev[0]
        stats.append(FlowStats(
            *flow.head, both[0] - flow.first, fwd[0], rev[0], fwd[1], rev[1],
            *_iat_stats(n, both[1:]), *_iat_stats(fwd[0], fwd[3:]), *_iat_stats(rev[0], rev[3:]),
            flow.len_min, (fwd[1] + rev[1]) / n, flow.len_max,
        ))
    return stats


def write_flow_csv(stats: List[FlowStats], path, label: str,
                   pad_to: int | None = None) -> None:
    """Write the header and one CSV line per flow to `path`, each ended by a newline.

    The columns are zero-padded to pad_to when it is given.
    """
    n_pad = 0
    if pad_to is not None:
        if pad_to < len(FEATURE_COLUMNS):
            raise ValueError(
                f"pad_to={pad_to} below the {len(FEATURE_COLUMNS)} native features")
        n_pad = pad_to - len(FEATURE_COLUMNS)
    if any(ch in label for ch in ',"\r\n'):  # quoted as the csv module quotes a cell
        label = '"' + label.replace('"', '""') + '"'
    header = FEATURE_COLUMNS + [f"pad_{i:02d}" for i in range(n_pad)] + ["label"]
    tail = ",".join([""] + ["0"] * n_pad + [label]) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        # repr() gives an int's decimal form and a float's shortest round-trip
        # form, so identical inputs always serialize to identical bytes.
        out.writelines(",".join(map(repr, row)) + tail for row in stats)

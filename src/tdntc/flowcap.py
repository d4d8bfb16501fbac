"""Classic-pcap parsing, bidirectional flow assembly, and flow statistics.

Stands in for the external flow-metering tool in the pipeline: it reads a
capture, groups IPv4 TCP/UDP packets into bidirectional 5-tuple flows with
an idle timeout, and emits one CSV row of statistical features per flow.

File format: classic pcap only (magic 0xA1B2C3D4, byte-swapped and
nanosecond variants included), Ethernet link layer.  pcapng and live
capture are out of scope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

MAGIC_USEC = 0xA1B2C3D4
MAGIC_NSEC = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

FORWARD = "forward"
REVERSE = "reverse"

# Column order of the emitted feature vector.  The label column is appended
# by the CSV writer, and optional zero padding extends the row to a fixed
# width for shape parity with wider feature sets.
FEATURE_COLUMNS = [
    "src_port", "dst_port", "protocol",
    "duration",
    "fwd_packets", "rev_packets",
    "fwd_bytes", "rev_bytes",
    "iat_min", "iat_mean", "iat_max",
    "fwd_iat_min", "fwd_iat_mean", "fwd_iat_max",
    "rev_iat_min", "rev_iat_mean", "rev_iat_max",
    "pkt_len_min", "pkt_len_mean", "pkt_len_max",
]


class PcapFormatError(ValueError):
    """Raised when a file is not a classic pcap this parser understands."""


class PcapParseError(ValueError):
    """Raised when a capture is structurally damaged; carries a byte offset."""


@dataclass
class PacketMeta:
    """One parsed IPv4 TCP/UDP packet.

    payload_len counts transport-layer bytes (IPv4 total length minus the IP
    header), i.e. the transport header plus application data.  direction is
    assigned during flow assembly, relative to the flow initiator.
    """

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    payload_len: int
    direction: Optional[str] = None


@dataclass(frozen=True)
class FlowKey:
    """Canonical 5-tuple oriented so the initiator side is forward."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int


@dataclass
class ParsedCapture:
    """Parse result: packets in file order plus skip counters."""

    packets: List[PacketMeta] = field(default_factory=list)
    skipped: Dict[str, int] = field(default_factory=lambda: {
        "non_ip": 0, "ipv6": 0, "fragmented": 0, "non_tcp_udp": 0, "truncated": 0,
    })

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped.values())


@dataclass
class FlowStats:
    """The 20 statistical features of one flow, plus first-seen metadata."""

    key: FlowKey
    first_seen: float
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

    def feature_values(self) -> list:
        return [getattr(self, name) for name in FEATURE_COLUMNS]


def _ip_str(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


def parse_pcap_bytes(data: bytes) -> ParsedCapture:
    """Decode classic pcap bytes into PacketMeta records.

    Non-IP, IPv6, fragmented, and non-TCP/UDP packets are counted and
    skipped, as are packets whose captured slice is too short to carry the
    headers; an IPv4 header whose IHL is below 5 (shorter than the fixed
    20 bytes), or whose total length leaves no room for the four port
    bytes after the header, counts as truncated.  A record header that
    runs past end-of-file is a hard error.
    """
    if len(data) < 24:
        raise PcapFormatError("file too short for a pcap global header")
    magic_be = struct.unpack(">I", data[:4])[0]
    magic_le = struct.unpack("<I", data[:4])[0]
    if magic_be in (MAGIC_USEC, MAGIC_NSEC):
        endian = ">"
        nanos = magic_be == MAGIC_NSEC
    elif magic_le in (MAGIC_USEC, MAGIC_NSEC):
        endian = "<"
        nanos = magic_le == MAGIC_NSEC
    else:
        raise PcapFormatError(f"bad pcap magic 0x{magic_be:08X}")
    linktype = struct.unpack(endian + "I", data[20:24])[0]
    if linktype != LINKTYPE_ETHERNET:
        raise PcapFormatError(f"unsupported link type {linktype}; expected Ethernet")
    tick = 1e-9 if nanos else 1e-6

    result = ParsedCapture()
    offset = 24
    rec_hdr = struct.Struct(endian + "IIII")
    while offset < len(data):
        if offset + 16 > len(data):
            raise PcapParseError(f"truncated record header at byte {offset}")
        ts_sec, ts_frac, incl_len, _orig_len = rec_hdr.unpack_from(data, offset)
        offset += 16
        if offset + incl_len > len(data):
            raise PcapParseError(f"truncated packet data at byte {offset}")
        frame = data[offset: offset + incl_len]
        offset += incl_len
        meta = _decode_frame(frame, ts_sec + ts_frac * tick, result.skipped)
        if meta is not None:
            result.packets.append(meta)
    return result


def _decode_frame(frame: bytes, timestamp: float, skipped: Dict[str, int]
                  ) -> Optional[PacketMeta]:
    if len(frame) < 14:
        skipped["truncated"] += 1
        return None
    ethertype = struct.unpack(">H", frame[12:14])[0]
    if ethertype == 0x86DD:
        skipped["ipv6"] += 1
        return None
    if ethertype != 0x0800:
        skipped["non_ip"] += 1
        return None
    ip = frame[14:]
    if len(ip) < 20:
        skipped["truncated"] += 1
        return None
    version_ihl = ip[0]
    if version_ihl >> 4 != 4:
        skipped["non_ip"] += 1
        return None
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20:
        # IHL below 5 words cannot hold the fixed header; the "ports" would
        # be read from inside the IP header itself.
        skipped["truncated"] += 1
        return None
    total_len = struct.unpack(">H", ip[2:4])[0]
    flags_frag = struct.unpack(">H", ip[6:8])[0]
    if flags_frag & 0x2000 or flags_frag & 0x1FFF:
        skipped["fragmented"] += 1
        return None
    protocol = ip[9]
    if protocol not in (6, 17):
        skipped["non_tcp_udp"] += 1
        return None
    if len(ip) < ihl + 4 or total_len < ihl + 4:
        # The ports would come from beyond the captured slice or beyond the
        # datagram's own total length.
        skipped["truncated"] += 1
        return None
    src_port, dst_port = struct.unpack(">HH", ip[ihl: ihl + 4])
    return PacketMeta(
        timestamp=timestamp,
        src_ip=_ip_str(ip[12:16]),
        dst_ip=_ip_str(ip[16:20]),
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        payload_len=total_len - ihl,
    )


def parse_pcap(path) -> ParsedCapture:
    """Parse a classic pcap file from disk."""
    return parse_pcap_bytes(Path(path).read_bytes())


def _grouping_key(pkt: PacketMeta) -> tuple:
    a = (pkt.src_ip, pkt.src_port)
    b = (pkt.dst_ip, pkt.dst_port)
    lo, hi = (a, b) if a <= b else (b, a)
    return (lo, hi, pkt.protocol)


def assemble_flows(packets: List[PacketMeta], idle_timeout: float = 60.0
                   ) -> List[Tuple[FlowKey, List[PacketMeta]]]:
    """Group packets into bidirectional flows.

    Packets are taken in timestamp order.  The sort is stable, so equal
    timestamps keep file order, and a capture written out of order gives
    the same flows as one written in order.  Packets share a flow when
    their canonical 5-tuple matches and the gap since the flow's previous
    packet does not exceed idle_timeout; a larger gap closes the flow and
    starts a new one.  Each packet's direction is set relative to the
    flow's first packet (the initiator).
    """
    flows: List[Tuple[FlowKey, List[PacketMeta]]] = []
    open_idx: Dict[tuple, int] = {}
    last_seen: Dict[tuple, float] = {}
    for pkt in sorted(packets, key=attrgetter("timestamp")):
        gk = _grouping_key(pkt)
        idx = open_idx.get(gk)
        if idx is None or pkt.timestamp - last_seen[gk] > idle_timeout:
            key = FlowKey(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port,
                          pkt.protocol)
            flows.append((key, []))
            idx = len(flows) - 1
            open_idx[gk] = idx
        key = flows[idx][0]
        forward = (pkt.src_ip, pkt.src_port) == (key.src_ip, key.src_port)
        pkt.direction = FORWARD if forward else REVERSE
        flows[idx][1].append(pkt)
        last_seen[gk] = pkt.timestamp
    return flows


def _iat_stats(timestamps: List[float]) -> Tuple[float, float, float]:
    if len(timestamps) < 2:
        return 0.0, 0.0, 0.0
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
    return min(gaps), sum(gaps) / len(gaps), max(gaps)


def featurize_flows(flows: List[Tuple[FlowKey, List[PacketMeta]]]) -> List[FlowStats]:
    """Compute the 20-feature statistics row for every assembled flow."""
    stats = []
    for key, pkts in flows:
        if not pkts:
            continue
        times = [p.timestamp for p in pkts]
        fwd = [p for p in pkts if p.direction == FORWARD]
        rev = [p for p in pkts if p.direction == REVERSE]
        lens = [p.payload_len for p in pkts]
        iat = _iat_stats(times)
        fwd_iat = _iat_stats([p.timestamp for p in fwd])
        rev_iat = _iat_stats([p.timestamp for p in rev])
        stats.append(FlowStats(
            key=key,
            first_seen=times[0],
            src_port=key.src_port,
            dst_port=key.dst_port,
            protocol=key.protocol,
            duration=times[-1] - times[0],
            fwd_packets=len(fwd),
            rev_packets=len(rev),
            fwd_bytes=sum(p.payload_len for p in fwd),
            rev_bytes=sum(p.payload_len for p in rev),
            iat_min=iat[0], iat_mean=iat[1], iat_max=iat[2],
            fwd_iat_min=fwd_iat[0], fwd_iat_mean=fwd_iat[1], fwd_iat_max=fwd_iat[2],
            rev_iat_min=rev_iat[0], rev_iat_mean=rev_iat[1], rev_iat_max=rev_iat[2],
            pkt_len_min=min(lens),
            pkt_len_mean=sum(lens) / len(lens),
            pkt_len_max=max(lens),
        ))
    return stats


def _format_cell(value) -> str:
    # repr() of a float is the shortest round-trip form, so identical inputs
    # always serialize to identical bytes.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def flow_csv_lines(stats: List[FlowStats], label: str, pad_to: int | None = None
                   ) -> List[str]:
    """Render header + one CSV line per flow, optionally zero-padded to pad_to columns."""
    n_pad = 0
    if pad_to is not None:
        if pad_to < len(FEATURE_COLUMNS):
            raise ValueError(
                f"pad_to={pad_to} below the {len(FEATURE_COLUMNS)} native features"
            )
        n_pad = pad_to - len(FEATURE_COLUMNS)
    header = FEATURE_COLUMNS + [f"pad_{i:02d}" for i in range(n_pad)] + ["label"]
    lines = [",".join(header)]
    for s in stats:
        cells = [_format_cell(v) for v in s.feature_values()]
        cells += ["0"] * n_pad
        cells.append(label)
        lines.append(",".join(cells))
    return lines


def write_flow_csv(stats: List[FlowStats], path, label: str,
                   pad_to: int | None = None) -> None:
    Path(path).write_text("\n".join(flow_csv_lines(stats, label, pad_to)) + "\n",
                          encoding="utf-8")

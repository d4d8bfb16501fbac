"""Byte-level classic-pcap fixture builder for the flowcap tests.

Timestamps are passed as (seconds, fractional-ticks) integer pairs so the
expected float timestamps can be recomputed exactly in the tests.

    python tests/pcap_builder.py reorder IN OUT

writes a copy of the little-endian capture IN with its records out of time
order (see `reorder`).
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

MAGIC_USEC = 0xA1B2C3D4
MAGIC_NSEC = 0xA1B23C4D


def ip4(addr: str) -> bytes:
    return bytes(int(p) for p in addr.split("."))


def global_header(endian: str = "<", nanos: bool = False, linktype: int = 1) -> bytes:
    magic = MAGIC_NSEC if nanos else MAGIC_USEC
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)


def ethernet_ipv4(src: str, dst: str, protocol: int, sport: int, dport: int,
                  payload: bytes = b"", frag: int = 0, ttl: int = 64,
                  options: bytes = b"") -> bytes:
    """An Ethernet frame around an IPv4 TCP/UDP packet (checksums left zero).

    options, a multiple of 4 bytes, follows the fixed 20-byte IP header and
    raises the IHL to match.
    """
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0800)
    if protocol == 17:
        transport = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    elif protocol == 6:
        transport = struct.pack(">HHIIBBHHH", sport, dport, 0, 0,
                                5 << 4, 0, 0, 0, 0) + payload
    else:
        transport = payload
    ihl_words = 5 + len(options) // 4
    total_len = 4 * ihl_words + len(transport)
    ip_hdr = struct.pack(">BBHHHBBH4s4s", 0x40 | ihl_words, 0, total_len, 0, frag,
                         ttl, protocol, 0, ip4(src), ip4(dst)) + options
    return eth + ip_hdr + transport


def with_total_length(frame: bytes, total_len: int) -> bytes:
    """The frame with its IPv4 total length field (bytes 16-17) overwritten."""
    return frame[:16] + total_len.to_bytes(2, "big") + frame[18:]


def raw_ethernet(ethertype: int, body: bytes = b"") -> bytes:
    return b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ethertype) + body


def record(sec: int, frac: int, frame: bytes, endian: str = "<") -> bytes:
    return struct.pack(endian + "IIII", sec, frac, len(frame), len(frame)) + frame


def capture(packets, endian: str = "<", nanos: bool = False, linktype: int = 1) -> bytes:
    """packets: iterable of (sec, frac, frame) triples."""
    out = [global_header(endian, nanos, linktype)]
    for sec, frac, frame in packets:
        out.append(record(sec, frac, frame, endian))
    return b"".join(out)


def udp(src: str, sport: int, dst: str, dport: int, payload_len: int = 0,
        options: bytes = b"") -> bytes:
    return ethernet_ipv4(src, dst, 17, sport, dport, b"\x00" * payload_len,
                         options=options)


def tcp(src: str, sport: int, dst: str, dport: int, payload_len: int = 0,
        options: bytes = b"") -> bytes:
    return ethernet_ipv4(src, dst, 6, sport, dport, b"\x00" * payload_len,
                         options=options)


def packet_rows(packets) -> list:
    """Per-packet (timestamp, payload_len, protocol, src_ip, dst_ip, src_port, dst_port).

    `packets` is a `flowcap.Packets`; flowcap is imported here so that the
    `reorder` entry point needs only the standard library.
    """
    from tdntc import flowcap

    return [(t, total_len - 20, *rest) for t, (total_len, *rest)
            in zip(packets.timestamp, flowcap._HEAD.iter_unpack(packets.heads))]


def reorder(raw: bytes) -> bytes:
    """The little-endian capture `raw` with its records out of time order.

    Records are sorted by (seconds mod 7, time, file index): out of time
    order, with records of equal time kept in file order, so flow assembly
    must read the copy as it reads the original.  ValueError if the copy is
    still in time order.
    """
    records, offset = [], 24
    while offset < len(raw):
        sec, frac, incl = struct.unpack_from("<III", raw, offset)
        records.append((sec % 7, sec, frac, len(records), raw[offset:offset + 16 + incl]))
        offset += 16 + incl
    records.sort()
    times = [record[1:3] for record in records]
    if times == sorted(times):
        raise ValueError("the reordered capture is still in time order")
    return raw[:24] + b"".join(record[-1] for record in records)


def main(argv) -> int:
    if len(argv) != 3 or argv[0] != "reorder":
        raise SystemExit("usage: python tests/pcap_builder.py reorder IN OUT")
    Path(argv[2]).write_bytes(reorder(Path(argv[1]).read_bytes()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

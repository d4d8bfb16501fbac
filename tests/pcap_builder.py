"""Byte-level classic-pcap fixture builder for the flowcap tests.

Timestamps are passed as (seconds, fractional-ticks) integer pairs so the
expected float timestamps can be recomputed exactly in the tests.
"""

from __future__ import annotations

import struct

from tdntc import flowcap

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


def packet_rows(packets: flowcap.Packets) -> list:
    """Per-packet (timestamp, payload_len, protocol, src_ip, dst_ip, src_port, dst_port)."""
    return [(t, total_len - 20, *rest) for t, (total_len, *rest)
            in zip(packets.timestamp, flowcap._HEAD.iter_unpack(packets.heads))]

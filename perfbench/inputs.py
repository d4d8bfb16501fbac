"""Seeded input generators for the benchmark.

The benchmark makes its own inputs so that a later change to the program's
synthetic-data helpers cannot change what is measured.  Every generator is
a pure function of its seed: the same seed gives byte-identical files.

- `write_flow_csv`: a labelled 48-feature flow CSV with overlapping classes,
  so test accuracy stays below 1.0 and can move when numerics change.
- `write_capture`: a classic little-endian microsecond pcap with a
  heavy-tailed mix of bidirectional TCP/UDP flows plus frames the parser
  must skip.  Frames are captured whole, as tcpdump's default snap length
  does: every record's captured length equals its wire length, and the
  payload after the headers is zeros.  It returns the ground truth the
  featurize checks compare to.

The benchmark runs this module as a child process,

    python3 perfbench/inputs.py {flows,capture} SEED OUT

so that the generator's memory never counts toward the measuring
process's peak.  For a capture the ground truth goes to `OUT.truth.json`.
"""

from __future__ import annotations

import json
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

# Flow CSV shape.  1280 rows split 70/10/20 per class gives 896 training
# rows (28 full batches of 32), 128 validation rows and 256 test rows, and
# the whole set is 5 full inference batches of 256.
CSV_CLASSES = 4
CSV_PER_CLASS = 320
CSV_FEATURES = 48
# Mean shift of each class's own 12-feature block over unit Gaussian noise.
# Large enough that both variants learn in two epochs (test accuracy about
# 0.95-0.99 over seeds), small enough that the classes overlap and no seed
# reaches 1.0.
CSV_SHIFT = 1.1

# Capture shape.  The totals are exact for every seed so the work per run
# does not depend on the seed; only addresses, sizes and timing vary.
CAPTURE_FLOWS = 1500
CAPTURE_FLOW_PACKETS = 60000
SKIPS_PER_KIND = 300          # frames the parser must skip, per skip kind
CAPTURE_SPAN_US = 300_000_000  # flows start within the first 300 s
MAX_GAP_US = 30_000_000       # below flowcap's 60 s idle timeout: no flow splits

SERVER_PORTS = (443, 80, 53, 123, 22, 8080, 993, 5060, 3478, 1935)


def write_flow_csv(seed: int, path: Path) -> None:
    """Write the labelled flow CSV for `seed`."""
    rng = np.random.default_rng([seed, 1])
    block = CSV_FEATURES // CSV_CLASSES
    labels = np.repeat(np.arange(CSV_CLASSES), CSV_PER_CLASS)
    features = rng.normal(0.0, 1.0, size=(labels.size, CSV_FEATURES))
    for c in range(CSV_CLASSES):
        features[labels == c, c * block:(c + 1) * block] += CSV_SHIFT
    order = rng.permutation(labels.size)
    header = [f"f{j:02d}" for j in range(CSV_FEATURES)] + ["label"]
    lines = [",".join(header)]
    for i in order:
        lines.append(",".join(repr(float(v)) for v in features[i]) + f",app-{labels[i]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class CaptureTruth:
    """What the generator put into a capture."""

    records: int
    packets: int                      # IPv4 TCP/UDP packets the parser keeps
    skipped: Dict[str, int]           # flowcap skip-counter name -> frames
    flows: int
    transport_bytes: int              # sum of IPv4 total length minus header
    # Multiset of per-flow (fwd_packets, rev_packets, fwd_bytes, rev_bytes).
    flow_counts: Counter

    def to_json(self) -> str:
        doc = dict(vars(self), flow_counts=sorted(
            [list(k), n] for k, n in self.flow_counts.items()))
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CaptureTruth":
        doc = json.loads(text)
        doc["flow_counts"] = Counter({tuple(k): n for k, n in doc["flow_counts"]})
        return cls(**doc)


def _flow_sizes(rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed packets per flow, at least 1 each, summing exactly.

    The Pareto weights are capped so that no single flow takes more than a
    few percent of the capture, whatever the seed.
    """
    weights = np.minimum(rng.pareto(1.2, CAPTURE_FLOWS), 100.0) + 1e-3
    extra = CAPTURE_FLOW_PACKETS - CAPTURE_FLOWS
    share = weights / weights.sum() * extra
    sizes = np.floor(share).astype(np.int64)
    # Largest remainders take the packets that flooring left over.
    rest = extra - int(sizes.sum())
    sizes[np.argsort(-(share - sizes), kind="stable")[:rest]] += 1
    return sizes + 1


def _ipv4_header(total_len: int, proto: int, src: bytes, dst: bytes,
                 flags_frag: int = 0) -> bytes:
    return struct.pack(">BBHHHBBH4s4s", 0x45, 0, total_len, 0, flags_frag,
                       64, proto, 0, src, dst)


def _ether(ethertype: int) -> bytes:
    return b"\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01" + struct.pack(">H", ethertype)


def _skip_frame(kind: str, variant: int, rng: np.random.Generator) -> Tuple[bytes, int]:
    """Headers and wire length of one frame flowcap must count under `kind`."""
    src, dst = bytes([10, 9, 0, 1]), bytes([10, 9, 0, 2])
    if kind == "ipv6":
        head = _ether(0x86DD) + bytes([0x60]) + bytes(39)
    elif kind == "non_ip":         # ARP request
        head = _ether(0x0806) + bytes(28)
    elif kind == "non_tcp_udp":    # ICMP echo
        head = _ether(0x0800) + _ipv4_header(28, 1, src, dst) + b"\x08" + bytes(7)
    elif kind == "fragmented":     # first fragment of a UDP datagram (MF set)
        head = (_ether(0x0800) + _ipv4_header(1500, 17, src, dst, 0x2000)
                + struct.pack(">HH", int(rng.integers(1024, 65536)), 53) + bytes(4))
        return head, 14 + 1500
    # truncated: a runt frame, a cut IPv4 header, or a cut transport header
    elif variant == 0:
        head = bytes(10)
    elif variant == 1:
        head = _ether(0x0800) + bytes([0x45]) + bytes(9)
    else:
        head = _ether(0x0800) + _ipv4_header(40, 6, src, dst) + b"\x01"
    return head, len(head)


def write_capture(seed: int, path: Path) -> CaptureTruth:
    """Write the pcap for `seed` and return its ground truth."""
    rng = np.random.default_rng([seed, 2])
    sizes = _flow_sizes(rng)
    # (time_us, flow, index, headers, wire length); sorting puts frames in
    # time order and keeps each flow's own packets in generation order.  The
    # zero payload is added when the frame is written.
    events: List[Tuple[int, int, int, bytes, int]] = []
    truth_counts: Counter = Counter()
    transport_total = 0
    for flow in range(CAPTURE_FLOWS):
        n = int(sizes[flow])
        tcp = rng.random() < 0.7
        proto = 6 if tcp else 17
        client = bytes([10, (flow >> 8) & 0xFF, flow & 0xFF, 2])
        server = bytes([172, 16, int(rng.integers(0, 256)), int(rng.integers(1, 255))])
        cport = int(rng.integers(1024, 65536))
        sport = SERVER_PORTS[int(rng.integers(len(SERVER_PORTS)))]
        start = int(rng.integers(0, CAPTURE_SPAN_US))
        mean_gap = float(np.exp(rng.uniform(np.log(200.0), np.log(500_000.0))))
        gaps = np.minimum(rng.exponential(mean_gap, n - 1).astype(np.int64) + 1, MAX_GAP_US)
        times = start + np.concatenate([[0], np.cumsum(gaps)])
        forward = rng.random(n) < 0.55
        forward[0] = True       # the client opens the flow
        data = rng.integers(0, 1461, n)
        counts = [0, 0, 0, 0]
        for i in range(n):
            hdr = 20 if tcp else 8
            transport = hdr + int(data[i])
            if forward[i]:
                src, dst, sp, dp = client, server, cport, sport
            else:
                src, dst, sp, dp = server, client, sport, cport
            head = (_ether(0x0800) + _ipv4_header(20 + transport, proto, src, dst)
                    + struct.pack(">HH", sp, dp) + bytes(hdr - 4))
            events.append((int(times[i]), flow, i, head, 14 + 20 + transport))
            side = 0 if forward[i] else 1
            counts[side] += 1
            counts[2 + side] += transport
            transport_total += transport
        truth_counts[tuple(counts)] += 1
    skipped = {"non_ip": 0, "ipv6": 0, "fragmented": 0, "non_tcp_udp": 0, "truncated": 0}
    for k, kind in enumerate(skipped):
        for j in range(SKIPS_PER_KIND):
            head, wire_len = _skip_frame(kind, j % 3, rng)
            events.append((int(rng.integers(0, CAPTURE_SPAN_US)), CAPTURE_FLOWS + k, j,
                           head, wire_len))
            skipped[kind] += 1
    events.sort(key=lambda e: e[:3])

    record = struct.Struct("<IIII")
    with path.open("wb") as handle:
        handle.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for t_us, _, _, head, wire_len in events:
            handle.write(record.pack(t_us // 1_000_000, t_us % 1_000_000, wire_len, wire_len))
            handle.write(head)
            handle.write(bytes(wire_len - len(head)))
    return CaptureTruth(
        records=len(events),
        packets=CAPTURE_FLOW_PACKETS,
        skipped=skipped,
        flows=CAPTURE_FLOWS,
        transport_bytes=transport_total,
        flow_counts=truth_counts,
    )


def main(argv) -> int:
    kind, seed, out = argv[0], int(argv[1]), Path(argv[2])
    if kind == "flows":
        write_flow_csv(seed, out)
    elif kind == "capture":
        truth = write_capture(seed, out)
        out.with_name(out.name + ".truth.json").write_text(truth.to_json(), encoding="utf-8")
    else:
        raise SystemExit(f"unknown input kind {kind!r}; expected flows or capture")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import hashlib
import io
import math
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

import pcap_builder as pb
from tdntc import flowcap
from tdntc.flowcap import (
    FEATURE_COLUMNS,
    PcapFormatError,
    PcapParseError,
    assemble_flows,
    featurize_flows,
    parse_pcap,
    parse_pcap_bytes,
    write_flow_csv,
)


def csv_lines(stats, path, label, pad_to=None):
    """The lines `write_flow_csv` writes to `path`, as `tdntc featurize` writes them."""
    write_flow_csv(stats, path, label, pad_to=pad_to)
    return path.read_text(encoding="utf-8").splitlines()


class TestParsePcap:
    def test_two_packet_udp_capture(self):
        frame = pb.udp("10.0.0.1", 1234, "10.0.0.2", 53, payload_len=4)
        data = pb.capture([(100, 250000, frame), (100, 750000, frame)])
        parsed = parse_pcap_bytes(data)
        assert len(parsed.packets) == 2
        assert parsed.skipped == dict.fromkeys(flowcap.SKIP_KINDS, 0)
        # IPv4 total length 20+8+4; payload_len excludes the IP header
        assert pb.packet_rows(parsed.packets) == [
            (100 + 250000 * 1e-6, 12, 17, 0x0A000001, 0x0A000002, 1234, 53),
            (100 + 750000 * 1e-6, 12, 17, 0x0A000001, 0x0A000002, 1234, 53),
        ]
        assert parsed.records == 2

    def test_empty_capture(self):
        parsed = parse_pcap_bytes(pb.capture([]))
        assert len(parsed.packets) == 0
        assert parsed.records == 0

    def test_endianness_equivalence(self):
        frame = pb.tcp("192.168.1.5", 40000, "192.168.1.9", 443, payload_len=10)
        little = parse_pcap_bytes(pb.capture([(7, 1, frame)], endian="<"))
        big = parse_pcap_bytes(pb.capture([(7, 1, frame)], endian=">"))
        assert little.packets == big.packets

    def test_nanosecond_magic(self):
        frame = pb.udp("1.2.3.4", 10, "5.6.7.8", 20)
        parsed = parse_pcap_bytes(pb.capture([(3, 500_000_000, frame)], nanos=True))
        assert list(parsed.packets.timestamp) == [3.5]

    def test_bad_magic(self):
        with pytest.raises(PcapFormatError):
            parse_pcap_bytes(b"\x00" * 24)

    def test_short_file(self):
        with pytest.raises(PcapFormatError):
            parse_pcap_bytes(b"\xa1\xb2\xc3\xd4")

    def test_unsupported_linktype(self):
        with pytest.raises(PcapFormatError):
            parse_pcap_bytes(pb.capture([], linktype=101))

    def test_truncated_record_reports_offset(self):
        frame = pb.udp("1.1.1.1", 1, "2.2.2.2", 2)
        data = pb.capture([(0, 0, frame)])[:-5]
        with pytest.raises(PcapParseError) as err:
            parse_pcap_bytes(data)
        assert "byte" in str(err.value)

    def test_skip_counters(self):
        packets = [
            (0, 0, pb.udp("1.0.0.1", 1, "1.0.0.2", 2)),
            (1, 0, pb.raw_ethernet(0x0806, b"\x00" * 28)),            # arp
            (2, 0, pb.raw_ethernet(0x86DD, b"\x00" * 40)),            # ipv6
            (3, 0, pb.ethernet_ipv4("1.0.0.1", "1.0.0.2", 1, 0, 0)),  # icmp
            (4, 0, pb.ethernet_ipv4("1.0.0.1", "1.0.0.2", 17, 5, 6,
                                    frag=0x2000)),                    # fragment
        ]
        parsed = parse_pcap_bytes(pb.capture(packets))
        assert len(parsed.packets) == 1
        assert parsed.records == len(packets)
        assert parsed.skipped["non_ip"] == 1
        assert parsed.skipped["ipv6"] == 1
        assert parsed.skipped["non_tcp_udp"] == 1
        assert parsed.skipped["fragmented"] == 1

    @pytest.mark.parametrize("ihl_words", [0, 4])
    def test_ihl_below_five_counts_as_truncated(self, ihl_words):
        short = bytearray(pb.udp("1.0.0.1", 1, "1.0.0.2", 2, payload_len=8))
        short[14] = 0x40 | ihl_words
        packets = [(0, 0, pb.udp("1.0.0.1", 1, "1.0.0.2", 2)), (1, 0, bytes(short))]
        parsed = parse_pcap_bytes(pb.capture(packets))
        assert len(parsed.packets) == 1
        assert parsed.skipped == {"non_ip": 0, "ipv6": 0, "fragmented": 0,
                                  "non_tcp_udp": 0, "truncated": 1}

    @pytest.mark.parametrize("total_len, kept", [(8, False), (23, False), (24, True)])
    def test_total_length_must_cover_the_ports(self, total_len, kept):
        frame = pb.udp("1.0.0.1", 1, "1.0.0.2", 2, payload_len=8)
        frame = pb.with_total_length(frame, total_len)
        parsed = parse_pcap_bytes(pb.capture([(0, 0, frame)]))
        assert parsed.skipped["truncated"] == (0 if kept else 1)
        assert [row[1] for row in pb.packet_rows(parsed.packets)] == ([4] if kept else [])

    @pytest.mark.parametrize("ihl_words", [6, 15])
    def test_ip_options_shift_the_ports(self, ihl_words):
        options = b"\x01" * (4 * ihl_words - 20)
        frame = pb.tcp("10.0.0.1", 1234, "10.0.0.2", 80, payload_len=7, options=options)
        assert frame[14] == 0x40 | ihl_words
        parsed = parse_pcap_bytes(pb.capture([(0, 0, frame)]))
        assert len(parsed.packets) == 1
        stats = featurize_flows(assemble_flows(parsed.packets))[0]
        assert (stats.src_port, stats.dst_port, stats.protocol) == (1234, 80, 6)
        # total length 4*IHL + 20 (TCP) + 7, minus the 4*IHL-byte header
        assert stats.pkt_len_min == 27

    def test_parse_from_path(self, tmp_path):
        path = tmp_path / "one.pcap"
        path.write_bytes(pb.capture([(0, 0, pb.udp("9.9.9.9", 1, "8.8.8.8", 2))]))
        assert len(parse_pcap(path).packets) == 1


class TestStreaming:
    """The parser reads a capture through one reused buffer, never the whole file."""

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 53, payload_len=1400)
        path = tmp_path / "big.pcap"
        path.write_bytes(pb.capture([(i, 0, frame) for i in range(6000)]))
        assert path.stat().st_size > 8_000_000
        tracemalloc.start()
        try:
            parsed = parse_pcap(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed.packets) == 6000
        assert peak < 4 << 20

    def test_records_longer_than_the_buffer(self, monkeypatch):
        small = pb.udp("10.0.0.1", 1, "10.0.0.2", 2)
        long = pb.tcp("10.0.0.3", 3, "10.0.0.4", 4, payload_len=1400,
                      options=b"\x01" * 40)
        data = pb.capture([(0, 0, small), (1, 0, long), (2, 0, small), (3, 0, long)])
        expected = parse_pcap_bytes(data)
        monkeypatch.setattr(flowcap, "_BUFFER_BYTES", 128)
        parsed = parse_pcap_bytes(data)
        assert parsed == expected
        assert [row[1] for row in pb.packet_rows(parsed.packets)] == [8, 1420, 8, 1420]

    @pytest.mark.parametrize("buffer_bytes", [None, 128, 94])
    def test_cut_capture_reports_the_absolute_offset(self, monkeypatch, buffer_bytes):
        if buffer_bytes is not None:
            monkeypatch.setattr(flowcap, "_BUFFER_BYTES", buffer_bytes)
        frames = [pb.udp("1.1.1.1", 1, "2.2.2.2", 2, payload_len=n) for n in (4, 300, 8)]
        data = pb.capture([(i, 0, frame) for i, frame in enumerate(frames)])
        third = len(data) - 16 - len(frames[2])
        second_data = third - len(frames[1])
        assert len(parse_pcap_bytes(data[:third]).packets) == 2
        for cut, message in [
            (third + 15, f"truncated record header at byte {third}"),
            (second_data + 200, f"truncated packet data at byte {second_data}"),
            (second_data + 10, f"truncated packet data at byte {second_data}"),
            (len(data) - 1, f"truncated packet data at byte {third + 16}"),
        ]:
            with pytest.raises(PcapParseError) as err:
                parse_pcap_bytes(data[:cut])
            assert str(err.value) == message

    def test_a_read_of_no_bytes_ends_the_stream(self):
        frame = pb.udp("1.1.1.1", 1, "2.2.2.2", 2, payload_len=100)
        data = pb.capture([(0, 0, frame), (1, 0, frame)])
        second = 24 + 16 + len(frame)

        class Stalling(io.RawIOBase):
            """Returns no bytes once, inside the second record, then the rest."""

            def __init__(self):
                self.pos, self.stalled = 0, False

            def readable(self):
                return True

            def readinto(self, b):
                end = min(len(data), self.pos + len(b))
                if not self.stalled and end > second + 20:
                    if self.pos == second + 20:
                        self.stalled = True
                        return 0
                    end = second + 20
                b[:end - self.pos] = data[self.pos:end]
                count, self.pos = end - self.pos, end
                return count

        with pytest.raises(PcapParseError) as err:
            flowcap._parse_stream(Stalling())
        assert str(err.value) == f"truncated packet data at byte {second + 16}"


class TestTypedColumns:
    """Values at the edges of each head field's type survive parse, assembly and the CSV."""

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_edge_values_round_trip(self, endian, tmp_path):
        top, high = "255.255.255.255", "128.0.0.1"
        packets = [
            # The plain path, then the IP-options path, at the largest total length.
            (1, 0, pb.with_total_length(pb.udp(top, 65535, high, 32768), 65535)),
            (2, 0, pb.with_total_length(pb.udp(high, 32768, top, 65535, options=b"\x01" * 4),
                                        65535)),
            # The smallest total lengths each path keeps.
            (3, 0, pb.with_total_length(pb.tcp("0.0.0.0", 0, "0.0.0.1", 1), 24)),
            (4, 0, pb.with_total_length(pb.tcp("0.0.0.1", 1, "0.0.0.0", 0,
                                               options=b"\x01" * 4), 28)),
        ]
        parsed = parse_pcap_bytes(pb.capture(packets, endian=endian)).packets
        assert parsed.timestamp.typecode == "d"
        assert len(parsed.heads) == 24 * len(parsed)
        assert pb.packet_rows(parsed) == [
            # (timestamp, payload_len, protocol, src_ip, dst_ip, src_port, dst_port)
            (1.0, 65515, 17, 0xFFFFFFFF, 0x80000001, 65535, 32768),
            (2.0, 65511, 17, 0x80000001, 0xFFFFFFFF, 32768, 65535),
            (3.0, 4, 6, 0, 1, 0, 1),
            (4.0, 4, 6, 1, 0, 1, 0),
        ]

        flows = assemble_flows(parsed)
        # Each flow's initiator is the first packet's source, ip << 16 | port.
        assert [flow.initiator for flow in flows] == [0xFFFFFFFF << 16 | 65535, 0]
        rows = [line.split(",") for line in
                csv_lines(featurize_flows(flows), tmp_path / "edge.csv", "x")[1:]]
        columns = [dict(zip(FEATURE_COLUMNS, row)) for row in rows]
        assert [(c["src_port"], c["dst_port"], c["protocol"]) for c in columns] == [
            ("65535", "32768", "17"), ("0", "1", "6")]
        assert [(c["fwd_bytes"], c["rev_bytes"], c["pkt_len_max"]) for c in columns] == [
            ("65515", "65511", "65515"), ("4", "4", "4")]

    def test_a_parsed_packet_keeps_under_48_bytes(self):
        # Varied values, as a real capture holds.
        records = [(1_000_000 + i, i * 7, pb.udp(f"10.{i % 200}.{i // 200}.1", 1024 + i,
                                                 "192.168.0.9", 40000 + i % 97,
                                                 payload_len=300 + i % 700))
                   for i in range(6000)]
        data = pb.capture(records)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parsed = parse_pcap_bytes(data)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(parsed.packets) == 6000
        assert retained < 48 * 6000

    def test_an_assembled_flow_keeps_no_bytes_per_packet(self):
        forward = ("10.0.0.1", 1024, "10.0.0.2", 53)
        reverse = ("10.0.0.2", 53, "10.0.0.1", 1024)

        def retained_by_one_flow(count):
            # Both directions, varied times and lengths: no small cached ints.
            packets = [(1_000_000 + i, i * 7, pb.udp(*(reverse if i % 3 == 2 else forward),
                                                     payload_len=300 + i % 700))
                       for i in range(count)]
            parsed = parse_pcap_bytes(pb.capture(packets))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                flows = assemble_flows(parsed.packets)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(flows) == 1
            return retained

        # Per-packet lists keep about 80 bytes a packet, over 400,000 more here.
        assert retained_by_one_flow(6000) - retained_by_one_flow(600) < 4096

    def test_assembling_an_in_order_capture_allocates_nothing_per_packet(self):
        def frame(i):
            # Three flows, both directions, varied lengths.
            client, server = ("10.0.0.1", 1024 + i % 3), ("10.0.0.2", 53)
            src, dst = (server, client) if i % 5 == 4 else (client, server)
            return pb.udp(*src, *dst, payload_len=300 + i % 700)

        parsed = parse_pcap_bytes(pb.capture([(1_000_000 + i, i * 7, frame(i))
                                              for i in range(6000)]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            flows = assemble_flows(parsed.packets)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(flows) == 3
        # A stable sort of the packet indices alone peaks near 70 bytes a
        # packet, over 400 KB here.
        assert peak < 16 * 1024


class TestAssembleFlows:
    def test_same_tuple_single_flow(self):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        parsed = parse_pcap_bytes(pb.capture([(i, 0, frame) for i in range(3)]))
        (stats,) = featurize_flows(assemble_flows(parsed.packets, idle_timeout=60.0))
        assert stats.fwd_packets + stats.rev_packets == 3
        assert stats.duration == 2.0
        assert stats.iat_min == stats.iat_mean == stats.iat_max == 1.0

    def test_bidirectional_directions(self):
        fwd = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        rev = pb.udp("10.0.0.2", 2000, "10.0.0.1", 1000)
        parsed = parse_pcap_bytes(pb.capture([(0, 0, fwd), (0, 100, rev),
                                              (0, 200, fwd)]))
        (flow,) = assemble_flows(parsed.packets)
        assert flow.initiator == 0x0A000001 << 16 | 1000
        (stats,) = featurize_flows([flow])
        assert (stats.src_port, stats.dst_port, stats.protocol) == (1000, 2000, 17)
        # Directions forward, reverse, forward: the one forward gap spans
        # the first and third packets, and one reverse packet has no gap.
        assert (stats.fwd_packets, stats.rev_packets) == (2, 1)
        third = 200 * 1e-6
        assert (stats.fwd_iat_min, stats.fwd_iat_mean, stats.fwd_iat_max) == (third,) * 3
        assert (stats.rev_iat_min, stats.rev_iat_mean, stats.rev_iat_max) == (0.0,) * 3

    def test_idle_timeout_splits(self):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        parsed = parse_pcap_bytes(pb.capture([
            (0, 0, frame), (10, 0, frame), (10 + 61, 0, frame)]))
        stats = featurize_flows(assemble_flows(parsed.packets, idle_timeout=60.0))
        assert [s.fwd_packets + s.rev_packets for s in stats] == [2, 1]
        assert [s.duration for s in stats] == [10.0, 0.0]
        assert [s.iat_max for s in stats] == [10.0, 0.0]

    def test_boundary_gap_exactly_timeout_keeps_flow(self):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        parsed = parse_pcap_bytes(pb.capture([(0, 0, frame), (60, 0, frame)]))
        assert len(assemble_flows(parsed.packets, idle_timeout=60.0)) == 1

    def test_out_of_order_timestamps_are_ordered(self):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        shuffled = pb.capture([(0, 0, frame), (100, 0, frame), (50, 0, frame)])
        ordered = pb.capture([(0, 0, frame), (50, 0, frame), (100, 0, frame)])
        stats = [featurize_flows(assemble_flows(parse_pcap_bytes(data).packets,
                                                idle_timeout=60.0))
                 for data in (shuffled, ordered)]
        assert len(stats[0]) == 1
        assert stats[0][0].duration == 100.0
        assert stats[0][0].iat_min >= 0.0
        assert stats[0] == stats[1]

    def test_equal_timestamps_keep_file_order(self):
        fwd = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        rev = pb.udp("10.0.0.2", 2000, "10.0.0.1", 1000)
        parsed = parse_pcap_bytes(pb.capture([(5, 0, rev), (5, 0, fwd)]))
        (flow,) = assemble_flows(parsed.packets)
        assert flow.initiator == 0x0A000002 << 16 | 2000
        (stats,) = featurize_flows([flow])
        assert (stats.src_port, stats.dst_port) == (2000, 1000)
        # The first packet is the initiator's, so directions forward, reverse.
        assert (stats.fwd_packets, stats.rev_packets) == (1, 1)

    def test_canonical_key_symmetry(self):
        rng = np.random.default_rng(0)
        endpoints = []
        for _ in range(40):
            a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
            if rng.integers(2):
                a, b = b, a
            endpoints.append((a, b))
        straight = [(i, 0, pb.udp(a[0], a[1], b[0], b[1]))
                    for i, (a, b) in enumerate(endpoints)]
        flipped = [(i, 0, pb.udp(b[0], b[1], a[0], a[1]))
                   for i, (a, b) in enumerate(endpoints)]
        stats_a, stats_b = (featurize_flows(assemble_flows(parse_pcap_bytes(data).packets))
                            for data in (pb.capture(straight), pb.capture(flipped)))
        assert ([s.fwd_packets + s.rev_packets for s in stats_a]
                == [s.fwd_packets + s.rev_packets for s in stats_b] == [40])


class TestFeaturize:
    def test_hand_computed_iat(self):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        parsed = parse_pcap_bytes(pb.capture([
            (0, 0, frame), (0, 100000, frame), (0, 300000, frame)]))
        stats = featurize_flows(assemble_flows(parsed.packets))[0]
        t0, t1, t2 = 0.0, 100000 * 1e-6, 300000 * 1e-6
        gaps = [t1 - t0, t2 - t1]
        assert stats.iat_min == min(gaps)
        assert stats.iat_max == max(gaps)
        assert stats.iat_mean == sum(gaps) / 2
        assert stats.iat_min == pytest.approx(0.1, abs=1e-12)
        assert stats.iat_max == pytest.approx(0.2, abs=1e-12)
        assert stats.iat_mean == pytest.approx(0.15, abs=1e-12)
        assert stats.duration == t2 - t0

    def test_exact_binary_timestamps(self):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        parsed = parse_pcap_bytes(pb.capture([
            (0, 125000, frame), (0, 250000, frame), (0, 500000, frame)]))
        stats = featurize_flows(assemble_flows(parsed.packets))[0]
        assert stats.iat_min == 0.125
        assert stats.iat_max == 0.25
        assert stats.iat_mean == 0.1875
        assert stats.duration == 0.375

    def test_single_packet_flow(self):
        # IPv4 total 20 + UDP 8 + 32 payload = 60; payload_len = 40
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000, payload_len=32)
        parsed = parse_pcap_bytes(pb.capture([(5, 0, frame)]))
        stats = featurize_flows(assemble_flows(parsed.packets))[0]
        assert stats.pkt_len_min == stats.pkt_len_max == 40
        assert stats.pkt_len_mean == 40.0
        assert stats.iat_min == stats.iat_mean == stats.iat_max == 0.0
        assert stats.duration == 0.0
        assert stats.fwd_packets == 1
        assert stats.rev_packets == 0

    def test_directional_splits(self):
        fwd = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000, payload_len=8)
        rev = pb.udp("10.0.0.2", 2000, "10.0.0.1", 1000, payload_len=24)
        parsed = parse_pcap_bytes(pb.capture([
            (0, 0, fwd), (1, 0, rev), (2, 0, fwd), (3, 0, rev)]))
        stats = featurize_flows(assemble_flows(parsed.packets))[0]
        assert stats.fwd_packets == stats.rev_packets == 2
        assert stats.fwd_bytes == 2 * 16
        assert stats.rev_bytes == 2 * 32
        assert stats.fwd_iat_min == stats.fwd_iat_max == 2.0
        assert stats.rev_iat_min == stats.rev_iat_max == 2.0

    def test_two_flows_two_rows_one_header(self, tmp_path):
        a = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        b = pb.tcp("10.0.0.3", 1000, "10.0.0.4", 80)
        parsed = parse_pcap_bytes(pb.capture([(0, 0, a), (0, 1, b)]))
        lines = csv_lines(featurize_flows(assemble_flows(parsed.packets)),
                          tmp_path / "two.csv", "x")
        assert len(lines) == 3
        assert lines[0] == ",".join(FEATURE_COLUMNS + ["label"])

    def test_padding_extends_columns(self, tmp_path):
        frame = pb.udp("10.0.0.1", 1, "10.0.0.2", 2)
        parsed = parse_pcap_bytes(pb.capture([(0, 0, frame)]))
        lines = csv_lines(featurize_flows(assemble_flows(parsed.packets)),
                          tmp_path / "padded.csv", "x", pad_to=48)
        assert len(lines[0].split(",")) == 49
        assert lines[1].split(",")[20:48] == ["0"] * 28

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', "x\ny"])
    def test_label_round_trips_through_the_loader(self, tmp_path, label):
        import csv

        from tdntc.datapipe import load_csv_dataset

        a = pb.udp("10.0.0.1", 1000, "10.0.0.2", 2000)
        b = pb.tcp("10.0.0.3", 1000, "10.0.0.4", 80)
        stats = featurize_flows(assemble_flows(parse_pcap_bytes(
            pb.capture([(0, 0, a), (0, 1, b)])).packets))
        path = tmp_path / "labelled.csv"
        write_flow_csv(stats, path, label, pad_to=24)
        ds = load_csv_dataset(path)
        assert ds.class_names == [label]
        assert ds.n_flows == 2 and ds.n_features == 24
        # The bytes are the csv module's own for the same cells.
        header = FEATURE_COLUMNS + [f"pad_{i:02d}" for i in range(4)] + ["label"]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([*s, *[0] * 4, label] for s in stats)
        assert path.read_text(encoding="utf-8") == want.getvalue()

    def test_determinism(self, tmp_path):
        rng = np.random.default_rng(1)
        packets = []
        t = 0
        for _ in range(30):
            t += int(rng.integers(1, 1000))
            packets.append((t // 1000, (t % 1000) * 1000,
                            pb.udp("10.0.0.1", int(rng.integers(1024, 2048)),
                                   "10.0.0.2", 53,
                                   payload_len=int(rng.integers(0, 64)))))
        data = pb.capture(packets)
        runs = []
        for i in range(2):
            parsed = parse_pcap_bytes(data)
            path = tmp_path / f"run{i}.csv"
            write_flow_csv(featurize_flows(assemble_flows(parsed.packets)), path, "y")
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]

    def test_packet_conservation(self):
        packets = [
            (0, 0, pb.udp("1.0.0.1", 1, "1.0.0.2", 2)),
            (1, 0, pb.raw_ethernet(0x0806, b"\x00" * 28)),
            (2, 0, pb.tcp("1.0.0.3", 9, "1.0.0.4", 10)),
            (3, 0, pb.udp("1.0.0.1", 1, "1.0.0.2", 2)),
        ]
        parsed = parse_pcap_bytes(pb.capture(packets))
        stats = featurize_flows(assemble_flows(parsed.packets))
        assert (sum(s.fwd_packets + s.rev_packets for s in stats)
                == len(packets) - sum(parsed.skipped.values()))
        assert parsed.records == len(packets)

    def test_triples_ordered_on_random_captures(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            packets = []
            t = 0
            for _ in range(int(rng.integers(1, 20))):
                t += int(rng.integers(0, 5_000_000))
                src = f"10.0.0.{int(rng.integers(1, 4))}"
                dst = f"10.0.1.{int(rng.integers(1, 4))}"
                proto = pb.udp if rng.integers(2) else pb.tcp
                packets.append((t // 1_000_000, t % 1_000_000,
                                proto(src, int(rng.integers(1, 5)) * 1000,
                                      dst, 80, payload_len=int(rng.integers(0, 100)))))
            parsed = parse_pcap_bytes(pb.capture(packets))
            for s in featurize_flows(assemble_flows(parsed.packets)):
                for lo, mid, hi in [
                    (s.iat_min, s.iat_mean, s.iat_max),
                    (s.fwd_iat_min, s.fwd_iat_mean, s.fwd_iat_max),
                    (s.rev_iat_min, s.rev_iat_mean, s.rev_iat_max),
                    (s.pkt_len_min, s.pkt_len_mean, s.pkt_len_max),
                ]:
                    assert lo <= mid <= hi
                assert s.duration >= 0
                assert s.fwd_packets >= 1


def golden_capture(endian: str, nanos: bool) -> bytes:
    """A seeded capture that exercises every branch of the parser and assembler.

    It mixes TCP and UDP between hosts whose dotted and numeric orders differ
    (10.0.0.2 against 10.0.0.10), long and one-packet flows, IHL-6 and
    IHL-15 frames, equal and out-of-order timestamps, gaps beyond the 60 s
    idle timeout, and frames of every skip kind.
    """
    rng = np.random.default_rng(6)
    hosts = ["10.0.0.2", "10.0.0.10", "192.168.1.7", "172.16.0.1"]
    ports = [53, 443, 1000, 40000]
    bad_ip = bytearray(pb.udp("10.0.0.2", 1, "10.0.0.10", 2, payload_len=8))
    skipped_frames = [
        pb.raw_ethernet(0x0806, b"\x00" * 28),                            # non_ip
        pb.raw_ethernet(0x0800, b"\x60" + b"\x00" * 39),                  # non_ip: version 6
        pb.raw_ethernet(0x86DD, b"\x60" + b"\x00" * 39),                  # ipv6
        pb.ethernet_ipv4("10.0.0.2", "10.0.0.10", 17, 5, 6, frag=0x2000),  # fragmented
        pb.ethernet_ipv4("10.0.0.2", "10.0.0.10", 6, 5, 6, frag=0x0010),   # fragmented
        pb.ethernet_ipv4("10.0.0.2", "10.0.0.10", 1, 0, 0, b"\x08" * 8),   # non_tcp_udp
        b"\xaa" * 10,                                                      # truncated: no Ethernet
        pb.raw_ethernet(0x0800, b"\x45" + b"\x00" * 10),                  # truncated: short IP
        bytes(bad_ip[:14]) + bytes([0x44]) + bytes(bad_ip[15:]),          # truncated: IHL 4
        bytes(bad_ip[:16]) + (22).to_bytes(2, "big") + bytes(bad_ip[18:]),  # truncated: total length
        pb.udp("10.0.0.2", 1, "10.0.0.10", 2, options=b"\x01" * 4)[:38],  # truncated: ports cut off
    ]
    records = []
    t = 2_000_000
    for i in range(600):
        step = int(rng.choice([0, 0, 1, 900, 250_000, 3_000_000, 70_000_000],
                              p=[0.1, 0.05, 0.05, 0.3, 0.3, 0.18, 0.02]))
        t += step
        if rng.random() < 0.08:
            frame = skipped_frames[int(rng.integers(len(skipped_frames)))]
        elif rng.random() < 0.3:
            # One chatty pair gives long flows, whose float sums depend on order.
            a, b = ("10.0.0.2", 40000), ("192.168.1.7", 443)
            if rng.random() < 0.5:
                a, b = b, a
            frame = pb.tcp(a[0], a[1], b[0], b[1], payload_len=int(rng.integers(0, 300)))
        else:
            a = (hosts[int(rng.integers(2))], ports[2 + int(rng.integers(2))])
            b = (hosts[2 + int(rng.integers(2))], ports[int(rng.integers(2))])
            if rng.random() < 0.4:
                a, b = b, a
            options = [b"", b"", b"", b"\x01" * 4, b"\x01" * 40][int(rng.integers(5))]
            make = pb.udp if rng.random() < 0.5 else pb.tcp
            frame = make(a[0], a[1], b[0], b[1], payload_len=int(rng.integers(0, 300)),
                         options=options)
        stamp = t - int(rng.integers(0, 2_000_000)) if rng.random() < 0.1 else t
        sec, usec = divmod(stamp, 1_000_000)
        records.append((sec, usec * 1000 if nanos else usec, frame))
    return pb.capture(records, endian=endian, nanos=nanos)


# Computed with the per-packet parser this columnar one replaced.  Little-
# and big-endian captures carry the same timestamps; nanosecond ticks give
# other float bits.
GOLDEN_SHA256 = {
    ("<", False): "b970f20b2c269e262039a467f321c07c15a04a7b332a30e9a86f2c4d4d893666",
    (">", False): "b970f20b2c269e262039a467f321c07c15a04a7b332a30e9a86f2c4d4d893666",
    ("<", True): "f544d5c23c6e71e8949e9eb18243a1794c485a3d896a811616cacf223992b89b",
}


def golden_digest(endian: str, nanos: bool, path) -> str:
    """sha256 of the CSV `write_flow_csv` writes, without its final newline."""
    parsed = parse_pcap_bytes(golden_capture(endian, nanos))
    assert all(count > 0 for count in parsed.skipped.values())
    stats = featurize_flows(assemble_flows(parsed.packets, idle_timeout=60.0))
    write_flow_csv(stats, path, "golden", pad_to=48)
    data = path.read_bytes()
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    return hashlib.sha256(data[:-1]).hexdigest()


@pytest.mark.parametrize("endian, nanos", list(GOLDEN_SHA256))
def test_golden_csv_bytes(endian, nanos, tmp_path):
    assert golden_digest(endian, nanos, tmp_path / "golden.csv") == GOLDEN_SHA256[endian, nanos]


@pytest.mark.parametrize("endian, nanos", list(GOLDEN_SHA256))
def test_golden_csv_bytes_through_a_small_buffer(endian, nanos, monkeypatch, tmp_path):
    # A 128-byte buffer refills at almost every record and is shorter than
    # many of them.
    monkeypatch.setattr(flowcap, "_BUFFER_BYTES", 128)
    assert golden_digest(endian, nanos, tmp_path / "golden.csv") == GOLDEN_SHA256[endian, nanos]


# One flow whose gaps mix tens of seconds with a few microseconds.  Adding
# a microsecond gap to a running sum of tens of seconds drops low bits, so a
# compensated sum (float sum() from CPython 3.12 on) gives other bits.
MIXED_GAPS_US = [16_063_297, 3, 39_671_595, 1, 3, 1, 51_748_323, 27_034_327,
                 1, 2, 3, 13, 2]


def test_gap_means_accumulate_left_to_right():
    frame = pb.udp("10.0.0.1", 5000, "10.0.0.2", 53, payload_len=4)
    stamps = accumulate(MIXED_GAPS_US, initial=2_000_000)
    parsed = parse_pcap_bytes(pb.capture([(*divmod(t, 1_000_000), frame) for t in stamps]))
    (stats,) = featurize_flows(assemble_flows(parsed.packets))
    assert repr(stats.iat_mean) == repr(stats.fwd_iat_mean) == "10.347505461538459"
    assert stats.rev_iat_mean == 0.0
    # The case tells the two apart: the correctly rounded mean differs.
    times = parsed.packets.timestamp
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert math.fsum(gaps) / len(gaps) != stats.iat_mean

"""`tests/same_bytes.py` stays runnable: its matrix, reduced to one variant
and one featurize case, finds no difference between the working tree and
itself, and its diff names every file that differs or exists on one side
only."""

import pcap_builder as pb
import same_bytes


def small_capture(path):
    """Two UDP flows over 20 seconds: `pcap_builder.reorder` can put them out of order."""
    frames = [(sec, 1000 * flow, pb.udp("10.0.0.1", 4000 + flow, "10.0.0.2", 53,
                                         payload_len=100 + sec))
              for sec in range(20) for flow in range(2)]
    path.write_bytes(pb.capture(frames))
    return path


def test_working_tree_against_itself_reports_no_difference(tmp_path):
    src = same_bytes.REPO / "src"
    capture = small_capture(tmp_path / "small.pcap")
    count, lines = same_bytes.compare(src, src, tmp_path / "out", variants=("m1-van",),
                                      optimizers=("adam", "sgd"), trials=False,
                                      chunked=False, capture=capture, featurize=[("1", True)])
    assert lines == []
    # per run (two optimizers and the 16x3 frames): history, checkpoint, two
    # reports and two evaluate reports; the four audits; a CSV and its
    # summary for the capture in order and reordered; the change's two
    # reports for each parent checkpoint
    assert count == 3 * 6 + 4 + 2 * 2 + 3 * 2
    # the reordered copy holds the same records in another order
    reordered = tmp_path / "out" / "reordered.pcap"
    assert reordered.read_bytes() != capture.read_bytes()
    assert sorted(reordered.read_bytes()) == sorted(capture.read_bytes())


def test_diff_names_every_differing_or_missing_file(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, last in ((parent, 1), (change, 2)):
        (root / "run").mkdir(parents=True)
        (root / "run" / "report.txt").write_text("same\n")
        (root / "run" / "model.ckpt").write_bytes(bytes([0, last]))
    (parent / "trials.txt").write_text("parent only\n")
    count, lines = same_bytes.diff_dirs(parent, change)
    assert count == 3
    assert lines == ["only in parent: trials.txt", "differs: run/model.ckpt"]

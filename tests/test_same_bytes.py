"""`tests/same_bytes.py` stays runnable: its matrix, reduced to one variant,
finds no difference between the working tree and itself, and its diff names
every file that differs or exists on one side only."""

import same_bytes


def test_working_tree_against_itself_reports_no_difference(tmp_path):
    src = same_bytes.REPO / "src"
    count, lines = same_bytes.compare(src, src, tmp_path, variants=("m1-van",),
                                      optimizers=("adam", "sgd"), trials=False)
    assert lines == []
    # per run: history, checkpoint, two reports and two evaluate reports; the
    # audit; the change's two reports for each parent checkpoint
    assert count == 2 * 6 + 1 + 2 * 2


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

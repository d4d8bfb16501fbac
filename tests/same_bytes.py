"""Show that a change keeps every seeded model artifact, byte for byte.

    python tests/same_bytes.py PARENT [CHANGE]

PARENT and CHANGE are git revisions of this repository; CHANGE defaults
to the working tree.  Each revision's `src/` is exported with
`git archive` (the working tree is read in place), and each tree runs one
fixed matrix in one subprocess that calls `tdntc.cli.main` in process:

- `train` and `evaluate --out` of the six variants under Adam and SGD
- two m2-td `train` and `evaluate --out` runs on a larger synth CSV, whose
  321-row validation split spans two 256-row inference chunks and ends
  in a 33-row block: one at the matrix's 16 units, and one at `--units 128
  --td-units 128`.  At 128 units the decision layer's row results depend
  on how many rows it runs at once, so the validation loss in
  `history.csv` shows a change to the chunk rules, and the 101,507
  parameters span two Adam blocks
- one m3-td `train --trials 2 --lr-jitter 0.1` and its `evaluate --out`
- `audit-params` of the six variants at 48 features and 141 classes, and
  at 48 and 3 with `--units 16`, plus `--factor-pair 8,6` for m1 and m3
  (m2 refuses any factor pair)
- `featurize` of the capture that `python perfbench/inputs.py capture 1
  OUT` writes, in file order and reordered (`pcap_builder.reorder`), at
  `--idle-timeout` 0, 1 and 60, with and without `--pad-to 48`: the CSV
  and its `.summary.json`

The inputs both matrices read are written once: the capture by the
perfbench generator, the synth CSVs and the reordered capture by the change
tree.  So a change to what `synth` writes shows as one differing input,
not as every artifact differing.  A third subprocess has the change tree
evaluate every checkpoint the parent wrote.  The script prints each file
that differs between the two trees' outputs, and each parent checkpoint
whose evaluation under the change differs from the parent's own, then
one summary line.  It exits 1 if any file differs.

Model artifacts follow the CPU's BLAS kernels, so only two trees run on
one machine can be compared.  `tests/test_same_bytes.py` runs a reduced
matrix of the working tree against itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pcap_builder

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

VARIANTS = ("m1-td", "m1-van", "m2-td", "m2-van", "m3-td", "m3-van")
OPTIMIZERS = ("adam", "sgd")
SYNTH_ARGS = ["--classes", "3", "--per-class", "60", "--features", "48", "--seed", "3"]
TRAIN_ARGS = ["--epochs", "3", "--units", "16", "--td-units", "16", "--seed", "5"]
TRIALS_ARGS = ["--variant", "m3-td", "--trials", "2", "--lr-jitter", "0.1"]
# 3 classes x floor(0.1 x 1070) = 321 validation rows: 256 + 32 + 33
CHUNKED_RUNS = {"m2-td-val321": ["--variant", "m2-td"],
                "m2-td-val321-units128": ["--variant", "m2-td", "--units", "128",
                                          "--td-units", "128"]}
CHUNKED_SYNTH_ARGS = ["--classes", "3", "--per-class", "1070", "--features", "48", "--seed", "3"]
AUDITS = {"48-141": ["48", "141"], "48-3-units16": ["48", "3", "--units", "16"],
          "48-3-units16-pair8x6": ["48", "3", "--units", "16", "--factor-pair", "8,6"]}
# (idle timeout, --pad-to 48) of each featurize run
FEATURIZE_CASES = tuple((timeout, pad) for timeout in ("0", "1", "60") for pad in (False, True))


def _cli(argv: Sequence[str]) -> str:
    """Run `tdntc.cli.main(argv)` and return its stdout; fail on a non-zero exit."""
    from tdntc.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    if status != 0:
        raise SystemExit(f"tdntc {' '.join(argv)} exited {status}")
    return out.getvalue()


def run_matrix(spec: dict) -> None:
    """Write one tree's artifacts for `spec` (see `_spawn`) under spec["out"]."""
    out, csv, chunked_csv = Path(spec["out"]), spec["csv"], spec["chunked_csv"]
    captures = spec.get("captures", ())
    if spec.get("synth"):
        _cli(["synth", *SYNTH_ARGS, "--out", csv])
        if spec["chunked"]:
            _cli(["synth", *CHUNKED_SYNTH_ARGS, "--out", chunked_csv])
        if captures:
            in_order, reordered = map(Path, captures)
            reordered.write_bytes(pcap_builder.reorder(in_order.read_bytes()))
    runs = [(f"{variant}-{opt}", ["--variant", variant, "--optimizer", opt])
            for variant in spec["variants"] for opt in spec["optimizers"]]
    if spec["trials"]:
        runs.append(("m3-td-trials", TRIALS_ARGS))
    if spec["chunked"]:
        runs += CHUNKED_RUNS.items()
    for name, args in runs:
        run, data = out / name, chunked_csv if name in CHUNKED_RUNS else csv
        _cli(["train", data, *TRAIN_ARGS, *args, "--out", str(run)])
        _cli(["evaluate", str(run / "model.ckpt"), data, "--out", str(run / "evaluate")])
    for variant in spec["variants"]:
        for name, args in AUDITS.items():
            if "--factor-pair" in args and variant.startswith("m2"):
                continue
            text = _cli(["audit-params", variant, *args])
            (out / f"audit-{variant}-{name}.txt").write_text(text, encoding="utf-8")
    for capture in captures:
        for timeout, pad in spec["featurize"]:
            name = f"{Path(capture).stem}-idle{timeout}{'-pad48' if pad else ''}.csv"
            flows = out / "featurize" / name
            flows.parent.mkdir(exist_ok=True)
            _cli(["featurize", capture, "--out", str(flows), "--idle-timeout", timeout,
                  *(["--pad-to", "48"] if pad else [])])
    for ckpt in spec.get("checkpoints", ()):
        name = Path(ckpt).parent.name
        data = chunked_csv if name in CHUNKED_RUNS else csv
        _cli(["evaluate", ckpt, data, "--out", str(out / name / "evaluate")])


def _spawn(src: Path, spec: dict) -> None:
    """Run `run_matrix(spec)` in a fresh interpreter that imports `tdntc` from `src`."""
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import same_bytes, tdntc; "
            "assert tdntc.__file__.startswith(sys.argv[1]), tdntc.__file__; "
            "same_bytes.run_matrix(json.loads(sys.argv[3]))")
    done = subprocess.run([sys.executable, "-c", code, str(src.resolve()), str(HERE),
                           json.dumps(spec)],
                          cwd=spec["out"], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"matrix failed under {src}:\n{done.stdout}{done.stderr}")


def export_src(rev: str, dest: Path) -> Path:
    """Unpack `src/` of git revision `rev` into `dest` and return its path."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def diff_dirs(a: Path, b: Path) -> Tuple[int, List[str]]:
    """(files compared, one line per file that differs or exists on one side only)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = [f"only in {a.name}: {p}" for p in sorted(files_a - files_b)]
    lines += [f"only in {b.name}: {p}" for p in sorted(files_b - files_a)]
    lines += [f"differs: {p}" for p in sorted(files_a & files_b)
              if (a / p).read_bytes() != (b / p).read_bytes()]
    return len(files_a | files_b), lines


def compare(parent_src: Path, change_src: Path, work: Path, variants=VARIANTS,
            optimizers=OPTIMIZERS, trials: bool = True, chunked: bool = True,
            capture: Optional[Path] = None,
            featurize=FEATURIZE_CASES) -> Tuple[int, List[str]]:
    """Run the matrix on both trees under `work`; (files compared, differences).

    `chunked` adds the two m2-td runs on the larger CSV.  `capture`, if given,
    is featurized in file order and reordered, once for each (idle timeout,
    pad) case of `featurize`.
    """
    csv = str(work / "synth.csv")
    sides = {name: work / name for name in ("parent", "change", "cross")}
    for path in sides.values():
        path.mkdir(parents=True)
    captures = [str(capture), str(work / "reordered.pcap")] if capture else []
    spec = {"csv": csv, "chunked_csv": str(work / "synth-chunked.csv"),
            "variants": list(variants), "optimizers": list(optimizers), "trials": trials,
            "chunked": chunked, "captures": captures, "featurize": list(featurize)}
    _spawn(change_src, dict(spec, out=str(sides["change"]), synth=True))
    _spawn(parent_src, dict(spec, out=str(sides["parent"])))
    checkpoints = sorted(str(p) for p in sides["parent"].glob("*/model.ckpt"))
    _spawn(change_src, dict(spec, out=str(sides["cross"]), variants=[], optimizers=[],
                            trials=False, chunked=False, captures=[],
                            checkpoints=checkpoints))
    count, lines = diff_dirs(sides["parent"], sides["change"])
    # the change's evaluation of each parent checkpoint against the parent's own
    for ckpt in checkpoints:
        run = Path(ckpt).parent.name
        n, more = diff_dirs(sides["parent"] / run / "evaluate", sides["cross"] / run / "evaluate")
        count += n
        lines += [f"{line} (parent checkpoint {run} evaluated by the change)" for line in more]
    return count, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent tree")
    parser.add_argument("change", nargs="?", help="git revision (default: the working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        parent_src = export_src(args.parent, work / "trees" / "parent")
        change_src = (export_src(args.change, work / "trees" / "change") if args.change
                      else REPO / "src")
        capture = work / "capture.pcap"
        subprocess.run([sys.executable, str(REPO / "perfbench" / "inputs.py"), "capture", "1",
                        str(capture)], check=True)
        count, lines = compare(parent_src, change_src, work / "out", capture=capture)
    for line in lines:
        print(line)
    change = args.change or "the working tree"
    print(f"same_bytes: {count} files compared, {len(lines)} differ "
          f"({args.parent} -> {change})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

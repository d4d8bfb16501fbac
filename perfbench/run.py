"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-cnn --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
`src/`, nothing needs installing.  Workloads: train-cnn, train-rnn and
featurize (see workloads.py).  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones and writes the recorded spans to
`.perfbench/spans-<workload>-<seed>.jsonl`.  Inputs and outputs live in
`.perfbench/`.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the environment, the loss
history, every metric by name and unit, and the error rate.  The exit code is 0 only when
every program call succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-cnn", "train-rnn", "featurize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tdntc" / "__init__.py").is_file():
        print(f"error: no tdntc sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: set before numpy is first imported, which happens
    # when the workloads module loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    env = workloads.environment()
    env["blas_threads"] = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    env["seed"] = args.seed
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    result, ledger = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work)
    line = workloads.result_line(result, ledger, bool(args.trace))
    doc = json.loads(line)
    for name, m in doc["metrics"].items():
        alias = result.aliases.get(name)
        suffix = f"  ({alias})" if alias else ""
        print(f"metric {name} {m['value']!r} {m['unit']}{suffix}")
    # error_rate is failed / attempted of the result line, not a metric of its own.
    print(f"errors error_rate {doc['failed'] / doc['attempted']!r} ratio  "
          f"({doc['failed']} failed of {doc['attempted']} calls and checks)")
    (work / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": doc}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(line, flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

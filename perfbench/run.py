"""Benchmark entry point.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Prints a JSON line of run details (quality figures, environment), then,
as the last line, the result: {"correct", "attempted", "failed",
"metrics"}.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones.  Exits non-zero without a result when the checkout lacks
the package or the oracle, or when the float64 oracle gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gatedoc").is_dir() or not (
        ROOT / "tests" / "forward_oracle.py"
    ).is_file():
        print(f"error: {ROOT} holds no src/gatedoc or tests/forward_oracle.py", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # BLAS reads its thread count once, when numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(workload.threads())
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import oraclegate

    try:
        details, result = harness.run(workload, args.seed, args.seconds, args.trace, ROOT)
    except oraclegate.GateError as exc:
        print(f"error: oracle gate failed, nothing timed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

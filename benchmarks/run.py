"""airl benchmark: study wall time end to end, and per module when traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload study_mix --seed 1 --seconds 40 --trace 0

Workloads: study_mix and rescue_eval (see benchmarks/README.md).
With --trace 0 the last line of standard output is a JSON object with the
bounded end-to-end metrics; with --trace 1 it holds the per-layer metrics.
The line before it carries the run manifest, sample counts,
trajectory_sha256, the unbounded end-to-end metrics (unit, probe and rescue
times, median step time, throughput, probe accuracy and the failed-operation
share). The exit code is 0 only when every correctness check passed.
"""

import os
import sys

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "airl" / "__init__.py").is_file():
        print(f"benchmark: no airl sources under {SRC}", file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        print("benchmark: numpy was imported before BLAS threads were pinned",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import airl

    if Path(airl.__file__).resolve().parent != SRC / "airl":
        print(f"benchmark: imported airl from {airl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)}")
    os.chdir(HERE.parent)
    report = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(report["info"]))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

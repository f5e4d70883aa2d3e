"""Run interleaved parent/change benchmark pairs and write a BENCH_<n>.json.

Each pair runs `benchmarks/run.py --trace 0` on one seed in each of two
checkouts, one after the other: the parent first in odd pairs and the change
first in even pairs, so drift of the machine falls on both sides. Pair i of a
workload uses seed FIRST + i - 1. Both checkouts should hold identical
`benchmarks/`. For each bounded metric the summary gives each side's median
and quartiles (numpy's linear interpolation), the number of pairs in which
the change read lower (ties count for neither side), and the change of the
rounded median, absolute and relative to the parent's. Each metric then gets
a verdict (`verdicts`): `gain`, `regression` or `unresolved`. The file is
rewritten after every pair, so an interrupted series keeps the pairs already
run; its verdicts read `unresolved` until ten pairs have run.

Run from the repository root, with the parent checked out elsewhere:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload study_mix=8101 --workload rescue_eval=8201 \\
        --pairs 10 --seconds 40 --title "..." --out BENCH_8.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("step_ms.p90", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
# The fewest pairs from which `verdicts` reads a gain or a regression.
MIN_PAIRS = 10
COMMAND = ("python3 benchmarks/run.py --workload <workload> --seed <seed> "
           "--seconds {seconds} --trace 0")


def parse_run(stdout: str) -> dict:
    """The bounded metrics, trajectory and operation counts of one run, from
    the two JSON lines that end `benchmarks/run.py`'s output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("benchmark output lacks its info and result lines")
    info, result = (json.loads(line) for line in lines[-2:])
    return {
        "metrics": {name: result["metrics"][name]["value"]
                    for name in METRICS},
        "trajectory_sha256": info.get("trajectory_sha256"),
        "ops_attempted": result["attempted"],
        "ops_failed": result["failed"],
        "manifest": info["manifest"],
    }


def pair_record(number: int, seed: int, first: str, runs: dict) -> dict:
    return {
        "pair": number,
        "seed": seed,
        "first": first,
        **{side: runs[side]["metrics"] for side in SIDES},
        "trajectory_sha256_equal": (runs["parent"]["trajectory_sha256"]
                                    == runs["change"]["trajectory_sha256"]),
        "ops_failed": {side: runs[side]["ops_failed"] for side in SIDES},
        "ops_attempted": {side: runs[side]["ops_attempted"] for side in SIDES},
    }


def progress_line(workload: str, total: int, record: dict) -> str:
    """The line printed after each pair (a `pair_record`): every bounded
    metric, the parent's value, then the change's."""
    return (f"{workload} pair {record['pair']}/{total} seed {record['seed']} "
            "(parent -> change): " + ", ".join(
                f"{name} {record['parent'][name]:.4g} -> "
                f"{record['change'][name]:.4g}" for name in METRICS))


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "iqr": round(float(q3 - q1), 4)}


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for name in METRICS:
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        # Taken between the rounded medians, so that it is the difference
        # of the printed ones.
        parent = stats["parent"]["median"]
        change = round(stats["change"]["median"] - parent, 4)
        summary[name] = {
            **stats,
            "change_lower_in_pairs": f"{lower}/{len(pairs)}",
            "median_change": change,
            "median_change_rel": round(change / parent, 4),
        }
    return summary


def load_bounds() -> dict:
    """Each end-to-end metric's bound: the largest rise of its median,
    relative to the parent's, that is not a regression."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def verdicts(pairs: list[dict], bounds: dict) -> dict:
    """Per metric of `summarize(pairs)` (each lower is better):

    - `gain` when the change read lower in at least 9 of 10 pairs, its
      median is below the parent's by more than the parent's IQR, and no
      larger share of its operations failed than of the parent's;
    - `regression` when its median is above the parent's by more than the
      metric's bound, relative to the parent's median;
    - `unresolved` otherwise, and for every metric while fewer than
      `MIN_PAIRS` pairs have run.
    """
    summary = summarize(pairs)
    if len(pairs) < MIN_PAIRS:
        return dict.fromkeys(summary, "unresolved")
    failed, attempted = ({side: sum(pair[key][side] for pair in pairs)
                          for side in SIDES}
                         for key in ("ops_failed", "ops_attempted"))
    fails_more = (failed["change"] * attempted["parent"]
                  > failed["parent"] * attempted["change"])
    out = {}
    for name, entry in summary.items():
        lower = int(entry["change_lower_in_pairs"].split("/")[0])
        if (10 * lower >= 9 * len(pairs) and not fails_more
                and -entry["median_change"] > entry["parent"]["iqr"]):
            out[name] = "gain"
        elif entry["median_change_rel"] > bounds[name]:
            out[name] = "regression"
        else:
            out[name] = "unresolved"
    return out


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine(manifest: dict) -> dict:
    return {"cpu": cpu_name(),
            **{key: manifest[key] for key in
               ("python", "numpy", "blas", "nproc", "cpus_usable")}}


def run_benchmark(checkout: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode} without a result ({exc}):\n"
                         f"{proc.stderr[-2000:]}") from exc


def workload_arg(text: str) -> tuple[str, int]:
    name, sep, first = text.partition("=")
    if not sep or not first.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected <workload>=<first seed>, got {text!r}")
    return name, int(first)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", type=workload_arg, action="append",
                        required=True, metavar="NAME=FIRST_SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--title", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bounds = load_bounds()
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    report = {
        "title": args.title,
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "method": (
            f"{args.pairs} pairs per workload. Each pair runs the parent and "
            "the change on one seed, one after the other, each from its own "
            "checkout; the parent runs first in odd pairs, the change first "
            "in even pairs ('first'). Quartiles are numpy "
            "linear-interpolation percentiles over the runs of one side."),
        "machine": None,
        "workloads": {},
    }
    for workload, first_seed in args.workload:
        seeds = list(range(first_seed, first_seed + args.pairs))
        pairs: list[dict] = []
        entry = {"seeds": seeds, "summary": None, "verdicts": None,
                 "pairs": pairs}
        report["workloads"][workload] = entry
        for number, seed in enumerate(seeds, start=1):
            order = SIDES if number % 2 else SIDES[::-1]
            runs = {side: run_benchmark(checkouts[side], workload, seed,
                                        args.seconds) for side in order}
            report["machine"] = report["machine"] or machine(
                runs["change"]["manifest"])
            pairs.append(pair_record(number, seed, order[0], runs))
            entry["summary"] = summarize(pairs)
            entry["verdicts"] = verdicts(pairs, bounds)
            args.out.write_text(json.dumps(report, indent=1) + "\n",
                                encoding="utf-8")
            print(progress_line(workload, args.pairs, pairs[-1]),
                  file=sys.stderr, flush=True)
        print(f"{workload}: " + ", ".join(
            f"{name} {verdict}" for name, verdict in entry["verdicts"].items()),
            file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The summary arithmetic of tools/bench_pairs.py, on canned benchmark
output; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

MANIFEST = {"workload": "rescue_eval", "seed": 1, "python": "3.11.7",
            "numpy": "2.4.6", "blas": "openblas", "nproc": 2,
            "cpus_usable": 2}


def output(step_ms, setup_s, rss_mb, sha="aa", failed=0):
    """What `benchmarks/run.py --trace 0` prints: a log line, the info line,
    then the result line."""
    info = {"manifest": MANIFEST, "trajectory_sha256": sha,
            "ops_attempted": 72, "ops_failed": failed}
    metrics = {"setup_s": (setup_s, "s"), "step_ms.p90": (step_ms, "ms"),
               "peak_rss_mb": (rss_mb, "MB")}
    result = {"correct": failed == 0, "attempted": 72, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return f"study done\n{json.dumps(info)}\n{json.dumps(result)}\n"


def canned_pairs():
    # (parent, change) step_ms.p90 per pair; pair 4 is a tie.
    steps = [(50.0, 40.0), (40.0, 41.0), (60.0, 30.0), (45.0, 45.0)]
    pairs = []
    for number, (p_step, c_step) in enumerate(steps, start=1):
        runs = {"parent": bench_pairs.parse_run(output(p_step, 1.0, 50.0)),
                "change": bench_pairs.parse_run(
                    output(c_step, 1.0 + number, 50.5,
                           sha="bb" if number == 2 else "aa",
                           failed=number == 3))}
        first = "parent" if number % 2 else "change"
        pairs.append(bench_pairs.pair_record(number, 100 + number, first,
                                             runs))
    return pairs


def test_pair_records_read_the_result_lines():
    pairs = canned_pairs()
    assert pairs[1] == {
        "pair": 2, "seed": 102, "first": "change",
        "parent": {"step_ms.p90": 40.0, "setup_s": 1.0, "peak_rss_mb": 50.0},
        "change": {"step_ms.p90": 41.0, "setup_s": 3.0, "peak_rss_mb": 50.5},
        "trajectory_sha256_equal": False,
        "ops_failed": {"parent": 0, "change": 0},
        "ops_attempted": {"parent": 72, "change": 72},
    }
    assert pairs[0]["trajectory_sha256_equal"]
    assert pairs[2]["ops_failed"] == {"parent": 0, "change": 1}


def test_progress_line_shows_every_bounded_metric():
    assert bench_pairs.progress_line("rescue_eval", 4, canned_pairs()[1]) == (
        "rescue_eval pair 2/4 seed 102 (parent -> change): step_ms.p90 "
        "40 -> 41, setup_s 1 -> 3, peak_rss_mb 50 -> 50.5")
    # A set-up of a quarter of a millisecond keeps its digits.
    runs = {"parent": bench_pairs.parse_run(output(8.061, 0.00025, 52.58)),
            "change": bench_pairs.parse_run(output(7.9, 0.000351, 52.21))}
    record = bench_pairs.pair_record(10, 8110, "change", runs)
    assert bench_pairs.progress_line("study_mix", 10, record) == (
        "study_mix pair 10/10 seed 8110 (parent -> change): step_ms.p90 "
        "8.061 -> 7.9, setup_s 0.00025 -> 0.000351, peak_rss_mb 52.58 -> "
        "52.21")


def test_summary_medians_quartiles_and_wins():
    summary = bench_pairs.summarize(canned_pairs())
    # parent 40, 45, 50, 60 and change 30, 40, 41, 45, sorted; quartiles
    # interpolate linearly at positions 0.75 and 2.25.
    assert summary["step_ms.p90"] == {
        "parent": {"median": 47.5, "q1": 43.75, "q3": 52.5, "iqr": 8.75},
        "change": {"median": 40.5, "q1": 37.5, "q3": 42.0, "iqr": 4.5},
        "change_lower_in_pairs": "2/4",
        "median_change": -7.0,
        "median_change_rel": -0.1474,
    }
    assert summary["setup_s"]["change"] == {"median": 3.5, "q1": 2.75,
                                            "q3": 4.25, "iqr": 1.5}
    assert summary["setup_s"]["change_lower_in_pairs"] == "0/4"
    assert summary["peak_rss_mb"]["median_change_rel"] == 0.01


def test_summary_reproduces_bench_6():
    report = json.loads((ROOT / "BENCH_6.json").read_text())
    for entry in report["workloads"].values():
        assert bench_pairs.summarize(entry["pairs"]) == entry["summary"]


def test_verdicts_need_nine_wins_beyond_the_iqr_or_a_rise_beyond_the_bound():
    def pairs_of(parent, change, failed=()):
        # Pair records as `pair_record` makes them; the change fails one of
        # 72 operations in each pair whose index is in `failed`.
        return [{"parent": dict(zip(bench_pairs.METRICS, p)),
                 "change": dict(zip(bench_pairs.METRICS, c)),
                 "ops_failed": {"parent": 0, "change": int(i in failed)},
                 "ops_attempted": {"parent": 72, "change": 72}}
                for i, (p, c) in enumerate(zip(parent, change))]

    # (step_ms.p90, setup_s, peak_rss_mb) per pair and side. The parent's
    # medians are 52 ms, 1.0 s and 55.25 MB, its IQRs 2 ms, 0 s and 0.5 MB.
    parent = [(50.0 + i % 5, 1.0, 55.0 + i % 2 / 2) for i in range(10)]
    change = [(step - 4.0, 1.2, rss - 3.0) for step, _, rss in parent]
    change[9] = (60.0, 1.2, 52.5)  # the change loses one step pair
    bounds = bench_pairs.load_bounds()
    assert bounds == {"setup_s": 0.25, "step_ms.p90": 0.25,
                      "peak_rss_mb": 0.1}
    pairs = pairs_of(parent, change)
    assert bench_pairs.summarize(pairs)["step_ms.p90"][
        "change_lower_in_pairs"] == "9/10"
    assert bench_pairs.verdicts(pairs, bounds) == {
        # 9/10 pairs, median down 4 ms against an IQR of 2 ms.
        "step_ms.p90": "gain",
        # Median up 20%: within the bound of 0.25.
        "setup_s": "unresolved",
        # 10/10 pairs, median down 3 MB against an IQR of 0.5 MB.
        "peak_rss_mb": "gain",
    }
    # The same pairs with one more failed operation on the change's side,
    # or before the tenth pair has run.
    unresolved = dict.fromkeys(bench_pairs.METRICS, "unresolved")
    assert bench_pairs.verdicts(pairs_of(parent, change, failed={3}),
                                bounds) == unresolved
    assert bench_pairs.verdicts(pairs[:9], bounds) == unresolved
    assert bench_pairs.verdicts(pairs[:1], bounds) == unresolved
    # Eight wins are not enough, however far the median moves; a rise of
    # the setup median beyond its bound; ten wins, but a median move
    # inside the parent's IQR.
    change = [(step, 1.26, rss + 2.6) for step, _, rss in change]
    change[8] = change[9]
    assert bench_pairs.verdicts(pairs_of(parent, change), bounds) == {
        "step_ms.p90": "unresolved", "setup_s": "regression",
        "peak_rss_mb": "unresolved"}


def test_output_without_result_lines_rejected():
    with pytest.raises(ValueError, match="result lines"):
        bench_pairs.parse_run("Traceback (most recent call last):\n")

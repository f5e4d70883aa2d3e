"""Closed-loop measurement of one workload, untraced or traced.

One process, one Python thread, BLAS pinned to one thread (see run.py). The
workload is set up several times (see `Sizing`), then its unit runs back to
back until `seconds` have passed (at least once). An untraced run reports the
end-to-end metrics. A traced run alternates untraced and traced units and
reports the per-layer metrics; the ratio of their wall times is the tracing
overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracing
from tracing import EXACT_COUNTS, PER_LAYER, Patches, StepClock, Tracer
from workloads import (
    FULL,
    WORKLOADS,
    Checks,
    Sizing,
    UnitResult,
    trajectory_sha256,
)

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("step_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def manifest(name: str, seed: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


class Unit(NamedTuple):
    result: UnitResult
    seconds: float
    clock: StepClock
    trajectory: str
    tracer: Tracer | None


def _run_unit(workload, checks: Checks, tracer: Tracer | None = None) -> Unit:
    """One timed unit; wrappers are installed only while it runs, so the
    checks that follow see the unwrapped program."""
    clock = StepClock()
    patches = Patches()
    try:
        if workload.hot_loop == "training":
            clock.install_training(patches)
        else:
            clock.install_refresh(patches)
        if tracer is not None:
            tracer.install(patches)
        started = time.perf_counter()
        result = workload.unit(clock)
        elapsed = time.perf_counter() - started
    finally:
        patches.restore()
    workload.verify(result, checks)
    return Unit(result, elapsed, clock, trajectory_sha256(result.outputs),
                tracer)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizing: Sizing = FULL) -> dict:
    """Run one workload; returns {"result": last-line object, "info": ...}.

    Outputs go under `.bench_out/<name>`, relative to the working directory:
    the rescue note in a checkpoint records the anchor's path, and
    trajectory_sha256 must not depend on where the checkout lives.
    """
    out = Path(".bench_out") / name
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    # Fail before any work if a wrap site is gone.
    probe = Patches()
    try:
        StepClock().install_training(probe)
        StepClock().install_refresh(probe)
        Tracer().install(probe)
    finally:
        probe.restore()

    workload = WORKLOADS[name](seed, out, sizing)
    checks = Checks()
    setup_s: list[float] = []
    plain: list[Unit] = []
    traced: list[Unit] = []
    failed_ops = 0
    error = None
    try:
        while not setup_s or not trace and (
                len(setup_s) < sizing.setup_repeats
                or sum(setup_s) < sizing.setup_seconds):
            started = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - started)
        workload.check_setup(checks)
        started = time.perf_counter()
        while True:
            plain.append(_run_unit(workload, checks))
            if trace:
                traced.append(_run_unit(workload, checks, Tracer()))
            if time.perf_counter() - started >= seconds:
                break
    except Exception:  # report the failure as a failed operation
        failed_ops += 1
        error = traceback.format_exc()
        print(error, file=sys.stderr)

    units = plain + traced
    if units:
        # Traced units included: tracing must not change the trajectory.
        checks.expect(len({u.trajectory for u in units}) == 1,
                      "units of one run produced different trajectories")
        checks.expect(len({u.result.probe_top1 for u in units}) == 1,
                      "units of one run produced different probe accuracies")

    metrics: dict[str, dict] = {}
    info: dict = {"manifest": manifest(name, seed, trace)}
    if plain and not trace:
        metrics = _end_to_end(setup_s, plain)
        info["step_samples"] = sum(len(u.clock.intervals()) for u in plain)
    if traced:
        metrics = _per_layer(plain, traced, checks)
        traced[-1].tracer.write_spans(out / "spans.npz")
    attempted = sum(u.result.ops for u in units) + checks.attempted + failed_ops
    failed = len(checks.failures) + failed_ops
    also = _unbounded(workload, plain) if plain else {}
    also["ops_failed_share"] = _metric(
        failed / attempted if attempted else 1.0, "share")
    if plain:
        info.update(units=len(units), trajectory_sha256=plain[0].trajectory)
    info.update(also=also, ops_attempted=attempted, ops_failed=failed,
                check_failures=checks.failures[:20])
    if error is not None:
        info["error"] = error.strip().splitlines()[-1]
    result = {
        "correct": failed == 0 and bool(units),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    (out / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    return {"result": result, "info": info}


def _intervals(plain: list[Unit]) -> list[float]:
    return [x for u in plain for x in u.clock.intervals()]


def _end_to_end(setup_s: list[float], plain: list[Unit]) -> dict:
    values = {
        "setup_s": statistics.median(setup_s),
        "step_ms.p90": 1e3 * float(np.percentile(_intervals(plain), 90)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def _unbounded(workload, plain: list[Unit]) -> dict:
    """Metrics printed on the info line only: they are missing on some
    workloads, or they move with the host's speed from run to run by more
    than any allowed bound (see README.md, Steadiness)."""
    intervals = _intervals(plain)
    first = plain[0].result
    also = {
        "run_s": _metric(statistics.median(u.seconds for u in plain), "s"),
        "step_ms.p50": _metric(1e3 * float(np.percentile(intervals, 50)),
                               "ms"),
        "train_images_per_s": _metric(
            len(intervals) * workload.images_per_step / sum(intervals), "1/s"),
        "probe_s": _metric(
            statistics.median(t for u in plain for t in u.result.probe_s), "s"),
        "probe_top1": _metric(first.probe_top1, "share"),
    }
    also.update({f"probe_top1.{arm}": _metric(acc, "share")
                 for arm, acc in first.probes})
    if first.rescue_s is not None:
        also["rescue_s"] = _metric(
            statistics.median(u.result.rescue_s for u in plain), "s")
    return also


def _per_layer(plain: list[Unit], traced: list[Unit], checks: Checks) -> dict:
    """Counts from the first traced unit (checked equal in the others),
    times averaged over the traced units."""
    per_unit = [tracing.unit_layer_values(u.tracer, u.clock) for u in traced]
    for values in per_unit[1:]:
        for name in EXACT_COUNTS:
            checks.expect(values[name] == per_unit[0][name],
                          f"count {name} differs between traced units")
    values: dict[str, float] = {}
    for name in per_unit[0]:
        if isinstance(per_unit[0][name], int):
            values[name] = per_unit[0][name]
        else:
            values[name] = float(np.mean([v[name] for v in per_unit]))
    traced_s = float(np.mean([u.seconds for u in traced]))
    values["trace.run_s"] = traced_s
    values["trace.overhead_share"] = (
        traced_s / float(np.mean([u.seconds for u in plain])) - 1.0
    )
    return {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}

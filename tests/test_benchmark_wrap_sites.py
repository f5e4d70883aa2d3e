"""The names the benchmark wraps still exist in the program.

`benchmarks/tracing.py` replaces program functions by name, and a name that
was renamed or deleted raises `WrapSiteMissing` only when a benchmark run
installs its wrappers. Installing every wrapper here, without running
anything, catches that in the test suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import tracing  # noqa: E402
from airl import encoder, frameworks, numerics  # noqa: E402


def test_every_wrap_site_installs_and_restores():
    sites = [(owner, attr) for owner, attr, *_ in tracing.WRAP_SITES]
    sites += [(numerics.Rng, "_generator"), (frameworks, "training_step"),
              (encoder, "refresh_running_stats"), (encoder, "forward")]
    originals = [vars(owner).get(attr) for owner, attr in sites]
    patches = tracing.Patches()
    try:
        tracing.Tracer().install(patches)
        tracing.StepClock().install_training(patches)
        tracing.StepClock().install_refresh(patches)
        assert all(vars(owner).get(attr) is not original
                   for (owner, attr), original in zip(sites, originals))
    finally:
        patches.restore()
    assert [vars(owner).get(attr) for owner, attr in sites] == originals

r"""The bit-equality contract as a test: `tools/trajectory_digest.py` prints
the lines committed in `tests/expected_digest.txt`.

The file's header records the numpy version, the `matmul` path, the
augmentation path and the SIMD level numpy dispatched float64 `exp` and
`log` to when its lines were produced. Under another numpy version the
test skips and says why. The paths are information only: the kernel,
einsum and the per-k loop all keep `matmul`'s order contract, and the compiled and the
numpy augmentation pass give the same bits, so each must print the
committed lines, and the test runs on whichever paths this process chose. The tool runs with BLAS
pinned to one thread, as the benchmark runs, and again at two threads,
which skips on a machine with one CPU: every norm that feeds a trajectory
is `numerics.norm`, a numpy sum that BLAS does not split by thread count,
so both give the same lines.

Two host dependences remain, and on a host that differs in either the test
fails rather than skips; its message names the committed and the host's
dispatch level. The measured one is the `exp`/`log` dispatch: numpy's
AVX-512 loops give other last bits than its X86_V3 and baseline loops, and
with `NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"` 12 of the 15
lines change (all but the three aug-ablation rungs that run no blur). The
other is the SVD in `evaluation.collapse_metrics`, which runs on LAPACK, on
the kernel OpenBLAS picks for the CPU, which the header cannot name. A
change that breaks bit-equality on purpose regenerates the file, from the
repository root:

    export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
    (echo "# $(PYTHONPATH=src python3 tools/trajectory_digest.py \
        2>&1 >/dev/null | head -1)"; PYTHONPATH=src python3 \
        tools/trajectory_digest.py 2>/dev/null) > tests/expected_digest.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_name("expected_digest.txt")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def numpy_version(produced_by: str) -> str:
    """"numpy 2.4.6" of "numpy 2.4.6, matmul path: kernel, augment path:
    kernel, exp/log dispatch: X86_V4"."""
    return produced_by.partition(",")[0]


def dispatch_level(produced_by: str) -> str:
    """"X86_V4" of "numpy 2.4.6, matmul path: kernel, augment path: kernel,
    exp/log dispatch: X86_V4"."""
    return produced_by.rpartition("exp/log dispatch: ")[2]


def digest_lines(threads: int, **env: str) -> tuple[list[str], list[str],
                                                      str, str]:
    """The tool's lines at `threads` BLAS threads, with `env` added to its
    environment, the committed ones, a message naming the `exp`/`log`
    dispatch level of each, and the tool's header; skips when the committed
    lines were recorded with another numpy version."""
    header, *expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    pythonpath = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "trajectory_digest.py")],
        cwd=REPO, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=pythonpath,
                 **dict.fromkeys(BLAS_THREAD_VARS, str(threads)), **env),
    )
    produced_by = proc.stderr.splitlines()[0]
    if numpy_version(header[2:]) != numpy_version(produced_by):
        pytest.skip(f"expected lines were recorded with {header[2:]}; "
                    f"this is {produced_by}")
    levels = (f"the committed lines were produced at exp/log dispatch "
              f"{dispatch_level(header)}, this host dispatches to "
              f"{dispatch_level(produced_by)}")
    return proc.stdout.splitlines(), expected, levels, produced_by


def test_header_parsers_read_both_header_forms():
    # The one header form: the numpy version, both paths, the dispatch
    # level.
    header = ("numpy 2.4.6, matmul path: kernel, augment path: kernel, "
              "exp/log dispatch: X86_V4")
    assert numpy_version(header) == "numpy 2.4.6"
    assert dispatch_level(header) == "X86_V4"


def test_trajectory_digest_matches_committed_lines():
    produced, expected, levels, _ = digest_lines(1)
    assert produced == expected, levels


def test_trajectory_digest_is_the_same_at_two_blas_threads():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("two BLAS threads need two usable CPUs")
    produced, expected, levels, _ = digest_lines(2)
    assert produced == expected, levels


def test_trajectory_digest_is_the_same_without_a_compiler():
    # With PATH emptied there is no `cc`, so `matmul` takes its einsum
    # fallback and `apply_plans` its numpy pass, which must print the same
    # lines as the two kernels.
    produced, expected, levels, produced_by = digest_lines(1, PATH="")
    assert "augment path: numpy," in produced_by
    assert produced == expected, levels

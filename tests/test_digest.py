r"""The bit-equality contract as a test: `tools/trajectory_digest.py` prints
the lines committed in `tests/expected_digest.txt`.

The file's header records the numpy version and the `matmul` path that
produced its lines; elsewhere the test skips and says why. The tool runs
with BLAS pinned to one thread, as the benchmark runs: `np.linalg.norm` in
the LARS trust ratio sums through BLAS, whose partial sums depend on the
thread count, so the LARS run's line and the probe line differ between one
thread and two. A change that breaks bit-equality on purpose regenerates
the file, from the repository root:

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
ONE_BLAS_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def test_trajectory_digest_matches_committed_lines():
    header, *expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    pythonpath = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "trajectory_digest.py")],
        cwd=REPO, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, **ONE_BLAS_THREAD),
    )
    produced_by = proc.stderr.splitlines()[0]
    if header != f"# {produced_by}":
        pytest.skip(f"expected lines were recorded with {header[2:]}; "
                    f"this is {produced_by}")
    assert proc.stdout.splitlines() == expected

"""The per-k matmul loop, frozen as the reference for the exact path.

This is the loop that `airl.numerics.matmul` ran for every output before it
cut outputs into row tiles: one broadcast product of a column of `a` by a row
of `b` per k, added to the running sum. Each output element is summed from
+0.0 over k in order. A pure-Python triple loop is too slow at the study's
shapes, so tests require `matmul` to equal `matmul_per_k` bit for bit there,
and the triple loop only on small shapes. Do not change it.
"""

from __future__ import annotations

import numpy as np


def matmul_per_k(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    m, inner = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    tmp = np.empty((m, n))
    for k in range(inner):
        np.multiply(a[:, k, None], b[k, None, :], out=tmp)
        out += tmp
    return out

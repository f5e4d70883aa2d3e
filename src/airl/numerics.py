"""Dense float64 arithmetic, deterministic RNG streams, and a gradient oracle.

All tensors are plain numpy float64 arrays in row-major order. The few
reductions whose result depends on summation order (matrix products) use an
explicit fixed order so that repeated runs are bit-identical and small cases
match a naive reference exactly: `matmul` sums each output element from +0.0
over k = 0, 1, ... in order. It cuts the output into tiles of whole rows and
takes each tile a chunk of k at a time, with one einsum of outer products and
one in-order reduction per chunk; a tile of a single element goes k by k.
`matmul`'s docstring says why tiles and chunks give the naive loop's bits.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable

import numpy as np

from .errors import DegenerateFeatureError, DimensionError, OracleError

FD_STEP_DEFAULT = 1e-5
# `matmul`'s chunk buffer holds this many doubles of outer products (512 KB),
# and its row tiles are sized to hold `TILE_KC` k-steps of them.
MATMUL_CHUNK_DOUBLES = 65536
TILE_KC = 32


def _stream_key(seed: int, stream_id: int) -> int:
    digest = hashlib.blake2b(
        f"{seed}|{stream_id}".encode(), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Counter-based random stream keyed by (seed, stream_id).

    Philox underneath, so equal (seed, stream_id, call sequence) gives an
    identical draw sequence on every platform. `child` derives a new,
    statistically independent stream from string/int labels without consuming
    any state from the parent, which makes per-sample and per-augmentation
    streams order-independent.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen: np.random.Generator | None = None

    @property
    def _generator(self) -> np.random.Generator:
        # Constructed on first draw; streams that only derive children never
        # pay for a bit generator.
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(key=_stream_key(self.seed, self.stream_id))
            )
        return self._gen

    def child(self, *labels: object) -> "Rng":
        """Derive an independent stream keyed by this stream and `labels`."""
        tag = "|".join(str(x) for x in labels)
        digest = hashlib.blake2b(
            f"{self.stream_id}|{tag}".encode(), digest_size=8
        ).digest()
        return Rng(self.seed, int.from_bytes(digest, "little"))

    def random(self, size=None):
        return self._generator.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._generator.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._generator.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._generator.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator.permutation(n)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream_id={self.stream_id})"


class StreamLoader:
    """One reusable Philox generator that can be re-keyed to any `Rng` stream.

    `load(rng)` returns a generator whose draws equal those of a fresh `rng`,
    draw for draw, without building a bit generator per stream:
    `np.random.Philox(key=...)` spends most of its construction time
    collecting OS entropy for a seed sequence that the key then overrides.
    The generator is shared, so it is valid only until the next `load`; the
    `Rng`'s own stream is not advanced.
    """

    def __init__(self):
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)
        self._key = np.zeros(2, dtype=np.uint64)
        # The state of a freshly keyed Philox: counter 0, output buffer
        # exhausted, no buffered 32-bit half-word.
        self._fresh = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def load(self, rng: Rng) -> np.random.Generator:
        key = _stream_key(rng.seed, rng.stream_id)
        # Philox takes its 128-bit key as two little-endian 64-bit words.
        self._key[0] = key & 0xFFFF_FFFF_FFFF_FFFF
        self._key[1] = key >> 64
        self._bits.state = self._fresh
        return self._gen


def as_tensor(x) -> np.ndarray:
    """Coerce to a float64 array (copying only when needed)."""
    return np.asarray(x, dtype=np.float64)


def _empty_aligned(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialized float64 array whose data starts on a 64-byte boundary.

    numpy only guarantees 16-byte alignment, so whether a fresh array starts
    on a cache line depends on what was allocated before it. `matmul`'s loop
    ran about 30% slower on (384x768)@(768x64) when its `tmp` buffer did
    not start on one (AVX-512 Xeon), so its speed changed with unrelated
    allocations.
    """
    count = math.prod(shape)
    raw = np.empty(count + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + count].reshape(shape)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation over the inner axis.

    Order contract: each output element is
    `((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...`, every product rounded
    once and summed in k order from +0.0. That is the naive triple loop bit
    for bit, unlike BLAS kernels, which are free to reorder partial sums.

    One numpy call per k costs more in call overhead than in arithmetic, so
    the output is cut into tiles of whole rows and each tile takes k `kc`
    steps at a time. A tile has `MATMUL_CHUNK_DOUBLES // (TILE_KC * n)` rows
    (at least 1, at most m), so a tall output gets about `TILE_KC` k-steps
    per chunk and a small one is a single tile with a longer chunk: `kc` is
    `MATMUL_CHUNK_DOUBLES // (rows * n)`, at least 1 and at most the inner
    size. Per chunk, the tile's running sum goes into slab 0 of a
    (kc + 1, rows, n) buffer and the chunk's outer products
    `a[i, k] * b[k, :]` into the next slabs, all in one einsum. The einsum
    has no summed index, so each product is still rounded once. One
    `np.add.reduce` over the leading axis then folds the slabs into the tile.

    Why the bits do not change: each output element depends only on its own
    row of `a` and column of `b`, so which elements share a numpy call (the
    tiling) cannot change its sum. On a C-contiguous buffer with more than
    one element per slab the reduction adds whole slabs one after another,
    so each element still sums k in order. It starts from the running sum,
    not from the chunk's first product, so every sum still starts at +0.0.
    Round-to-nearest addition gives -0.0 only from two -0.0 operands, so a
    sum begun at +0.0 never becomes -0.0, and the sign of a zero product
    changes no bit of the result. Two cases need care:

    - A tile of a single element (a 1x1 output, or n = 1 with a one-row
      last tile) would reduce a 1-d array, which numpy sums pairwise. It
      takes the per-k loop instead.
    - The slab-after-slab order was checked on C-contiguous buffers only,
      so a last tile with fewer rows reduces over its own C-contiguous
      (kc + 1, r, n) buffer, carved from the front of the full-size one,
      not over a strided view into it.

    Each tile copies its rows of `a.T` into a contiguous block, so the chunk
    reads whole rows of it without copying all of `a.T` at once. `b` is
    copied once when it is not C-contiguous (`W.T` in the encoder's
    backward). Empty outputs, and an inner size of 0, give zeros.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul needs 2-d operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.shape} vs {b.shape}"
        )
    m, inner = a.shape
    n = b.shape[1]
    out = _empty_aligned((m, n))
    out.fill(0.0)
    if m * n == 0 or inner == 0:
        return out
    b = np.ascontiguousarray(b)
    rows = min(m, max(1, MATMUL_CHUNK_DOUBLES // (TILE_KC * n)))
    kc = min(inner, max(1, MATMUL_CHUNK_DOUBLES // (rows * n)))
    flat = _empty_aligned(((kc + 1) * rows * n,))
    for r0 in range(0, m, rows):
        tile = out[r0:r0 + rows]
        r = tile.shape[0]
        a_t = np.ascontiguousarray(a[r0:r0 + r].T)
        if r * n == 1:
            for k in range(inner):
                tile += a_t[k] * b[k]
            continue
        buf = flat[:(kc + 1) * r * n].reshape(kc + 1, r, n)
        for k0 in range(0, inner, kc):
            k1 = min(k0 + kc, inner)
            slabs = buf[:k1 - k0 + 1]
            slabs[0] = tile
            np.einsum("ki,kj->kij", a_t[k0:k1], b[k0:k1], out=slabs[1:])
            np.add.reduce(slabs, axis=0, out=tile)
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array, shape (n, 1)."""
    x = as_tensor(x)
    return np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row of (n, d) input to unit Euclidean norm.

    Raises DegenerateFeatureError naming the first offending row if any row
    norm is below 1e-12.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"expected (n, d) input, got shape {x.shape}")
    norms = row_norms(x)
    bad = np.where(norms[:, 0] < 1e-12)[0]
    if bad.size:
        raise DegenerateFeatureError(
            f"row {bad[0]} has norm {norms[bad[0], 0]:.3e} < 1e-12; "
            "cannot normalize a (near-)zero feature"
        )
    return x / norms


def l2_normalize_rows_backward(
    y: np.ndarray, norms: np.ndarray, grad_y: np.ndarray
) -> np.ndarray:
    """Backward of row normalization.

    `y` are the normalized rows, `norms` the pre-normalization row norms
    (n, 1). For each row, dx = (g - (g.y) y) / ||x||.
    """
    dot = np.sum(grad_y * y, axis=1, keepdims=True)
    return (grad_y - dot * y) / norms


def finite_diff_grad(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    h: float = FD_STEP_DEFAULT,
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a tensor.

    Perturbs one coordinate at a time: (f(x + h e_i) - f(x - h e_i)) / (2h).
    Exact (up to roundoff) for polynomials of degree <= 2. Works on a private
    copy of `x`; the perturbed copy is what `f` receives.
    """
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = float(f(x))
        flat_x[i] = orig - h
        f_minus = float(f(x))
        flat_x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleError(
                f"non-finite value at coordinate {i}: "
                f"f(x+h)={f_plus!r}, f(x-h)={f_minus!r}"
            )
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / max(||a||, ||b||), with 0/0 defined as 0."""
    a = as_tensor(a)
    b = as_tensor(b)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b)) / denom

"""Dense float64 arithmetic, deterministic RNG streams, and a gradient oracle.

All tensors are plain numpy float64 arrays in row-major order. The few
reductions whose result depends on summation order (matrix products) use an
explicit fixed order so that repeated runs are bit-identical and small cases
match a naive reference exactly: `matmul` sums each output element from +0.0
over k = 0, 1, ... in order. It is one numpy einsum contraction, whose C loop
runs in that order; `matmul`'s docstring says why, names the two shapes the
contraction cannot take, and describes the probe at import that checks
einsum's order and rounding, with the per-k loop as its fallback.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from .errors import DegenerateFeatureError, DimensionError, OracleError

FD_STEP_DEFAULT = 1e-5
# Eight terms whose k-order sum differs from numpy's pairwise sum.
PAIRWISE_DIFFERS = np.array([1.0, 1.0, 3.0, 0.5, 1e16, 1e16, 0.5, 0.5])


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


def _einsum_is_naive(einsum=np.einsum) -> bool:
    """Whether `einsum("ik,kj->ij", ...)` gives the naive loop's bits here.

    Two contractions on 67 output columns, so that the unrolled vector body,
    the one-vector loop and the scalar tail of einsum's multiply-add all see
    them:

    - `PAIRWISE_DIFFERS` times ones must give its k-order sum in every
      column; a reordered (pairwise or multi-accumulator) sum differs;
    - `[-1, 1+2**-27] . [1, 1-2**-27]` must give +0.0: the second product
      rounds to 1.0, while a fused multiply-add keeps it exact and gives
      -2**-54.
    """
    columns = 67
    ones = np.ones((PAIRWISE_DIFFERS.size, columns))
    in_order = 0.0
    for term in PAIRWISE_DIFFERS:
        in_order += term
    summed = einsum("ik,kj->ij", np.tile(PAIRWISE_DIFFERS, (2, 1)), ones,
                    optimize=False)
    left = np.array([[-1.0, 1.0 + 2.0**-27]] * 2)
    right = np.repeat([[1.0], [1.0 - 2.0**-27]], columns, axis=1)
    zero = einsum("ik,kj->ij", left, right, optimize=False)
    return bool(np.all(summed == in_order)
                and np.all(zero.view(np.uint64) == 0))


# The probe's verdict: True when `matmul` may use the einsum contraction.
EINSUM_IS_NAIVE = _einsum_is_naive()


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation over the inner axis.

    Order contract: each output element is
    `((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...`, every product rounded
    once and summed in k order from +0.0. That is the naive triple loop bit
    for bit, unlike BLAS kernels, which are free to reorder partial sums.

    It is one `np.einsum("ik,kj->ij", a, b, optimize=False)` on C-contiguous
    copies of the operands. Why that is the naive loop:

    - With `optimize=False` numpy runs its own C loops, never BLAS.
    - For C-contiguous `a` (m x K) and `b` (K x n) with n >= 2, numpy's
      iterator orders the axes by stride: i outer, k middle, j inner. The
      inner loop is then `out[i, :] += a[i, k] * b[k, :]`, which reduces
      nothing, so each element gets its K terms in k order, starting from
      the zero-filled output (+0.0). Round-to-nearest addition gives -0.0
      only from two -0.0 operands, so a sum begun at +0.0 never becomes -0.0.
    - Each product is rounded before the add only when einsum's multiply-add
      is not fused. It is not on x86-64 builds whose baseline (X86_V2) has
      no FMA, as numpy 2.4's; it would be where numpy's `npyv_muladd` is an
      FMA, for example on aarch64 builds.

    The last two points rest on numpy's internals, so `EINSUM_IS_NAIVE`
    checks them once at import (`_einsum_is_naive`). If it is False, every
    product takes the per-k loop, one broadcast product and one add per k.

    Shapes the contraction cannot take:

    - With n = 1 there is no j axis, so k becomes the inner loop, which
      numpy sums with several accumulators. Such a product is computed as
      `matmul(b.T, a.T).T`: products commute, so the bits are the same.
    - A 1 x 1 output takes the per-k loop.
    - Empty outputs, and an inner size of 0, give zeros.
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
    if m * n == 0 or inner == 0:
        return np.zeros((m, n))
    if not EINSUM_IS_NAIVE or m * n == 1:
        out = np.zeros((m, n))
        for k in range(inner):
            out += a[:, k, None] * b[k]
        return out
    if n == 1:
        return matmul(b.T, a.T).T
    return np.einsum("ik,kj->ij", np.ascontiguousarray(a),
                     np.ascontiguousarray(b), optimize=False)


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

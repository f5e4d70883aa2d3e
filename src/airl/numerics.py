"""Dense float64 arithmetic, deterministic RNG streams, and a gradient oracle.

All tensors are plain numpy float64 arrays in row-major order. The few
reductions whose result depends on summation order (matrix products) use an
explicit fixed order so that repeated runs are bit-identical and small cases
match a naive reference exactly: `matmul` sums each output element from +0.0
over k = 0, 1, ... in order. It runs a small C kernel (`_matmul.c`) or,
where there is no compiler or the build fails, one numpy einsum
contraction, whose C loop runs in that order; where neither passes the
import probe, a per-k loop. `matmul`'s docstring says why each path keeps
the order and how the probe checks it. Norms (`norm`) are numpy's own sums
rather than BLAS's, so they do not depend on the BLAS thread count.

Compiled library. When it is imported, `numerics` compiles `_matmul.c` and
`_augment.c`, the augmentation pass behind `augment.apply_plans`, into one
shared library with one run of the system `cc` (`_build_library`) and binds
both functions (`LIBRARY`). Each module probes its own function at import
and falls back to numpy if it fails; without a compiler, or when the build
fails or times out, neither kernel is there.

Random streams. An `Rng` is numpy's Philox4x64-10 generator under a key
hashed from (seed, stream id); `child` hashes a new stream id from the
parent's id and its labels. For many streams at once, `child_keys` derives
their keys in one loop of hashes, and `philox_words` emulates the
generator in numpy uint64 arithmetic: the first two blocks (eight 64-bit
words) of every freshly keyed stream, with the 64 x 64-bit high product
built from 32-bit halves. numpy's conversions of those words are reproduced
exactly: `random()` is `(word >> 11) * 2**-53` (`philox_doubles`);
`uniform(low, high)` is `low + (high - low) * random()` (`uniform_of`); a
scalar `integers(0, n)` is a 32-bit Lemire draw from a half-word, low half
first, with the high half kept for the next 32-bit draw (`integer_pair`).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateFeatureError, DimensionError, OracleError

FD_STEP_DEFAULT = 1e-5
# Eight terms whose k-order sum differs from numpy's pairwise sum.
PAIRWISE_DIFFERS = np.array([1.0, 1.0, 3.0, 0.5, 1e16, 1e16, 0.5, 0.5])


def _label_tag(labels) -> str:
    return "|".join(str(x) for x in labels)


# A child's stream id hashes "<parent id>|<label tag>" to 8 bytes; a stream's
# Philox key hashes "<seed>|<stream id>" to 16 bytes. Both read the digest
# as a little-endian integer. The two hashers below hold the part before the
# last field, so that many streams can share one prefix by copying it.


def _child_hasher(stream_id: int):
    return hashlib.blake2b(f"{stream_id}|".encode(), digest_size=8)


def _key_hasher(seed: int):
    return hashlib.blake2b(f"{seed}|".encode(), digest_size=16)


def _finish(prefix, last: str) -> bytes:
    h = prefix.copy()
    h.update(last.encode())
    return h.digest()


def _child_id(stream_id: int, tag: str) -> int:
    return int.from_bytes(_finish(_child_hasher(stream_id), tag), "little")


def _stream_key(seed: int, stream_id: int) -> int:
    return int.from_bytes(_finish(_key_hasher(seed), str(stream_id)), "little")


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
        return Rng(self.seed, _child_id(self.stream_id, _label_tag(labels)))

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


def child_keys(rngs, branches, leaves) -> np.ndarray:
    """Philox keys of a two-level tree of child streams.

    For every `rngs[i]`, label tuple `branches[j]` and label tuple
    `leaves[k]`, without building an `Rng`: `keys[i, j, k]` is the Philox
    key of `rngs[i].child(*branches[j]).child(*leaves[k])` as two uint64
    words, low word first, the way `np.random.Philox(key=...)` takes it.
    The result is shaped (len(rngs), len(branches), len(leaves), 2).
    """
    branch_tags = [_label_tag(b) for b in branches]
    leaf_tags = [_label_tag(leaf) for leaf in leaves]
    digests = []
    for rng in rngs:
        parent = _child_hasher(rng.stream_id)
        key = _key_hasher(rng.seed)
        for tag in branch_tags:
            branch = _child_hasher(
                int.from_bytes(_finish(parent, tag), "little"))
            digests.extend(
                _finish(key, str(int.from_bytes(_finish(branch, leaf),
                                                "little")))
                for leaf in leaf_tags)
    keys = np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)
    return keys.reshape(len(rngs), len(branches), len(leaves), 2)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11), as numpy's bit generator computes it.
PHILOX_ROUNDS = 10
# The words of each stream that `philox_words` computes: two blocks of four.
PHILOX_WORDS = 8
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFF_FFFF)
_HALF = np.uint64(32)


def _mulhilo(multiplier: int, x: np.ndarray):
    # The low and high words of the 128-bit products multiplier * x, the
    # high word summed from the four 32 x 32-bit partial products.
    m_lo, m_hi = np.uint64(multiplier & 0xFFFF_FFFF), np.uint64(multiplier >> 32)
    x_lo, x_hi = x & _LOW32, x >> _HALF
    lo_lo, lo_hi = m_lo * x_lo, m_lo * x_hi
    hi_lo, hi_hi = m_hi * x_lo, m_hi * x_hi
    carry = (lo_lo >> _HALF) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    high = hi_hi + (lo_hi >> _HALF) + (hi_lo >> _HALF) + (carry >> _HALF)
    return x * np.uint64(multiplier), high


def philox_words(keys: np.ndarray) -> np.ndarray:
    """The first `PHILOX_WORDS` outputs of a freshly keyed numpy Philox.

    `keys` is (..., 2) uint64, one key per stream as `child_keys` gives it.
    Row r of the result equals `np.random.Philox(key=k).random_raw(8)` for
    the key k of row r: numpy increments the 256-bit counter before it
    computes a block, so block b (from 0) is Philox4x64-10 of the counter
    (b + 1, 0, 0, 0). All streams and blocks run as one array.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    lead = keys.shape[:-1]
    blocks = PHILOX_WORDS // 4
    k0 = np.repeat(keys[..., 0].reshape(-1), blocks)
    k1 = np.repeat(keys[..., 1].reshape(-1), blocks)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), k0.size // blocks)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(PHILOX_ROUNDS):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(*lead, PHILOX_WORDS)


def philox_doubles(words: np.ndarray) -> np.ndarray:
    """`Generator.random()` of each word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def uniform_of(doubles: np.ndarray, low: float, high: float) -> np.ndarray:
    """`Generator.uniform(low, high)` from its `random()` doubles."""
    low, high = float(low), float(high)
    return low + (high - low) * doubles


def _lemire(half: np.ndarray, n: np.ndarray):
    # numpy's 32-bit Lemire draw of integers(0, n) from one half-word; the
    # draw is rejected, and needs another half-word, when the low half of
    # the product falls below (2**32 - n) % n.
    product = half * n
    threshold = (np.uint64(2**32) - n) % n
    return product >> _HALF, (product & _LOW32) < threshold


def integer_pair(words: np.ndarray, n_first, n_second):
    """Two scalar `Generator.integers(0, n)` calls, first then second.

    Both draw from `words`, the stream's next 64-bit word, with numpy's
    32-bit half-word buffer empty. numpy takes a word's low half first and
    keeps its high half for the next 32-bit draw; a range of one (n == 1)
    draws nothing. So the first value comes from the low half, and the
    second from the high half, or from the low half when n_first == 1.
    Every n must be in [1, 2**32). Returns (first, second, rejected):
    where `rejected` is set, numpy's rejection loop would draw a further
    half-word, so the values there are not the stream's.
    """
    n_first = np.asarray(n_first, dtype=np.uint64)
    n_second = np.asarray(n_second, dtype=np.uint64)
    low, high = words & _LOW32, words >> _HALF
    first, reject_first = _lemire(low, n_first)
    second, reject_second = _lemire(
        np.where(n_first == 1, low, high), n_second)
    return first, second, reject_first | reject_second


def as_tensor(x) -> np.ndarray:
    """Coerce to a float64 array (copying only when needed)."""
    return np.asarray(x, dtype=np.float64)


Product = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _product_is_naive(product: Product) -> bool:
    """Whether `product(a, b)` gives the naive loop's bits here.

    `product` takes a C-contiguous (m, K) and (K, n) operand. Two products
    on 5 x 79 outputs, so that every loop of a product sees them: the
    kernel's four-row blocks and its single rows, and at every tile width
    (2, 4 or 8 doubles) its two-vector tiles, a one-vector tile and a
    scalar column tail (79 = 4 * 16 + 8 + 7); einsum's inner j loop gets
    its unrolled vector body, one-vector loop and scalar tail:

    - `PAIRWISE_DIFFERS` times ones must give its k-order sum in every
      element; a reordered (pairwise or multi-accumulator) sum differs;
    - `[-1, 1+2**-27] . [1, 1-2**-27]` must give +0.0: the second product
      rounds to 1.0, while a fused multiply-add keeps it exact and gives
      -2**-54.
    """
    rows, columns = 5, 79
    ones = np.ones((PAIRWISE_DIFFERS.size, columns))
    in_order = 0.0
    for term in PAIRWISE_DIFFERS:
        in_order += term
    summed = product(np.tile(PAIRWISE_DIFFERS, (rows, 1)), ones)
    left = np.array([[-1.0, 1.0 + 2.0**-27]] * rows)
    right = np.repeat([[1.0], [1.0 - 2.0**-27]], columns, axis=1)
    zero = product(left, right)
    return bool(np.all(summed == in_order)
                and np.all(zero.view(np.uint64) == 0))


def _einsum_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ik,kj->ij", a, b, optimize=False)


# The C sources of the compiled library: the `matmul` kernel and the
# augmentation pass behind `augment.apply_plans`.
KERNEL_SOURCES = (Path(__file__).with_name("_matmul.c"),
                  Path(__file__).with_name("_augment.c"))
# No -ffast-math or -Ofast: they let the compiler reassociate sums, and the
# crtfastmath.o they link sets flush-to-zero for the whole process.
KERNEL_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared",
                "-fPIC")
KERNEL_BUILD_TIMEOUT_S = 60.0


class Library(NamedTuple):
    """The functions of the compiled library, with their ctypes signatures.

    `matmul(a, stride_i, stride_k, b, out, m, inner, n)` is `_matmul.c`'s;
    `apply_plans(images, n, in_h, in_w, boxes, rows, side, gates,
    jitter_coefs, blur_weights, radius, threshold, work, out)` is
    `_augment.c`'s, which `augment._kernel_pass` calls.
    """

    matmul: Callable
    apply_plans: Callable


_SIZE, _POINTER = ctypes.c_ssize_t, ctypes.c_void_p
SIGNATURES = {
    "airl_matmul": (_POINTER, _SIZE, _SIZE, _POINTER, _POINTER, _SIZE, _SIZE,
                    _SIZE),
    "airl_apply_plans": (_POINTER, _SIZE, _SIZE, _SIZE, _POINTER, _SIZE,
                         _SIZE, _POINTER, _POINTER, _POINTER, _SIZE,
                         ctypes.c_double, _POINTER, _POINTER),
}


def _kernel_product(kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The kernel reads `a` through its element strides, so an unaligned `a`
    # is copied first; `b` must be C-contiguous and aligned.
    if not a.flags.aligned:
        a = np.array(a)
    b = np.require(b, np.float64, ("C", "A"))
    m, inner = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
    kernel(a.ctypes.data, a.strides[0] // a.itemsize,
           a.strides[1] // a.itemsize, b.ctypes.data, out.ctypes.data,
           m, inner, n)
    return out


def _build_library(sources=KERNEL_SOURCES, flags=KERNEL_FLAGS,
                   timeout: float = KERNEL_BUILD_TIMEOUT_S) -> Library | None:
    """Compile `sources` into one shared library with one run of the system
    `cc` and load it: its functions, or None when there is no `cc`, or the
    build fails, takes longer than `timeout` seconds or lacks a function.
    A failure in any source therefore gives neither kernel.

    The library is built and loaded in a private temporary directory, which
    is deleted once it is loaded.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    with tempfile.TemporaryDirectory(prefix="airl-kernels-",
                                     ignore_cleanup_errors=True) as tmp:
        library = str(Path(tmp) / "_airl.so")
        try:
            subprocess.run([cc, *flags, "-o", library,
                            *(str(source) for source in sources)],
                           stdin=subprocess.DEVNULL, capture_output=True,
                           timeout=timeout, check=True)
            loaded = ctypes.CDLL(library)
            functions = [getattr(loaded, name) for name in SIGNATURES]
        except (OSError, AttributeError, subprocess.SubprocessError):
            return None
    for function, argtypes in zip(functions, SIGNATURES.values()):
        function.argtypes = argtypes
        function.restype = None
    return Library(*functions)


def _matmul_path(kernel: Product | None) -> str:
    """The first of "kernel", "einsum" and "per-k loop" that is available
    and passes `_product_is_naive`; the per-k loop is not probed."""
    if kernel is not None and _product_is_naive(kernel):
        return "kernel"
    if _product_is_naive(_einsum_product):
        return "einsum"
    return "per-k loop"


# The compiled library of this process, or None; `augment` probes and uses
# its `apply_plans`.
LIBRARY = _build_library()
_KERNEL = (None if LIBRARY is None
           else functools.partial(_kernel_product, LIBRARY.matmul))
# The path every `matmul` takes in this process.
MATMUL_PATH = _matmul_path(_KERNEL)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation over the inner axis.

    Order contract: each output element is
    `((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...`, every product rounded
    once and summed in k order from +0.0. That is the naive triple loop bit
    for bit, unlike BLAS kernels, which are free to reorder partial sums.
    Where an operand holds a NaN, the NaNs fall where the naive loop's do;
    which NaN's payload and sign propagate is not part of the contract.

    `MATMUL_PATH` names the path, chosen once at import:

    - "kernel": the C kernel in `_matmul.c`, compiled at import with the
      system `cc` (`_build_library`). It keeps a tile of four output rows
      by two vectors of columns in vector registers from +0.0 over the
      whole k loop, adding `a[i, k] * b[k, j:j+2W]` for k = 0, 1, ..., and
      stores it once; W is 8, 4 or 2 doubles as the target has AVX-512F,
      AVX or neither. Every lane is a separate output element, so no sum
      is split. Leftover columns take a one-vector tile, then a scalar
      column at a time, and leftover rows the same one row at a time. It
      is built with -ffp-contract=off, so no product is fused into its
      add, and without -ffast-math, so no sum is reordered. It takes `a`'s
      strides as they are, negative ones too, and a C-contiguous aligned
      copy of `b`, for every shape.
    - "einsum": without a compiler, one `np.einsum("ik,kj->ij", a, b,
      optimize=False)` on a C-contiguous copy of `b`, and on `a` as it is
      laid out unless one of its strides is negative. numpy then runs its
      own C loops, never BLAS. For C-contiguous `b` (K x n) with n >= 2,
      numpy's iterator makes j the inner axis, so the inner loop is
      `out[i, :] += a[i, k] * b[k, :]`, which reduces nothing; k is never
      walked backwards, since numpy reverses an axis only when no operand
      has a positive stride along it. The multiply-add is not fused on
      x86-64 builds whose baseline (X86_V2) has no FMA, as numpy 2.4's; it
      would be where numpy's `npyv_muladd` is an FMA, for example on
      aarch64 builds. With n = 1 there is no j axis and numpy would sum k
      with several accumulators, so such a product is computed as
      `matmul(b.T, a.T).T`; a 1 x 1 output takes the per-k loop.
    - "per-k loop": one broadcast product and one add per k, where neither
      the kernel nor einsum passes the probe.

    Both compiled paths rest on how they were compiled, so `_matmul_path`
    checks them once at import with `_product_is_naive`. Every path starts
    each element at +0.0: round-to-nearest addition gives -0.0 only from
    two -0.0 operands, so such a sum never becomes -0.0. Empty outputs, and
    an inner size of 0, give zeros.
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
    if MATMUL_PATH == "kernel":
        return _KERNEL(a, b)
    m, inner = a.shape
    n = b.shape[1]
    if m * n == 0 or inner == 0:
        return np.zeros((m, n))
    if MATMUL_PATH == "per-k loop" or m * n == 1:
        out = np.zeros((m, n))
        for k in range(inner):
            out += a[:, k, None] * b[k]
        return out
    if n == 1:
        return matmul(b.T, a.T).T
    if min(a.strides) < 0:
        a = np.ascontiguousarray(a)
    return _einsum_product(a, np.ascontiguousarray(b))


def norm(x: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a whole array, without BLAS.

    numpy's own pairwise sum of the squares, so the bits do not depend on
    the BLAS thread count, as `np.linalg.norm`'s `ddot` does. Every norm
    that feeds a trajectory, checkpoint or table uses it.
    """
    x = as_tensor(x)
    return float(np.sqrt(np.sum(x * x)))


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

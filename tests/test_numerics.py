import functools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numerics_reference import matmul_per_k
from airl import numerics
from airl.errors import DegenerateFeatureError, DimensionError, OracleError
from airl.numerics import (
    PAIRWISE_DIFFERS,
    Rng,
    child_keys,
    finite_diff_grad,
    integer_pair,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    matmul,
    philox_doubles,
    philox_words,
    relative_error,
    row_norms,
    uniform_of,
)


def naive_matmul(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for kk in range(k):
                s += a[i, kk] * b[kk, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.5, -2.0], [3.25, 4.0]])
        eye = np.eye(2)
        assert np.array_equal(matmul(eye, a), a)
        assert np.array_equal(matmul(a, eye), a)

    def test_direct_arithmetic(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        assert np.array_equal(matmul(a, b), np.array([[2.0], [4.0]]))

    def test_matches_naive_triple_loop_exactly(self):
        rng = Rng(11)
        a = rng.child("a").normal(size=(5, 7))
        b = rng.child("b").normal(size=(7, 3))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_transposed_views_are_handled(self):
        rng = Rng(4)
        a = rng.child("a").normal(size=(6, 4))
        b = rng.child("b").normal(size=(6, 5))
        assert np.array_equal(matmul(a.T, b), naive_matmul(a.T.copy(), b))


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        x = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(l2_normalize_rows(x), x, atol=1e-15)

    def test_zero_row_raises_with_index(self):
        with pytest.raises(DegenerateFeatureError, match="row 1"):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_idempotent(self):
        x = Rng(2).normal(size=(8, 5))
        once = l2_normalize_rows(x)
        twice = l2_normalize_rows(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = Rng(7)
        x = rng.child("x").normal(size=(3, 4))
        r = rng.child("r").normal(size=(3, 4))

        def f(v):
            return float(np.sum(l2_normalize_rows(v) * r))

        y = l2_normalize_rows(x)
        grad = l2_normalize_rows_backward(y, row_norms(x), r)
        assert relative_error(grad, finite_diff_grad(f, x)) < 1e-8


class TestRng:
    def test_reproducible_streams(self):
        a = Rng(123, 9).random(10_000)
        b = Rng(123, 9).random(10_000)
        assert np.array_equal(a, b)

    def test_children_reproducible_and_distinct(self):
        r = Rng(5)
        c1 = r.child("aug", 3, 17).random(100)
        c2 = Rng(5).child("aug", 3, 17).random(100)
        other = r.child("aug", 3, 18).random(100)
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, other)

    def test_child_does_not_consume_parent_state(self):
        r1 = Rng(5)
        r1.child("x")
        r2 = Rng(5)
        assert np.array_equal(r1.random(16), r2.random(16))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(0).random(32), Rng(1).random(32))


class TestFiniteDiff:
    def test_sum_of_squares(self):
        g = finite_diff_grad(lambda v: float(np.sum(v**2)),
                             np.array([1.0, 2.0]))
        assert np.max(np.abs(g - [2.0, 4.0])) < 1e-7

    def test_constant_function(self):
        g = finite_diff_grad(lambda v: 3.5, np.array([1.0, -2.0, 0.5]))
        assert np.max(np.abs(g)) < 1e-9

    def test_exact_on_quadratics(self):
        rng = Rng(3)
        q = rng.child("q").normal(size=(4, 4))
        lin = rng.child("l").normal(size=4)
        x = rng.child("x").normal(size=4)

        def f(v):
            return float(v @ q @ v + lin @ v)

        expected = (q + q.T) @ x + lin
        g = finite_diff_grad(f, x)
        assert np.max(np.abs(g - expected)) < 1e-9

    def test_non_finite_value_raises(self):
        def f(v):
            return float("nan")

        with pytest.raises(OracleError):
            finite_diff_grad(f, np.array([1.0]))

    def test_input_left_unperturbed(self):
        x = np.array([1.0, 2.0])
        before = x.copy()
        finite_diff_grad(lambda v: float(np.sum(v**2)), x)
        assert np.array_equal(x, before)


def same_bits(x, y):
    """Equal shapes and equal float64 bit patterns (so +0.0 != -0.0)."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


# Values whose products underflow, stay subnormal, or are signed zeros.
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e-300, 1.0,
                  -3.0)


@st.composite
def _operand(draw, rows, cols):
    """A (rows, cols) operand of normal draws with some entries replaced by
    special values, laid out C-contiguous ("C"), Fortran-ordered ("F"), as
    a transposed view ("T"), as every other row of a taller array ("S"), or
    with negative strides on both axes ("N")."""
    layout = draw(st.sampled_from("CFTSN"))
    x = Rng(draw(st.integers(0, 2**32 - 1))).normal(size=(rows, cols))
    flat = x.reshape(-1)
    if flat.size:
        for i, value in draw(st.lists(
                st.tuples(st.integers(0, flat.size - 1),
                          st.sampled_from(SPECIAL_VALUES)),
                max_size=flat.size)):
            flat[i] = value
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "T":
        return np.ascontiguousarray(x.T).T
    if layout == "S":
        return np.repeat(x, 2, axis=0)[::2]
    if layout == "N":
        return np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1]
    return x


@st.composite
def _matmul_case(draw, operand=_operand):
    # m up to 9 reaches the kernel's four-row blocks and its single leftover
    # rows; n up to 72 reaches, at every tile width W (2, 4 or 8 doubles),
    # its two-vector tiles, its one-vector tile and its scalar column tail,
    # as it does einsum's unrolled j loop; einsum computes n = 1 transposed.
    m = draw(st.integers(0, 9))
    n = draw(st.one_of(st.integers(0, 2), st.integers(0, 72)))
    inner = draw(st.one_of(st.integers(0, 2), st.integers(1, 30)))
    return draw(operand(m, inner)), draw(operand(inner, n))


def _matmul_examples(test):
    for case in (
        # All-(-0.0) products must sum to +0.0.
        (np.ones((2, 1)), np.full((1, 3), -0.0)),
        (np.full((2, 13), -0.0), np.ones((13, 3))),
        (np.full((1, 5), -0.0), np.ones((5, 1))),
        # n = 1 with odd m, whose 8 products a pairwise sum would round
        # differently.
        (np.tile(PAIRWISE_DIFFERS, (5, 1)), np.ones((8, 1))),
        (np.arange(16.0).reshape(8, 2) - 7.5,
         np.array([[0.1, -0.3, 7.0], [1e-300, -0.0, 5e-324]])),
        # Empty outputs and an empty inner axis.
        (np.ones((0, 3)), np.ones((3, 2))),
        (np.ones((3, 2)), np.ones((2, 0))),
        (np.ones((3, 0)), np.ones((0, 2))),
    ):
        test = example(case)(test)
    return settings(max_examples=300, deadline=None)(
        given(_matmul_case())(test))


@_matmul_examples
def test_matmul_matches_naive_on_random_shapes(case):
    a, b = case
    assert same_bits(matmul(a, b), naive_matmul(a, b))


def _on_path(path, a, b):
    """`matmul(a, b)` as it runs when the import chose `path`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "MATMUL_PATH", path)
        return matmul(a, b)


@_matmul_examples
def test_matmul_per_k_fallback_matches_naive(case):
    # The path every product takes when the import probe rejects both the
    # kernel and einsum.
    a, b = case
    assert same_bits(_on_path("per-k loop", a, b), naive_matmul(a, b))


EINSUM_IS_NAIVE = numerics._product_is_naive(numerics._einsum_product)
needs_naive_einsum = pytest.mark.skipif(
    not EINSUM_IS_NAIVE, reason="this numpy's einsum fails the import probe")
needs_kernel = pytest.mark.skipif(
    numerics.MATMUL_PATH != "kernel",
    reason="the kernel was not built here or failed the import probe")


@needs_naive_einsum
@_matmul_examples
def test_matmul_einsum_fallback_matches_naive(case):
    # The path every product takes where there is no C compiler.
    a, b = case
    assert same_bits(_on_path("einsum", a, b), naive_matmul(a, b))


def _in_order_sum(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def test_probe_operands_discriminate():
    # A reordered sum of the probe's terms, numpy's pairwise sum of 8 terms
    # as einsum gives it for n = 1, misses the k-order sum.
    t = [float(x) for x in PAIRWISE_DIFFERS]
    pairwise = (((t[0] + t[1]) + (t[2] + t[3]))
                + ((t[4] + t[5]) + (t[6] + t[7])))
    assert _in_order_sum(t) == 2.000000000000001e16
    assert pairwise == 2.0000000000000004e16
    # A fused multiply-add keeps the second product exact: the sum is then
    # -1 + (1 - 2**-54), where rounding first gives -1 + 1.
    fused = Fraction(-1) + Fraction(1 + 2**-27) * Fraction(1 - 2**-27)
    assert float(fused) == -(2.0**-54)
    assert _in_order_sum([-1.0 * 1.0, (1 + 2**-27) * (1 - 2**-27)]) == 0.0


def _pairwise_product(a, b):
    products = np.ascontiguousarray(np.moveaxis(a[:, :, None] * b, 1, -1))
    return np.sum(products, axis=-1)


def _fused_product(a, b):
    exact = [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)),
                  Fraction(0)) for col in b.T] for row in a]
    return np.array(exact, dtype=np.float64)


def test_probe_rejects_reordered_or_fused_contractions():
    assert not numerics._product_is_naive(_pairwise_product)
    assert not numerics._product_is_naive(_fused_product)
    assert numerics._product_is_naive(matmul_per_k)


def test_matmul_column_output_sums_in_order():
    # With n = 1 einsum would make k its inner loop and sum it with several
    # accumulators; each of the 2049 rows must still sum in k order.
    got = matmul(np.tile(PAIRWISE_DIFFERS, (2049, 1)), np.ones((8, 1)))
    assert got.shape == (2049, 1)
    assert np.all(got == 2.000000000000001e16)


@pytest.mark.parametrize("m", [32, 33])
def test_matmul_tiles_at_the_default_rule(m):
    # The shapes that once sat at the row-tile boundary: 32 x 64 was one
    # full tile and 33 x 64 added a one-row tile. `matmul` has no row tiles
    # now, and both must still equal the naive loop. Row 0 of `a` is
    # positive and column 0 of `b` is -0.0, so out[0, 0] sums only -0.0
    # products, at n = 64 inside a vector loop, and must be +0.0.
    rng = Rng(5)
    a = rng.child("a").normal(size=(m, 40))
    b = rng.child("b").normal(size=(40, 64))
    a[0] = np.abs(a[0]) + 0.5
    b[:, 0] = -0.0
    got = matmul(a, b)
    assert same_bits(got, naive_matmul(a, b))
    assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])


# Every (a, b) shape that `matmul` sees in the studies' presets, probes,
# rescue, CKA and norm analyses, with the operands' layouts: C-contiguous,
# a transposed view ("T") or a strided slice ("S").
STUDY_SHAPES = (
    ((32, 48, 64), "TC"), ((32, 256, 32), "TC"), ((48, 32, 0), "CC"),
    ((48, 32, 48), "CT"), ((48, 32, 64), "CT"), ((48, 32, 96), "CT"),
    ((48, 32, 144), "CT"), ((48, 32, 192), "CT"), ((48, 32, 240), "CT"),
    ((48, 32, 256), "CT"), ((48, 48, 32), "SC"), ((48, 64, 32), "CC"),
    ((48, 64, 64), "CC"), ((48, 64, 64), "CT"), ((48, 96, 32), "SC"),
    ((48, 144, 32), "SC"), ((48, 192, 32), "SC"), ((48, 240, 32), "SC"),
    ((48, 256, 32), "SC"), ((48, 768, 64), "CC"), ((64, 48, 32), "TC"),
    ((64, 48, 64), "TC"), ((64, 64, 8), "CC"), ((64, 64, 8), "TC"),
    ((64, 256, 64), "TC"), ((96, 32, 64), "CC"), ((96, 32, 64), "CT"),
    ((96, 64, 32), "CC"), ((96, 64, 32), "CT"), ((96, 64, 64), "CC"),
    ((96, 64, 64), "CT"), ((96, 768, 64), "CC"), ((256, 32, 64), "CC"),
    ((256, 64, 8), "CC"), ((256, 64, 32), "CC"), ((256, 64, 64), "CC"),
    ((256, 768, 64), "CC"), ((384, 32, 64), "CC"), ((384, 64, 32), "CC"),
    ((384, 64, 64), "CC"), ((384, 768, 64), "CC"), ((768, 48, 64), "TC"),
)


def _laid_out(x, layout):
    if layout == "T":
        return np.ascontiguousarray(x.T).T
    if layout == "S":
        return np.repeat(x, 2, axis=1)[:, ::2]
    return x


@pytest.mark.parametrize("shape, layouts", STUDY_SHAPES)
def test_matmul_equals_frozen_per_k_loop_on_study_shapes(shape, layouts):
    m, inner, n = shape
    rng = Rng(17)
    a = _laid_out(rng.child("a").normal(size=(m, inner)), layouts[0])
    b = _laid_out(rng.child("b").normal(size=(inner, n)), layouts[1])
    a[::7, ::5] = -0.0
    b[::3, 1::4] = 2.5e-310
    assert same_bits(matmul(a, b), matmul_per_k(a, b))


@needs_naive_einsum
@pytest.mark.parametrize("shape, layouts", STUDY_SHAPES)
def test_einsum_fallback_equals_frozen_per_k_loop_on_study_shapes(
        shape, layouts, monkeypatch):
    monkeypatch.setattr(numerics, "MATMUL_PATH", "einsum")
    test_matmul_equals_frozen_per_k_loop_on_study_shapes(shape, layouts)


# Layouts of `a` that `matmul` hands to the kernel as they are ("T"
# transposed, "F" Fortran order, "R" every other row, "N" negative strides);
# einsum takes the first three as they are and copies the last.
LEFT_LAYOUTS = {
    "T": lambda x: np.ascontiguousarray(x.T).T,
    "F": np.asfortranarray,
    "R": lambda x: np.repeat(x, 2, axis=0)[::2],
    "N": lambda x: np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1],
}


LEFT_SHAPES = [(768, 48, 64), (64, 48, 32), (5, 3, 7), (1, 9, 4), (7, 1, 3),
               (9, 40, 2)]


@pytest.mark.parametrize("layout", sorted(LEFT_LAYOUTS))
@pytest.mark.parametrize("shape", LEFT_SHAPES)
def test_matmul_left_operand_layouts_equal_per_k_loop(shape, layout):
    # k is the outer axis of einsum's loop for a transposed or Fortran-order
    # `a` and the middle one for a row-major one, and the kernel walks `a`
    # through its strides; each element must still sum its products in
    # ascending k order from +0.0.
    m, inner, n = shape
    rng = Rng(23)
    a = rng.child("a").normal(size=(m, inner))
    b = rng.child("b").normal(size=(inner, n))
    a[::5, ::3] = -0.0
    a[1::4, 1::2] *= 1e-300
    b[:, 0] = -0.0
    laid = LEFT_LAYOUTS[layout](a)
    assert np.array_equal(laid, a)
    assert same_bits(matmul(laid, b), matmul_per_k(a, b))


@needs_naive_einsum
@pytest.mark.parametrize("layout", sorted(LEFT_LAYOUTS))
@pytest.mark.parametrize("shape", LEFT_SHAPES)
def test_einsum_fallback_left_operand_layouts_equal_per_k_loop(
        shape, layout, monkeypatch):
    monkeypatch.setattr(numerics, "MATMUL_PATH", "einsum")
    test_matmul_left_operand_layouts_equal_per_k_loop(shape, layout)


def test_matmul_single_output_element_sums_in_order():
    # numpy sums a 1-d reduction pairwise, which gives 2.0000000000000004e16
    # here; k order gives the next double up.
    a = PAIRWISE_DIFFERS[None, :]
    got = matmul(a, np.ones((8, 1)))
    assert same_bits(got, naive_matmul(a, np.ones((8, 1))))
    assert got[0, 0] == 2.000000000000001e16


def same_bits_or_nan(x, y):
    """Equal shapes, NaN in the same places and equal bits elsewhere: IEEE
    754 leaves open which NaN's payload and sign an operation propagates."""
    nan = np.isnan(x)
    return (x.shape == y.shape and np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.uint64),
                               y[~nan].view(np.uint64)))


def _unaligned(x):
    """A copy of `x` whose data starts one byte past an 8-byte boundary and
    whose rows lie 8 * columns + 1 bytes apart."""
    rows, cols = x.shape
    row_bytes = 8 * cols + 1
    buf = bytearray(rows * row_bytes + 1)
    out = np.ndarray(x.shape, np.float64, buffer=buf, offset=1,
                     strides=(row_bytes, 8))
    out[...] = x
    assert not out.flags.aligned
    return out


NONFINITE_VALUES = (np.inf, -np.inf, np.nan)


@st.composite
def _kernel_operand(draw, rows, cols):
    """An `_operand`, sometimes with infinities and NaNs, and sometimes
    copied to an unaligned buffer, row-major or as a transposed view."""
    x = draw(_operand(rows, cols))
    if x.size and draw(st.booleans()):
        for i, value in draw(st.lists(
                st.tuples(st.integers(0, x.size - 1),
                          st.sampled_from(NONFINITE_VALUES)), max_size=3)):
            x[divmod(i, cols)] = value
    if x.size and draw(st.booleans()):
        x = (_unaligned(np.ascontiguousarray(x.T)).T if draw(st.booleans())
             else _unaligned(x))
    return x


def _tile_edge_case(m, inner, n):
    # Distinct values, with -0.0 in every other column of `b` so that a
    # misplaced or unstored tile shows as a wrong value or sign.
    a = np.arange(1.0, m * inner + 1).reshape(m, inner)
    b = -np.arange(1.0, inner * n + 1).reshape(inner, n) / 3
    b[:, ::2] = -0.0
    return a, b


# Shapes at the edges of the kernel's tiles: m around its four-row blocks,
# n around one and two vectors at each tile width.
TILE_EDGES = [_tile_edge_case(m, inner, n) for m in (3, 4, 5, 8, 9)
              for n in (7, 8, 9, 15, 16, 17, 31, 32, 33) for inner in (0, 1)]


def _kernel_cases(test):
    """Run `test(case)` on random kernel operands, the tile-edge shapes and
    the special-value examples."""
    for case in TILE_EDGES + [
        (np.ones((1, 5)), np.ones((5, 1))),
        (np.ones((1, 0)), np.ones((0, 1))),
        (np.full((1, 3), -0.0), np.ones((3, 4))),
        (np.ones((4, 3)), np.full((3, 1), -0.0)),
        (np.ones((0, 3)), np.ones((3, 0))),
        (np.ones((5, 0)), np.ones((0, 7))),
        (np.array([[np.inf, 1.0]]), np.array([[0.0], [2.0]])),
        (np.array([[np.nan, 1.0]] * 5), np.ones((2, 9))),
    ]:
        test = example(case=case)(test)
    return settings(max_examples=300, deadline=None)(
        given(case=_matmul_case(_kernel_operand))(test))


def _matches_per_k_reference(kernel, case):
    a, b = case
    with np.errstate(invalid="ignore", over="ignore"):
        expected = matmul_per_k(a, b)
        got = kernel(a, b)
    return same_bits_or_nan(got, expected)


@needs_kernel
@_kernel_cases
def test_kernel_matches_per_k_reference(case):
    assert _matches_per_k_reference(numerics._KERNEL, case)


needs_cc = pytest.mark.skipif(numerics.shutil.which("cc") is None,
                              reason="no cc on PATH")


def _target_macros(flags):
    """The names of the macros that `cc` predefines under `flags`, or None
    where it rejects them."""
    proc = subprocess.run(
        ["cc", *flags, "-dM", "-E", "-x", "c", os.devnull],
        stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode:
        return None
    return {line.split()[1] for line in proc.stdout.splitlines()}


def _tile_width(flags):
    """The doubles per vector that `_matmul.c` picks under `flags`."""
    macros = _target_macros(flags)
    if macros is None:
        return None
    return 8 if "__AVX512F__" in macros else 4 if "__AVX__" in macros else 2


def _built_kernel(extra_flags):
    library = numerics._build_library(
        flags=numerics.KERNEL_FLAGS + extra_flags)
    assert library is not None
    return functools.partial(numerics._kernel_product, library.matmul)


@pytest.fixture(scope="module",
                params=[("-mno-avx512f",), ("-mno-avx", "-mno-avx512f")],
                ids=["W4", "W2"])
def narrower_kernel(request):
    """The kernel built for a narrower tile width than this host's."""
    if numerics.shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    width = _tile_width(numerics.KERNEL_FLAGS + request.param)
    if width is None:
        pytest.skip(f"cc rejects {' '.join(request.param)}")
    if width == _tile_width(numerics.KERNEL_FLAGS):
        pytest.skip(f"the default build already has tile width {width}")
    kernel = _built_kernel(request.param)
    assert numerics._matmul_path(kernel) == "kernel"
    return kernel


@_kernel_cases
def test_narrower_tile_widths_match_per_k_reference(narrower_kernel, case):
    # An AVX2-only or SSE2-only host runs a tile width that the host's own
    # build does not; each width's build must give the same bits.
    assert _matches_per_k_reference(narrower_kernel, case)


@needs_cc
def test_probe_rejects_the_kernel_built_with_contraction():
    # -ffp-contract=fast fuses each tile's multiply and add into an FMA,
    # which rounds the product once less.
    macros = _target_macros(numerics.KERNEL_FLAGS)
    if macros is None or "__FMA__" not in macros:
        pytest.skip("this target has no FMA")
    fused = _built_kernel(("-ffp-contract=fast",))
    assert numerics._matmul_path(fused) != "kernel"


@needs_kernel
def test_kernel_keeps_subnormals():
    # Built without -ffast-math, loading the kernel sets no flush-to-zero or
    # denormals-are-zero: subnormal products and sums stay exact.
    tiny = 2.0**-1030
    assert tiny * 0.5 == 2.0**-1031
    got = numerics._KERNEL(np.full((5, 3), tiny), np.full((3, 79), 0.5))
    assert np.all(got == 3 * 2.0**-1031)


def test_matmul_path_skips_a_rejected_kernel():
    # A kernel that reorders its sums or fuses its products is never used.
    fallback = numerics._matmul_path(None)
    assert fallback == ("einsum" if EINSUM_IS_NAIVE else "per-k loop")
    for fake in (_pairwise_product, _fused_product):
        assert numerics._matmul_path(fake) == fallback
    assert numerics._matmul_path(matmul_per_k) == "kernel"


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """A fresh directory as `tempfile`'s default, to see what a build
    leaves behind."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(numerics.tempfile, "tempdir", str(tmp))
    return tmp


@pytest.mark.parametrize("shape", [(96, 768, 64), (7, 5, 1), (1, 1, 1)])
def test_build_without_cc_falls_back_to_einsum(shape, monkeypatch,
                                               private_tmpdir):
    monkeypatch.setenv("PATH", "")
    assert numerics._build_library() is None
    assert numerics._matmul_path(None) == (
        "einsum" if EINSUM_IS_NAIVE else "per-k loop")
    assert list(private_tmpdir.iterdir()) == []
    m, inner, n = shape
    a = Rng(29).child("a").normal(size=(m, inner))
    b = Rng(29).child("b").normal(size=(inner, n))
    fallback = _on_path(numerics._matmul_path(None), a, b)
    assert same_bits(fallback, matmul(a, b))
    assert same_bits(fallback, matmul_per_k(a, b))


@needs_cc
def test_build_with_failing_compiler_gives_no_kernel(tmp_path, private_tmpdir):
    # Both kernels come from one library: a source that does not compile,
    # in place of either, gives neither.
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    matmul_source, augment_source = numerics.KERNEL_SOURCES
    for sources in ((broken, augment_source), (matmul_source, broken)):
        assert numerics._build_library(sources) is None
    assert list(private_tmpdir.iterdir()) == []


def test_build_has_a_timeout(monkeypatch, private_tmpdir):
    monkeypatch.setattr(numerics.shutil, "which", lambda name: "/usr/bin/cc")
    timeouts = []

    def slow_compiler(args, timeout=None, **kwargs):
        timeouts.append(timeout)
        raise subprocess.TimeoutExpired(args, timeout)

    monkeypatch.setattr(numerics.subprocess, "run", slow_compiler)
    # One `cc` run builds both kernels, so one timeout gives neither.
    assert numerics._build_library() is None
    assert timeouts == [numerics.KERNEL_BUILD_TIMEOUT_S]
    assert 0 < numerics.KERNEL_BUILD_TIMEOUT_S < float("inf")
    assert list(private_tmpdir.iterdir()) == []


def test_kernel_source_ships_with_the_package():
    # An installed `airl` must carry `_matmul.c` and `_augment.c` beside
    # `numerics`, or every process silently takes the slower numpy paths.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    package_data = pyproject["tool"]["setuptools"]["package-data"]["airl"]
    assert [source.name for source in numerics.KERNEL_SOURCES] == [
        "_matmul.c", "_augment.c"]
    for source in numerics.KERNEL_SOURCES:
        assert any(source.match(p) for p in package_data)
        assert source.is_file()


@needs_cc
def test_kernel_builds_from_the_resolved_source():
    library = numerics._build_library(numerics.KERNEL_SOURCES)
    assert library is not None
    assert numerics._product_is_naive(
        functools.partial(numerics._kernel_product, library.matmul))
    assert numerics.MATMUL_PATH == "kernel"


@pytest.mark.parametrize("path_env, expected", [
    ("", "einsum"),
    pytest.param(os.environ.get("PATH", ""), "kernel", marks=needs_cc),
])
def test_import_in_a_fresh_process(path_env, expected, tmp_path):
    # With PATH emptied there is no `cc`: the import must still succeed and
    # choose einsum and the numpy augmentation pass. Either way the build
    # leaves no temporary files behind.
    augment_path = "kernel" if expected == "kernel" else "numpy"
    if expected == "einsum" and not EINSUM_IS_NAIVE:
        expected = "per-k loop"
    src = Path(numerics.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import airl.augment as a, airl.numerics as n; "
         "print(n.MATMUL_PATH, a.AUGMENT_PATH)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PATH=path_env, PYTHONPATH=str(src),
                 TMPDIR=str(tmp_path)))
    assert proc.stdout.split() == [expected, augment_path]
    assert list(tmp_path.iterdir()) == []


KEYS = st.integers(0, 2**128 - 1)


def _key_words(key):
    return np.array([key & (2**64 - 1), key >> 64], dtype=np.uint64)


def _words_of(key):
    return philox_words(_key_words(key)[None])[0]


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=8))
@example(keys=[0, 2**128 - 1, 2**64 - 1, 2**64])
def test_philox_words_match_numpy(keys):
    words = philox_words(np.stack([_key_words(k) for k in keys]))
    assert words.shape == (len(keys), 8)
    for key, row in zip(keys, words):
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(8))


def _hex(x):
    return float(x).hex()


@settings(max_examples=60, deadline=None)
@given(key=KEYS,
       bounds=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 4.0)),
                       min_size=4, max_size=4))
@example(key=0, bounds=[(0.6, 0.8), (-0.1, 0.2), (0.1, 1.9), (1.0, 0.0)])
@example(key=2**128 - 1, bounds=[(0.0, 1.0)] * 4)
def test_philox_doubles_and_uniform_match_generator(key, bounds):
    # random() and uniform(low, low + width) in turn, draw for draw.
    doubles = philox_doubles(_words_of(key))
    gen = np.random.Generator(np.random.Philox(key=key))
    for j, (low, width) in enumerate(bounds):
        assert _hex(gen.random()) == _hex(doubles[2 * j])
        high = low + width
        assert (_hex(gen.uniform(low, high))
                == _hex(uniform_of(doubles[2 * j + 1], low, high)))


def _halves_drawn(gen, words_before):
    # 32-bit halves a Philox generator has drawn since `words_before` words.
    state = gen.bit_generator.state
    words = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    return 2 * (words - words_before) - state["has_uint32"]


RANGES = st.one_of(st.just(1), st.integers(1, 64), st.integers(1, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(key=KEYS, skip=st.integers(0, 7), n_first=RANGES, n_second=RANGES)
@example(key=1, skip=0, n_first=1, n_second=9)
@example(key=2, skip=3, n_first=9, n_second=1)
@example(key=3, skip=7, n_first=1, n_second=1)
@example(key=4, skip=2, n_first=2**31 + 1, n_second=2**31 + 1)
def test_integer_pair_matches_paired_integers(key, skip, n_first, n_second):
    # integers(0, n_first), then integers(0, n_second), after `skip` 64-bit
    # draws; rejected pairs are exactly those where numpy drew a further
    # half-word.
    gen = np.random.Generator(np.random.Philox(key=key))
    for _ in range(skip):
        gen.random()
    expected = (int(gen.integers(0, n_first)), int(gen.integers(0, n_second)))
    first, second, rejected = integer_pair(_words_of(key)[skip], n_first,
                                           n_second)
    needed = (n_first > 1) + (n_second > 1)
    if rejected:
        assert _halves_drawn(gen, skip) > needed
    else:
        assert (int(first), int(second)) == expected
        assert _halves_drawn(gen, skip) == needed


def test_integer_pair_flags_rejections():
    # (2**32 - 3) % 3 == 1, so a zero half-word is rejected for n = 3.
    zero_low = np.array([0xFFFF_FFFF_0000_0000], dtype=np.uint64)
    zero_high = np.array([0x0000_0000_FFFF_FFFF], dtype=np.uint64)
    assert integer_pair(zero_low, 3, 2)[2].all()
    assert integer_pair(zero_high, 2, 3)[2].all()
    assert integer_pair(zero_low, 1, 3)[2].all()
    # n = 1 draws nothing, so the zero half goes to the second call.
    assert not integer_pair(zero_high, 1, 3)[2].any()
    assert not integer_pair(zero_low, 2, 1)[2].any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63),
       parents=st.lists(st.lists(st.one_of(st.integers(), st.text(max_size=4)),
                                 max_size=2), min_size=1, max_size=3),
       branches=st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=2),
                         min_size=1, max_size=3),
       leaves=st.lists(st.text(max_size=5).map(lambda t: (t,)), max_size=4))
def test_child_keys_match_rng_children(seed, parents, branches, leaves):
    rngs = [Rng(seed).child(*labels) for labels in parents]
    keys = child_keys(rngs, branches, leaves)
    assert keys.shape == (len(rngs), len(branches), len(leaves), 2)
    for i, rng in enumerate(rngs):
        for j, branch in enumerate(branches):
            child = rng.child(*branch)
            for k, leaf in enumerate(leaves):
                stream = child.child(*leaf)
                expected = numerics._stream_key(stream.seed, stream.stream_id)
                assert np.array_equal(keys[i, j, k], _key_words(expected))

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numerics_reference import matmul_per_k
from airl import numerics
from airl.errors import DegenerateFeatureError, DimensionError, OracleError
from airl.numerics import (
    Rng,
    StreamLoader,
    finite_diff_grad,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    matmul,
    relative_error,
    row_norms,
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


# Eight terms whose k-order sum differs from numpy's pairwise sum.
PAIRWISE_DIFFERS = np.array([1.0, 1.0, 3.0, 0.5, 1e16, 1e16, 0.5, 0.5])

# Values whose products underflow, stay subnormal, or are signed zeros.
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e-300, 1.0,
                  -3.0)


@st.composite
def _operand(draw, rows, cols, transposed, row_step):
    """A (rows, cols) operand of normal draws with some entries replaced by
    special values: C-contiguous, a transposed view, or every `row_step`-th
    row of a taller array."""
    shape = (cols, rows) if transposed else (rows * row_step, cols)
    x = Rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)
    flat = x.reshape(-1)
    if flat.size:
        for i, value in draw(st.lists(
                st.tuples(st.integers(0, flat.size - 1),
                          st.sampled_from(SPECIAL_VALUES)),
                max_size=flat.size)):
            flat[i] = value
    return x.T if transposed else x[::row_step]


@st.composite
def _matmul_case(draw):
    m = draw(st.integers(0, 9))
    n = draw(st.integers(0, 5))
    inner = draw(st.one_of(st.integers(0, 2), st.integers(1, 30)))
    # Both constants are patched so that small shapes span several tiles:
    # a tile has `rows` rows (often not dividing m, so the last tile is
    # partial; with n = 1 and odd m it can hold a single element), and a
    # chunk at least `tile_kc` k-steps. rows = 0 stands for a buffer too
    # small for one row of `tile_kc` steps, where rows and kc floor at 1.
    tile_kc = draw(st.integers(1, 6))
    rows = draw(st.integers(0, m + 1))
    width = tile_kc * max(n, 1)
    chunk_doubles = width * rows + draw(st.integers(0, width - 1))
    a = draw(_operand(m, inner, draw(st.booleans()), draw(st.integers(1, 2))))
    b = draw(_operand(inner, n, draw(st.booleans()), draw(st.integers(1, 2))))
    return chunk_doubles, tile_kc, a, b


@settings(max_examples=300, deadline=None)
@given(_matmul_case())
# All-(-0.0) products must sum to +0.0, within one chunk and across chunks.
@example((4 * 2 * 3, 4, np.ones((2, 1)), np.full((1, 3), -0.0)))
@example((9 * 2 * 3, 9, np.full((2, 13), -0.0), np.ones((13, 3))))
# n = 1 with odd m: two-row tiles leave a single-element last tile, whose
# 8 products a pairwise sum would round differently.
@example((16, 8, np.tile(PAIRWISE_DIFFERS, (5, 1)), np.ones((8, 1))))
# A partial last tile of 2 rows after tiles of 3.
@example((3 * 3 * 3, 3, np.arange(16.0).reshape(8, 2) - 7.5,
          np.array([[0.1, -0.3, 7.0], [1e-300, -0.0, 5e-324]])))
# Empty outputs and an empty inner axis.
@example((8, 2, np.ones((0, 3)), np.ones((3, 2))))
@example((8, 2, np.ones((3, 2)), np.ones((2, 0))))
@example((8, 2, np.ones((3, 0)), np.ones((0, 2))))
def test_matmul_matches_naive_on_random_shapes(case):
    chunk_doubles, tile_kc, a, b = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "MATMUL_CHUNK_DOUBLES", chunk_doubles)
        mp.setattr(numerics, "TILE_KC", tile_kc)
        got = matmul(a, b)
    assert same_bits(got, naive_matmul(a, b))


@pytest.mark.parametrize("m", [32, 33])
def test_matmul_tiles_at_the_default_rule(m):
    # With n = 64 a tile is 32 rows and a chunk 32 k-steps: 32 x 64 is one
    # full tile, 33 x 64 adds a one-row tile of 64 elements. The inner size
    # 40 ends each tile on a partial chunk of 8. Row 0 of `a` is positive
    # and column 0 of `b` is -0.0, so out[0, 0] sums only -0.0 products and
    # must come out +0.0.
    assert numerics.MATMUL_CHUNK_DOUBLES // (numerics.TILE_KC * 64) == 32
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


def test_matmul_single_output_element_sums_in_order():
    # numpy sums a 1-d reduction pairwise, which gives 2.0000000000000004e16
    # here; k order gives the next double up.
    a = PAIRWISE_DIFFERS[None, :]
    got = matmul(a, np.ones((8, 1)))
    assert same_bits(got, naive_matmul(a, np.ones((8, 1))))
    assert got[0, 0] == 2.000000000000001e16


def test_matmul_single_element_last_tile_sums_in_order():
    # With n = 1 a tile is 2048 rows, so 2049 rows leave a last tile of one
    # element; it must sum in k order like a 1 x 1 output.
    assert numerics.MATMUL_CHUNK_DOUBLES // numerics.TILE_KC == 2048
    got = matmul(np.tile(PAIRWISE_DIFFERS, (2049, 1)), np.ones((8, 1)))
    assert np.all(got == 2.000000000000001e16)


def _draw_sequence(stream):
    return [
        stream.random(), stream.uniform(0.1, 2.0), stream.integers(0, 7),
        stream.integers(0, 2**40), stream.random(3), stream.uniform(-1, 1, 4),
        stream.normal(), stream.integers(0, 5, 6), stream.permutation(9),
        stream.random(),
    ]


def _assert_same_draws(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63),
       labels=st.lists(st.one_of(st.integers(), st.text(max_size=6)),
                       max_size=3))
def test_stream_loader_matches_rng_draw_for_draw(seed, labels):
    loader = StreamLoader()
    # Leave a used stream behind: nothing of it may carry into the next.
    _draw_sequence(loader.load(Rng(seed ^ 1, 5)))
    stream = Rng(seed).child(*labels)
    expected = _draw_sequence(Rng(seed).child(*labels))
    _assert_same_draws(_draw_sequence(loader.load(stream)), expected)
    # Loading reads the key only; the Rng's own stream is not advanced.
    _assert_same_draws(_draw_sequence(stream), expected)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    for i, value in draw(st.lists(st.tuples(st.integers(0, flat.size - 1),
                                            st.sampled_from(SPECIAL_VALUES)),
                                  max_size=flat.size)):
        flat[i] = value
    return x.T if transposed else x[::row_step]


@st.composite
def _matmul_case(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    # kc outer products per chunk, fewer if `inner` is smaller; below
    # numerics.MATMUL_MIN_CHUNK the per-k loop runs instead.
    kc = draw(st.integers(1, 9))
    inner = draw(st.one_of(st.just(1), st.integers(1, max(kc - 1, 1)),
                           st.integers(1, 4 * kc + 3)))
    a = draw(_operand(m, inner, draw(st.booleans()), draw(st.integers(1, 2))))
    b = draw(_operand(inner, n, draw(st.booleans()), draw(st.integers(1, 2))))
    return kc * m * n, a, b


@settings(max_examples=150, deadline=None)
@given(_matmul_case())
@example((4 * 2 * 3, np.ones((2, 1)), np.full((1, 3), -0.0)))
@example((9 * 2 * 3, np.full((2, 13), -0.0), np.ones((13, 3))))
def test_matmul_matches_naive_on_random_shapes(case):
    chunk_doubles, a, b = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "MATMUL_CHUNK_DOUBLES", chunk_doubles)
        got = matmul(a, b)
    assert same_bits(got, naive_matmul(a, b))


@pytest.mark.parametrize("m, n", [(128, 128), (129, 128)])
def test_matmul_at_the_default_chunk_rule(m, n):
    # m * n = 16384 gives four products per chunk, the fewest that chunk;
    # one more row leaves the per-k loop. Row 0 of `a` is positive and
    # column 0 of `b` is -0.0, so out[0, 0] sums only -0.0 products and must
    # come out +0.0.
    assert (numerics.MATMUL_CHUNK_DOUBLES // (128 * 128)
            == numerics.MATMUL_MIN_CHUNK)
    rng = Rng(5)
    a = rng.child("a").normal(size=(m, 9))
    b = rng.child("b").normal(size=(9, n))
    a[0] = np.abs(a[0]) + 0.5
    b[:, 0] = -0.0
    got = matmul(a, b)
    assert same_bits(got, naive_matmul(a, b))
    assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])


def test_matmul_single_output_element_sums_in_order():
    # numpy sums a 1-d reduction pairwise, which gives 2.0000000000000004e16
    # here; k order gives the next double up.
    a = np.array([[1.0, 1.0, 3.0, 0.5, 1e16, 1e16, 0.5, 0.5]])
    got = matmul(a, np.ones((8, 1)))
    assert same_bits(got, naive_matmul(a, np.ones((8, 1))))
    assert got[0, 0] == 2.000000000000001e16


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

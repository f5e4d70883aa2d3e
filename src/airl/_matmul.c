/* The in-order matrix product behind `airl.numerics.matmul`.
 *
 * out (m x n, C-contiguous, zero-filled) += a (m x inner) @ b (inner x n,
 * C-contiguous), one `out[i, :] += a[i, k] * b[k, :]` per k in ascending
 * order. `a` is read through its element strides, which may be negative.
 * Each element of `out` therefore gets the naive triple loop's operations in
 * the naive loop's order: a product rounded to double, then an add, starting
 * from the zero in `out`. Rows of `a` are taken ROWS at a time so that each
 * row of `b` is loaded once per block; the compiler vectorizes the j loop,
 * in which every lane is its own output element, so no sum is reordered.
 *
 * `numerics` compiles this file with -ffp-contract=off, so that no product
 * is fused into its add, and never with -ffast-math, which would let the
 * compiler reassociate the sums and set flush-to-zero for the whole process.
 */

#include <stddef.h>

#define ROWS 4

static void row_block(const double *a, ptrdiff_t stride_i, ptrdiff_t stride_k,
                      const double *restrict b, double *restrict o0,
                      double *restrict o1, double *restrict o2,
                      double *restrict o3, ptrdiff_t inner, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < inner; k++) {
        const double *restrict bk = b + k * n;
        const double *ak = a + k * stride_k;
        const double x0 = ak[0], x1 = ak[stride_i], x2 = ak[2 * stride_i],
                     x3 = ak[3 * stride_i];
        for (ptrdiff_t j = 0; j < n; j++) {
            o0[j] += x0 * bk[j];
            o1[j] += x1 * bk[j];
            o2[j] += x2 * bk[j];
            o3[j] += x3 * bk[j];
        }
    }
}

static void row(const double *a, ptrdiff_t stride_k, const double *restrict b,
                double *restrict o, ptrdiff_t inner, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < inner; k++) {
        const double *restrict bk = b + k * n;
        const double x = a[k * stride_k];
        for (ptrdiff_t j = 0; j < n; j++)
            o[j] += x * bk[j];
    }
}

void airl_matmul(const double *a, ptrdiff_t stride_i, ptrdiff_t stride_k,
                 const double *b, double *out, ptrdiff_t m, ptrdiff_t inner,
                 ptrdiff_t n)
{
    ptrdiff_t i = 0;
    for (; i + ROWS <= m; i += ROWS) {
        double *o = out + i * n;
        row_block(a + i * stride_i, stride_i, stride_k, b, o, o + n,
                  o + 2 * n, o + 3 * n, inner, n);
    }
    for (; i < m; i++)
        row(a + i * stride_i, stride_k, b, out + i * n, inner, n);
}

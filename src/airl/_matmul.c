/* The in-order matrix product behind `airl.numerics.matmul`.
 *
 * out (m x n, C-contiguous) = a (m x inner) @ b (inner x n, C-contiguous).
 * `a` is read through its element strides, which may be negative. Each
 * element of `out` gets the naive triple loop's operations in the naive
 * loop's order: starting from +0.0, for k = 0, 1, ... a product rounded to
 * double, then an add.
 *
 * The output is cut into register tiles of up to ROWS rows and two vectors
 * of W columns. A tile's sums stay in vector accumulators for the whole k
 * loop and are stored once at the end; each k step loads one row segment of
 * `b` and broadcasts one element of `a` per row. Every lane is its own
 * output element, so no sum is split or reordered. Columns left after the
 * last two-vector tile get a one-vector tile, then one scalar column at a
 * time; rows left after the last full block (m mod ROWS) are taken one at a
 * time the same way. W follows the target: 8 doubles with AVX-512F, 4 with
 * AVX, 2 otherwise.
 *
 * `numerics` compiles this file with -ffp-contract=off, so that no product
 * is fused into its add, and never with -ffast-math, which would let the
 * compiler reassociate the sums and set flush-to-zero for the whole process.
 */

#include <stddef.h>

#if defined(__AVX512F__)
#define W 8
#elif defined(__AVX__)
#define W 4
#else
#define W 2
#endif
#define ROWS 4
#define VECS 2

typedef double vec __attribute__((vector_size(W * sizeof(double))));
/* Loads and stores go through this type, which may alias a double and needs
 * only a double's alignment; with memcpy instead, GCC kept the accumulators
 * in memory. */
typedef double vec_u __attribute__((vector_size(W * sizeof(double)),
                                    may_alias, aligned(sizeof(double))));

#define INLINE static inline __attribute__((always_inline))

/* out[0:rows, 0:vecs*W] of a tile whose top-left element is o[0]. */
INLINE void tile(const double *a, ptrdiff_t stride_i, ptrdiff_t stride_k,
                 const double *b, double *o, ptrdiff_t inner, ptrdiff_t n,
                 int rows, int vecs)
{
    vec c[ROWS][VECS];
    for (int r = 0; r < rows; r++)
        for (int v = 0; v < vecs; v++)
            c[r][v] = (vec){0};
    for (ptrdiff_t k = 0; k < inner; k++) {
        const double *ak = a + k * stride_k;
        vec bk[VECS];
        for (int v = 0; v < vecs; v++)
            bk[v] = *(const vec_u *)(b + k * n + v * W);
        for (int r = 0; r < rows; r++) {
            const double x = ak[r * stride_i];
            for (int v = 0; v < vecs; v++)
                c[r][v] = c[r][v] + x * bk[v];
        }
    }
    for (int r = 0; r < rows; r++)
        for (int v = 0; v < vecs; v++)
            *(vec_u *)(o + r * n + v * W) = c[r][v];
}

/* out[0:rows, 0] of a one-column tile whose top element is o[0]. */
INLINE void column(const double *a, ptrdiff_t stride_i, ptrdiff_t stride_k,
                   const double *b, double *o, ptrdiff_t inner, ptrdiff_t n,
                   int rows)
{
    double c[ROWS] = {0.0};
    for (ptrdiff_t k = 0; k < inner; k++)
        for (int r = 0; r < rows; r++)
            c[r] = c[r] + a[k * stride_k + r * stride_i] * b[k * n];
    for (int r = 0; r < rows; r++)
        o[r * n] = c[r];
}

/* out[0:rows, :], row by row along j. */
INLINE void rows_of(const double *a, ptrdiff_t stride_i, ptrdiff_t stride_k,
                    const double *b, double *o, ptrdiff_t inner, ptrdiff_t n,
                    int rows)
{
    ptrdiff_t j = 0;
    for (; j + VECS * W <= n; j += VECS * W)
        tile(a, stride_i, stride_k, b + j, o + j, inner, n, rows, VECS);
    if (j + W <= n) {
        tile(a, stride_i, stride_k, b + j, o + j, inner, n, rows, 1);
        j += W;
    }
    for (; j < n; j++)
        column(a, stride_i, stride_k, b + j, o + j, inner, n, rows);
}

void airl_matmul(const double *a, ptrdiff_t stride_i, ptrdiff_t stride_k,
                 const double *b, double *out, ptrdiff_t m, ptrdiff_t inner,
                 ptrdiff_t n)
{
    ptrdiff_t i = 0;
    for (; i + ROWS <= m; i += ROWS)
        rows_of(a + i * stride_i, stride_i, stride_k, b, out + i * n, inner,
                n, ROWS);
    for (; i < m; i++)
        rows_of(a + i * stride_i, stride_i, stride_k, b, out + i * n, inner,
                n, 1);
}

/* The work of an encoder block after its product, behind `airl.encoder`.
 *
 * `airl_block_forward` takes the linear output of a training-mode block
 * (groups x rows x width, C-contiguous, the groups' rows stacked) and
 * applies the linear bias, batch-norm and relu in place, with both finite
 * checks, and `airl_block_backward` is the bias, batch-norm and relu part
 * of the block's backward. `encoder` sends only training-mode blocks of
 * width 2 and more; eval-mode and width-1 blocks take its numpy passes.
 * Each value gets the operations of the numpy block code in `encoder` in
 * the same order, so the bits are the same:
 *
 * - a column sum over a group's rows starts from +0.0 and adds the rows in
 *   order, as numpy's reduction over the rows axis does when the width is
 *   at least 2. A sum of products rounds every product first, as numpy's
 *   sum of the product array does;
 * - a mean is that sum divided by the row count;
 * - the running statistics become `stat * momentum + (1 - momentum) *
 *   batch_stat`, group by group, every product rounded;
 * - the scale is `1.0 / sqrt(var + eps)`;
 * - the relu keeps `v > 0.0` and gives +0.0 otherwise, as `np.maximum(v,
 *   0.0)` does for -0.0; the backward multiplies by the mask as 1.0 or 0.0,
 *   so a masked -3.0 becomes -0.0 and a masked inf NaN.
 *
 * `numerics` compiles this file with -ffp-contract=off, so no product is
 * fused into its add, and never with -ffast-math, so the compiler may not
 * reorder a sum: it vectorizes only across separate columns.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The helpers stay out of line, as in `_augment.c`, to keep the build at
 * import short. */
#define OUT_OF_LINE static __attribute__((noinline))

/* The statuses of `airl_block_forward`. */
enum { OK, LINEAR_NOT_FINITE, NORM_NOT_FINITE };

/* sums[j] = the sum over the rows of a[r, j], or of a[r, j] * b[r, j] where
 * `b` is given, as numpy sums a (rows, width) array over its rows at width
 * 2 and more. */
OUT_OF_LINE void column_sums(const double *restrict a,
                             const double *restrict b, ptrdiff_t rows,
                             ptrdiff_t width, double *restrict sums)
{
    for (ptrdiff_t j = 0; j < width; j++)
        sums[j] = 0.0;
    if (b)
        for (ptrdiff_t i = 0; i < rows * width; i += width)
            for (ptrdiff_t j = 0; j < width; j++)
                sums[j] += a[i + j] * b[i + j];
    else
        for (ptrdiff_t i = 0; i < rows * width; i += width)
            for (ptrdiff_t j = 0; j < width; j++)
                sums[j] += a[i + j];
}

/* 1 when `v` is not finite, that is when its eleven exponent bits are all
 * set, else 0; integer operations, so that a loop that ORs them
 * vectorizes. */
static inline uint64_t not_finite(double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    return (((bits >> 52) & 0x7ff) + 1) >> 11;
}

/* 1 when every one of the n values is finite, else 0. */
OUT_OF_LINE int all_finite(const double *a, ptrdiff_t n)
{
    uint64_t bad = 0;
    for (ptrdiff_t i = 0; i < n; i++)
        bad |= not_finite(a[i]);
    return !bad;
}

/* One group of a training-mode batch-norm over `out` (rows x width): the
 * running statistics are updated with the group's mean and variance,
 * `x_hat` gets out - mean and `inv_std` (width) the scale. */
OUT_OF_LINE void batch_stats(const double *restrict out, ptrdiff_t rows,
                             ptrdiff_t width, double momentum, double eps,
                             double *restrict running_mean,
                             double *restrict running_var,
                             double *restrict x_hat, double *restrict inv_std)
{
    const double keep = 1.0 - momentum, count = (double)rows;
    double *restrict stat = inv_std; /* the mean, then the variance */
    column_sums(out, NULL, rows, width, stat);
    for (ptrdiff_t j = 0; j < width; j++) {
        stat[j] = stat[j] / count;
        running_mean[j] = running_mean[j] * momentum + keep * stat[j];
    }
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t j = 0; j < width; j++)
            x_hat[r * width + j] = out[r * width + j] - stat[j];
    column_sums(x_hat, x_hat, rows, width, stat);
    for (ptrdiff_t j = 0; j < width; j++) {
        const double var = stat[j] / count;
        running_var[j] = running_var[j] * momentum + keep * var;
        inv_std[j] = 1.0 / sqrt(var + eps);
    }
}

/* The relu over n values, with its mask. */
OUT_OF_LINE void relu(double *restrict out, unsigned char *restrict mask,
                      ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const double v = out[i];
        mask[i] = v > 0.0;
        out[i] = v > 0.0 ? v : 0.0;
    }
}

/* The batch-norm's output over one group's `rows` rows: x_hat is scaled
 * by inv_std in place and out = gain * x_hat + beta; then the relu where
 * `mask` is given, row by row while the row is in cache. Returns 1 when
 * some output before the relu is not finite, else 0. */
OUT_OF_LINE int normalize(double *restrict out, double *restrict x_hat,
                          const double *restrict inv_std, ptrdiff_t rows,
                          ptrdiff_t width, const double *restrict gain,
                          const double *restrict beta,
                          unsigned char *restrict mask)
{
    uint64_t bad = 0;
    for (ptrdiff_t r = 0; r < rows; r++) {
        double *restrict o = out + r * width, *restrict xh = x_hat + r * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            xh[j] *= inv_std[j];
            o[j] = gain[j] * xh[j] + beta[j];
        }
        for (ptrdiff_t j = 0; j < width; j++)
            bad |= not_finite(o[j]);
        if (mask)
            relu(o, mask + r * width, width);
    }
    return (int)bad;
}

/* out: groups x rows x width, C-contiguous, the block's linear output; the
 * block's output is written over it. bias: the linear bias (width), or
 * NULL where batch-norm follows. gain, beta, running_mean, running_var
 * (width each): the batch-norm's, or gain NULL without one. The batch-norm
 * takes each group's statistics, updates the running ones group by group
 * and writes the scaled x_hat (groups x rows x width) and each group's
 * inv_std (groups x width). mask: groups x rows x width bytes, 1 where the
 * relu keeps a value and 0 elsewhere, or NULL without a relu. Returns 1,
 * having written nothing but `out`, when the linear output is not finite,
 * and 2, after the running statistics are updated, when the batch-norm's
 * output is not; 0 otherwise. */
int airl_block_forward(double *out, ptrdiff_t groups, ptrdiff_t rows,
                       ptrdiff_t width, const double *bias,
                       const double *gain, const double *beta,
                       double *running_mean, double *running_var,
                       double momentum, double eps, double *x_hat,
                       double *inv_std, unsigned char *mask)
{
    const ptrdiff_t n = groups * rows, size = n * width;
    if (bias)
        for (ptrdiff_t r = 0; r < n; r++)
            for (ptrdiff_t j = 0; j < width; j++)
                out[r * width + j] += bias[j];
    if (!all_finite(out, size))
        return LINEAR_NOT_FINITE;
    if (!gain) {
        if (mask)
            relu(out, mask, size);
        return OK;
    }
    int bad = 0;
    for (ptrdiff_t g = 0; g < groups; g++) {
        const ptrdiff_t at = g * rows * width;
        batch_stats(out + at, rows, width, momentum, eps, running_mean,
                    running_var, x_hat + at, inv_std + g * width);
        bad |= normalize(out + at, x_hat + at, inv_std + g * width, rows,
                         width, gain, beta, mask ? mask + at : NULL);
    }
    return bad ? NORM_NOT_FINITE : OK;
}

/* grad: groups x rows x width, the gradient of the block's output; d, of
 * the same shape, gets the gradient of its linear output. mask: the
 * forward's, or NULL without a relu. x_hat, gain and inv_std: the
 * training-mode forward's, or gain NULL without batch-norm. gain_sums and
 * bias_sums (groups x width): each group's gradient of the batch-norm gain
 * and of its bias, or without batch-norm of the linear bias, in bias_sums.
 * work: 3 x width values. */
void airl_block_backward(const double *grad, double *d, ptrdiff_t groups,
                         ptrdiff_t rows, ptrdiff_t width,
                         const unsigned char *mask, const double *x_hat,
                         const double *gain, const double *inv_std,
                         double *gain_sums, double *bias_sums, double *work)
{
    const ptrdiff_t n = groups * rows, size = n * width;
    const double count = (double)rows;
    if (mask)
        for (ptrdiff_t i = 0; i < size; i++)
            d[i] = grad[i] * (double)mask[i];
    else
        memcpy(d, grad, (size_t)size * sizeof *d);
    double *sum_d = work, *sum_dx = work + width, *scale = work + 2 * width;
    for (ptrdiff_t g = 0; g < groups; g++) {
        const ptrdiff_t at = g * rows * width;
        double *dg = d + at;
        column_sums(dg, NULL, rows, width, bias_sums + g * width);
        if (!gain)
            continue;
        const double *xh = x_hat + at;
        column_sums(dg, xh, rows, width, gain_sums + g * width);
        for (ptrdiff_t r = 0; r < rows; r++)
            for (ptrdiff_t j = 0; j < width; j++)
                dg[r * width + j] *= gain[j];
        column_sums(dg, NULL, rows, width, sum_d);
        column_sums(dg, xh, rows, width, sum_dx);
        for (ptrdiff_t j = 0; j < width; j++)
            scale[j] = inv_std[g * width + j] / count;
        for (ptrdiff_t r = 0; r < rows; r++)
            for (ptrdiff_t j = 0; j < width; j++) {
                double v = dg[r * width + j] * count;
                v -= sum_d[j];
                v -= xh[r * width + j] * sum_dx[j];
                dg[r * width + j] = v * scale[j];
            }
    }
}

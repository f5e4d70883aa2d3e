/* The augmentation pass behind `airl.augment.apply_plans`.
 *
 * One call applies a whole batch of plans, row by row. Row r is crop-resized
 * from images[r % n] straight into its output slot; then the flip, jitter,
 * grayscale, blur and solarization each run on it, in that published order,
 * if they fired on it, while the side x side x 3 image is still in cache.
 * Each pixel gets the operations of the numpy pass in `augment` in the same
 * order, so the bits are the same:
 *
 * - the crop-resize blends along each source row first, `p0 * (1 - wx) +
 *   p1 * wx`, then between the two blended rows, and clips;
 * - the jitter scales brightness, clips, blends with the image's mean luma
 *   (contrast), clips, blends with the pixel's luma (saturation), clips,
 *   rotates the hue as `(a * p0 + b * p1) + d * p2`, and clips;
 * - the mean luma is numpy's pairwise sum (`pairwise_sum`) of the image's
 *   luma, added to +0.0, column by column until a flip has fired on the
 *   row and row by row after that (the layout rule in the `augment`
 *   docstring), divided by the pixel count;
 * - the blur sums its taps in kernel order from +0.0, down the columns and
 *   then along the rows, with edge padding, and clips;
 * - clipping keeps NaN and -0.0, as `np.clip` does.
 *
 * `numerics` compiles this file with -ffp-contract=off, so no product is
 * fused into its add, and never with -ffast-math, so the compiler may not
 * reorder a sum: it vectorizes only across separate pixels or separate
 * accumulators. The per-row coefficients that need `exp`,
 * `cos` or `sin` (the blur weights and the hue rotation) come from numpy.
 */

#include <stddef.h>
#include <stdint.h>

/* The rows of `gates`: the stages after the crop, in the published order. */
enum { FLIP, JITTER, GRAYSCALE, BLUR, SOLARIZE };

/* The stages stay out of line: inlined into `airl_apply_plans` they made
 * the vectorizer's work, and so the build at import, more than twice as
 * long, for no speed. */
#define OUT_OF_LINE static __attribute__((noinline))

#define LUMA_R 0.299
#define LUMA_G 0.587
#define LUMA_B 0.114

static inline double clip01(double v)
{
    return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
}

static inline double luma(const double *p)
{
    return (LUMA_R * p[0] + LUMA_G * p[1]) + LUMA_B * p[2];
}

static inline ptrdiff_t clamp_index(ptrdiff_t i, ptrdiff_t len)
{
    return i < 0 ? 0 : (i >= len ? len - 1 : i);
}

/* numpy's pairwise sum of a contiguous float64 sequence: a plain loop below
 * eight elements, eight accumulators up to 128, and above that a split at
 * n / 2 rounded down to a multiple of eight. */
OUT_OF_LINE double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        ptrdiff_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* The half-pixel-centred taps of output position o: source positions i0
 * and i1 and the weight of i1. */
static void resample_tap(ptrdiff_t o, ptrdiff_t in_len, ptrdiff_t out_len,
                         ptrdiff_t *i0, ptrdiff_t *i1, double *weight)
{
    double s = ((double)o + 0.5) * ((double)in_len / (double)out_len) - 0.5;
    const double last = (double)(in_len - 1);
    s = s < 0.0 ? 0.0 : (s > last ? last : s);
    const ptrdiff_t low = (ptrdiff_t)s; /* s >= 0: truncation is floor */
    *i0 = low;
    *i1 = low + 1 < in_len - 1 ? low + 1 : in_len - 1;
    *weight = s - (double)low;
}

/* One source row, from its crop's left column, blended to `side` pixels. */
OUT_OF_LINE void blend_row(const double *src, const ptrdiff_t *x0,
                           const ptrdiff_t *x1, const double *wx,
                           ptrdiff_t side, double *restrict dst)
{
    for (ptrdiff_t ox = 0; ox < side; ox++) {
        const double *p0 = src + 3 * x0[ox], *p1 = src + 3 * x1[ox];
        const double w = wx[ox], u = 1.0 - w;
        for (int c = 0; c < 3; c++)
            dst[3 * ox + c] = p0[c] * u + p1[c] * w;
    }
}

/* Crop box (top, left, height, width) of `src` (in_h x in_w x 3) resized to
 * side x side into `out`. `work` holds 7 * side values. */
OUT_OF_LINE void crop_resize(const double *src, ptrdiff_t in_w,
                             const int64_t *box, ptrdiff_t side, double *work,
                             double *restrict out)
{
    const ptrdiff_t top = box[0], left = box[1], h = box[2], w = box[3];
    const ptrdiff_t row = 3 * side;
    double *upper = work, *lower = work + row;
    double *wx = work + 2 * row;
    ptrdiff_t x0[side], x1[side];
    for (ptrdiff_t ox = 0; ox < side; ox++)
        resample_tap(ox, w, side, &x0[ox], &x1[ox], &wx[ox]);
    ptrdiff_t have_upper = -1, have_lower = -1;
    for (ptrdiff_t oy = 0; oy < side; oy++) {
        ptrdiff_t y0, y1;
        double wy;
        resample_tap(oy, h, side, &y0, &y1, &wy);
        if (y0 != have_upper) {
            if (y0 == have_lower) {
                double *spare = upper;
                upper = lower;
                lower = spare;
                have_upper = y0;
                have_lower = -1;
            } else {
                blend_row(src + ((top + y0) * in_w + left) * 3, x0, x1, wx,
                          side, upper);
                have_upper = y0;
            }
        }
        if (y1 != have_lower) {
            blend_row(src + ((top + y1) * in_w + left) * 3, x0, x1, wx, side,
                      lower);
            have_lower = y1;
        }
        const double u = 1.0 - wy;
        double *o = out + oy * row;
        for (ptrdiff_t j = 0; j < row; j++)
            o[j] = clip01(upper[j] * u + lower[j] * wy);
    }
}

OUT_OF_LINE void hflip(double *img, ptrdiff_t side)
{
    for (ptrdiff_t y = 0; y < side; y++) {
        double *row = img + 3 * side * y;
        for (ptrdiff_t x = 0; x < side / 2; x++) {
            double *a = row + 3 * x, *b = row + 3 * (side - 1 - x);
            for (int c = 0; c < 3; c++) {
                const double t = a[c];
                a[c] = b[c];
                b[c] = t;
            }
        }
    }
}

OUT_OF_LINE void grayscale(double *img, ptrdiff_t pixels)
{
    for (ptrdiff_t p = 0; p < pixels; p++) {
        double *px = img + 3 * p;
        const double y = luma(px);
        px[0] = px[1] = px[2] = y;
    }
}

/* `f` holds the brightness, contrast and saturation factors and the hue
 * coefficients a, b, d. `work` holds 2 * side * side values. */
OUT_OF_LINE void jitter(double *restrict img, ptrdiff_t side,
                        const double *f, int col_major,
                        double *restrict work)
{
    const ptrdiff_t pixels = side * side, values = 3 * pixels;
    const double fb = f[0], fc = f[1], fs = f[2], a = f[3], b = f[4],
                 d = f[5];
    for (ptrdiff_t j = 0; j < values; j++)
        img[j] = clip01(img[j] * fb);
    double *y = work, *transposed = work + pixels;
    for (ptrdiff_t p = 0; p < pixels; p++)
        y[p] = luma(img + 3 * p);
    const double *order = y;
    if (col_major) {
        for (ptrdiff_t x = 0; x < side; x++)
            for (ptrdiff_t r = 0; r < side; r++)
                transposed[x * side + r] = y[r * side + x];
        order = transposed;
    }
    const double mean = (0.0 + pairwise_sum(order, pixels)) / (double)pixels;
    const double shift = (1.0 - fc) * mean;
    for (ptrdiff_t j = 0; j < values; j++)
        img[j] = clip01(img[j] * fc + shift);
    const double keep = 1.0 - fs;
    for (ptrdiff_t p = 0; p < pixels; p++) {
        double *px = img + 3 * p;
        const double gray = luma(px) * keep;
        for (int c = 0; c < 3; c++)
            px[c] = clip01(px[c] * fs + gray);
    }
    for (ptrdiff_t p = 0; p < pixels; p++) {
        double *px = img + 3 * p;
        const double r = px[0], g = px[1], bl = px[2];
        px[0] = clip01((a * r + b * g) + d * bl);
        px[1] = clip01((d * r + a * g) + b * bl);
        px[2] = clip01((b * r + d * g) + a * bl);
    }
}

/* Blur with the 2 * radius + 1 taps of `weights`. `work` holds
 * 3 * side * (side + 1) + 6 * radius values. */
OUT_OF_LINE void blur(double *restrict img, ptrdiff_t side,
                      const double *weights, ptrdiff_t radius,
                      double *restrict work)
{
    const ptrdiff_t row = 3 * side, taps = 2 * radius + 1;
    double *restrict down = work;
    double *restrict padded = work + side * row;
    for (ptrdiff_t y = 0; y < side; y++) {
        double *restrict acc = down + y * row;
        for (ptrdiff_t j = 0; j < row; j++)
            acc[j] = 0.0;
        for (ptrdiff_t t = 0; t < taps; t++) {
            const double *restrict src =
                img + clamp_index(y + t - radius, side) * row;
            const double weight = weights[t];
            for (ptrdiff_t j = 0; j < row; j++)
                acc[j] += weight * src[j];
        }
    }
    for (ptrdiff_t y = 0; y < side; y++) {
        const double *src = down + y * row;
        for (ptrdiff_t x = -radius; x < side + radius; x++) {
            const double *px = src + 3 * clamp_index(x, side);
            for (int c = 0; c < 3; c++)
                padded[3 * (x + radius) + c] = px[c];
        }
        double *restrict acc = img + y * row;
        for (ptrdiff_t j = 0; j < row; j++)
            acc[j] = 0.0;
        for (ptrdiff_t t = 0; t < taps; t++) {
            const double *restrict tap = padded + 3 * t;
            const double weight = weights[t];
            for (ptrdiff_t j = 0; j < row; j++)
                acc[j] += weight * tap[j];
        }
        for (ptrdiff_t j = 0; j < row; j++)
            acc[j] = clip01(acc[j]);
    }
}

OUT_OF_LINE void solarize(double *img, ptrdiff_t values, double threshold)
{
    for (ptrdiff_t j = 0; j < values; j++)
        img[j] = img[j] >= threshold ? 1.0 - img[j] : img[j];
}

/* images: n x in_h x in_w x 3, C-contiguous. boxes: rows x 4 crop boxes.
 * gates: 5 x rows, row s for stage s of the enum; gates[s * rows + r] is 0
 * where the stage does not run on row r, otherwise 1, or for the blur the
 * row's own kernel radius. jitter_coefs: rows x 6, the jitter's six values
 * of each row. blur_weights: rows x (2 * radius + 1), each row's kernel
 * centred on tap `radius`, the largest kernel radius. threshold: the
 * solarize threshold of every row. `work` holds
 * 3 * side * (side + 2) + 6 * radius values, enough for every stage. out:
 * rows x side x side x 3; side >= 1. */
void airl_apply_plans(const double *images, ptrdiff_t n, ptrdiff_t in_h,
                      ptrdiff_t in_w, const int64_t *boxes, ptrdiff_t rows,
                      ptrdiff_t side, const int64_t *gates,
                      const double *jitter_coefs, const double *blur_weights,
                      ptrdiff_t radius, double threshold, double *work,
                      double *out)
{
    const ptrdiff_t values = 3 * side * side, taps = 2 * radius + 1;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const int64_t *gate = gates + r; /* gate[s * rows]: stage s */
        double *img = out + r * values;
        crop_resize(images + (r % n) * in_h * in_w * 3, in_w, boxes + 4 * r,
                    side, work, img);
        if (gate[FLIP * rows])
            hflip(img, side);
        if (gate[JITTER * rows])
            jitter(img, side, jitter_coefs + 6 * r, !gate[FLIP * rows], work);
        if (gate[GRAYSCALE * rows])
            grayscale(img, side * side);
        if (gate[BLUR * rows])
            blur(img, side,
                 blur_weights + r * taps + radius - gate[BLUR * rows],
                 gate[BLUR * rows], work);
        if (gate[SOLARIZE * rows])
            solarize(img, values, threshold);
    }
}

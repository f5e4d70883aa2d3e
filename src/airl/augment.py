"""View-generation pipeline: crop/resize, flip, color jitter, grayscale,
blur, solarization.

Images are (h, w, 3) float64 arrays with values in [0, 1]; the stage kernels
also take (n, h, w, 3) batches with one parameter per image. Every stage draws
its gate and parameters from its own named rng sub-stream, so removing one
stage never shifts the randomness any other stage sees: ablations stay paired
sample by sample.

Batched path. `two_views` augments a whole batch in two steps, over 2n
rows, one per (image, view), view-major: row v * n + i is view v of image i.

1. `draw_plan` is the per-stream definition of a plan. The stream of stage
   s is `rng.child("view", v).child(s)`, where `rng` is the image's
   stream, and it draws in this order: the gate, `random() < probability`;
   then, only if the gate fired, the stage's parameters. The crop makes up
   to ten attempts, each drawing an area scale and an aspect ratio
   (`uniform` twice); the first attempt that fits draws its top row, then
   its left column (`integers`), and if none fits the box is the whole
   image. Jitter draws its brightness, contrast, saturation and hue values
   (`uniform` four times); blur draws its sigma (`uniform`). The other
   stages draw nothing. A plan holds only these concrete values.

   `draw_plans` draws all 2n rows at once into one record (`Plans`) with
   a field per stage of `STAGE_ORDER`: the crop boxes (2n x 4), a fired
   mask over the rows for each later stage, the values the rows drew
   (jitter factors 2n x 4, blur sigmas) and the pipeline's one solarize
   threshold. Row for row it equals `draw_plan`. It
   derives every stage stream's Philox key in one loop of hashes, computes
   the first eight 64-bit words of all the streams as one numpy array
   (`numerics.philox_words`), and converts them the way numpy's generator
   does. The gate takes word 0, jitter words 1-4 and blur word 1; a crop
   takes two words per attempt and one for its box corner, so eight words
   hold a crop that fits within three attempts. Only a crop can need more,
   because it fits only later or a corner draw is rejected; such a row's
   crop stream is redrawn on its own, its gate and then its box, in place.
2. `apply_plans` applies the 2n rows' plans. The first stage is the
   crop-resize, which always fires (`AugPipeline` holds no other kind of
   pipeline), from the n source images with per-row boxes; then each later
   stage runs on the rows where it fired, in the published order. Per-image
   coefficients (blur kernels, hue rotations) are computed in numpy as
   arrays, with the same operations as for one image. `AUGMENT_PATH` names
   the pass, chosen once at import:

   - "kernel": `_augment.c`, compiled with `_matmul.c` into the one library
     that `numerics` builds at import. One call runs the whole batch, row
     by row: each row is crop-resized straight into its output slot, and
     every later stage that fired on it runs while it is still in cache.
     Its order contract is `matmul`'s: each pixel gets the numpy pass's
     operations in the same order, vectors run only across independent
     elements, and it is built with -ffp-contract=off and never fast-math.
     The contrast mean reproduces numpy's pairwise sum. It is used only
     if it gives the numpy pass's bits on a fixed batch that covers every
     stage, both mean orders and blur radii 1 to 4 (`_kernel_is_exact`).
   - "numpy": without a compiler, or where the kernel fails that probe.
     The crop-resize gathers every row into one array of output-size
     images, and each later stage runs once on its fired rows of both
     views, on the (rows, h, w, 3) array as it is: the blur and the jitter
     are the per-image operations in their order, with one parameter row
     per image. It is the probe's reference, so it is kept plain rather
     than fast: on 48 images at side 16 it takes about 4.9 ms per batch,
     the kernel 0.45 ms.

   Both passes run the stages in the order of the record's fields and take
   their inputs through one check, `_checked_inputs`.

Both results equal augmenting each image on its own, bit for bit.

Memo. The studies give their framework arms the same seed, data and
pipeline, so those arms draw the same augmentation streams. `draw_plans`
keeps its plans in one process-wide LRU, `memo_plans`, keyed by the
pipeline, the (seed, stream_id) of every image's stream and the source
size, and bounded at `PLAN_MEMO_SIZE` batches. Reuse is exact: a plan
depends on nothing else, so a hit returns what a fresh draw would, bit for
bit, and needs no change to any stream's key. Memoized plans are
read-only, and a draw that raises is not stored.

Layout rule. The contrast step of the jitter takes each image's mean luma,
and a floating-point sum depends on its order. The per-image pipeline that
the batched one replaced summed in memory order: its crop-resize returned a
width-major array and its flip a row-major copy. In the published order
(`STAGE_ORDER`) only the crop and the flip come before the jitter, so an
image's mean is summed column by column until a flip has fired on it, and
row by row after that. Keeping this rule keeps every checkpoint trained
with the per-image pipeline reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionError
from .numerics import (
    LIBRARY,
    PHILOX_WORDS,
    Rng,
    child_keys,
    integer_pair,
    philox_doubles,
    philox_words,
    uniform_of,
)

LUMA_WEIGHTS = (0.299, 0.587, 0.114)

# The stages of the published MoCo v2 / BYOL recipe, in their order. Every
# pipeline holds the crop and then some of the others, each at most once, in
# this order.
STAGE_ORDER = ("random_crop", "horizontal_flip", "color_jitter", "grayscale",
               "gaussian_blur", "solarization")

# Removal ladder for the ablation study; stages are dropped in this order.
REMOVAL_ORDER = ("solarization", "gaussian_blur", "grayscale", "color_jitter")


def _check_order(names: tuple) -> None:
    later = iter(STAGE_ORDER[1:])
    if names[:1] != STAGE_ORDER[:1] or not all(n in later for n in names[1:]):
        raise ConfigError(
            f"stages must be random_crop and then some of "
            f"{', '.join(STAGE_ORDER[1:])}, each at most once and in that "
            f"order, got {', '.join(names)}")


def _check_threshold(threshold) -> None:
    if not np.all((0.0 <= threshold) & (threshold <= 1.0)):
        raise ConfigError(
            f"solarize threshold must be in [0, 1], got {threshold}")


def _check_sigma(sigma) -> None:
    if not np.all(sigma > 0.0):
        raise ConfigError(f"blur sigma must be > 0, got {sigma}")


@dataclass(frozen=True)
class AugStage:
    name: str
    probability: float
    params: tuple = ()


@dataclass(frozen=True)
class AugPipeline:
    """Augmentation stages in the published order plus the output side.

    The first stage is the `random_crop`, with probability 1.0: every view
    is crop-resized from its source image to the output size before any
    other stage runs. Each later stage appears at most once, in
    `STAGE_ORDER`; every probability and the solarize threshold lie in
    [0, 1], and the blur's sigma range is 0 < low <= high.
    """

    out_side: int
    stages: tuple[AugStage, ...]

    def __post_init__(self):
        _check_order(tuple(stage.name for stage in self.stages))
        if self.stages[0].probability != 1.0:
            raise ConfigError("random_crop must have probability 1.0")
        for stage in self.stages:
            if not 0.0 <= stage.probability <= 1.0:
                raise ConfigError(
                    f"{stage.name} probability must be in [0, 1], got "
                    f"{stage.probability}")
            params = dict(stage.params)
            if stage.name == "gaussian_blur":
                low, high = params["sigma"]
                if not 0.0 < low <= high:
                    raise ConfigError(
                        f"blur sigma range must have 0 < low <= high, got "
                        f"{params['sigma']}")
            elif stage.name == "solarization":
                _check_threshold(params["threshold"])

    @staticmethod
    def default(
        out_side: int = 16,
        removed: tuple[str, ...] = (),
        crop_scale: tuple[float, float] = (0.08, 1.0),
    ) -> "AugPipeline":
        stages = (
            AugStage("random_crop", 1.0, (("scale", tuple(crop_scale)),
                                          ("aspect", (0.75, 4.0 / 3.0)))),
            AugStage("horizontal_flip", 0.5),
            AugStage("color_jitter", 0.8, (("strengths", (0.4, 0.4, 0.2, 0.1)),)),
            AugStage("grayscale", 0.2),
            AugStage("gaussian_blur", 0.5, (("sigma", (0.1, 2.0)),)),
            AugStage("solarization", 0.2, (("threshold", 128.0 / 255.0),)),
        )
        pipe = AugPipeline(out_side=out_side, stages=stages)
        return pipe.remove(*removed) if removed else pipe

    def remove(self, *names: str) -> "AugPipeline":
        known = {s.name for s in self.stages}
        for name in names:
            if name not in known:
                raise ConfigError(f"cannot remove unknown stage {name!r}")
        return replace(
            self,
            stages=tuple(s for s in self.stages if s.name not in names),
        )


def luma(img: np.ndarray) -> np.ndarray:
    r, g, b = LUMA_WEIGHTS
    return r * img[..., 0] + g * img[..., 1] + b * img[..., 2]


def hflip(img: np.ndarray) -> np.ndarray:
    return img[..., ::-1, :].copy()


def grayscale(img: np.ndarray) -> np.ndarray:
    y = luma(img)
    return np.repeat(y[..., None], 3, axis=-1)


def solarize(img: np.ndarray, threshold: float) -> np.ndarray:
    """Invert every pixel at or above the threshold (both on the 0-1 scale)."""
    _check_threshold(threshold)
    return np.where(img >= threshold, 1.0 - img, img)


def _resample_taps(out_len: int, in_len: np.ndarray):
    # Per image: the two source indices and the weight of the second one for
    # every output position, half-pixel centered.
    s = np.clip((np.arange(out_len) + 0.5) * (in_len / out_len)[:, None] - 0.5,
                0, (in_len - 1)[:, None])
    i0 = np.floor(s).astype(int)
    i1 = np.minimum(i0 + 1, (in_len - 1)[:, None])
    return i0, i1, s - i0


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int,
                    boxes=None, index=None) -> np.ndarray:
    """Bilinear resample with half-pixel-centered sampling.

    `img` is one (h, w, 3) image or an (n, h, w, 3) batch. For a batch,
    output image j resamples `img[index[j]]` (by default, image j). `boxes`
    restricts each one to a crop window (top, left, height, width): one
    4-tuple for an image, one row per output image for a batch; the default
    is the whole image. Resizing to the input size reproduces the input
    bit-for-bit.
    """
    single = img.ndim == 3
    x = img[None] if single else img
    index = np.arange(x.shape[0]) if index is None else np.asarray(
        index, dtype=np.int64)
    n = len(index)
    if boxes is None:
        boxes = (0, 0, *x.shape[1:3])
    top, left, h, w = np.broadcast_to(
        np.asarray(boxes, dtype=np.int64).reshape(-1, 4), (n, 4)).T
    y0, y1, wy = _resample_taps(out_h, h)
    x0, x1, wx = _resample_taps(out_w, w)
    # Resample along every row of the crops first, then between rows: each
    # row blended once, however many output rows read it. Whole pixels are
    # gathered by flat index, and the arithmetic runs on (n, rows, out_w * 3)
    # arrays so that numpy's inner loops stay long.
    pixels = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, 3)
    crop_rows = int(h.max(initial=1))
    rows = np.minimum(np.arange(crop_rows), (h - 1)[:, None])
    rows = ((index * x.shape[1] + top)[:, None] + rows) * x.shape[2]
    wx = np.repeat(wx, 3, axis=1)[:, None, :]
    along = np.take(pixels, rows[:, :, None] + (left[:, None] + x0)[:, None, :],
                    axis=0).reshape(n, crop_rows, out_w * 3)
    far = np.take(pixels, rows[:, :, None] + (left[:, None] + x1)[:, None, :],
                  axis=0).reshape(n, crop_rows, out_w * 3)
    along *= 1.0 - wx
    far *= wx
    along += far
    del far
    along = along.reshape(n * crop_rows, out_w * 3)
    first = (np.arange(n) * crop_rows)[:, None]
    out = np.take(along, first + y0, axis=0)
    lower = np.take(along, first + y1, axis=0)
    del along
    out *= 1.0 - wy[:, :, None]
    lower *= wy[:, :, None]
    out += lower
    del lower
    out = np.clip(out, 0.0, 1.0, out=out).reshape(n, out_h, out_w, 3)
    return out[0] if single else out


def _blur_kernels(sigmas: np.ndarray, radius: int) -> np.ndarray:
    # One row per sigma: its kernel, of radius ceil(2 * sigma), centred in
    # 2 * radius + 1 taps, with weight 0 on the taps beyond its own radius.
    radii = np.ceil(2.0 * sigmas).astype(int)
    kernels = np.zeros((len(sigmas), 2 * radius + 1))
    for r in np.unique(radii).tolist():
        rows = radii == r
        offsets = np.arange(-r, r + 1)
        own = np.exp(-(offsets**2) / (2.0 * sigmas[rows] * sigmas[rows])[:, None])
        own /= own.sum(axis=1, keepdims=True)
        kernels[rows, radius - r:radius + r + 1] = own
    return kernels


def gaussian_blur(img: np.ndarray, sigma) -> np.ndarray:
    """Separable Gaussian with kernel radius ceil(2*sigma), edge padding.

    `img` is one (h, w, 3) image with one sigma, or an (n, h, w, 3) batch
    with one sigma > 0 per image; pixel values must be finite. Each image
    is edge-padded and blurred first down its columns and then along its
    rows, each output pixel summing its taps in kernel order from +0.0, and
    then clipped. All images are blurred together: each image's kernel is
    centred in the taps of the largest radius, with weight 0 beyond its
    own; a zero product leaves a sum begun at +0.0 unchanged, so the extra
    taps change no bit.
    """
    single = img.ndim == 3
    x = img[None] if single else img
    sigmas = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    _check_sigma(sigmas)
    radius = int(np.ceil(2.0 * sigmas).max())
    kernels = _blur_kernels(sigmas, radius).T[:, :, None, None, None]
    for axis in (1, 2):
        pad = [(0, 0)] * 4
        pad[axis] = (radius, radius)
        padded = np.pad(x, pad, mode="edge")
        acc = np.zeros(x.shape)
        for tap, weights in enumerate(kernels):
            window = [slice(None)] * 4
            window[axis] = slice(tap, tap + x.shape[axis])
            acc += weights * padded[tuple(window)]
        x = acc
    np.clip(x, 0.0, 1.0, out=x)
    return x[0] if single else x


def _hue_coefficients(shift) -> tuple:
    # Rotation about the achromatic axis; an RGB-space stand-in for a hue
    # shift of `shift` turns (a number or an array of them). Exactly the
    # identity at shift == 0.
    theta = 2.0 * np.pi * shift
    c, s = np.cos(theta), np.sin(theta)
    a = c + (1.0 - c) / 3.0
    b = (1.0 - c) / 3.0 - s / np.sqrt(3.0)
    d = (1.0 - c) / 3.0 + s / np.sqrt(3.0)
    return a, b, d


def adjust_colors(img: np.ndarray, factors, col_major) -> np.ndarray:
    """Brightness, contrast, saturation, hue in that order, on a batch.

    `img` is (n, h, w, 3); row i of `factors` holds image i's brightness,
    contrast and saturation scale and its hue shift in turns. `col_major[i]`
    sums image i's contrast mean column by column instead of row by row
    (see the module docstring). Each step is clipped to [0, 1].
    """
    n, h, w, _ = img.shape
    f = np.asarray(factors, dtype=np.float64).reshape(n, 4)
    fb, fc, fs = (f[:, k, None, None, None] for k in range(3))
    out = np.clip(img * fb, 0.0, 1.0)
    y = luma(out)
    sums = y.reshape(n, h * w).sum(axis=1)
    col_major = np.asarray(col_major, dtype=bool)
    if col_major.any():
        sums[col_major] = y[col_major].transpose(0, 2, 1).reshape(
            -1, h * w).sum(axis=1)
    mean = (sums / (h * w))[:, None, None, None]
    out = np.clip((1.0 - fc) * mean + fc * out, 0.0, 1.0)
    out = np.clip((1.0 - fs) * luma(out)[..., None] + fs * out, 0.0, 1.0)
    a, b, d = (k[:, None, None] for k in _hue_coefficients(f[:, 3]))
    r, g, bl = out[..., 0], out[..., 1], out[..., 2]
    out = np.stack([a * r + b * g + d * bl,
                    d * r + a * g + b * bl,
                    b * r + d * g + a * bl], axis=-1)
    return np.clip(out, 0.0, 1.0, out=out)


def _jitter_bounds(strengths) -> tuple:
    sb, sc, ss, sh = strengths
    return ((1.0 - sb, 1.0 + sb), (1.0 - sc, 1.0 + sc), (1.0 - ss, 1.0 + ss),
            (-sh, sh))


def _draw_jitter(stream, strengths) -> tuple:
    return tuple(stream.uniform(lo, hi) for lo, hi in _jitter_bounds(strengths))


def color_jitter(img: np.ndarray, strengths, rng: Rng) -> np.ndarray:
    """Brightness, contrast, saturation, hue in that order, on one image.

    The first three scale factors are uniform in [1-s, 1+s]; the hue shift is
    uniform in [-s, s] turns. All-zero strengths leave the image unchanged.
    """
    return adjust_colors(img[None], _draw_jitter(rng, strengths), [False])[0]


def _draw_crop_box(stream, in_h: int, in_w: int, scale, aspect) -> tuple:
    # Ten placement attempts; if none fits, the box is the full image.
    for _ in range(10):
        area = in_h * in_w * stream.uniform(scale[0], scale[1])
        ratio = stream.uniform(aspect[0], aspect[1])
        w = int(round(np.sqrt(area * ratio)))
        h = int(round(np.sqrt(area / ratio)))
        if 1 <= w <= in_w and 1 <= h <= in_h:
            top = int(stream.integers(0, in_h - h + 1))
            left = int(stream.integers(0, in_w - w + 1))
            return top, left, h, w
    return 0, 0, in_h, in_w


def _check_crop_sizes(in_h: int, in_w: int, out_side: int) -> None:
    if out_side < 2 or min(in_h, in_w) < 2:
        raise ConfigError("crop needs images and outputs of at least 2x2")


def random_resized_crop(
    img: np.ndarray, scale, aspect, out_side: int, rng: Rng
) -> np.ndarray:
    """Crop a random area/aspect rectangle and resize it to out_side^2.

    Ten placement attempts; if none fits, falls back to the full image.
    """
    in_h, in_w = img.shape[:2]
    _check_crop_sizes(in_h, in_w, out_side)
    box = _draw_crop_box(rng, in_h, in_w, scale, aspect)
    return resize_bilinear(img, out_side, out_side, box)


def draw_plan(pipeline: AugPipeline, rng: Rng, in_shape) -> list[tuple]:
    """Draw gate decisions and parameters for one pipeline application.

    `in_shape` is the (h, w) of the source image, which the crop box depends
    on. Each stage consumes only its own child stream, `rng.child(name)`.
    Returns (stage_name, fired, drawn) tuples; `drawn` holds the stage's
    concrete parameters: a crop box (top, left, height, width), jitter
    factors, a blur sigma or a solarize threshold.
    """
    h, w = in_shape
    plan = []
    for stage in pipeline.stages:
        stream = rng.child(stage.name)
        fired = bool(stream.random() < stage.probability)
        params = dict(stage.params)
        drawn: dict = {}
        if fired:
            if stage.name == "random_crop":
                _check_crop_sizes(h, w, pipeline.out_side)
                drawn = {"box": _draw_crop_box(stream, h, w, params["scale"],
                                               params["aspect"])}
            elif stage.name == "color_jitter":
                drawn = {"factors": _draw_jitter(stream, params["strengths"])}
            elif stage.name == "gaussian_blur":
                lo, hi = params["sigma"]
                drawn = {"sigma": float(stream.uniform(lo, hi))}
            elif stage.name == "solarization":
                drawn = {"threshold": params["threshold"]}
        plan.append((stage.name, fired, drawn))
    return plan


# The gate takes word 0 and each crop attempt two words; the box corner of
# the attempt that fits takes one more.
CROP_ATTEMPTS_IN_WORDS = (PHILOX_WORDS - 2) // 2


@dataclass(frozen=True)
class Plans:
    """The plans of many (image, view) rows, one field per stage of
    `STAGE_ORDER`, so their order is the published one.

    `boxes` (rows x 4, int64) holds each row's crop box (top, left, height,
    width); the crop fires on every row. `flip`, `jitter`, `grayscale`,
    `blur` and `solarize` are boolean masks over the rows, the rows where
    that stage fired; a stage that the pipeline lacks fires on no row.
    Row r of `factors` (rows x 4) holds its jitter's brightness, contrast
    and saturation factors and hue shift, and `sigmas[r]` its blur sigma;
    a row where the stage did not fire holds no meaningful value there.
    `threshold` is the pipeline's solarize threshold, 0.0 when it has no
    solarization.
    """

    boxes: np.ndarray
    flip: np.ndarray
    jitter: np.ndarray
    grayscale: np.ndarray
    blur: np.ndarray
    solarize: np.ndarray
    factors: np.ndarray
    sigmas: np.ndarray
    threshold: float

    @property
    def rows(self) -> int:
        return len(self.boxes)


def _crop_boxes(words, doubles, h, w, scale, aspect):
    # Per stream: the box of a crop of an h x w image that fits within the
    # attempts its words hold. Attempt a draws from words 1 + 2a and
    # 2 + 2a, and its box corner from word 3 + 2a; streams whose crop needs
    # a further attempt or a rejected integer are flagged.
    rows = len(words)
    boxes = np.zeros((rows, 4), dtype=np.int64)
    done = np.zeros(rows, dtype=bool)
    redraw = np.zeros(rows, dtype=bool)
    for a in range(CROP_ATTEMPTS_IN_WORDS):
        area = float(h * w) * uniform_of(doubles[:, 1 + 2 * a], *scale)
        ratio = uniform_of(doubles[:, 2 + 2 * a], *aspect)
        cw = np.rint(np.sqrt(area * ratio)).astype(np.int64)
        ch = np.rint(np.sqrt(area / ratio)).astype(np.int64)
        fits = ~done & (1 <= cw) & (cw <= w) & (1 <= ch) & (ch <= h)
        top, left, rejected = integer_pair(
            words[:, 3 + 2 * a], np.where(fits, h - ch + 1, 1),
            np.where(fits, w - cw + 1, 1))
        boxes[fits] = np.stack([top, left, ch, cw], axis=1)[fits]
        redraw |= fits & rejected
        done |= fits
    return boxes, redraw | ~done


# The number of batches whose plans the memo keeps. Arms that share their
# streams ask for them again in the same order, one run later, so an LRU
# that holds fewer batches than one run evicts every plan just before it is
# asked for and hits nothing. The longest such run is a full-scale
# norm-divergence arm: 60 epochs of 32 batches of 12 (1,920), whose LARS
# arm reuses the SGD arm's plans; a `MAIN_DATA` run has 240 batches of 48.
# Measured with tracemalloc, key and Python objects included, an entry holds
# about 14 KB at 48 images and 4.6 KB at 12, so a full memo holds at most
# about 28 MB of `MAIN_DATA` plans and the norm-divergence study keeps
# 8.9 MB. `runner.run_study` empties it after each group of arms.
PLAN_MEMO_SIZE = 2048


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def memo_plans(pipeline: AugPipeline, streams: tuple, in_shape: tuple) -> Plans:
    """The plans of `draw_plans` for the streams `(seed, stream_id)` in
    `streams`, with every array read-only; `draw_plans`' memo."""
    plans = _draw_plans(pipeline, [Rng(*stream) for stream in streams],
                        in_shape)
    for value in vars(plans).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plans


def draw_plans(pipeline: AugPipeline, rngs, in_shape) -> Plans:
    """`draw_plan` for both views of every image, all streams at once.

    Row v * n + i of the result, for n = len(rngs), is the plan of view v
    of image i: it equals `draw_plan(pipeline, rngs[i].child("view", v),
    in_shape)`. Each stage stream's draws come from its first
    `PHILOX_WORDS` words, computed for all streams together. Only a crop
    stream can need more, when its crop fits only at its fourth attempt or
    later or its corner draw is rejected; that crop is redrawn from its own
    `Rng` stream, gate first, into its row.

    The result is memoized by `memo_plans`, keyed by (pipeline, the (seed,
    stream_id) of every `rngs[i]`, in_shape). A plan is a pure function of
    these: the pipeline is a frozen dataclass whose equality covers the
    output side, every stage and its parameters, and each stream's draws
    depend only on its seed and id. So a hit returns exactly what a fresh
    draw would. The arrays of a memoized plan are read-only, so no caller
    can change what a later hit returns. A draw that raises is not stored.
    """
    return memo_plans(pipeline, tuple((rng.seed, rng.stream_id)
                                      for rng in rngs),
                      (int(in_shape[0]), int(in_shape[1])))


def _draw_plans(pipeline: AugPipeline, rngs, in_shape) -> Plans:
    # `draw_plans` without the memo.
    h, w = in_shape
    _check_crop_sizes(h, w, pipeline.out_side)
    stages = pipeline.stages
    keys = child_keys(rngs, [("view", 0), ("view", 1)],
                      [(stage.name,) for stage in stages])
    rows = 2 * len(rngs)
    words = philox_words(keys.swapaxes(0, 1).reshape(rows, len(stages), 2))
    doubles = philox_doubles(words)
    # The later stages' masks, in `Plans`' field order; the absent ones
    # share one mask that fires nowhere.
    masks = dict.fromkeys(STAGE_ORDER[1:], np.zeros(rows, dtype=bool))
    factors, sigmas, threshold = np.zeros((rows, 4)), np.zeros(rows), 0.0
    for k, stage in enumerate(stages):
        params = dict(stage.params)
        if stage.name == "random_crop":
            boxes, more = _crop_boxes(words[:, k], doubles[:, k], h, w,
                                      params["scale"], params["aspect"])
            for r in np.flatnonzero(more).tolist():
                view, image = divmod(r, len(rngs))
                stream = rngs[image].child("view", view).child(stage.name)
                stream.random()  # the gate, already decided
                boxes[r] = _draw_crop_box(stream, h, w, params["scale"],
                                          params["aspect"])
            continue
        masks[stage.name] = doubles[:, k, 0] < stage.probability
        if stage.name == "color_jitter":
            factors = np.stack(
                [uniform_of(doubles[:, k, 1 + j], lo, hi) for j, (lo, hi)
                 in enumerate(_jitter_bounds(params["strengths"]))], axis=1)
        elif stage.name == "gaussian_blur":
            sigmas = uniform_of(doubles[:, k, 1], *params["sigma"])
        elif stage.name == "solarization":
            threshold = float(params["threshold"])
    return Plans(boxes, *masks.values(), factors, sigmas, threshold)


def apply_plans(images: np.ndarray, plans: Plans, out_side: int) -> np.ndarray:
    """Apply row r of `plans` to images[r % n], n = len(images).

    Returns (plans.rows, out_side, out_side, 3); for the rows of
    `draw_plans`, both views of the batch, view-major. All rows come from
    one pipeline: same stages, same fixed parameters. `AUGMENT_PATH` names
    the pass, chosen once at import: "kernel", `_augment.c` through
    `_kernel_pass`, or "numpy", `_numpy_pass`. Both give the same bits.
    """
    if AUGMENT_PATH == "kernel":
        return _kernel_pass(LIBRARY.apply_plans, images, plans, out_side)
    return _numpy_pass(images, plans, out_side)


def _checked_inputs(images: np.ndarray, plans: Plans, out_side: int):
    # Both passes' input check: every field of the plans with one entry per
    # row, images (n, h, w, 3) with n >= 1, the out side at least 1, every
    # crop box inside its image, the fired rows' blur sigmas and, if some
    # row solarizes, the threshold in range. Returns the images as
    # C-contiguous float64 and the boxes as C-contiguous int64.
    rows = plans.rows
    shapes = [np.shape(field) for field in (
        plans.boxes, plans.flip, plans.jitter, plans.grayscale, plans.blur,
        plans.solarize, plans.factors, plans.sigmas)]
    if shapes != [(rows, 4), *[(rows,)] * 5, (rows, 4), (rows,)]:
        raise DimensionError(
            f"expected plans of {rows} rows: boxes and factors ({rows}, 4), "
            f"the masks and sigmas ({rows},); got {shapes}")
    _check_sigma(plans.sigmas[plans.blur])
    if plans.solarize.any():
        _check_threshold(plans.threshold)
    images = np.ascontiguousarray(images, dtype=np.float64)
    boxes = np.ascontiguousarray(plans.boxes, dtype=np.int64)
    if (images.ndim != 4 or images.shape[3] != 3 or not len(images)
            or out_side < 1):
        raise DimensionError(
            f"expected (n, h, w, 3) images, n >= 1, and an out side >= 1, "
            f"got {images.shape} and {out_side}")
    top, left, height, width = boxes.T
    if not np.all((top >= 0) & (left >= 0) & (height >= 1) & (width >= 1)
                  & (top + height <= images.shape[1])
                  & (left + width <= images.shape[2])):
        raise IndexError("a crop box lies outside its source image")
    return images, boxes


def _numpy_pass(images: np.ndarray, plans: Plans, out_side: int) -> np.ndarray:
    # `apply_plans` in numpy. The crop-resize takes every row from its
    # source image into the output; each later stage then runs once, on its
    # fired rows. A row's contrast mean is summed row by row once it has
    # been flipped (the layout rule).
    images, boxes = _checked_inputs(images, plans, out_side)
    out = resize_bilinear(images, out_side, out_side, boxes,
                          index=np.arange(plans.rows) % len(images))

    def run(kernel, fired, *per_row):
        # kernel(pixels, *per_row values) on the fired rows of `out`, in
        # place.
        picked = np.flatnonzero(fired)
        if len(picked):
            out[picked] = kernel(out[picked], *(v[picked] for v in per_row))

    run(hflip, plans.flip)
    run(adjust_colors, plans.jitter, plans.factors, ~plans.flip)
    run(grayscale, plans.grayscale)
    run(gaussian_blur, plans.blur, plans.sigmas)
    run(lambda x: solarize(x, plans.threshold), plans.solarize)
    return out


def _kernel_pass(kernel, images: np.ndarray, plans: Plans,
                 out_side: int) -> np.ndarray:
    # `apply_plans` in one call of `_augment.c`'s `airl_apply_plans`. Row s
    # of the (5, rows) gates is the mask of later stage s in the published
    # order, as 0 or 1, except that the blur's row holds each fired row's
    # kernel radius. The fired rows' coefficients come from the numpy
    # functions that `_numpy_pass` calls, on the same arrays: the jitter
    # factors with their hue rotation, and the blur kernels, each centred in
    # the 2 * R + 1 taps of the largest radius R. The kernel reads only
    # inside its buffers, since `_checked_inputs` holds for both.
    images, boxes = _checked_inputs(images, plans, out_side)
    rows = plans.rows
    radii = np.where(plans.blur, np.ceil(2.0 * plans.sigmas), 0)
    gates = np.array([plans.flip, plans.jitter, plans.grayscale, radii,
                      plans.solarize], dtype=np.int64)
    jittered = np.flatnonzero(plans.jitter)
    factors = plans.factors[jittered]
    coefs = np.zeros((rows, 6))
    coefs[jittered] = np.column_stack(
        [factors[:, :3], *_hue_coefficients(factors[:, 3])])
    blurred = np.flatnonzero(plans.blur)
    radius = int(radii.max(initial=0))
    weights = np.zeros((rows, 2 * radius + 1))
    weights[blurred] = _blur_kernels(plans.sigmas[blurred], radius)
    work = np.empty(3 * out_side * (out_side + 2) + 6 * radius)
    out = np.empty((rows, out_side, out_side, 3))
    n, in_h, in_w = images.shape[:3]
    kernel(images.ctypes.data, n, in_h, in_w, boxes.ctypes.data, rows,
           out_side, gates.ctypes.data, coefs.ctypes.data,
           weights.ctypes.data, radius, plans.threshold, work.ctypes.data,
           out.ctypes.data)
    return out


def _probe_batch() -> tuple:
    """A fixed batch for `_kernel_is_exact`: (images, plans, out_side).

    Five 20 x 17 images and twelve rows at side 16, so the mean luma sums
    256 values, past the eight-accumulator block of numpy's pairwise sum.
    Every stage fires. Crop boxes shrink and enlarge. The flip fires on
    rows 0-3 before the jitter, which fires on rows 0-9, so it sums means
    in both orders. Grayscale fires on rows 4, 5 and 8, the blur on rows
    2-11 with radii 1 to 4, and the solarization on rows 1, 6, 9 and 11.
    """
    source = Rng(2024, 25)
    images = source.random((5, 20, 17, 3))
    rows = 12
    boxes = np.array([[0, 0, 20, 17], [3, 2, 5, 4], [1, 0, 19, 9],
                      [6, 7, 2, 3], [0, 4, 16, 13], [10, 1, 10, 16],
                      [2, 2, 17, 2], [5, 3, 11, 11], [0, 0, 2, 17],
                      [12, 9, 8, 8], [4, 5, 13, 7], [7, 0, 9, 17]])
    factors = source.uniform(0.6, 1.4, size=(rows, 4))
    factors[:, 3] = source.uniform(-0.1, 0.1, size=rows)
    sigmas = np.array([0.0, 0.0, 2.0, 0.3, 0.8, 1.2, 1.9, 0.45, 1.6, 1.01,
                       0.6, 0.7])

    def fired(*picked):
        return np.isin(np.arange(rows), picked)

    plans = Plans(boxes=boxes, flip=fired(0, 1, 2, 3),
                  jitter=fired(*range(10)), grayscale=fired(4, 5, 8),
                  blur=fired(*range(2, 12)), solarize=fired(1, 6, 9, 11),
                  factors=factors, sigmas=sigmas, threshold=128.0 / 255.0)
    return images, plans, 16


def _kernel_is_exact(kernel) -> bool:
    """Whether `kernel`, an `airl_apply_plans`, gives `_numpy_pass`'s bits
    on `_probe_batch`. A kernel built with contracted multiply-adds, or one
    that sums a mean in another order, fails."""
    images, plans, out_side = _probe_batch()
    expected = _numpy_pass(images, plans, out_side)
    got = _kernel_pass(kernel, images, plans, out_side)
    return got.tobytes() == expected.tobytes()


def _augment_path(library) -> str:
    """"kernel" where the compiled library is there and its `apply_plans`
    passes `_kernel_is_exact`, "numpy" otherwise."""
    if library is not None and _kernel_is_exact(library.apply_plans):
        return "kernel"
    return "numpy"


def two_views(images: np.ndarray, pipeline: AugPipeline, rngs):
    """Two independent pipeline draws of every image of a batch.

    `images` is (n, h, w, 3) and `rngs[i]` is image i's stream, already
    keyed per sample, one stream per image; the two views use its "view"/0
    and "view"/1 child streams. Returns two (n, d) matrices whose rows are
    the views flattened in (row, column, channel) order.
    """
    if len(rngs) != len(images):
        raise DimensionError(
            f"expected one stream per image, got {len(rngs)} streams for "
            f"{len(images)} images")
    plans = draw_plans(pipeline, rngs, images.shape[1:3])
    views = apply_plans(images, plans, pipeline.out_side)
    first, second = views.reshape(2, len(rngs), -1)
    return first, second


# The pass every `apply_plans` takes in this process.
AUGMENT_PATH = _augment_path(LIBRARY)

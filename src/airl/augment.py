"""View-generation pipeline: crop/resize, flip, color jitter, grayscale,
blur, solarization.

Images are (h, w, 3) float64 arrays with values in [0, 1]; the stage kernels
also take (n, h, w, 3) batches with one parameter per image. Every stage draws
its gate and parameters from its own named rng sub-stream, so removing one
stage never shifts the randomness any other stage sees: ablations stay paired
sample by sample.

Batched path. `two_views` augments a whole batch in two steps:

1. `draw_plan` runs once per (image, view). The stream of stage s is
   `rng.child("view", v).child(s)`, where `rng` is the image's stream, and it
   draws in this order: the gate, `random() < probability`; then, only if
   the gate fired, the stage's parameters. The crop makes up to ten
   attempts, each drawing an area scale and an aspect ratio (`uniform`
   twice); the first attempt that fits draws its top row, then its left
   column (`integers`), and if none fits the box is the whole image. Jitter
   draws its brightness, contrast, saturation and hue values (`uniform`
   four times); blur draws its sigma (`uniform`). The other stages draw
   nothing. A plan holds only these concrete values.

   `draw_plans` draws the plans of both views of the whole batch at once,
   equal to `draw_plan`'s. It derives every stage stream's Philox key in
   one loop of hashes, computes the first eight 64-bit words of all the
   streams as one numpy array (`numerics.philox_words`), and converts them
   the way numpy's generator does. The gate takes word 0, jitter words 1-4
   and blur word 1; a crop takes two words per attempt and one for its box
   corner, so eight words hold a crop that fits within three attempts. A
   stream that needs more, because its crop fits only later or a corner
   draw is rejected, is drawn by `draw_plan` instead.
2. `apply_plans` applies each stage, in pipeline order, to the sub-batch
   where it fired: the crop-resize is one gather with per-image indices,
   the blur runs per group of images with the same radius and adds its taps
   in kernel order, and the other stages are broadcasts. Per-image coefficients (blur
   kernels, hue rotations) come from the same scalar code as for one image.
   Images whose crops fired differently have different sizes between
   stages, so they are processed in separate groups.

The result equals augmenting each image on its own, bit for bit.

Layout rule. The contrast step of the jitter takes each image's mean luma,
and a floating-point sum depends on its order. The per-image pipeline that
the batched one replaced summed in memory order, and its crop-resize returned
a width-major array. So an image's mean is summed column by column when its
last crop-resize came after its last flip and grayscale, and row by row
otherwise (a source image counts as row-major); jitter, blur and
solarization keep the order they find. Keeping this rule keeps every
checkpoint trained with the per-image pipeline reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .numerics import (
    PHILOX_WORDS,
    Rng,
    StreamLoader,
    child_keys,
    integer_pair,
    philox_doubles,
    philox_words,
    uniform_of,
)

LUMA_WEIGHTS = (0.299, 0.587, 0.114)

# Removal ladder for the ablation study; stages are dropped in this order.
REMOVAL_ORDER = ("solarization", "gaussian_blur", "grayscale", "color_jitter")


@dataclass(frozen=True)
class AugStage:
    name: str
    probability: float
    params: tuple = ()


@dataclass(frozen=True)
class AugPipeline:
    """Ordered augmentation stages plus the output side length."""

    out_side: int = 16
    stages: tuple[AugStage, ...] = ()

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

    @staticmethod
    def ladder(out_side: int = 16, removals: int = 0) -> "AugPipeline":
        """Pipeline with the first `removals` stages of the ladder dropped."""
        if not 0 <= removals <= len(REMOVAL_ORDER):
            raise ConfigError(
                f"ladder removals must be in [0, {len(REMOVAL_ORDER)}], "
                f"got {removals}"
            )
        return AugPipeline.default(out_side, REMOVAL_ORDER[:removals])

    def remove(self, *names: str) -> "AugPipeline":
        known = {s.name for s in self.stages}
        for name in names:
            if name not in known:
                raise ConfigError(f"cannot remove unknown stage {name!r}")
        return replace(
            self,
            stages=tuple(s for s in self.stages if s.name not in names),
        )

    def stage(self, name: str) -> AugStage:
        for s in self.stages:
            if s.name == name:
                return s
        raise ConfigError(f"no stage named {name!r}")


def clamp01(img: np.ndarray) -> np.ndarray:
    return np.clip(img, 0.0, 1.0)


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
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"solarize threshold must be in [0, 1], got {threshold}")
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
                    boxes=None) -> np.ndarray:
    """Bilinear resample with half-pixel-centered sampling.

    `img` is one (h, w, 3) image or an (n, h, w, 3) batch. `boxes` restricts
    each image to a crop window (top, left, height, width): one 4-tuple for
    an image, one row per image for a batch; the default is the whole image.
    Resizing to the input size reproduces the input bit-for-bit.
    """
    single = img.ndim == 3
    x = img[None] if single else img
    n = x.shape[0]
    if boxes is None:
        boxes = (0, 0, *x.shape[1:3])
    top, left, h, w = np.broadcast_to(
        np.asarray(boxes, dtype=np.int64).reshape(-1, 4), (n, 4)).T
    y0, y1, wy = _resample_taps(out_h, h)
    x0, x1, wx = _resample_taps(out_w, w)
    # Gather whole pixels by flat index; the arithmetic then runs on
    # (n, out_h, out_w * 3) rows so numpy's inner loops stay long.
    pixels = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, 3)
    first = (np.arange(n) * x.shape[1])[:, None] + top[:, None]
    r0, r1 = (((first + y) * x.shape[2])[:, :, None] for y in (y0, y1))
    c0, c1 = ((left[:, None] + c)[:, None, :] for c in (x0, x1))

    wx = np.repeat(wx, 3, axis=1)[:, None, :]
    wy = wy[:, :, None]

    def along_row(rows):
        # (1 - wx) * near + wx * far, computed in place.
        near = np.take(pixels, rows + c0, axis=0).reshape(n, out_h, -1)
        far = np.take(pixels, rows + c1, axis=0).reshape(n, out_h, -1)
        near *= 1.0 - wx
        far *= wx
        near += far
        return near

    out = along_row(r0)
    out *= 1.0 - wy
    lower = along_row(r1)
    lower *= wy
    out += lower
    out = clamp01(out).reshape(n, out_h, out_w, 3)
    return out[0] if single else out


def _blur_kernel(sigma: float, radius: int) -> np.ndarray:
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    return kernel


def gaussian_blur(img: np.ndarray, sigma) -> np.ndarray:
    """Separable Gaussian with kernel radius ceil(2*sigma), edge padding.

    `img` is one (h, w, 3) image with one sigma, or an (n, h, w, 3) batch
    with one sigma per image. Images of equal radius are blurred together,
    each output pixel summing its taps in kernel order.
    """
    single = img.ndim == 3
    x = img[None] if single else img
    sigmas = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    radii = np.ceil(2.0 * sigmas).astype(int)
    out = x.copy()
    for radius in sorted(set(radii[radii >= 1].tolist())):
        members = np.flatnonzero(radii == radius)
        kernels = np.stack([_blur_kernel(sigmas[i], radius) for i in members])
        group = x[members]
        for axis in (1, 2):
            size = group.shape[axis]
            padded = np.take(group, np.clip(np.arange(-radius, size + radius),
                                            0, size - 1), axis=axis)
            acc = np.zeros_like(group)
            for tap in range(2 * radius + 1):
                window = [slice(None)] * 4
                window[axis] = slice(tap, tap + size)
                weight = kernels[:, tap, None, None, None]
                acc += weight * padded[tuple(window)]
            group = acc
        out[members] = clamp01(group)
    return out[0] if single else out


def _hue_coefficients(shift: float) -> tuple:
    # Rotation about the achromatic axis; an RGB-space stand-in for a hue
    # shift of `shift` turns. Exactly the identity at shift == 0.
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
    (see the module docstring).
    """
    n = img.shape[0]
    f = np.asarray(factors, dtype=np.float64).reshape(n, 4)
    fb, fc, fs = (f[:, k, None, None, None] for k in range(3))
    out = clamp01(img * fb)
    y = luma(out)
    pixels = np.where(np.asarray(col_major, dtype=bool)[:, None],
                      y.transpose(0, 2, 1).reshape(n, -1), y.reshape(n, -1))
    mean = (pixels.sum(axis=1) / pixels.shape[1])[:, None, None, None]
    out = clamp01((1.0 - fc) * mean + fc * out)
    gray = luma(out)[..., None]
    out = clamp01((1.0 - fs) * gray + fs * out)
    a, b, d = (np.array(c)[:, None, None] for c in
               zip(*(_hue_coefficients(float(s)) for s in f[:, 3])))
    r, g, bl = out[..., 0], out[..., 1], out[..., 2]
    out = np.stack(
        [a * r + b * g + d * bl,
         d * r + a * g + b * bl,
         b * r + d * g + a * bl],
        axis=-1,
    )
    return clamp01(out)


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


def draw_plan(pipeline: AugPipeline, rng: Rng, in_shape,
              streams: StreamLoader) -> list[tuple]:
    """Draw gate decisions and parameters for one pipeline application.

    `in_shape` is the (h, w) of the source image, which the crop box depends
    on. Each stage consumes only its own child stream of `rng`, loaded
    through `streams`. Returns (stage_name, fired, drawn) tuples; `drawn`
    holds the stage's concrete parameters: a crop box (top, left, height,
    width), jitter factors, a blur sigma or a solarize threshold.
    """
    h, w = in_shape
    plan = []
    for stage in pipeline.stages:
        stream = streams.load(rng.child(stage.name))
        fired = bool(stream.random() < stage.probability)
        params = dict(stage.params)
        drawn: dict = {}
        if fired:
            if stage.name == "random_crop":
                _check_crop_sizes(h, w, pipeline.out_side)
                drawn = {"box": _draw_crop_box(stream, h, w, params["scale"],
                                               params["aspect"])}
                h = w = pipeline.out_side
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


def _crop_boxes(words, doubles, h, w, scale, aspect):
    # Per stream: the box of a crop that fits within the attempts its words
    # hold. Attempt a draws from words 1 + 2a and 2 + 2a, and its box
    # corner from word 3 + 2a; streams whose crop needs a further attempt
    # or a rejected integer are flagged.
    boxes = np.zeros((len(h), 4), dtype=np.int64)
    done = np.zeros(len(h), dtype=bool)
    redraw = np.zeros(len(h), dtype=bool)
    image_area = (h * w).astype(np.float64)
    for a in range(CROP_ATTEMPTS_IN_WORDS):
        area = image_area * uniform_of(doubles[:, 1 + 2 * a], *scale)
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


def draw_plans(pipeline: AugPipeline, rngs, in_shape) -> tuple[list, list]:
    """`draw_plan` for both views of every image, all streams at once.

    Returns the plans of view 0 and of view 1; `plans[v][i]` equals
    `draw_plan(pipeline, rngs[i].child("view", v), in_shape, StreamLoader())`.
    Each stage stream's draws come from its first `PHILOX_WORDS` words,
    computed for all streams together. A stream whose stage needs more, a
    crop that fits only at its fourth attempt or later, or a rejected crop
    corner, is drawn by `draw_plan` through one shared `StreamLoader`.
    """
    stages = pipeline.stages
    view_ids, keys = child_keys(rngs, [("view", 0), ("view", 1)],
                                [(stage.name,) for stage in stages])
    # Rows are the (image, view) streams, image-major.
    rows = 2 * len(rngs)
    words = philox_words(keys.reshape(rows, len(stages), 2))
    doubles = philox_doubles(words)
    h = np.full(rows, in_shape[0], dtype=np.int64)
    w = np.full(rows, in_shape[1], dtype=np.int64)
    redraw = np.zeros(rows, dtype=bool)
    columns = []
    for k, stage in enumerate(stages):
        fired = doubles[:, k, 0] < stage.probability
        params = dict(stage.params)
        drawn = [{}] * rows
        if stage.name == "random_crop" and fired.any():
            _check_crop_sizes(int(h[fired].min()), int(w[fired].min()),
                              pipeline.out_side)
            boxes, more = _crop_boxes(words[:, k], doubles[:, k], h, w,
                                      params["scale"], params["aspect"])
            redraw |= fired & more
            drawn = [{"box": tuple(box)} for box in boxes.tolist()]
            h = np.where(fired, pipeline.out_side, h)
            w = np.where(fired, pipeline.out_side, w)
        elif stage.name == "color_jitter":
            factors = np.stack(
                [uniform_of(doubles[:, k, 1 + j], lo, hi) for j, (lo, hi)
                 in enumerate(_jitter_bounds(params["strengths"]))], axis=1)
            drawn = [{"factors": tuple(f)} for f in factors.tolist()]
        elif stage.name == "gaussian_blur":
            sigmas = uniform_of(doubles[:, k, 1], *params["sigma"])
            drawn = [{"sigma": s} for s in sigmas.tolist()]
        elif stage.name == "solarization":
            drawn = [{"threshold": params["threshold"]}] * rows
        columns.append((stage.name, fired.tolist(), drawn))
    plans = []
    streams = StreamLoader()
    for r in range(rows):
        if redraw[r]:
            image, view = divmod(r, 2)
            stream = Rng(rngs[image].seed, view_ids[image][view])
            plans.append(draw_plan(pipeline, stream, in_shape, streams))
        else:
            plans.append([(name, fired[r], drawn[r] if fired[r] else {})
                          for name, fired, drawn in columns])
    return plans[0::2], plans[1::2]


def _apply_same_size(x: np.ndarray, plans: list, out_side: int) -> np.ndarray:
    # Every image in `x` has the same size at every stage: their crops fired
    # alike. `col_major` tracks the order each image's contrast mean sums in.
    col_major = np.zeros(len(plans), dtype=bool)
    for k, (name, _, _) in enumerate(plans[0]):
        sel = [i for i, plan in enumerate(plans) if plan[k][1]]
        if not sel:
            continue
        drawn = [plans[i][k][2] for i in sel]
        if name == "random_crop":
            boxes = [d["box"] for d in drawn]
            x = resize_bilinear(x, out_side, out_side, boxes)
            col_major[:] = True
            continue
        if name == "horizontal_flip":
            part = hflip(x[sel])
            col_major[sel] = False
        elif name == "color_jitter":
            part = adjust_colors(x[sel], [d["factors"] for d in drawn],
                                 col_major[sel])
        elif name == "grayscale":
            part = grayscale(x[sel])
            col_major[sel] = False
        elif name == "gaussian_blur":
            part = gaussian_blur(x[sel], [d["sigma"] for d in drawn])
        elif name == "solarization":
            part = solarize(x[sel], drawn[0]["threshold"])
        else:
            raise ConfigError(f"unknown augmentation stage {name!r}")
        x[sel] = part
    if x.shape[1:3] != (out_side, out_side):
        x = resize_bilinear(x, out_side, out_side)
    return x


def apply_plans(images: np.ndarray, plans: list, out_side: int) -> np.ndarray:
    """Apply plans[i] to images[i]; returns (n, out_side, out_side, 3).

    All plans come from one pipeline: same stages, same fixed parameters.
    """
    groups: dict[tuple, list[int]] = {}
    for i, plan in enumerate(plans):
        crops = tuple(f for name, f, _ in plan if name == "random_crop")
        groups.setdefault(crops, []).append(i)
    if len(groups) == 1:
        # The usual case; skipping the scatter saves a batch-sized array.
        return _apply_same_size(images.copy(), plans, out_side)
    out = np.empty((len(plans), out_side, out_side, 3))
    for members in groups.values():
        out[members] = _apply_same_size(
            images[members], [plans[i] for i in members], out_side)
    return out


def apply_pipeline(img: np.ndarray, pipeline: AugPipeline, rng: Rng) -> np.ndarray:
    """One pipeline draw of one (h, w, 3) image, from the stream `rng`."""
    plan = draw_plan(pipeline, rng, img.shape[:2], StreamLoader())
    return apply_plans(img[None], [plan], pipeline.out_side)[0]


def two_views(images: np.ndarray, pipeline: AugPipeline, rngs):
    """Two independent pipeline draws of every image of a batch.

    `images` is (n, h, w, 3) and `rngs[i]` is image i's stream, already
    keyed per sample; the two views use its "view"/0 and "view"/1 child
    streams. Returns two (n, d) matrices whose rows are the views flattened
    in (row, column, channel) order.
    """
    first, second = (
        apply_plans(images, plans, pipeline.out_side).reshape(len(rngs), -1)
        for plans in draw_plans(pipeline, rngs, images.shape[1:3]))
    return first, second

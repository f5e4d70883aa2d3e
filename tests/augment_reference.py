"""Per-image augmentation, frozen as the reference for the batched pipeline.

This is the one-image-at-a-time implementation that `airl.augment` replaced:
every plan carries its stage streams, and each image goes through the stages
on its own. Tests require the batched `airl.augment.two_views` to equal
`two_views` here byte for byte, so checkpoints and metrics recorded with the
per-image pipeline stay reproducible. Do not change it.
"""

from __future__ import annotations

import numpy as np

from airl.augment import AugPipeline
from airl.errors import ConfigError
from airl.numerics import Rng

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def clamp01(img: np.ndarray) -> np.ndarray:
    return np.clip(img, 0.0, 1.0)


def luma(img: np.ndarray) -> np.ndarray:
    r, g, b = LUMA_WEIGHTS
    return r * img[..., 0] + g * img[..., 1] + b * img[..., 2]


def hflip(img: np.ndarray) -> np.ndarray:
    return img[:, ::-1, :].copy()


def grayscale(img: np.ndarray) -> np.ndarray:
    y = luma(img)
    return np.repeat(y[..., None], 3, axis=2)


def solarize(img: np.ndarray, threshold: float) -> np.ndarray:
    """Invert every pixel at or above the threshold (both on the 0-1 scale)."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"solarize threshold must be in [0, 1], got {threshold}")
    return np.where(img >= threshold, 1.0 - img, img)


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel-centered sampling.

    Resizing to the input size reproduces the input bit-for-bit.
    """
    in_h, in_w = img.shape[:2]
    sy = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0, in_h - 1)
    sx = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0, in_w - 1)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    top = (1.0 - wx) * img[y0][:, x0] + wx * img[y0][:, x1]
    bot = (1.0 - wx) * img[y1][:, x0] + wx * img[y1][:, x1]
    return clamp01((1.0 - wy) * top + wy * bot)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with kernel radius ceil(2*sigma), edge padding."""
    radius = int(np.ceil(2.0 * sigma))
    if radius < 1:
        return img.copy()
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    out = img
    for axis in (0, 1):
        pad = [(0, 0), (0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="edge")
        acc = np.zeros_like(out)
        for tap, weight in enumerate(kernel):
            sl = [slice(None)] * 3
            sl[axis] = slice(tap, tap + out.shape[axis])
            acc += weight * padded[tuple(sl)]
        out = acc
    return clamp01(out)


def _rotate_hue(img: np.ndarray, shift: float) -> np.ndarray:
    # Rotation about the achromatic axis; an RGB-space stand-in for a hue
    # shift of `shift` turns. Exactly the identity at shift == 0.
    theta = 2.0 * np.pi * shift
    c, s = np.cos(theta), np.sin(theta)
    a = c + (1.0 - c) / 3.0
    b = (1.0 - c) / 3.0 - s / np.sqrt(3.0)
    d = (1.0 - c) / 3.0 + s / np.sqrt(3.0)
    r, g, bl = img[..., 0], img[..., 1], img[..., 2]
    return np.stack(
        [a * r + b * g + d * bl,
         d * r + a * g + b * bl,
         b * r + d * g + a * bl],
        axis=2,
    )


def color_jitter(img: np.ndarray, strengths, rng: Rng) -> np.ndarray:
    """Brightness, contrast, saturation, hue in that order.

    The first three scale factors are uniform in [1-s, 1+s]; the hue shift is
    uniform in [-s, s] turns. All-zero strengths leave the image unchanged.
    """
    sb, sc, ss, sh = strengths
    out = img
    f = rng.uniform(1.0 - sb, 1.0 + sb)
    out = clamp01(out * f)
    f = rng.uniform(1.0 - sc, 1.0 + sc)
    mean = luma(out).mean()
    out = clamp01((1.0 - f) * mean + f * out)
    f = rng.uniform(1.0 - ss, 1.0 + ss)
    gray = luma(out)[..., None]
    out = clamp01((1.0 - f) * gray + f * out)
    shift = rng.uniform(-sh, sh)
    out = clamp01(_rotate_hue(out, shift))
    return out


def random_resized_crop(
    img: np.ndarray, scale, aspect, out_side: int, rng: Rng
) -> np.ndarray:
    """Crop a random area/aspect rectangle and resize it to out_side^2.

    Ten placement attempts; if none fits, falls back to the full image.
    """
    if out_side < 2 or min(img.shape[:2]) < 2:
        raise ConfigError("crop needs images and outputs of at least 2x2")
    in_h, in_w = img.shape[:2]
    crop = img
    for _ in range(10):
        area = in_h * in_w * rng.uniform(scale[0], scale[1])
        ratio = rng.uniform(aspect[0], aspect[1])
        w = int(round(np.sqrt(area * ratio)))
        h = int(round(np.sqrt(area / ratio)))
        if 1 <= w <= in_w and 1 <= h <= in_h:
            top = int(rng.integers(0, in_h - h + 1))
            left = int(rng.integers(0, in_w - w + 1))
            crop = img[top:top + h, left:left + w]
            break
    return resize_bilinear(crop, out_side, out_side)


def draw_plan(pipeline: AugPipeline, rng: Rng) -> list[tuple]:
    """Draw gate decisions and parameters for one pipeline application.

    Each stage consumes only its own child stream of `rng`. Returns
    (stage_name, fired, drawn) tuples; `drawn` holds the concrete parameters
    (or the stage's stream, for size-dependent draws) needed to apply the
    stage. Plans are single-use: applying one advances the embedded streams.
    """
    plan = []
    for stage in pipeline.stages:
        stream = rng.child(stage.name)
        fired = bool(stream.random() < stage.probability)
        params = dict(stage.params)
        drawn: dict = {}
        if fired:
            if stage.name == "random_crop":
                drawn = {"rng": stream, "scale": params["scale"],
                         "aspect": params["aspect"]}
            elif stage.name == "color_jitter":
                drawn = {"rng": stream, "strengths": params["strengths"]}
            elif stage.name == "gaussian_blur":
                lo, hi = params["sigma"]
                drawn = {"sigma": float(stream.uniform(lo, hi))}
            elif stage.name == "solarization":
                drawn = {"threshold": params["threshold"]}
        plan.append((stage.name, fired, drawn))
    return plan


def apply_plan(img: np.ndarray, plan: list[tuple], out_side: int) -> np.ndarray:
    out = img
    for name, fired, drawn in plan:
        if not fired:
            continue
        if name == "random_crop":
            out = random_resized_crop(out, drawn["scale"], drawn["aspect"],
                                      out_side, drawn["rng"])
        elif name == "horizontal_flip":
            out = hflip(out)
        elif name == "color_jitter":
            out = color_jitter(out, drawn["strengths"], drawn["rng"])
        elif name == "grayscale":
            out = grayscale(out)
        elif name == "gaussian_blur":
            out = gaussian_blur(out, drawn["sigma"])
        elif name == "solarization":
            out = solarize(out, drawn["threshold"])
        else:
            raise ConfigError(f"unknown augmentation stage {name!r}")
    if out.shape[:2] != (out_side, out_side):
        out = resize_bilinear(out, out_side, out_side)
    return out


def apply_pipeline(img: np.ndarray, pipeline: AugPipeline, rng: Rng) -> np.ndarray:
    return apply_plan(img, draw_plan(pipeline, rng), pipeline.out_side)


def two_views(img: np.ndarray, pipeline: AugPipeline, rng: Rng):
    """Two independent pipeline draws of the same source image.

    `rng` should already be keyed per sample; the two views use the
    "view"/0 and "view"/1 child streams.
    """
    return (
        apply_pipeline(img, pipeline, rng.child("view", 0)),
        apply_pipeline(img, pipeline, rng.child("view", 1)),
    )

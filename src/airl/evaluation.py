"""Linear-probe evaluation on frozen features plus collapse diagnostics.

The synthetic dataset gives each class a distinct achromatic grating texture
(orientation-coded, so class identity survives crops, rescaling, and flips);
every sample then gets its own multiplicative brightness gain and pixel
noise. Class identity therefore lives in texture while brightness is a
per-sample nuisance of exactly the kind the color-jitter augmentation
randomizes: with jitter on, the gain is useless as an instance signature,
and with jitter off it becomes a shortcut that crowds out class structure.

Every probe runs one fixed recipe (the `PROBE_*` constants): a softmax
linear classifier from zero weights, momentum SGD without weight decay for
50 epochs in batches of 64, lr 0.3 cut by 10x at 60% and again at 80% of
training. The probe seed picks only the batch order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import augment, encoder, optim
from .errors import ConfigError, DimensionError, FeatureCollapseError
from .numerics import Rng, matmul, row_norms

# The linear probe's recipe.
PROBE_EPOCHS = 50
PROBE_BATCH = 64
PROBE_LR = 0.3
PROBE_MOMENTUM = 0.9
PROBE_MILESTONES = (0.6, 0.8)  # fractions of training
PROBE_DECAY = 0.1


@dataclass(frozen=True)
class Dataset:
    train_images: np.ndarray  # (n_train, side, side, 3) in [0, 1]
    train_labels: np.ndarray  # (n_train,) ints in [0, classes)
    val_images: np.ndarray
    val_labels: np.ndarray
    classes: int


def _class_pattern(side: int, theta: float, rng: Rng) -> np.ndarray:
    """Grating texture with class identity carried by orientation.

    Energy is placed symmetrically at theta and its mirror so horizontal
    flips stay in-class, and orientation (unlike frequency or phase)
    survives random resized crops. Frequencies sit low enough that Gaussian
    blur leaves the class signal intact while flattening pixel noise.
    """
    ys, xs = np.meshgrid(np.arange(side) / side, np.arange(side) / side,
                         indexing="ij")
    pattern = np.zeros((side, side))
    for freq in (1.0, 2.0):
        amp = rng.uniform(0.7, 1.0)
        for direction in (1.0, -1.0):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            pattern += amp * np.sin(
                2.0 * np.pi * freq
                * (direction * np.cos(theta) * xs + np.sin(theta) * ys)
                + phase
            )
    pattern /= np.max(np.abs(pattern))
    # headroom above keeps a 1 + tint brightness gain clip-free
    return 0.42 + 0.2 * pattern  # values in [0.22, 0.62]


def make_synthetic_dataset(
    classes: int,
    per_class: int,
    side: int,
    rng: Rng,
    noise: float,
    tint: float,
    val_per_class: int,
) -> Dataset:
    """Procedural dataset: one texture prototype per class, plus a per-sample
    brightness gain (uniform in 1 +- tint) and Gaussian pixel noise.

    With noise == 0 and tint == 0 every sample equals its class prototype.
    Deterministic given the rng.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    # one orientation per class, spread over (0, pi/2)
    thetas = (np.arange(classes) + 0.5) * (np.pi / 2.0) / classes
    protos = [
        np.repeat(
            _class_pattern(side, thetas[c], rng.child("proto", c))[..., None],
            3, axis=2,
        )
        for c in range(classes)
    ]

    def draw_split(tag: str, count: int):
        images = np.empty((classes * count, side, side, 3))
        labels = np.empty(classes * count, dtype=np.int64)
        for c in range(classes):
            stream = rng.child("samples", tag, c)
            for i in range(count):
                gain = stream.uniform(1.0 - tint, 1.0 + tint)
                pixel_noise = stream.normal(0.0, 1.0, (side, side, 3)) * noise
                img = np.clip(protos[c] * gain + pixel_noise, 0.0, 1.0)
                images[c * count + i] = img
                labels[c * count + i] = c
        return images, labels

    train_images, train_labels = draw_split("train", per_class)
    val_images, val_labels = draw_split("val", val_per_class)
    return Dataset(train_images, train_labels, val_images, val_labels, classes)


def images_to_inputs(images: np.ndarray, params: encoder.EncoderParams) -> np.ndarray:
    """Flatten images to encoder inputs, resizing first if sides differ."""
    if params.in_dim % 3:
        raise DimensionError(f"encoder input dim {params.in_dim} is not 3-channel")
    side = int(round(np.sqrt(params.in_dim / 3)))
    if side * side * 3 != params.in_dim:
        raise DimensionError(f"encoder input dim {params.in_dim} is not square")
    if images.shape[1] != side or images.shape[2] != side:
        images = augment.resize_bilinear(images, side, side)
    return images.reshape(images.shape[0], -1)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def probe_lr(epoch: int) -> float:
    """The probe's lr in an epoch: PROBE_LR times PROBE_DECAY per milestone
    reached."""
    hits = sum(epoch / PROBE_EPOCHS >= m for m in PROBE_MILESTONES)
    return PROBE_LR * PROBE_DECAY**hits


def fit_linear_classifier(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    seed: int = 0,
):
    """Train a softmax linear classifier with the probe recipe; returns
    (val top-1 accuracy, (weights, bias)).

    Weights start at zero, so the outcome depends only on the features and
    the probe seed (which drives the batch order). Each batch steps the
    weights and bias through `optim.sgd_step`, the update pretraining uses,
    at `probe_lr(epoch)`.
    """
    n, dim = train_features.shape
    classes = int(train_labels.max()) + 1
    w = np.zeros((dim, classes))
    b = np.zeros(classes)
    params = {"w": w, "b": b}
    sgd = optim.SgdConfig(momentum=PROBE_MOMENTUM, weight_decay=0.0)
    velocities: dict[str, np.ndarray] = {}
    onehot = np.eye(classes)[train_labels]
    rng = Rng(seed, 0)
    for epoch in range(PROBE_EPOCHS):
        lr_t = probe_lr(epoch)
        order = rng.child("order", epoch).permutation(n)
        for start in range(0, n, PROBE_BATCH):
            idx = order[start:start + PROBE_BATCH]
            f = train_features[idx]
            logits = matmul(f, w) + b
            probs = _softmax_rows(logits)
            dlogits = (probs - onehot[idx]) / idx.size
            grads = {"w": matmul(f.T, dlogits), "b": dlogits.sum(axis=0)}
            optim.sgd_step(params, grads, velocities, sgd, lr_t)
    val_logits = matmul(val_features, w) + b
    accuracy = float(np.mean(np.argmax(val_logits, axis=1) == val_labels))
    return accuracy, (w, b)


def linear_probe(params: encoder.EncoderParams, dataset: Dataset,
                 seed: int = 0):
    """Linear evaluation of frozen backbone features.

    Features are eval-mode backbone outputs (projector and predictor are
    discarded). Raises ConfigError for an empty split, and
    FeatureCollapseError instead of silently reporting chance accuracy when
    the features are (near-)constant.
    """
    for split, images in (("train", dataset.train_images),
                          ("val", dataset.val_images)):
        if len(images) == 0:
            raise ConfigError(f"cannot probe: the {split} split is empty")
    train_f = encoder.backbone_features(
        params, images_to_inputs(dataset.train_images, params)
    )
    val_f = encoder.backbone_features(
        params, images_to_inputs(dataset.val_images, params)
    )
    std = float(np.mean(np.std(train_f, axis=0)))
    if std < 1e-6:
        raise FeatureCollapseError(
            f"backbone features have mean per-dim std {std:.3e} (< 1e-6)"
        )
    return fit_linear_classifier(
        train_f, dataset.train_labels, val_f, dataset.val_labels, seed
    )


def _safe_normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = row_norms(x)
    norms[norms < 1e-12] = 1.0
    return x / norms


def collapse_metrics(features: np.ndarray) -> tuple[float, float]:
    """(mean per-dimension std, effective rank) of row-normalized features.

    Effective rank is exp(entropy) of the 1-normalized singular values: 1 for
    a constant batch, d for orthonormal rows spanning d dimensions. The std
    of healthy unit features sits near the isotropic reference 1/sqrt(d).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise DimensionError(
            f"collapse metrics need (n >= 2, d) features, got {features.shape}"
        )
    normed = _safe_normalize_rows(features)
    per_dim_std = float(np.mean(np.std(normed, axis=0)))
    singular = np.linalg.svd(normed, compute_uv=False)
    total = float(singular.sum())
    if total <= 0.0:
        return per_dim_std, 0.0
    p = singular / total
    p = p[p > 0]
    entropy = float(-np.sum(p * np.log(p)))
    return per_dim_std, float(np.exp(entropy))


def isotropic_std_reference(dim: int) -> float:
    """Per-dimension std of isotropically spread unit vectors: 1/sqrt(d)."""
    return float(1.0 / np.sqrt(dim))

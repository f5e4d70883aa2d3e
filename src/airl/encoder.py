"""Siamese branch network: MLP backbone, projector, optional predictor.

Layers are linear / batch-norm / relu with hand-derived backward passes.
The backbone is two linear+BN+relu blocks over the flattened input (a
desk-scale stand-in for a convolutional trunk); projector and predictor are
2-layer MLPs whose hidden batch-norm is configurable. Parameters live in a
flat name -> array map with a role tag per tensor (weight / bias / norm_gain /
norm_bias) so optimizers and checkpoint surgery can treat them by role.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    BatchTooSmallError,
    ConfigError,
    DimensionError,
    NumericOverflowError,
)
from .numerics import Rng, matmul

BN_EPS = 1e-5
BN_STAT_MOMENTUM = 0.9

ROLE_WEIGHT = "weight"
ROLE_BIAS = "bias"
ROLE_NORM_GAIN = "norm_gain"
ROLE_NORM_BIAS = "norm_bias"
ROLES = (ROLE_WEIGHT, ROLE_BIAS, ROLE_NORM_GAIN, ROLE_NORM_BIAS)


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "linear" | "batch_norm" | "relu"
    name: str
    in_dim: int
    out_dim: int
    stage: str  # block label; the stage output is the last layer's output
    bn_affine: bool = True
    has_bias: bool = True  # linear layers only

    def __post_init__(self):
        if self.kind not in ("linear", "batch_norm", "relu"):
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("batch_norm", "relu") and self.in_dim != self.out_dim:
            raise ConfigError(
                f"{self.kind} layer {self.name!r} needs in_dim == out_dim"
            )


@dataclass
class EncoderParams:
    """Named parameter set for one siamese branch.

    `tensors` holds trainable arrays, `roles` their role tags, and `running`
    the per-BN-layer running statistics ("<layer>.mean", "<layer>.var").
    """

    specs: tuple[LayerSpec, ...]
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    roles: dict[str, str] = field(default_factory=dict)
    running: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            specs=self.specs,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            roles=dict(self.roles),
            running={k: v.copy() for k, v in self.running.items()},
        )

    def stage_names(self) -> list[str]:
        names: list[str] = []
        for spec in self.specs:
            if spec.stage not in names:
                names.append(spec.stage)
        return names

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim if self.specs else 0

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim if self.specs else 0


def _mlp_head_specs(
    prefix: str, in_dim: int, hidden: int, out: int, hidden_bn: bool
) -> list[LayerSpec]:
    # 2-layer MLP; the hidden linear drops its bias when a BN follows.
    specs = [
        LayerSpec("linear", f"{prefix}_lin1", in_dim, hidden, prefix,
                  has_bias=not hidden_bn)
    ]
    if hidden_bn:
        specs.append(LayerSpec("batch_norm", f"{prefix}_bn", hidden, hidden, prefix))
    specs.append(LayerSpec("relu", f"{prefix}_act", hidden, hidden, prefix))
    specs.append(LayerSpec("linear", f"{prefix}_lin2", hidden, out, prefix))
    return specs


def branch_specs(cfg, with_predictor: bool) -> tuple[LayerSpec, ...]:
    """Layer layout for one branch given a framework config.

    `cfg` needs input_dim / backbone_hidden / backbone_out /
    projector_hidden / projector_out / projector_hidden_bn attributes.
    """
    specs: list[LayerSpec] = []
    dims = [cfg.input_dim, cfg.backbone_hidden, cfg.backbone_out]
    for i in (1, 2):
        stage = f"backbone{i}"
        specs.append(LayerSpec("linear", f"{stage}_lin", dims[i - 1], dims[i],
                               stage, has_bias=False))
        specs.append(LayerSpec("batch_norm", f"{stage}_bn", dims[i], dims[i], stage))
        specs.append(LayerSpec("relu", f"{stage}_act", dims[i], dims[i], stage))
    specs += _mlp_head_specs("projector", cfg.backbone_out, cfg.projector_hidden,
                             cfg.projector_out, cfg.projector_hidden_bn)
    if with_predictor:
        specs += _mlp_head_specs("predictor", cfg.projector_out,
                                 cfg.projector_hidden, cfg.projector_out,
                                 cfg.projector_hidden_bn)
    return tuple(specs)


def init_params(specs: tuple[LayerSpec, ...], rng: Rng) -> EncoderParams:
    """Allocate and initialize parameters for a layer layout.

    Weights and linear biases use uniform(-1/sqrt(fan_in), +1/sqrt(fan_in));
    BN gains start at 1, BN biases at 0, running stats at (0, 1).
    """
    params = EncoderParams(specs=specs)
    for spec in specs:
        if spec.kind == "linear":
            bound = 1.0 / np.sqrt(spec.in_dim)
            w = rng.child("init", spec.name, "weight").uniform(
                -bound, bound, (spec.in_dim, spec.out_dim)
            )
            params.tensors[f"{spec.name}.weight"] = w
            params.roles[f"{spec.name}.weight"] = ROLE_WEIGHT
            if spec.has_bias:
                b = rng.child("init", spec.name, "bias").uniform(
                    -bound, bound, spec.out_dim
                )
                params.tensors[f"{spec.name}.bias"] = b
                params.roles[f"{spec.name}.bias"] = ROLE_BIAS
        elif spec.kind == "batch_norm":
            if spec.bn_affine:
                params.tensors[f"{spec.name}.gain"] = np.ones(spec.out_dim)
                params.roles[f"{spec.name}.gain"] = ROLE_NORM_GAIN
                params.tensors[f"{spec.name}.bias"] = np.zeros(spec.out_dim)
                params.roles[f"{spec.name}.bias"] = ROLE_NORM_BIAS
            params.running[f"{spec.name}.mean"] = np.zeros(spec.out_dim)
            params.running[f"{spec.name}.var"] = np.ones(spec.out_dim)
    return params


def build_branch(cfg, rng: Rng, with_predictor: bool = True) -> EncoderParams:
    """Build and initialize one branch per the framework config."""
    return init_params(branch_specs(cfg, with_predictor), rng)


def make_teacher(student: EncoderParams, include_predictor: bool) -> EncoderParams:
    """Teacher branch: a copy of the student's shared sub-network.

    The predictor stage is kept only when the network structure is symmetric.
    """
    specs = tuple(
        s for s in student.specs
        if include_predictor or s.stage != "predictor"
    )
    kept = {s.name for s in specs}
    return EncoderParams(
        specs=specs,
        tensors={k: v.copy() for k, v in student.tensors.items()
                 if k.split(".")[0] in kept},
        roles={k: v for k, v in student.roles.items()
               if k.split(".")[0] in kept},
        running={k: v.copy() for k, v in student.running.items()
                 if k.split(".")[0] in kept},
    )


def forward(
    params: EncoderParams,
    x: np.ndarray,
    training: bool,
    collect_stages: bool = False,
):
    """Run the branch, returning (output, cache).

    Training-mode BN uses batch statistics and updates the running stats in
    place; eval mode reads running stats and is a pure function.
    """
    x = numerics.as_tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"encoder input must be (n, d), got {x.shape}")
    if params.specs and x.shape[1] != params.in_dim:
        raise DimensionError(
            f"encoder expects input dim {params.in_dim}, got {x.shape[1]}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericOverflowError("non-finite value in encoder input")

    n = x.shape[0]
    layer_caches: list[dict] = []
    stages: dict[str, np.ndarray] = {}
    h = x
    for spec in params.specs:
        if spec.kind == "linear":
            w = params.tensors[f"{spec.name}.weight"]
            out = matmul(h, w)
            if spec.has_bias:
                out = out + params.tensors[f"{spec.name}.bias"]
            layer_caches.append({"spec": spec, "x": h, "w": w})
        elif spec.kind == "batch_norm":
            if training:
                if n < 2:
                    raise BatchTooSmallError(
                        f"training-mode BN at {spec.name!r} needs a batch of "
                        f"at least 2 samples, got {n}"
                    )
                mean = np.mean(h, axis=0)
                var = np.mean((h - mean) ** 2, axis=0)
                params.running[f"{spec.name}.mean"] *= BN_STAT_MOMENTUM
                params.running[f"{spec.name}.mean"] += (1 - BN_STAT_MOMENTUM) * mean
                params.running[f"{spec.name}.var"] *= BN_STAT_MOMENTUM
                params.running[f"{spec.name}.var"] += (1 - BN_STAT_MOMENTUM) * var
            else:
                mean = params.running[f"{spec.name}.mean"]
                var = params.running[f"{spec.name}.var"]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            x_hat = (h - mean) * inv_std
            entry = {"spec": spec, "x_hat": x_hat, "inv_std": inv_std}
            if spec.bn_affine:
                gain = params.tensors[f"{spec.name}.gain"]
                out = gain * x_hat + params.tensors[f"{spec.name}.bias"]
                entry["gain"] = gain
            else:
                out = x_hat
            layer_caches.append(entry)
        else:  # relu
            out = np.maximum(h, 0.0)
            layer_caches.append({"spec": spec, "mask": h > 0.0})
        if not np.all(np.isfinite(out)):
            raise NumericOverflowError(
                f"non-finite activation after layer {spec.name!r}"
            )
        if collect_stages:
            stages[spec.stage] = out
        h = out

    cache = {"layers": layer_caches, "training": training, "n": n}
    if collect_stages:
        cache["stages"] = stages
    return h, cache


def backward(cache: dict, grad_out: np.ndarray, compute_grad_in: bool = True):
    """Analytic gradients of a training-mode forward.

    Returns (param_grads, grad_in). `param_grads` maps every trainable tensor
    touched by the forward to its gradient. Set compute_grad_in=False to skip
    the (unused) gradient w.r.t. the network input.
    """
    if not cache.get("training"):
        raise ConfigError("backward needs a cache from a training-mode forward")
    grad = numerics.as_tensor(grad_out)
    grads: dict[str, np.ndarray] = {}
    layers = cache["layers"]
    n = cache["n"]
    if layers and grad.shape != (n, layers[-1]["spec"].out_dim):
        raise DimensionError(
            f"grad_out shape {grad.shape} does not match forward output "
            f"({n}, {layers[-1]['spec'].out_dim})"
        )
    for i in range(len(layers) - 1, -1, -1):
        entry = layers[i]
        spec = entry["spec"]
        last = i == 0
        if spec.kind == "linear":
            if spec.has_bias:
                grads[f"{spec.name}.bias"] = np.sum(grad, axis=0)
            grads[f"{spec.name}.weight"] = matmul(entry["x"].T, grad)
            if not (last and not compute_grad_in):
                grad = matmul(grad, entry["w"].T)
        elif spec.kind == "batch_norm":
            x_hat = entry["x_hat"]
            inv_std = entry["inv_std"]
            if spec.bn_affine:
                grads[f"{spec.name}.gain"] = np.sum(grad * x_hat, axis=0)
                grads[f"{spec.name}.bias"] = np.sum(grad, axis=0)
                d_xhat = grad * entry["gain"]
            else:
                d_xhat = grad
            sum_d = np.sum(d_xhat, axis=0)
            sum_dx = np.sum(d_xhat * x_hat, axis=0)
            grad = (inv_std / n) * (n * d_xhat - sum_d - x_hat * sum_dx)
        else:  # relu
            grad = grad * entry["mask"]
    return grads, grad


def eval_stage_outputs(params: EncoderParams, x: np.ndarray) -> dict[str, np.ndarray]:
    """Eval-mode activations collected after each stage (pure function)."""
    _, cache = forward(params, x, training=False, collect_stages=True)
    return cache["stages"]


def refresh_running_stats(params: EncoderParams, x: np.ndarray,
                          passes: int = 150) -> None:
    """Re-estimate BN running statistics from data, in place.

    Needed after weight surgery: rescaled weights shift the pre-activation
    scales, so statistics recorded during training no longer normalize
    correctly in eval mode. Resets the stats and runs training-mode forwards
    (parameters untouched) until the exponential averages settle; with a
    fixed batch the residue of the reset values decays as 0.9^passes.
    """
    for layer, value in params.running.items():
        value[...] = 0.0 if layer.endswith(".mean") else 1.0
    for _ in range(passes):
        forward(params, x, training=True)


def backbone_features(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode backbone output (the representation used by linear probes)."""
    stages = eval_stage_outputs(params, x)
    backbone = [name for name in params.stage_names()
                if name.startswith("backbone")]
    if not backbone:
        raise ConfigError("branch has no backbone stage")
    return stages[backbone[-1]]

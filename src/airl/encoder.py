"""Siamese branch network: MLP backbone, projector, optional predictor.

A branch is a stack of blocks, each a linear layer, then batch-norm if the
block has one, then relu if it has one, with hand-derived backward passes.
The backbone is two linear+BN+relu blocks over the flattened input (a
desk-scale stand-in for a convolutional trunk); projector and predictor are
2-layer MLPs whose hidden batch-norm is configurable. Parameters live in a
flat name -> array map with a role tag per tensor (weight / bias / norm_gain /
norm_bias) so optimizers and checkpoint surgery can treat them by role.

A training step encodes both views of a branch in one pass: `forward` takes
the stacked rows as `groups` equal blocks and batch-norm takes its statistics
per block (per view), and `backward` returns one gradient map per block. The
result equals one pass per view bit for bit, with fewer, taller products.
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
class Block:
    """A linear layer `name`, then batch-norm if `norm`, then relu if `relu`.

    The linear carries a bias exactly when no batch-norm follows it. The
    batch-norm is named `<stage>_bn`, so a stage holds at most one. A stage's
    output is the output of its last block.
    """

    stage: str
    name: str
    in_dim: int
    out_dim: int
    norm: bool
    relu: bool

    @property
    def norm_name(self) -> str:
        return f"{self.stage}_bn"


@dataclass
class EncoderParams:
    """Named parameter set for one siamese branch.

    `tensors` holds trainable arrays, `roles` their role tags, and `running`
    the per-BN running statistics ("<stage>_bn.mean", "<stage>_bn.var").
    """

    specs: tuple[Block, ...]
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
        for block in self.specs:
            if block.stage not in names:
                names.append(block.stage)
        return names

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim if self.specs else 0

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim if self.specs else 0


def _mlp_head_specs(
    prefix: str, in_dim: int, hidden: int, out: int, hidden_bn: bool
) -> list[Block]:
    return [
        Block(prefix, f"{prefix}_lin1", in_dim, hidden, norm=hidden_bn,
              relu=True),
        Block(prefix, f"{prefix}_lin2", hidden, out, norm=False, relu=False),
    ]


def branch_specs(cfg, with_predictor: bool) -> tuple[Block, ...]:
    """Block layout for one branch given a framework config.

    `cfg` needs input_dim / backbone_hidden / backbone_out /
    projector_hidden / projector_out / projector_hidden_bn attributes.
    """
    dims = [cfg.input_dim, cfg.backbone_hidden, cfg.backbone_out]
    specs = [
        Block(f"backbone{i}", f"backbone{i}_lin", dims[i - 1], dims[i],
              norm=True, relu=True)
        for i in (1, 2)
    ]
    specs += _mlp_head_specs("projector", cfg.backbone_out, cfg.projector_hidden,
                             cfg.projector_out, cfg.projector_hidden_bn)
    if with_predictor:
        specs += _mlp_head_specs("predictor", cfg.projector_out,
                                 cfg.projector_hidden, cfg.projector_out,
                                 cfg.projector_hidden_bn)
    return tuple(specs)


def init_params(specs: tuple[Block, ...], rng: Rng) -> EncoderParams:
    """Allocate and initialize parameters for a block layout.

    Weights and linear biases use uniform(-1/sqrt(fan_in), +1/sqrt(fan_in));
    BN gains start at 1, BN biases at 0, running stats at (0, 1).
    """
    params = EncoderParams(specs=specs)
    for block in specs:
        bound = 1.0 / np.sqrt(block.in_dim)
        w = rng.child("init", block.name, "weight").uniform(
            -bound, bound, (block.in_dim, block.out_dim)
        )
        params.tensors[f"{block.name}.weight"] = w
        params.roles[f"{block.name}.weight"] = ROLE_WEIGHT
        if block.norm:
            bn = block.norm_name
            params.tensors[f"{bn}.gain"] = np.ones(block.out_dim)
            params.roles[f"{bn}.gain"] = ROLE_NORM_GAIN
            params.tensors[f"{bn}.bias"] = np.zeros(block.out_dim)
            params.roles[f"{bn}.bias"] = ROLE_NORM_BIAS
            params.running[f"{bn}.mean"] = np.zeros(block.out_dim)
            params.running[f"{bn}.var"] = np.ones(block.out_dim)
        else:
            b = rng.child("init", block.name, "bias").uniform(
                -bound, bound, block.out_dim
            )
            params.tensors[f"{block.name}.bias"] = b
            params.roles[f"{block.name}.bias"] = ROLE_BIAS
    return params


def build_branch(cfg, rng: Rng, with_predictor: bool = True) -> EncoderParams:
    """Build and initialize one branch per the framework config."""
    return init_params(branch_specs(cfg, with_predictor), rng)


def _check_finite(out: np.ndarray, layer: str) -> None:
    if not np.all(np.isfinite(out)):
        raise NumericOverflowError(
            f"non-finite activation after layer {layer!r}"
        )


def forward(params: EncoderParams, x: np.ndarray, training: bool,
            groups: int = 1):
    """Run the branch, returning (output, cache).

    The rows of `x` form `groups` equal consecutive blocks (the views of a
    step, stacked). Training-mode BN takes mean and variance per block and
    updates the running stats in place, block by block in row order, so one
    pass over G stacked blocks equals G passes over one block each, bit for
    bit: rows of a product are independent, and every statistic sums the
    same rows in the same order. Eval mode reads running stats and is a pure
    function. The cache's "stages" maps each stage to its output.
    """
    x = numerics.as_tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"encoder input must be (n, d), got {x.shape}")
    if params.specs and x.shape[1] != params.in_dim:
        raise DimensionError(
            f"encoder expects input dim {params.in_dim}, got {x.shape[1]}"
        )
    n = x.shape[0]
    if groups < 1 or n % groups:
        raise DimensionError(
            f"{n} input rows do not split into {groups} equal groups"
        )
    if not np.all(np.isfinite(x)):
        raise NumericOverflowError("non-finite value in encoder input")

    rows = n // groups
    entries: list[dict] = []
    stages: dict[str, np.ndarray] = {}
    h = x
    for block in params.specs:
        w = params.tensors[f"{block.name}.weight"]
        entry = {"block": block, "x": h, "w": w}
        out = matmul(h, w)
        # `out` is updated in place where the operation allows: the same
        # values as a fresh temporary, with fewer (n, width) allocations.
        if not block.norm:
            out += params.tensors[f"{block.name}.bias"]
        # Checked before the relu, which maps -inf to 0.
        _check_finite(out, block.name)
        if block.norm:
            bn = block.norm_name
            out = out.reshape(groups, rows, block.out_dim)
            if training:
                if rows < 2:
                    raise BatchTooSmallError(
                        f"training-mode BN at {bn!r} needs at least 2 "
                        f"samples per group, got {rows}"
                    )
                mean = np.mean(out, axis=1, keepdims=True)
                x_hat = out - mean
                var = np.mean(x_hat ** 2, axis=1, keepdims=True)
                running_mean = params.running[f"{bn}.mean"]
                running_var = params.running[f"{bn}.var"]
                for g in range(groups):
                    running_mean *= BN_STAT_MOMENTUM
                    running_mean += (1 - BN_STAT_MOMENTUM) * mean[g, 0]
                    running_var *= BN_STAT_MOMENTUM
                    running_var += (1 - BN_STAT_MOMENTUM) * var[g, 0]
            else:
                x_hat = out - params.running[f"{bn}.mean"]
                var = params.running[f"{bn}.var"]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            x_hat *= inv_std
            gain = params.tensors[f"{bn}.gain"]
            out = gain * x_hat
            out += params.tensors[f"{bn}.bias"]
            out = out.reshape(n, block.out_dim)
            _check_finite(out, bn)
            entry.update(x_hat=x_hat, inv_std=inv_std, gain=gain)
        if block.relu:
            entry["mask"] = out > 0.0
            np.maximum(out, 0.0, out=out)
        entries.append(entry)
        stages[block.stage] = out
        h = out

    cache = {"blocks": entries, "training": training, "n": n,
             "groups": groups, "stages": stages}
    return h, cache


def backward(cache: dict, grad_out: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Analytic gradients of a training-mode forward, one map per group.

    Map g holds the gradient of every trainable tensor touched by the
    forward through group g's rows alone: the BN gain/bias and linear-bias
    sums and the weight product `x_g.T @ grad_g` run over that group's rows,
    exactly as a one-group backward of that group would. The gradient that
    flows down through `grad @ W.T` stays one stacked product. The gradient
    w.r.t. the network input is never formed.
    """
    if not cache.get("training"):
        raise ConfigError("backward needs a cache from a training-mode forward")
    grad = numerics.as_tensor(grad_out)
    entries = cache["blocks"]
    n = cache["n"]
    groups = cache["groups"]
    rows = n // groups
    spans = [slice(g * rows, (g + 1) * rows) for g in range(groups)]
    grad_sets: list[dict[str, np.ndarray]] = [{} for _ in spans]
    if entries and grad.shape != (n, entries[-1]["block"].out_dim):
        raise DimensionError(
            f"grad_out shape {grad.shape} does not match forward output "
            f"({n}, {entries[-1]['block'].out_dim})"
        )
    for i in range(len(entries) - 1, -1, -1):
        entry = entries[i]
        block = entry["block"]
        if block.relu:
            grad = grad * entry["mask"]
        grouped = grad.reshape(groups, rows, block.out_dim)
        if block.norm:
            bn = block.norm_name
            x_hat = entry["x_hat"]
            sums = {f"{bn}.gain": np.sum(grouped * x_hat, axis=1),
                    f"{bn}.bias": np.sum(grouped, axis=1)}
            d_xhat = grouped * entry["gain"]
            sum_d = np.sum(d_xhat, axis=1, keepdims=True)
            sum_dx = np.sum(d_xhat * x_hat, axis=1, keepdims=True)
            # (inv_std / rows) * (rows * d_xhat - sum_d - x_hat * sum_dx),
            # evaluated in place in that order.
            d_xhat *= rows
            d_xhat -= sum_d
            d_xhat -= x_hat * sum_dx
            d_xhat *= entry["inv_std"] / rows
            grad = d_xhat.reshape(n, block.out_dim)
        else:
            sums = {f"{block.name}.bias": np.sum(grouped, axis=1)}
        for g, (grads, span) in enumerate(zip(grad_sets, spans)):
            for name, value in sums.items():
                grads[name] = value[g]
            grads[f"{block.name}.weight"] = matmul(entry["x"][span].T,
                                                   grad[span])
        if i > 0:
            grad = matmul(grad, entry["w"].T)
    return grad_sets


def eval_stage_outputs(params: EncoderParams, x: np.ndarray) -> dict[str, np.ndarray]:
    """Eval-mode activations collected after each stage (pure function)."""
    _, cache = forward(params, x, training=False)
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

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

Block paths. Every block takes its product from `matmul`, C-contiguous. The
rest of its work runs on one of two paths with the same bits, chosen once
at import (`BLOCK_PATH`):

- "kernel": one call of `_encoder.c` per training-mode block of width 2
  and more, forward and backward (`numerics.LIBRARY`); eval-mode and
  width-1 blocks take the numpy passes (`_block_passes`). Forward, it adds
  the linear bias or runs the batch-norm (statistics, running averages,
  scale and shift), then the relu, with a finite check before and after
  the batch-norm; backward, it applies the relu mask and forms the
  batch-norm and bias gradients. It reproduces the numpy path's
  operations in their order. A column sum over a group's rows starts from
  +0.0 and adds the rows in order, as numpy's reduction over the rows
  axis does at width 2 and more. A running statistic becomes `stat * 0.9
  + (1 - 0.9) * batch_stat`, each product rounded, and the scale is `1.0
  / sqrt(var + eps)`. The relu gives +0.0 for -0.0, as `np.maximum` does,
  and the backward multiplies by the mask as 1.0 or 0.0, so a masked -3.0
  becomes -0.0.
- "numpy": the same block in numpy (`_numpy_block_forward` and
  `_numpy_block_backward`): the kernel's reference, the path of every
  eval-mode and width-1 block, and the path without a compiler or where
  the kernel fails `_block_is_exact` on `_probe_blocks`.

On both paths a non-finite linear output raises before the running
statistics change, and a non-finite batch-norm output after they are
updated, with the same message. The encoder input is not scanned on the
way in: a non-finite input value makes its row of the first product
non-finite, so the first block's linear check fails on it before any
state changes, and `forward` then scans the input to raise the input's
own error. Eval mode normalizes in place, and its
cache holds no `x_hat` or `inv_std`: only `backward` reads them, and it
takes training-mode caches only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    BatchTooSmallError,
    ConfigError,
    DimensionError,
    NumericOverflowError,
)
from .numerics import LIBRARY, Rng, address, matmul

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


def _check_input(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericOverflowError(
            "non-finite value in encoder input") from None


def _numpy_block_forward(block: Block, out: np.ndarray, params: EncoderParams,
                         training: bool, groups: int, entry: dict):
    # A block's work after its product `out` (n, width), the reference of
    # `_kernel_block_forward` and its fallback. `out` is updated in place
    # where the operation allows: the same values as a fresh temporary,
    # with fewer (n, width) allocations.
    n, width = out.shape
    if not block.norm:
        out += params.tensors[f"{block.name}.bias"]
    # Checked before the relu, which maps -inf to 0.
    _check_finite(out, block.name)
    if block.norm:
        bn = block.norm_name
        gain = params.tensors[f"{bn}.gain"]
        if training:
            out = out.reshape(groups, n // groups, width)
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
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            x_hat *= inv_std
            out = gain * x_hat
            entry.update(x_hat=x_hat, inv_std=inv_std, gain=gain)
        else:
            # x_hat = (out - mean) * inv_std and then gain * x_hat, in
            # place in `out`.
            out -= params.running[f"{bn}.mean"]
            out *= 1.0 / np.sqrt(params.running[f"{bn}.var"] + BN_EPS)
            out *= gain
        out += params.tensors[f"{bn}.bias"]
        out = out.reshape(n, width)
        _check_finite(out, bn)
    if block.relu:
        entry["mask"] = out > 0.0
        np.maximum(out, 0.0, out=out)
    return out


def _vector(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


def _kernel_block_forward(library, block: Block, out: np.ndarray,
                          params: EncoderParams, training: bool, groups: int,
                          entry: dict):
    # `_numpy_block_forward` of a training-mode block (`_block_passes`, so
    # `training` is set) in one call of `_encoder.c`'s
    # `airl_block_forward`, on C-contiguous float64 operands: `out` is one
    # (`forward`), and a running statistic that is not one is updated in a
    # copy and written back.
    n, width = out.shape
    rows = n // groups
    bias = gain = beta = mean = var = x_hat = inv_std = mask = None
    stats = {}
    if block.norm:
        bn = block.norm_name
        gain = _vector(params.tensors[f"{bn}.gain"])
        beta = _vector(params.tensors[f"{bn}.bias"])
        stats = {name: np.require(params.running[name], np.float64, "CAW")
                 for name in (f"{bn}.mean", f"{bn}.var")}
        mean, var = stats.values()
        vectors = (gain, beta, mean, var)
        x_hat = np.empty((groups, rows, width))
        inv_std = np.empty((groups, 1, width))
    else:
        bias = _vector(params.tensors[f"{block.name}.bias"])
        vectors = (bias,)
    # The kernel reads `width` values of each.
    if any(vector.shape != (width,) for vector in vectors):
        raise DimensionError(
            f"block {block.name!r} has parameters of shapes "
            f"{[vector.shape for vector in vectors]}, expected ({width},)")
    if block.relu:
        mask = np.empty((n, width), dtype=bool)
    status = library.block_forward(
        address(out), groups, rows, width, address(bias), address(gain),
        address(beta), address(mean), address(var), BN_STAT_MOMENTUM,
        BN_EPS, address(x_hat), address(inv_std), address(mask))
    for name, stat in stats.items():
        if stat is not params.running[name]:
            params.running[name][...] = stat
    if status:
        layer = block.name if status == 1 else block.norm_name
        raise NumericOverflowError(
            f"non-finite activation after layer {layer!r}")
    if block.norm:
        entry.update(x_hat=x_hat, inv_std=inv_std, gain=gain)
    if block.relu:
        entry["mask"] = mask
    return out


def _numpy_block_backward(entry: dict, grad: np.ndarray, groups: int):
    # A block's backward from the gradient of its output to that of its
    # product: (that gradient, {tensor name: (groups, width) per-group
    # sums}); the reference of `_kernel_block_backward` and its fallback.
    block = entry["block"]
    n, width = grad.shape
    rows = n // groups
    if block.relu:
        grad = grad * entry["mask"]
    grouped = grad.reshape(groups, rows, width)
    if not block.norm:
        return grad, {f"{block.name}.bias": np.sum(grouped, axis=1)}
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
    return d_xhat.reshape(n, width), sums


def _kernel_block_backward(library, entry: dict, grad: np.ndarray,
                           groups: int):
    # `_numpy_block_backward` in one call of `_encoder.c`'s
    # `airl_block_backward`, into a fresh gradient array; `grad` is
    # C-contiguous (`backward`).
    block = entry["block"]
    n, width = grad.shape
    gain = entry.get("gain")
    if gain is not None:
        gain = _vector(gain)
    d = np.empty((n, width))
    gain_sums, bias_sums = sums = np.empty((2, groups, width))
    work = np.empty(3 * width)
    library.block_backward(
        address(grad), address(d), groups, n // groups, width,
        address(entry.get("mask")), address(entry.get("x_hat")),
        address(gain), address(entry.get("inv_std")), address(gain_sums),
        address(bias_sums), address(work))
    if not block.norm:
        return d, {f"{block.name}.bias": bias_sums}
    bn = block.norm_name
    return d, {f"{bn}.gain": gain_sums, f"{bn}.bias": bias_sums}


def _block_passes(library, training: bool, width: int):
    """(forward, backward) block pass of a block of `width` columns in
    training or eval mode: the kernel's, calling `library`, for a
    training-mode block of width 2 and more; numpy's without a library and
    for every other block. Neither benchmark step runs an eval forward, and
    no preset builds a width-1 block, where numpy sums a column pairwise."""
    if library is None or not training or width < 2:
        return _numpy_block_forward, _numpy_block_backward
    return (functools.partial(_kernel_block_forward, library),
            functools.partial(_kernel_block_backward, library))


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
    `BLOCK_PATH` names the block pass, which gives the same bits either way.
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
    # A non-finite input value makes its row of the first product
    # non-finite (an infinity times 0.0 is NaN), so the first block's linear
    # check fails on it before any state changes, and only then is the
    # input scanned, for the message. A branch whose first product has no
    # values is scanned here, and so is the input of a batch too small,
    # whose error comes second.
    if not params.specs or not params.specs[0].out_dim:
        _check_input(x)
    rows = n // groups
    if training and rows < 2:
        for block in params.specs:
            if block.norm:
                _check_input(x)
                raise BatchTooSmallError(
                    f"training-mode BN at {block.norm_name!r} needs at least "
                    f"2 samples per group, got {rows}"
                )

    library = LIBRARY if BLOCK_PATH == "kernel" else None
    entries: list[dict] = []
    stages: dict[str, np.ndarray] = {}
    h = x
    for block in params.specs:
        w = params.tensors[f"{block.name}.weight"]
        entry = {"block": block, "x": h, "w": w}
        product = np.ascontiguousarray(matmul(h, w))
        block_forward, _ = _block_passes(library, training, block.out_dim)
        try:
            h = block_forward(block, product, params, training, groups, entry)
        except NumericOverflowError:
            if not entries:
                _check_input(x)
            raise
        entries.append(entry)
        stages[block.stage] = h

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
    w.r.t. the network input is never formed, and `grad_out` is not
    written.
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
    library = LIBRARY if BLOCK_PATH == "kernel" else None
    for i in range(len(entries) - 1, -1, -1):
        entry = entries[i]
        _, block_backward = _block_passes(library, True,
                                          entry["block"].out_dim)
        grad, sums = block_backward(entry, np.ascontiguousarray(grad), groups)
        for g, (grads, span) in enumerate(zip(grad_sets, spans)):
            for name, value in sums.items():
                grads[name] = value[g]
            grads[f"{entry['block'].name}.weight"] = matmul(
                entry["x"][span].T, grad[span])
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


def _block_trace(library, block: Block, params: EncoderParams,
                 product: np.ndarray, training: bool, groups: int,
                 grad_out: np.ndarray) -> list[np.ndarray]:
    """Every array that the block pass `_block_passes` picks for `library`
    gives on a copy of `params` and `product`: the output, the cache
    entries, the running statistics and, in training mode, the backward's
    gradient and sums for `grad_out`, each in name order."""
    params = params.copy()
    forward_pass, backward_pass = _block_passes(library, training,
                                                block.out_dim)
    entry = {"block": block}
    out = forward_pass(block, product.copy(), params, training, groups, entry)
    arrays = [out, *(entry[k] for k in sorted(entry) if k != "block"),
              *(params.running[k] for k in sorted(params.running))]
    if training:
        grad, sums = backward_pass(entry, grad_out, groups)
        arrays += [grad, *(sums[k] for k in sorted(sums))]
    return arrays


def _same_arrays(first: list[np.ndarray], second: list[np.ndarray]) -> bool:
    """Whether two lists of arrays agree in dtype, shape and bytes."""
    return len(first) == len(second) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(first, second))


def _probe_blocks() -> list[tuple]:
    """Fixed training-mode block cases for `_block_is_exact`, as
    `_block_trace`'s arguments after `library`.

    - A BN + relu block of width 9 (a vector body and a tail at every
      vector width), 2 groups of 9 rows. Columns span eight decades.
      Column 3 is constant, with a negative gain and a -0.0 bias, so it
      reaches the relu as -0.0, which the relu must give as +0.0. The
      running variances start away from 1.
    - A linear + relu block of width 9, one group of 9 rows: a negative
      gradient where the relu masked becomes -0.0.
    """
    source = Rng(2024, 31)
    cases = []
    wide = Block("probe", "probe_lin", 1, 9, norm=True, relu=True)
    params = init_params((wide,), source.child("wide"))
    params.tensors["probe_bn.gain"] = source.child("gain").normal(size=9)
    params.tensors["probe_bn.gain"][3] = -1.5
    params.tensors["probe_bn.bias"] = source.child("beta").normal(size=9)
    params.tensors["probe_bn.bias"][3] = -0.0
    product = source.child("x").normal(size=(18, 9)) * 10.0 ** np.arange(
        -3, 6)
    product[:, 3] = 0.75
    params.running["probe_bn.var"] += np.arange(9)
    cases.append((wide, params, product, True, 2,
                  source.child("grad").normal(size=(18, 9))))
    linear = Block("probe", "probe_lin", 1, 9, norm=False, relu=True)
    params = init_params((linear,), source.child("linear"))
    cases.append((linear, params, source.child("x", 2).normal(size=(9, 9)),
                  True, 1, source.child("grad", 2).normal(size=(9, 9))))
    return cases


def _block_is_exact(library) -> bool:
    """Whether the block passes of `library` give numpy's bits on
    `_probe_blocks`. A kernel built with contracted multiply-adds, one that
    masks by a select or one whose relu keeps -0.0 fails."""
    return all(_same_arrays(_block_trace(library, *case),
                            _block_trace(None, *case))
               for case in _probe_blocks())


def _block_path(library) -> str:
    """"kernel" where the compiled library is there and its block passes
    pass `_block_is_exact`, "numpy" otherwise."""
    if library is not None and _block_is_exact(library):
        return "kernel"
    return "numpy"


# The block passes every `forward` and `backward` take in this process.
BLOCK_PATH = _block_path(LIBRARY)

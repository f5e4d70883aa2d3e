"""SGD-with-momentum and LARS optimizers plus the pretraining lr schedule.

The configs hold no lr: the base lr lives only in `LrSchedule`, and every
step takes its lr as an argument. Pretraining uses linear warmup then
cosine decay. The linear probe steps through the same `sgd_step`, at the
step-decay lr of its fixed recipe (`evaluation.probe_lr`).

LARS scales each tensor's step by the layer-wise trust ratio
eta * ||w|| / (||grad + wd*w|| + eps) and, per its standard large-batch
configuration, excludes normalization and bias parameters from both weight
decay and the trust-ratio adaptation (they receive plain momentum-SGD steps).
Every parameter carries a role tag, so the exclusions are driven by role.
eta and eps are the module constants `LARS_TRUST_COEFFICIENT` (1e-3, as in
BYOL) and `LARS_EPS` (1e-9), not config keys. `LarsConfig` holds only
`SgdConfig`'s fields; its type selects `lars_step`. Range errors name the
config key that sets each field, such as `optimizer.lr`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams
from .errors import ConfigError, NumericOverflowError
from .numerics import norm

# Roles that LARS leaves without weight decay and trust-ratio adaptation.
LARS_EXCLUDED_ROLES = frozenset({"norm_gain", "norm_bias", "bias"})
# The trust ratio's eta and eps: BYOL's LARS values, which every run uses.
LARS_TRUST_COEFFICIENT = 1e-3
LARS_EPS = 1e-9


@dataclass(frozen=True)
class SgdConfig:
    momentum: float
    weight_decay: float

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(
                f"optimizer.momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(
                f"optimizer.weight_decay must be >= 0, "
                f"got {self.weight_decay}")


@dataclass(frozen=True)
class LarsConfig(SgdConfig):
    """`SgdConfig`'s fields; `Optimizer.step` takes `lars_step` for it."""


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup from 0 to base_lr, then cosine decay to 0."""

    base_lr: float
    warmup_epochs: int
    total_epochs: int

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError(f"optimizer.lr must be > 0, got {self.base_lr}")
        if self.total_epochs < 1:
            raise ConfigError("total_epochs must be >= 1")
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ConfigError(
                "schedule.warmup_epochs must be in [0, total_epochs]")


def lr_at(epoch_frac: float, sched: LrSchedule) -> float:
    """Learning rate at a training progress fraction in [0, 1]."""
    if not 0.0 <= epoch_frac <= 1.0:
        raise ConfigError(f"epoch_frac must be in [0, 1], got {epoch_frac}")
    warmup_frac = sched.warmup_epochs / sched.total_epochs
    if warmup_frac > 0.0 and epoch_frac < warmup_frac:
        return sched.base_lr * (epoch_frac / warmup_frac)
    if warmup_frac >= 1.0:
        return sched.base_lr
    p = (epoch_frac - warmup_frac) / (1.0 - warmup_frac)
    return float(sched.base_lr * (np.cos(np.pi * p) + 1.0) / 2.0)


def _check_finite(name: str, grad: np.ndarray) -> None:
    if not np.all(np.isfinite(grad)):
        raise NumericOverflowError(f"non-finite gradient for {name!r}")


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocities: dict[str, np.ndarray],
    cfg: SgdConfig,
    lr_t: float,
) -> dict[str, np.ndarray]:
    """In-place SGD update: g += wd*w; v = mu*v + g; w -= lr * v."""
    for name, w in params.items():
        grad = grads[name]
        _check_finite(name, grad)
        g = grad + cfg.weight_decay * w
        v = velocities.get(name)
        if v is None:
            v = velocities[name] = np.zeros_like(w)
        v *= cfg.momentum
        v += g
        w -= lr_t * v
    return params


def lars_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocities: dict[str, np.ndarray],
    roles: dict[str, str],
    cfg: LarsConfig,
    lr_t: float,
) -> dict[str, np.ndarray]:
    """In-place LARS update.

    Non-excluded tensors: g += wd*w, scaled by the trust ratio
    eta*||w||/(||g||+eps) (1 when either norm vanishes); the roles in
    LARS_EXCLUDED_ROLES get no decay and no adaptation.
    v = mu*v + lr*local*g; w -= v.
    """
    for name, w in params.items():
        grad = grads[name]
        _check_finite(name, grad)
        role = roles.get(name)
        if role is None:
            raise ConfigError(f"parameter {name!r} has no role tag")
        if role in LARS_EXCLUDED_ROLES:
            g = grad
            local = 1.0
        else:
            g = grad + cfg.weight_decay * w
            w_norm = norm(w)
            g_norm = norm(g)
            if w_norm > 0.0 and g_norm > 0.0:
                local = LARS_TRUST_COEFFICIENT * w_norm / (g_norm + LARS_EPS)
            else:
                local = 1.0
        v = velocities.get(name)
        if v is None:
            v = velocities[name] = np.zeros_like(w)
        v *= cfg.momentum
        v += (lr_t * local) * g
        w -= v
    return params


class Optimizer:
    """One optimizer instance: config, schedule, and momentum buffers."""

    def __init__(self, cfg: SgdConfig | LarsConfig, schedule: LrSchedule):
        self.cfg = cfg
        self.schedule = schedule
        self.velocities: dict[str, np.ndarray] = {}

    def step(self, params, grads, roles, progress: float) -> float:
        """Apply one update at the given progress; returns the lr used."""
        lr_t = lr_at(progress, self.schedule)
        # A LarsConfig is also an SgdConfig, so LARS is tested first.
        if isinstance(self.cfg, LarsConfig):
            lars_step(params, grads, self.velocities, roles, self.cfg, lr_t)
        else:
            sgd_step(params, grads, self.velocities, self.cfg, lr_t)
        return lr_t


def weight_norm_report(params: EncoderParams) -> dict[str, float]:
    """2-norm of every weight-role tensor, in depth order."""
    report: dict[str, float] = {}
    for block in params.specs:
        name = f"{block.name}.weight"
        report[name] = norm(params.tensors[name])
    return report


def norm_sum_by_role(params: EncoderParams, role: str) -> float:
    """Sum of 2-norms over all tensors with the given role tag."""
    return float(
        sum(
            norm(t)
            for name, t in params.tensors.items()
            if params.roles[name] == role
        )
    )

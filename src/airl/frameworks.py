"""The four siamese SSL frameworks and their training step.

Student and teacher branches share a sub-network; the teacher is updated only
by an exponential moving average of the student (never by gradients), and the
contrastive variants keep a FIFO memory queue of past teacher features as
negatives. The teacher exists only under stop-gradient; the collapse
ablation without it trains the student on both views. Each step makes one
pass per branch: a symmetrized loss stacks both views, and BN takes its
statistics per view, so every view is normalized with the statistics of its
own whole batch. The framework presets differ in predictor placement, loss
symmetry, projector hidden BN, and momentum schedule:

  moco_v2         no predictor, asymmetric loss, no projector hidden BN,
                  constant m=0.999
  moco_v2_plus    student predictor, symmetric loss, projector hidden BN,
                  cosine-ascending m from 0.99
  s_moco_v2_plus  as moco_v2_plus but with a teacher predictor as well
  byol            as moco_v2_plus but trained without negatives (no queue)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import ConfigError, DimensionError, NumericOverflowError
from .numerics import (
    Rng,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    matmul,
    row_norms,
)

KINDS = ("moco_v2", "moco_v2_plus", "s_moco_v2_plus", "byol")
PLACEMENTS = ("none", "student_only", "both")
SCHEDULES = ("constant", "cosine_ascend")

_PRESETS = {
    "moco_v2": dict(
        predictor_placement="none",
        momentum_base=0.999,
        momentum_schedule="constant",
        symmetric_loss=False,
        projector_hidden_bn=False,
    ),
    "moco_v2_plus": dict(
        predictor_placement="student_only",
        momentum_base=0.99,
        momentum_schedule="cosine_ascend",
        symmetric_loss=True,
        projector_hidden_bn=True,
    ),
    "s_moco_v2_plus": dict(
        predictor_placement="both",
        momentum_base=0.99,
        momentum_schedule="cosine_ascend",
        symmetric_loss=True,
        projector_hidden_bn=True,
    ),
    "byol": dict(
        predictor_placement="student_only",
        momentum_base=0.99,
        momentum_schedule="cosine_ascend",
        symmetric_loss=True,
        projector_hidden_bn=True,
    ),
}


def preset_values(kind: str) -> dict:
    """The preset field values of framework `kind`, or a `ConfigError`
    naming `framework.kind` if there is no such kind."""
    if kind not in KINDS:
        raise ConfigError(
            f"framework.kind must be one of {', '.join(KINDS)}, got {kind!r}")
    return _PRESETS[kind]


@dataclass
class FrameworkConfig:
    """A framework's settings; `config.ExperimentConfig.framework_config`
    fills every field from the config keys and the kind's preset."""

    kind: str
    temperature: float
    queue_size: int
    symmetric_loss: bool
    predictor_placement: str
    momentum_base: float
    momentum_schedule: str
    projector_hidden_bn: bool
    stop_gradient: bool
    input_dim: int
    backbone_hidden: int
    backbone_out: int
    projector_hidden: int
    projector_out: int

    def __post_init__(self):
        preset_values(self.kind)
        if self.predictor_placement not in PLACEMENTS:
            raise ConfigError(
                f"framework.predictor_placement must be one of "
                f"{', '.join(PLACEMENTS)}, got {self.predictor_placement!r}"
            )
        if self.momentum_schedule not in SCHEDULES:
            raise ConfigError(
                f"framework.momentum_schedule must be one of "
                f"{', '.join(SCHEDULES)}, got {self.momentum_schedule!r}"
            )
        if self.temperature <= 0:
            raise ConfigError(
                f"framework.temperature must be > 0, got {self.temperature}")
        if not 0.0 <= self.momentum_base <= 1.0:
            raise ConfigError(
                f"framework.momentum_base must be in [0, 1], "
                f"got {self.momentum_base}"
            )
        if not self.stop_gradient and self.kind != "byol":
            raise ConfigError(
                "framework.stop_gradient = false is a collapse ablation of "
                "the distance loss; only the byol kind supports it"
            )
        if self.contrastive and self.queue_size <= 0:
            raise ConfigError(
                f"framework.queue_size must be > 0 for the contrastive "
                f"kind {self.kind!r}"
            )

    @property
    def contrastive(self) -> bool:
        return self.kind != "byol"


def momentum_at(t: int, total: int, base: float, schedule: str) -> float:
    """EMA coefficient at step t of total.

    constant: always `base`. cosine_ascend: rises from `base` at t=0 to
    exactly 1 at t=total along 1 - (1-base) * (cos(pi t/total) + 1) / 2.
    """
    if total <= 0:
        raise ConfigError(f"momentum schedule needs total steps >= 1, got {total}")
    if not 0 <= t <= total:
        raise ConfigError(f"step {t} outside [0, {total}]")
    if schedule == "constant":
        return base
    if schedule == "cosine_ascend":
        return float(
            1.0 - (1.0 - base) * (np.cos(np.pi * t / total) + 1.0) / 2.0
        )
    raise ConfigError(f"unknown momentum schedule {schedule!r}")


def contrastive_loss(
    q: np.ndarray,
    k_pos: np.ndarray,
    negatives: np.ndarray,
    temperature: float,
):
    """Batch-mean InfoNCE over one positive and the queued negatives.

    Per row: -log(exp(q.k+/t) / (exp(q.k+/t) + sum_j exp(q.k-_j/t))).
    All rows are expected unit-norm; k_pos and negatives are constants under
    differentiation. Returns (loss, grad wrt q). With zero negatives the
    numerator equals the denominator and the loss is exactly 0.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    q = np.asarray(q, dtype=np.float64)
    k_pos = np.asarray(k_pos, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64).reshape(-1, q.shape[1])
    if q.shape != k_pos.shape:
        raise DimensionError(f"q {q.shape} vs k_pos {k_pos.shape}")
    n = q.shape[0]
    logit_pos = np.sum(q * k_pos, axis=1) / temperature  # (n,)
    logit_neg = matmul(q, negatives.T) / temperature  # (n, K)
    if not (np.all(np.isfinite(logit_pos)) and np.all(np.isfinite(logit_neg))):
        raise NumericOverflowError("non-finite contrastive logits")
    all_logits = np.concatenate([logit_pos[:, None], logit_neg], axis=1)
    shift = np.max(all_logits, axis=1, keepdims=True)
    exp_shift = np.exp(all_logits - shift)
    denom = np.sum(exp_shift, axis=1, keepdims=True)
    log_denom = shift[:, 0] + np.log(denom[:, 0])
    loss = float(np.mean(log_denom - logit_pos))
    probs = exp_shift / denom  # softmax rows: [positive, negatives...]
    grad_q = (probs[:, 0] - 1.0)[:, None] * k_pos
    if negatives.shape[0]:
        grad_q = grad_q + matmul(probs[:, 1:], negatives)
    grad_q /= temperature * n
    return loss, grad_q


def byol_loss(q: np.ndarray, k: np.ndarray):
    """Batch-mean squared Euclidean distance between matched rows.

    Rows are expected L2-normalized upstream, making this 2 - 2*(q.k) per
    row. `k` is a constant under differentiation. Returns (loss, grad wrt q).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape:
        raise DimensionError(f"q {q.shape} vs k {k.shape}")
    n = q.shape[0]
    diff = q - k
    loss = float(np.sum(diff * diff) / n)
    return loss, 2.0 * diff / n


class MemoryQueue:
    """Fixed-capacity FIFO ring of unit-norm feature rows."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 0:
            raise ConfigError(f"queue capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.dim = dim
        self.data = np.zeros((capacity, dim))
        self.cursor = 0
        self.count = 0

    def enqueue(self, feats: np.ndarray) -> "MemoryQueue":
        feats = np.asarray(feats, dtype=np.float64)
        b = feats.shape[0]
        if b == 0:
            return self
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise DimensionError(
                f"queue stores {self.dim}-d rows, got shape {feats.shape}"
            )
        if b > self.capacity:
            raise ConfigError(
                f"cannot enqueue {b} rows into a queue of capacity "
                f"{self.capacity}"
            )
        if np.max(np.abs(row_norms(feats) - 1.0)) > 1e-8:
            raise ConfigError("queue rows must be unit-norm")
        idx = (self.cursor + np.arange(b)) % self.capacity
        self.data[idx] = feats
        self.cursor = int((self.cursor + b) % self.capacity)
        self.count = min(self.count + b, self.capacity)
        return self

    def contents(self) -> np.ndarray:
        """The stored rows (oldest data included; order is immaterial)."""
        return self.data[: self.count].copy()


@dataclass
class SiameseState:
    student: encoder.EncoderParams
    teacher: encoder.EncoderParams | None  # only under stop-gradient
    queue: MemoryQueue | None
    step: int
    total_steps: int


def init_siamese_state(
    cfg: FrameworkConfig, rng: Rng, total_steps: int
) -> SiameseState:
    """Build the student and, under stop-gradient, the teacher."""
    branch_rng = rng.child("branch")
    student = encoder.build_branch(
        cfg, branch_rng, with_predictor=cfg.predictor_placement != "none"
    )
    teacher = None
    if cfg.stop_gradient:
        # `init_params` draws each tensor from a stream named by its block,
        # so the teacher starts bit-equal to the student's shared blocks.
        teacher = encoder.build_branch(
            cfg, branch_rng, with_predictor=cfg.predictor_placement == "both"
        )
    queue = None
    if cfg.contrastive:
        queue = MemoryQueue(cfg.queue_size, cfg.projector_out)
    return SiameseState(student=student, teacher=teacher, queue=queue,
                        step=0, total_steps=total_steps)


def ema_update(teacher: encoder.EncoderParams,
               student: encoder.EncoderParams, m: float) -> None:
    """teacher <- m * teacher + (1 - m) * student over the mirrored tensors.

    BN running statistics are not mixed; each branch keeps its own.
    """
    for name, t in teacher.tensors.items():
        t *= m
        t += (1.0 - m) * student.tensors[name]


def _encode(branch, views):
    # One training-mode pass over the views stacked row-wise, one BN group
    # per view. The stacked copy lives only as long as the pass's cache.
    if any(np.shape(v) != np.shape(views[0]) for v in views):
        raise DimensionError(
            f"views differ in shape: {[np.shape(v) for v in views]}"
        )
    x = views[0] if len(views) == 1 else np.concatenate(views)
    return encoder.forward(branch, x, training=True, groups=len(views))


def _normalized_student_pass(student, views):
    out, cache = _encode(student, views)
    norms = row_norms(out)
    q = l2_normalize_rows(out)
    return q, norms, cache


def _teacher_keys(teacher, views):
    out, _ = _encode(teacher, views)
    return l2_normalize_rows(out)


def compute_loss_and_grads(
    state: SiameseState,
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: FrameworkConfig,
):
    """Loss and analytic student gradients for one step (no updates applied).

    Returns (loss, grads, aux) where `grads` maps every student tensor to its
    gradient (the teacher never gets one) and `aux` carries the teacher
    features to enqueue plus the embeddings used for collapse diagnostics.
    Deterministic given (state, batch, cfg).

    A symmetrized loss has two directions: student on x1 against teacher
    keys of x2, then student on x2 against keys of x1. Each branch encodes
    both of its views in one pass over the stacked rows, the teacher
    `[x2; x1]` and the student `[x1; x2]`, with BN statistics per view, so
    each direction's loss, gradient and running-statistic update equal those
    of a separate pass per view bit for bit.
    """
    if not cfg.stop_gradient:
        return _direct_distance_loss(state, x1, x2, cfg)
    negatives = state.queue.contents() if state.queue is not None else None
    if cfg.contrastive and negatives is None:
        raise ConfigError("contrastive framework needs a memory queue")

    directions = 2 if cfg.symmetric_loss else 1
    keys = _teacher_keys(state.teacher, [x2, x1][:directions])
    q, norms, cache = _normalized_student_pass(state.student,
                                               [x1, x2][:directions])

    n = len(x1)
    losses = []
    grad_qs = []
    for v in range(directions):
        rows = slice(v * n, (v + 1) * n)
        if cfg.contrastive:
            loss_v, grad_q = contrastive_loss(q[rows], keys[rows], negatives,
                                              cfg.temperature)
        else:
            loss_v, grad_q = byol_loss(q[rows], keys[rows])
        losses.append(loss_v)
        grad_qs.append(grad_q)
    grad_out = l2_normalize_rows_backward(q, norms, np.concatenate(grad_qs))
    grad_sets = encoder.backward(cache, grad_out)

    # A symmetrized loss averages its two directions.
    scale = 1.0 if directions == 1 else 0.5
    loss = sum(losses) * scale
    grads = {
        name: scale * sum(g[name] for g in grad_sets)
        for name in grad_sets[0]
    }
    aux = {
        "teacher_feats": keys,
        "embeddings": keys,
        "direction_losses": losses,
    }
    return loss, grads, aux


def _direct_distance_loss(state, x1, x2, cfg):
    # Collapse ablation: both views through the student, gradients flowing to
    # both sides of the distance. The swapped direction would be identical,
    # so symmetrization is a no-op here. One pass encodes [x1; x2] with BN
    # statistics per view.
    n = len(x1)
    q, norms, cache = _normalized_student_pass(state.student, [x1, x2])
    loss, grad_q1 = byol_loss(q[:n], q[n:])
    grad_q = np.concatenate([grad_q1, -grad_q1])
    g1, g2 = encoder.backward(cache, l2_normalize_rows_backward(q, norms, grad_q))
    grads = {name: g1[name] + g2[name] for name in g1}
    aux = {
        "teacher_feats": None,
        "embeddings": q,
        "direction_losses": [loss],
    }
    return loss, grads, aux


def step_loss(
    state: SiameseState,
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: FrameworkConfig,
) -> float:
    """The step's loss as a pure function of the student parameters.

    Used by finite-difference gradient checks: perturb a student tensor,
    call again, compare.
    """
    loss, _, _ = compute_loss_and_grads(state, x1, x2, cfg)
    return loss


def training_step(
    state: SiameseState,
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: FrameworkConfig,
    opt,
):
    """One full optimization step; mutates and returns the state.

    Order: encode and compute the loss, update the student through the
    optimizer, EMA-update the teacher if there is one, then enqueue this
    step's teacher features (both directions' keys when the loss is
    symmetrized).
    """
    loss, grads, aux = compute_loss_and_grads(state, x1, x2, cfg)
    if not np.isfinite(loss):
        raise NumericOverflowError(f"non-finite loss at step {state.step}")
    progress = state.step / max(state.total_steps, 1)
    lr_t = opt.step(state.student.tensors, grads, state.student.roles, progress)
    m = momentum_at(state.step, state.total_steps, cfg.momentum_base,
                    cfg.momentum_schedule)
    if state.teacher is not None:
        ema_update(state.teacher, state.student, m)
    if state.queue is not None and aux["teacher_feats"] is not None:
        state.queue.enqueue(aux["teacher_feats"])
    state.step += 1
    metrics = {
        "loss": loss,
        "lr": lr_t,
        "momentum_m": m,
        "queue_fill": state.queue.count if state.queue is not None else 0,
        "embeddings": aux["embeddings"],
    }
    return state, metrics

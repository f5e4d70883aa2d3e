"""Per-direction training step, frozen as the reference for the stacked one.

This is the step that `airl.frameworks.compute_loss_and_grads` replaced: each
direction of a symmetrized loss runs its own teacher forward and its own
student forward and backward over one view (one BN group per pass), and the
collapse ablation runs the student once per view. Tests require the stacked
step, which encodes both views of a branch in one pass, to equal it bit for
bit, so checkpoints and metrics recorded with the per-direction step stay
reproducible. Do not change it.
"""

from __future__ import annotations

import numpy as np

from airl import encoder
from airl.errors import ConfigError
from airl.frameworks import byol_loss, contrastive_loss
from airl.numerics import l2_normalize_rows, l2_normalize_rows_backward, row_norms


def _backward(cache, grad_out):
    [grads] = encoder.backward(cache, grad_out)
    return grads


def _normalized_student_pass(student, x):
    out, cache = encoder.forward(student, x, training=True)
    norms = row_norms(out)
    q = l2_normalize_rows(out)
    return q, norms, cache


def _teacher_keys(teacher, x):
    out, _ = encoder.forward(teacher, x, training=True)
    return l2_normalize_rows(out)


def compute_loss_and_grads(state, x1, x2, cfg):
    if not cfg.stop_gradient:
        return _direct_distance_loss(state, x1, x2, cfg)

    negatives = state.queue.contents() if state.queue is not None else None
    directions = [(x1, x2)]
    if cfg.symmetric_loss:
        directions.append((x2, x1))

    losses = []
    grad_sets = []
    keys = []
    for xa, xb in directions:
        k = _teacher_keys(state.teacher, xb)
        q, norms, cache = _normalized_student_pass(state.student, xa)
        if cfg.contrastive:
            if negatives is None:
                raise ConfigError("contrastive framework needs a memory queue")
            loss_i, grad_q = contrastive_loss(q, k, negatives, cfg.temperature)
        else:
            loss_i, grad_q = byol_loss(q, k)
        grad_out = l2_normalize_rows_backward(q, norms, grad_q)
        grads_i = _backward(cache, grad_out)
        losses.append(loss_i)
        grad_sets.append(grads_i)
        keys.append(k)

    scale = 1.0 if len(directions) == 1 else 0.5
    loss = sum(losses) * scale
    grads = {
        name: scale * sum(g[name] for g in grad_sets)
        for name in grad_sets[0]
    }
    teacher_feats = np.concatenate(keys, axis=0)
    aux = {
        "teacher_feats": teacher_feats,
        "embeddings": teacher_feats,
        "direction_losses": losses,
    }
    return loss, grads, aux


def _direct_distance_loss(state, x1, x2, cfg):
    q1, n1, cache1 = _normalized_student_pass(state.student, x1)
    q2, n2, cache2 = _normalized_student_pass(state.student, x2)
    loss, grad_q1 = byol_loss(q1, q2)
    grad_q2 = -grad_q1
    g1 = _backward(cache1, l2_normalize_rows_backward(q1, n1, grad_q1))
    g2 = _backward(cache2, l2_normalize_rows_backward(q2, n2, grad_q2))
    grads = {name: g1[name] + g2[name] for name in g1}
    embeddings = np.concatenate([q1, q2], axis=0)
    aux = {
        "teacher_feats": None,
        "embeddings": embeddings,
        "direction_losses": [loss],
    }
    return loss, grads, aux

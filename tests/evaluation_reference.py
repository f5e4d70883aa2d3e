"""The linear probe's own momentum loop, frozen as the reference for the probe.

This is the hand-written update that `airl.evaluation.fit_linear_classifier`
ran before it stepped through `airl.optim.sgd_step`. Tests require the two
to give the same top-1 and the same weight and bias bytes, so probe results
recorded with this loop stay reproducible. Do not change it.
"""

from __future__ import annotations

import numpy as np

from airl.evaluation import (
    PROBE_BATCH,
    PROBE_EPOCHS,
    PROBE_MOMENTUM,
    _softmax_rows,
    probe_lr,
)
from airl.numerics import Rng, matmul


def fit_linear_classifier(train_features, train_labels, val_features,
                          val_labels, seed: int = 0):
    n, dim = train_features.shape
    classes = int(train_labels.max()) + 1
    w = np.zeros((dim, classes))
    b = np.zeros(classes)
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)
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
            grad_w = matmul(f.T, dlogits)
            grad_b = dlogits.sum(axis=0)
            vel_w = PROBE_MOMENTUM * vel_w + grad_w
            vel_b = PROBE_MOMENTUM * vel_b + grad_b
            w -= lr_t * vel_w
            b -= lr_t * vel_b
    val_logits = matmul(val_features, w) + b
    accuracy = float(np.mean(np.argmax(val_logits, axis=1) == val_labels))
    return accuracy, (w, b)

"""Checkpoint post-processing: weight-norm rescaling and representation CKA.

`norm_rescale` gives each tensor the target norm that a plain map from
tensor name to norm holds for it, keeping its direction:
w* = target * w / ||w||. The targets are an anchor model's norms
(target = ||w_anchor||) or a constant multiple of the tensor's own
(target = c * ||w||). It recovers a usable scale regime for models whose
norms drifted under a decay-free optimizer, without touching what the
representation encodes (direction preserved, per-stage CKA stays ~1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoder
from .errors import (
    ArchitectureMismatchError,
    DegenerateFeatureError,
    DimensionError,
)
from .numerics import matmul, norm


@dataclass
class RescaleReport:
    touched: list = field(default_factory=list)  # (name, old_norm, new_norm)
    skipped_zero: list = field(default_factory=list)
    unmatched: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"rescaled {len(self.touched)} tensors, "
            f"skipped {len(self.skipped_zero)} zero-norm, "
            f"{len(self.unmatched)} without anchor counterpart"
        ]
        lines += [f"  {n}: {o:.6g} -> {s:.6g}" for n, o, s in self.touched]
        lines += [f"  skipped (zero norm): {n}" for n in self.skipped_zero]
        lines += [f"  unmatched: {n}" for n in self.unmatched]
        return "\n".join(lines)


def norm_rescale(
    tensors: dict[str, np.ndarray],
    target_norms: dict[str, float],
) -> tuple[dict[str, np.ndarray], RescaleReport]:
    """Rescale every tensor to its target norm, keeping its direction.

    Tensors without a target are left unchanged and tensors with zero norm
    are skipped (their direction is undefined); both show up in the report.
    BN running statistics are not parameters and never pass through here.
    """
    out: dict[str, np.ndarray] = {}
    report = RescaleReport()
    for name, w in tensors.items():
        if name not in target_norms:
            out[name] = w.copy()
            report.unmatched.append(name)
            continue
        old_norm = norm(w)
        if old_norm == 0.0:
            out[name] = w.copy()
            report.skipped_zero.append(name)
            continue
        target = target_norms[name]
        out[name] = w * (target / old_norm)
        report.touched.append((name, old_norm, target))
    return out, report


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear centered kernel alignment between two representation matrices.

    Rows are samples. Computed in feature space as
    ||Y^T X||_F^2 / (||X^T X||_F * ||Y^T Y||_F) after column centering;
    invariant to orthogonal transforms and isotropic scaling, bounded by 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"need (n, p) and (n, q) with matching n, got {x.shape}, {y.shape}"
        )
    if x.shape[0] < 2:
        raise DimensionError("CKA needs at least 2 samples")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    xx = norm(matmul(xc.T, xc))
    yy = norm(matmul(yc.T, yc))
    if xx < 1e-300 or yy < 1e-300:
        raise DegenerateFeatureError(
            "zero-variance representation after centering"
        )
    xy = norm(matmul(yc.T, xc))
    return xy * xy / (xx * yy)


def stagewise_cka(
    model_a: encoder.EncoderParams,
    model_b: encoder.EncoderParams,
    probe_batch: np.ndarray,
) -> list[tuple[str, float]]:
    """CKA of eval-mode activations after each stage, on a shared batch."""
    stages_a = model_a.stage_names()
    stages_b = model_b.stage_names()
    if stages_a != stages_b:
        raise ArchitectureMismatchError(
            f"stage layouts differ: {stages_a} vs {stages_b}"
        )
    acts_a = encoder.eval_stage_outputs(model_a, probe_batch)
    acts_b = encoder.eval_stage_outputs(model_b, probe_batch)
    return [(s, linear_cka(acts_a[s], acts_b[s])) for s in stages_a]

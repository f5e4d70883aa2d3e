"""Norm-rescale surgery on checkpoints.

Rescales every weight of one model to the norms of an anchor model while
keeping directions, verifies the norm/direction contract on one tensor
through a plain map of target norms, and shows the constant-factor variant.
"""

import tempfile
from pathlib import Path

import numpy as np

from airl import runner
from airl.config import config_from_overrides
from airl.surgery import norm_rescale

out = Path(tempfile.mkdtemp(prefix="airl_demo_"))


def quick_run(seed):
    cfg = config_from_overrides(
        framework__kind="byol", run__epochs=4, run__batch=48,
        run__seed=seed, data__per_class=48,
    )
    return runner.pretrain(cfg, out / f"run{seed}")


model = quick_run(0)
anchor_run = quick_run(1)

rescaled_path = out / "rescaled.airl"
report = runner.cmd_surgery_rescale(
    model.checkpoint_path, rescaled_path,
    anchor_path=anchor_run.checkpoint_path,
)
print(report.summary().splitlines()[0])

norms_out = dict(runner.cmd_analyze_norms(rescaled_path))
norms_anchor = dict(runner.cmd_analyze_norms(anchor_run.checkpoint_path))
worst = max(abs(norms_out[n] - norms_anchor[n]) / norms_anchor[n]
            for n in norms_out)
print(f"worst relative norm error vs anchor: {worst:.2e}")

# direction preservation on a single tensor, in memory
w = np.array([[3.0, 4.0], [0.5, -1.0]])
rescaled, _ = norm_rescale({"w": w}, {"w": 1.0})
cos = float(np.sum(rescaled["w"] * w)
            / (np.linalg.norm(rescaled["w"]) * np.linalg.norm(w)))
print(f"single-tensor rescale: new norm {np.linalg.norm(rescaled['w']):.6f}, "
      f"cosine to original {cos:.12f}")

constant_path = out / "tenth.airl"
runner.cmd_surgery_rescale(model.checkpoint_path, constant_path, factor=0.1)
norms_const = dict(runner.cmd_analyze_norms(constant_path))
norms_model = dict(runner.cmd_analyze_norms(model.checkpoint_path))
ratios = {round(norms_const[n] / norms_model[n], 6) for n in norms_const}
print(f"constant factor 0.1: distinct norm ratios after rescale: {ratios}")

"""Print two sha256 digests per framework preset over a short pretraining run.

A change that is meant to keep behaviour identical (a refactor, a deletion)
must print the same digests before and after it. Each of the four presets is
pretrained at the studies' `MAIN_DATA` (seed 7, 2 epochs, batch 48, queue
256, a checkpoint every epoch) in a temporary directory, and so are two more
runs. One is the collapse study's ablation arm: `byol` with
`framework.predictor_placement = none` and `framework.stop_gradient = false`,
the only run whose loss trains the student on both views without a teacher.
The other is the crossover study's LARS arm: `moco_v2_plus` with
`optimizer.kind = lars` at `runner.CROSSOVER_LARS_LR`, the only run that
takes `optim.lars_step` and its exemption of norm and bias parameters.
A last run, `COSINE_RUN`, is `moco_v2_plus` with one warmup epoch: the
schedule clamps the default three warmup epochs to the runs' two, so it is
the only run whose lr leaves the warmup for the cosine decay.
Each run's first digest covers, in order:

  - every checkpoint's tensor records (name, role, shape, float64 bytes);
  - every checkpoint's metadata apart from `config` and `config_hash`, so a
    config key added or removed with an unchanged value does not count;
  - the bytes of metrics.csv.

A second digest per run covers the eval-mode stage outputs
(`encoder.eval_stage_outputs`) of the final student and then the final
teacher on the val images, stage by stage in depth order: the eval-mode
forward that the linear probe and CKA read. The ablation arm keeps no
teacher, so its second digest covers the student only.

Another line covers the products with tall outputs, (384x768)@(768x64) and
the like, which the runs above never make: a copy of the final
`moco_v2_plus` student gets its BN statistics refreshed on the 384
training images (`REFRESH_PASSES` training-mode passes, as the crossover
rescue does with more), and the digest covers the refreshed running
statistics and then the eval-mode stage outputs on those images.

Another line covers checkpoint surgery: `runner.cmd_surgery_rescale`
rescales the final `moco_v2_plus_lars` checkpoint (`RESCUE_KIND`) onto the
final `moco_v2_plus` one (`RESCUE_ANCHOR_KIND`), and the same checkpoint
again by the constant factor `RESCUE_FACTOR`, both without the BN refresh,
which the line above covers. The digest covers each output's records and
its metadata apart from `config`, `config_hash` and the anchor's path,
which names a temporary directory.

Then one line per augmentation pipeline that the studies run covers the
views `augment.two_views` makes of the `MAIN_DATA` training images, in
batches of 48, for `AUG_SEEDS` seeds and `AUG_EPOCHS` epochs: every rung
of the aug-ablation ladder (0 to 4 stages removed, at the studies' crop
scale).

A last line covers the linear probe: for each run of `RUNS` in order, the
run's label, `repr` of the top-1 and the bytes of the classifier weights
and bias that `evaluation.linear_probe` fits on the final student at probe
seed 0, and then the same for the final `moco_v2_plus` student at probe
seed 3 (`PROBE_SEED_KIND`, `PROBE_SEED`).

The numpy version, the `matmul` path that `numerics` chose at import
(`kernel`, `einsum` or `per-k loop`), the augmentation path that `augment`
chose (`kernel` or `numpy`), the encoder block path that `encoder` chose
(`kernel` or `numpy`) and the SIMD level numpy dispatches float64 `exp` and
`log` to (`exp_log_dispatch`) go to stderr, so digests compared across
machines say what produced them. Every `matmul` path keeps its order
contract and both augmentation and both block paths give the same bits, so
the paths are information only; the dispatch level is not: `exp` and `log`
give other last bits at other levels, and the blur weights, the InfoNCE
loss, the probe softmax and the effective rank all call them. stdout holds only the digest lines. The runs share one process, so
the presets after the first take their augmentation plans from
`augment.draw_plans`' memo; its hit and miss counts go to stderr at the
end.

Extra `section.key=value` arguments are added to every preset's config, for
example to pin on the old side a setting that the change hard-codes.

Run from the repository root:

    PYTHONPATH=src python3 tools/trajectory_digest.py [section.key=value ...]
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from airl import augment, checkpoint, encoder, evaluation, numerics, runner
from airl.augment import REMOVAL_ORDER, AugPipeline
from airl.config import config_from_overrides
from airl.frameworks import KINDS

SEED = 7
EPOCHS = 2
UNHASHED_METADATA = ("config", "config_hash")
REFRESH_KIND = "moco_v2_plus"
REFRESH_PASSES = 3
RESCUE_KIND = "moco_v2_plus_lars"
RESCUE_ANCHOR_KIND = "moco_v2_plus"
RESCUE_FACTOR = 0.5
PROBE_SEED_KIND = "moco_v2_plus"
PROBE_SEED = 3
# (label, config overrides) of every digested run.
RUNS = (
    *((kind, {"framework__kind": kind}) for kind in KINDS),
    ("byol_no_pred_no_stopgrad", {"framework__kind": "byol",
                                  "framework__predictor_placement": "none",
                                  "framework__stop_gradient": False}),
    ("moco_v2_plus_lars", {"framework__kind": "moco_v2_plus",
                           "optimizer__kind": "lars",
                           "optimizer__lr": runner.CROSSOVER_LARS_LR}),
)
COSINE_RUN = ("moco_v2_plus_warmup_1", {"framework__kind": "moco_v2_plus",
                                        "schedule__warmup_epochs": 1})


def digest_checkpoint(digest, records: dict, metadata: dict) -> None:
    for name in sorted(records):
        role, array = records[name]
        digest.update(f"{name}|{role}|{array.shape}".encode())
        digest.update(array.astype("<f8").tobytes())
    kept = {k: v for k, v in metadata.items() if k not in UNHASHED_METADATA}
    digest.update(json.dumps(kept, sort_keys=True).encode())


def run_digest(run_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(run_dir.glob("*.airl")):
        digest.update(path.name.encode())
        digest_checkpoint(digest, *checkpoint.load_checkpoint(path))
    digest.update((run_dir / "metrics.csv").read_bytes())
    return digest.hexdigest()


def digest_stages(digest, role: str, branch, x) -> None:
    stages = encoder.eval_stage_outputs(branch, x)
    for stage in branch.stage_names():
        out = stages[stage]
        digest.update(f"{role}|{stage}|{out.shape}".encode())
        digest.update(out.astype("<f8").tobytes())


def eval_digest(result: runner.PretrainResult) -> str:
    digest = hashlib.sha256()
    images = runner.dataset_from_config(result.cfg).val_images
    for role, branch in (("student", result.state.student),
                         ("teacher", result.state.teacher)):
        if branch is not None:
            digest_stages(digest, role, branch,
                          evaluation.images_to_inputs(images, branch))
    return digest.hexdigest()


def refresh_digest(result: runner.PretrainResult) -> str:
    digest = hashlib.sha256()
    branch = result.state.student.copy()
    images = runner.dataset_from_config(result.cfg).train_images
    x = evaluation.images_to_inputs(images, branch)
    encoder.refresh_running_stats(branch, x, passes=REFRESH_PASSES)
    for name in sorted(branch.running):
        stat = branch.running[name]
        digest.update(f"{name}|{stat.shape}".encode())
        digest.update(stat.astype("<f8").tobytes())
    digest_stages(digest, "student", branch, x)
    return digest.hexdigest()


def rescue_digest(results: dict, out_dir: Path) -> str:
    digest = hashlib.sha256()
    source = results[RESCUE_KIND].checkpoint_path
    anchor = results[RESCUE_ANCHOR_KIND].checkpoint_path
    for label, target in (("anchor", {"anchor_path": anchor}),
                          ("factor", {"factor": RESCUE_FACTOR})):
        path = out_dir / f"rescued_{label}.airl"
        runner.cmd_surgery_rescale(source, path, **target)
        records, metadata = checkpoint.load_checkpoint(path)
        del metadata["rescaled"]["anchor"]
        digest.update(label.encode())
        digest_checkpoint(digest, records, metadata)
    return digest.hexdigest()


def probe_digest(results: dict) -> str:
    digest = hashlib.sha256()
    probes = [(label, 0) for label, _ in RUNS]
    probes.append((PROBE_SEED_KIND, PROBE_SEED))
    for label, seed in probes:
        result = results[label]
        top1, (w, b) = evaluation.linear_probe(
            result.state.student, runner.dataset_from_config(result.cfg), seed)
        digest.update(f"{label}|{seed}|{top1!r}".encode())
        digest.update(w.astype("<f8").tobytes())
        digest.update(b.astype("<f8").tobytes())
    return digest.hexdigest()


AUG_SEEDS = (7, 8, 9)
AUG_EPOCHS = 2
AUG_BATCH = 48


def aug_pipelines() -> tuple:
    """(label, pipeline) of every digested augmentation pipeline."""
    crop_scale = runner.MAIN_DATA["augment__crop_scale"]
    return tuple((f"aug_ladder_{r}", AugPipeline.default(
        16, REMOVAL_ORDER[:r], crop_scale))
        for r in range(len(REMOVAL_ORDER) + 1))


def views_digest(images, pipeline) -> str:
    digest = hashlib.sha256()
    for seed in AUG_SEEDS:
        for epoch in range(AUG_EPOCHS):
            for start in range(0, len(images), AUG_BATCH):
                indices = range(start, min(start + AUG_BATCH, len(images)))
                rngs = [numerics.Rng(seed).child("aug", epoch, i)
                        for i in indices]
                for view in augment.two_views(images[start:start + len(rngs)],
                                              pipeline, rngs):
                    digest.update(np.ascontiguousarray(view).tobytes())
    return digest.hexdigest()


def exp_log_dispatch() -> str:
    """The level numpy dispatches float64 `exp` and `log` to on this host,
    such as "X86_V4"; both levels, "/"-joined, when they differ, and
    "unknown" on an older numpy without `np.lib.introspect.opt_func_info`."""
    try:
        opt_func_info = np.lib.introspect.opt_func_info
    except AttributeError:
        return "unknown"
    info = opt_func_info(func_name="^(exp|log)$", signature="^d")
    return "/".join(dict.fromkeys(
        loop["current"] for name in ("exp", "log")
        for loop in info[name].values()))


def parse_overrides(args: list[str]) -> dict[str, str]:
    overrides = {}
    for arg in args:
        key, sep, value = arg.partition("=")
        if not sep:
            raise SystemExit(f"expected section.key=value, got {arg!r}")
        overrides[key.strip().replace(".", "__")] = value.strip()
    return overrides


def main(argv: list[str]) -> int:
    extra = parse_overrides(argv)
    print(f"numpy {np.__version__}, matmul path: {numerics.MATMUL_PATH}, "
          f"augment path: {augment.AUGMENT_PATH}, "
          f"block path: {encoder.BLOCK_PATH}, "
          f"exp/log dispatch: {exp_log_dispatch()}", file=sys.stderr)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, overrides in (*RUNS, COSINE_RUN):
            cfg = config_from_overrides(**{
                **overrides,
                "framework__queue_size": 256,
                "run__epochs": EPOCHS,
                "run__batch": 48,
                "run__seed": SEED,
                "run__checkpoint_every": 1,
                **runner.MAIN_DATA,
                **extra,
            })
            result = runner.pretrain(cfg, Path(tmp) / label)
            print(f"{label:<15} {run_digest(result.run_dir)} "
                  f"{eval_digest(result)}", flush=True)
            results[label] = result
        refreshed = results[REFRESH_KIND]
        print(f"{REFRESH_KIND}_bn_refresh {refresh_digest(refreshed)}",
              flush=True)
        print(f"{RESCUE_KIND}_rescue {rescue_digest(results, Path(tmp))}",
              flush=True)
    images = runner.dataset_from_config(refreshed.cfg).train_images
    for label, pipeline in aug_pipelines():
        print(f"{label:<15} {views_digest(images, pipeline)}", flush=True)
    print(f"{'linear_probe':<15} {probe_digest(results)}", flush=True)
    memo = augment.memo_plans.cache_info()
    print(f"plan memo: {memo.hits} hits, {memo.misses} misses",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

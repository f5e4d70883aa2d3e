"""Experiment shell: pretraining loop, command implementations, studies.

Every stochastic consumer pulls from a named child stream of the run seed,
so a config + seed pair identifies one bit-exact training trajectory. The
pre-canned studies express each paper-style comparison (configuration
ladder, optimizer crossover, augmentation removal, collapse, norm
divergence) as a matrix of config diffs at desk scale.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import checkpoint, encoder, evaluation, frameworks, surgery
from .augment import REMOVAL_ORDER, memo_plans, two_views
from .config import (
    KEY_SPEC,
    ExperimentConfig,
    config_from_overrides,
    load_config,
    parse_value,
)
from .errors import ConfigError, NumericOverflowError
from .evaluation import collapse_metrics, linear_probe, make_synthetic_dataset
from .numerics import Rng, l2_normalize_rows, norm
from .optim import norm_sum_by_role, weight_norm_report

OUT_ROOT_ENV = "AIRL_OUT"

METRIC_COLUMNS = (
    "step", "loss", "lr", "momentum_m", "queue_fill", "feat_std", "eff_rank"
)


def out_root(explicit=None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(OUT_ROOT_ENV, "airl_runs"))


DATA_KEYS = tuple(key for key in KEY_SPEC if key.startswith("data."))

# The studies use three data specs (`MAIN_DATA`, `COLLAPSE_DATA` and
# `NORMDIV_DATA`), so three entries keep every study's dataset; a
# `MAIN_DATA` dataset holds 3.75 MB.
DATASET_MEMO_SIZE = 3


@lru_cache(maxsize=DATASET_MEMO_SIZE)
def memo_dataset(values: tuple) -> evaluation.Dataset:
    """The dataset of the `data.*` values `values`, in `DATA_KEYS` order,
    with every array read-only; `dataset_from_config`'s memo."""
    spec = dict(zip(DATA_KEYS, values))
    data = make_synthetic_dataset(
        classes=spec["data.classes"],
        per_class=spec["data.per_class"],
        side=spec["data.side"],
        rng=Rng(spec["data.seed"], 0).child("data"),
        noise=spec["data.noise"],
        tint=spec["data.tint"],
        val_per_class=spec["data.val_per_class"],
    )
    for array in (data.train_images, data.train_labels, data.val_images,
                  data.val_labels):
        array.flags.writeable = False
    return data


def dataset_from_config(cfg) -> evaluation.Dataset:
    """The dataset of the `data.*` keys of a config (or of a mapping that
    holds them, such as `parse_data_spec`'s).

    A dataset depends on nothing else, so each process synthesizes each
    spec once (`memo_dataset`) and every caller shares that one dataset.
    It is frozen and its arrays are read-only, so no caller can change
    what a later one receives.
    """
    return memo_dataset(tuple(cfg[key] for key in DATA_KEYS))


@dataclass
class PretrainResult:
    state: frameworks.SiameseState
    cfg: ExperimentConfig
    run_dir: Path
    checkpoint_path: Path
    metrics_path: Path


def _augmented_batch(images, indices, pipeline, rng, epoch):
    rngs = [rng.child("aug", epoch, int(i)) for i in indices]
    return two_views(images[indices], pipeline, rngs)


def pretrain(cfg: ExperimentConfig, run_dir) -> PretrainResult:
    """Run the configured pretraining; writes metrics.csv and checkpoints."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with checkpoint.open_atomic(run_dir / "config.txt", "w",
                                encoding="utf-8") as fh:
        fh.write(cfg.canonical_text())

    fw = cfg.framework_config()
    pipeline = cfg.pipeline()
    data = dataset_from_config(cfg)
    images = data.train_images
    n_train = images.shape[0]
    batch = cfg["run.batch"]
    epochs = cfg["run.epochs"]
    steps_per_epoch = n_train // batch
    total_steps = epochs * steps_per_epoch

    run_rng = Rng(cfg["run.seed"], 0)
    state = frameworks.init_siamese_state(
        fw, run_rng.child("init"), total_steps=total_steps
    )
    opt = cfg.optimizer()

    metrics_path = run_dir / "metrics.csv"
    ckpt_path = run_dir / "ckpt_final.airl"
    every = cfg["run.checkpoint_every"]
    # metrics.csv is streamed in place, unlike the other outputs: when a step
    # overflows, the rows written so far are what explains
    # ckpt_diagnostic.airl, and a temporary sibling would drop them.
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for epoch in range(epochs):
            order = run_rng.child("order", epoch).permutation(n_train)
            for b in range(steps_per_epoch):
                idx = order[b * batch:(b + 1) * batch]
                x1, x2 = _augmented_batch(images, idx, pipeline, run_rng, epoch)
                try:
                    state, met = frameworks.training_step(state, x1, x2, fw, opt)
                except NumericOverflowError:
                    checkpoint.save_state(
                        run_dir / "ckpt_diagnostic.airl", state, cfg
                    )
                    raise
                feat_std, eff_rank = collapse_metrics(met["embeddings"])
                writer.writerow([
                    state.step - 1,
                    repr(met["loss"]),
                    repr(met["lr"]),
                    repr(met["momentum_m"]),
                    met["queue_fill"],
                    repr(feat_std),
                    repr(eff_rank),
                ])
            if every and (epoch + 1) % every == 0 and epoch + 1 < epochs:
                checkpoint.save_state(
                    run_dir / f"ckpt_epoch{epoch + 1:04d}.airl", state, cfg
                )
    checkpoint.save_state(ckpt_path, state, cfg)
    return PretrainResult(state, cfg, run_dir, ckpt_path, metrics_path)


def cmd_pretrain(config_path, out=None) -> PretrainResult:
    cfg = load_config(config_path)
    name = cfg["run.name"] or Path(config_path).stem
    return pretrain(cfg, out_root(out) / name)


def probe_checkpoint(ckpt_path):
    state, cfg, _ = checkpoint.load_state(ckpt_path)
    acc, _ = linear_probe(state.student, dataset_from_config(cfg))
    return acc


def parse_data_spec(spec: str) -> dict:
    """Parse 'classes=8,per_class=64,side=16,noise=0.05,tint=0.35,seed=1'.

    Each field is the config key `data.<field>`, parsed and range-checked
    like it; fields left out take that key's default. Returns every
    `data.*` key.
    """
    fields: dict[str, object] = {}
    for part in spec.split(",") if spec else ():
        field, _, raw = part.partition("=")
        field = field.strip()
        key = f"data.{field}"
        if key not in DATA_KEYS:
            raise ConfigError(f"unknown data-spec field {field!r}")
        if key in fields:
            raise ConfigError(f"duplicate data-spec field {field!r}")
        fields[key] = parse_value(key, raw.strip(), "data spec")
    return {key: fields.get(key, KEY_SPEC[key][1]) for key in DATA_KEYS}


def eval_dataset(cfg: ExperimentConfig, data_spec: str) -> evaluation.Dataset:
    """The dataset a data spec names, or the config's when the spec is
    empty."""
    return dataset_from_config(parse_data_spec(data_spec) if data_spec
                               else cfg)


def cmd_eval_linear(ckpt_path, data_spec: str, out_path, probe_seed: int = 0):
    state, cfg, _ = checkpoint.load_state(ckpt_path)
    acc, _ = linear_probe(state.student, eval_dataset(cfg, data_spec),
                          probe_seed)
    with checkpoint.open_atomic(out_path, "w", newline="",
                                encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "probe_seed", "top1"])
        writer.writerow([str(ckpt_path), probe_seed, repr(acc)])
    return acc


def cmd_surgery_rescale(input_path, output_path, anchor_path=None,
                        factor=None,
                        refresh_stats: bool = False) -> surgery.RescaleReport:
    """Rescale every trainable tensor's norm to the anchor's, or by a
    constant factor (direction preserved); BN running statistics and the
    queue are never rescaled. Only the tensors of the state that the
    checkpoint's config builds are rescaled and written, so the teacher
    records that an older collapse-ablation checkpoint still holds, which no
    loader reads, are dropped.

    The output keeps the input's metadata, its extra keys too, but takes
    `framework` and `config_hash` from the loaded config, and records the
    rescale under `rescaled`.

    With refresh_stats=True the BN running statistics are re-estimated from
    the checkpoint's own training images afterwards: surgery changes
    pre-activation scales, and frozen eval-mode consumers (the linear probe)
    would otherwise normalize with stale statistics.
    """
    if (anchor_path is None) == (factor is None):
        raise ConfigError("need exactly one of an anchor checkpoint or a factor")
    if factor is not None and not (math.isfinite(factor) and factor > 0):
        raise ConfigError(
            f"constant anchor factor must be finite and > 0, got {factor}")
    state, cfg, metadata = checkpoint.load_state(input_path)
    # The records' arrays are the state's own, so rescaling them in place
    # rescales the state.
    records, _ = checkpoint.state_records(state, cfg)
    tensors = {name: array for name, (_, array) in
               checkpoint.trainable_records(records).items()}
    if anchor_path is not None:
        anchor_records, _ = checkpoint.load_checkpoint(anchor_path)
        targets = {name: norm(array) for name, (_, array) in
                   checkpoint.trainable_records(anchor_records).items()}
    else:
        targets = {name: factor * norm(w) for name, w in tensors.items()}
    rescaled, report = surgery.norm_rescale(tensors, targets)
    for name, array in rescaled.items():
        tensors[name][...] = array
    if refresh_stats:
        data = dataset_from_config(cfg)
        for branch in (state.student, state.teacher):
            if branch is not None:
                x = evaluation.images_to_inputs(data.train_images, branch)
                encoder.refresh_running_stats(branch, x)
    records, own = checkpoint.state_records(state, cfg)
    checkpoint.save_checkpoint(output_path, records, {
        **metadata,
        "framework": own["framework"],
        "config_hash": own["config_hash"],
        "rescaled": {
            "anchor": str(anchor_path) if anchor_path is not None else None,
            "factor": factor,
        },
    })
    return report


def cmd_analyze_norms(input_path, out_path=None):
    """List the 2-norm of every weight-role tensor in the checkpoint."""
    records, _ = checkpoint.load_checkpoint(input_path)
    rows = [
        (name, norm(array))
        for name, (role, array) in sorted(records.items())
        if role == "weight"
    ]
    _write_rows(out_path, ["tensor", "norm"],
                [(n, repr(v)) for n, v in rows])
    return rows


def cmd_analyze_cka(a_path, b_path, data_spec: str = "", out_path=None):
    """Stagewise CKA between two checkpoints on a shared eval batch."""
    state_a, cfg_a, _ = checkpoint.load_state(a_path)
    state_b, _, _ = checkpoint.load_state(b_path)
    dataset = eval_dataset(cfg_a, data_spec)
    if len(dataset.val_images) == 0:
        raise ConfigError("cannot compute CKA: the val split is empty")
    probe_batch = evaluation.images_to_inputs(dataset.val_images,
                                              state_a.student)
    rows = surgery.stagewise_cka(state_a.student, state_b.student, probe_batch)
    _write_rows(out_path, ["stage", "cka"],
                [(s, repr(v)) for s, v in rows])
    return rows


def _write_rows(out_path, header, rows) -> None:
    if out_path is None:
        return
    with checkpoint.open_atomic(out_path, "w", newline="",
                                encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Studies: pre-canned config matrices at desk scale. Each study pins its own
# data/optimization regime; sizes are chosen so every study finishes in
# minutes while still showing its paper-scale effect.

# Shared by the ladder / crossover / augmentation studies: texture classes
# with a brightness-gain nuisance and enough pixel noise that the blur and
# jitter stages have real work to do. The crop range is widened from the
# published (0.08, 1.0): 16-pixel textures do not survive 8%-area crops.
MAIN_DATA = dict(
    data__classes=8, data__per_class=48, data__val_per_class=32,
    data__side=16, data__tint=0.6, data__noise=0.2, data__seed=1,
    augment__crop_scale=(0.4, 1.0),
)
MAIN_EPOCHS = 30

# The collapse study wants long stable runs; mild data keeps them cheap.
COLLAPSE_DATA = dict(
    data__classes=8, data__per_class=48, data__val_per_class=16,
    data__side=16, data__tint=0.35, data__noise=0.05, data__seed=1,
)
COLLAPSE_EPOCHS = 30

# Norm divergence needs many small noisy steps so the decay-free LARS
# parameters random-walk visibly; tiny images keep thousands of steps cheap.
NORMDIV_DATA = dict(
    data__classes=8, data__per_class=48, data__val_per_class=8,
    data__side=8, data__tint=0.35, data__noise=0.05, data__seed=1,
    augment__out_side=8,
)
NORMDIV_EPOCHS = 60
NORMDIV_BATCH = 12
NORMDIV_LARS_LR = 16.0

CROSSOVER_LARS_LR = 1.0  # gentle regime: good features, inflated norms


class Arm(NamedTuple):
    """One table row: its leading columns, its run directory (or file)
    under the study root, the config pretrained there (None for an arm that
    reads earlier arms' runs) and `measure(result, root / run)`, which
    returns the row's other columns."""
    labels: dict
    run: str
    cfg: ExperimentConfig | None
    measure: Callable[[PretrainResult | None, Path], dict]


def _study_cfg(kind: str, data: dict, epochs: int, batch: int, seed: int,
               **overrides) -> ExperimentConfig:
    return config_from_overrides(
        framework__kind=kind, framework__queue_size=256, run__epochs=epochs,
        run__batch=batch, run__seed=seed, **data, **overrides)


def _probe(result: PretrainResult, path: Path) -> dict:
    acc, _ = linear_probe(result.state.student, dataset_from_config(result.cfg))
    return {"top1": acc}


def _embedding(result: PretrainResult, path: Path) -> dict:
    """Collapse metrics of the loss-space embeddings on the val images, and
    the spread over the isotropic reference. The branch is the one the
    training signal targets: the teacher under stop-gradient, else the
    student (the direct-distance ablation)."""
    cfg, state = result.cfg, result.state
    branch = state.teacher if cfg["framework.stop_gradient"] else state.student
    x = evaluation.images_to_inputs(dataset_from_config(cfg).val_images, branch)
    out, _ = encoder.forward(branch, x, training=False)
    feat_std, eff_rank = collapse_metrics(l2_normalize_rows(out))
    ref = evaluation.isotropic_std_reference(cfg["encoder.projector_out"])
    return {"feat_std": feat_std, "eff_rank": eff_rank,
            "std_over_reference": feat_std / ref}


def _norms(result: PretrainResult, path: Path) -> dict:
    student = result.state.student
    report = weight_norm_report(student)
    return {"norm_gain_sum": norm_sum_by_role(student, "norm_gain"),
            "weight_norm_sum": sum(report.values()),
            **{f"norm[{k}]": v for k, v in report.items()}}


def _rescue(kind: str, result: None, path: Path) -> dict:
    """Rescale the final checkpoint of run `<kind>_lars` onto run
    `<kind>_sgd`'s norms, re-estimate BN statistics, write it to `path` and
    probe it with the same fixed recipe as everything else."""
    runs = path.parent
    cmd_surgery_rescale(runs / f"{kind}_lars" / "ckpt_final.airl", path,
                        anchor_path=runs / f"{kind}_sgd" / "ckpt_final.airl",
                        refresh_stats=True)
    return {"top1": probe_checkpoint(path)}


# One config diff per rung, each applied on top of every earlier rung's; the
# ladder starts from the moco_v2 preset without solarization and ends at
# MoCo v2+ with it.
LADDER_RUNGS = (
    ("moco_v2", dict(augment__removed="solarization")),
    ("+hidden_bn", dict(framework__projector_hidden_bn=True)),
    ("+predictor", dict(framework__predictor_placement="student_only")),
    ("+momentum_ascend", dict(framework__momentum_base=0.99,
                              framework__momentum_schedule="cosine_ascend")),
    ("+symmetric_loss (moco_v2+)", dict(framework__symmetric_loss=True)),
    ("+solarization", dict(augment__removed="")),
)


def ladder_arms() -> list[Arm]:
    """Configuration ladder from the MoCo v2 baseline to MoCo v2+ plus
    richer augmentations; one config diff per rung."""
    arms, overrides = [], {}
    for i, (label, diff) in enumerate(LADDER_RUNGS):
        overrides.update(diff)
        cfg = _study_cfg("moco_v2", MAIN_DATA, MAIN_EPOCHS, 48, 0, **overrides)
        arms.append(Arm({"rung": i, "config": label}, f"rung{i}", cfg, _probe))
    return arms


def crossover_arms() -> list[Arm]:
    """2x2 framework x optimizer grid plus norm-rescued LARS checkpoints
    (`_rescue`)."""
    kinds = ("moco_v2_plus", "byol")
    lr = {"sgd": {}, "lars": {"optimizer__lr": CROSSOVER_LARS_LR}}
    return [
        Arm({"framework": kind, "optimizer": opt, "rescued": False},
            f"{kind}_{opt}",
            _study_cfg(kind, MAIN_DATA, MAIN_EPOCHS, 48, 0,
                       optimizer__kind=opt, **lr[opt]),
            _probe)
        for kind in kinds for opt in lr
    ] + [
        Arm({"framework": kind, "optimizer": "lars", "rescued": True},
            f"{kind}_lars_rescaled.airl", None, partial(_rescue, kind))
        for kind in kinds
    ]


def aug_ablation_arms() -> list[Arm]:
    """Remove color augmentations in the fixed ladder order for all three
    aligned frameworks; probe accuracy per (framework, rung, seed)."""
    return [
        Arm({"framework": kind, "rung": rung, "removed": removed or "(none)",
             "seed": seed},
            f"{kind}_r{rung}_s{seed}",
            _study_cfg(kind, MAIN_DATA, MAIN_EPOCHS, 48, seed,
                       augment__removed=removed),
            _probe)
        for kind in ("moco_v2_plus", "s_moco_v2_plus", "byol")
        for rung in range(len(REMOVAL_ORDER) + 1)
        for removed in [",".join(REMOVAL_ORDER[:rung])]
        for seed in (0, 1, 2)
    ]


def collapse_arms() -> list[Arm]:
    """Healthy BYOL vs the no-predictor/no-stop-gradient ablation, plus
    MoCo v2+ as a reference with negatives; reports embedding spread vs the
    isotropic reference."""
    ablation = dict(framework__predictor_placement="none",
                    framework__stop_gradient=False)
    arms = (("byol", "byol", {}), ("byol_no_pred_no_stopgrad", "byol", ablation),
            ("moco_v2_plus", "moco_v2_plus", {}))
    return [
        Arm({"arm": label}, label, _study_cfg(
            kind, COLLAPSE_DATA, COLLAPSE_EPOCHS, 48, 0, **diff), _embedding)
        for label, kind, diff in arms
    ]


def norm_divergence_arms() -> list[Arm]:
    """LARS (decay exclusions on norm/bias) vs SGD (decay everywhere) from
    identical init and data order; compares accumulated norm-gain mass."""
    lr = {"sgd": {}, "lars": {"optimizer__lr": NORMDIV_LARS_LR}}
    return [
        Arm({"optimizer": opt}, f"byol_{opt}",
            _study_cfg("byol", NORMDIV_DATA, NORMDIV_EPOCHS, NORMDIV_BATCH, 0,
                       optimizer__kind=opt, **lr[opt]),
            _norms)
        for opt in lr
    ]


STUDY_ARMS = {
    "ladder": ladder_arms,
    "crossover": crossover_arms,
    "aug-ablation": aug_ablation_arms,
    "collapse": collapse_arms,
    "norm-divergence": norm_divergence_arms,
}
STUDIES = tuple(STUDY_ARMS)


def _run_order(arms: list[Arm]) -> list[list[Arm]]:
    """The arms in groups that share plan inputs (`cfg.pipeline()`,
    `run.seed`, `run.batch` and the `data.*` keys), each group in list
    order, the groups in the order they first appear; arms without a
    config form one group. The arms of a group draw the same augmentation
    plans, so all but the first take them from `augment.draw_plans`' memo.
    """
    groups: dict = {}
    for arm in arms:
        cfg = arm.cfg
        key = None if cfg is None else (cfg.pipeline(), *(
            cfg[k] for k in ("run.seed", "run.batch", *DATA_KEYS)))
        groups.setdefault(key, []).append(arm)
    return list(groups.values())


def run_study(name: str, out=None) -> tuple[list[dict], Path]:
    """Run one named study; returns its rows and the table path.

    The arms run in `_run_order`, one progress line each, and the plan memo
    is emptied after each group: no later group asks for its plans. The
    rows keep the order the study lists its arms in.
    """
    if name not in STUDY_ARMS:
        raise ConfigError(f"unknown study {name!r}; "
                          f"available: {', '.join(STUDIES)}")
    root = out_root(out) / f"study_{name.replace('-', '_')}"
    root.mkdir(parents=True, exist_ok=True)
    started = time.time()
    arms = STUDY_ARMS[name]()
    measured = {}
    for group in _run_order(arms):
        for arm in group:
            arm_started = time.time()
            path = root / arm.run
            result = None if arm.cfg is None else pretrain(arm.cfg, path)
            measured[arm.run] = {**arm.labels, **arm.measure(result, path)}
            print(f"study {name}: {len(measured)}/{len(arms)} {arm.run} "
                  f"({time.time() - arm_started:.1f}s)", flush=True)
        memo_plans.cache_clear()
    rows = [measured[arm.run] for arm in arms]
    table_path = root / "table.csv"
    if rows:
        _write_rows(table_path, list(rows[0]), [
            [repr(v) if isinstance(v, float) else v for v in row.values()]
            for row in rows
        ])
    print(f"study {name}: {len(rows)} rows in {time.time() - started:.1f}s "
          f"-> {table_path}")
    return rows, table_path


def format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    rendered = [
        [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row.values()]
        for row in rows
    ]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered))
        for i, c in enumerate(cols)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rendered]
    return "\n".join(lines)

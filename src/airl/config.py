"""Line-oriented experiment configuration: `section.key = value`.

Human-diffable on purpose: every study arm is one config diff. Unknown keys
and duplicate keys are hard errors so typos cannot silently revert a setting
to its default. Framework keys left unset inherit the preset of
`framework.kind`.

Pretraining always uses a cosine schedule after `schedule.warmup_epochs`
of linear warmup, a symmetrized loss always averages its two directions, and
LARS always exempts norm gains, norm biases and biases and takes its trust
coefficient and eps from `optim`. The keys that once chose or set these are
retired (`RETIRED_KEYS`): configs written before their removal, such as the
text embedded in older checkpoints, still parse as long as each such line
holds the one value every run used.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import augment
from .errors import ConfigError
from .frameworks import FrameworkConfig, preset_values
from .optim import LarsConfig, LrSchedule, Optimizer, SgdConfig

_REQUIRED = object()
_PRESET = object()

# key -> (type tag, default). `preset` defaults resolve from framework.kind.
KEY_SPEC: dict[str, tuple[str, object]] = {
    "framework.kind": ("str", _REQUIRED),
    "framework.temperature": ("float", 0.2),
    "framework.queue_size": ("int", 256),
    "framework.symmetric_loss": ("bool", _PRESET),
    "framework.predictor_placement": ("str", _PRESET),
    "framework.momentum_base": ("float", _PRESET),
    "framework.momentum_schedule": ("str", _PRESET),
    "framework.projector_hidden_bn": ("bool", _PRESET),
    "framework.stop_gradient": ("bool", True),
    "encoder.backbone_hidden": ("int", 64),
    "encoder.backbone_out": ("int", 64),
    "encoder.projector_hidden": ("int", 64),
    "encoder.projector_out": ("int", 32),
    "augment.out_side": ("int", 16),
    "augment.removed": ("str", ""),
    "augment.crop_scale": ("floats", (0.08, 1.0)),
    "data.classes": ("int", 8),
    "data.per_class": ("int", 64),
    "data.val_per_class": ("int", 16),
    "data.side": ("int", 16),
    "data.noise": ("float", 0.05),
    "data.tint": ("float", 0.35),
    "data.seed": ("int", 1),
    "optimizer.kind": ("str", "sgd"),
    "optimizer.lr": ("float", 0.06),
    "optimizer.momentum": ("float", 0.9),
    "optimizer.weight_decay": ("float", 1e-4),
    "schedule.warmup_epochs": ("int", 3),
    "run.name": ("str", ""),
    "run.epochs": ("int", 30),
    "run.batch": ("int", 64),
    "run.seed": ("int", 0),
    "run.checkpoint_every": ("int", 0),
}

# Removed keys -> (type tag, the one value still accepted). Every run used
# these values, and older checkpoints embed them; `parse_config` drops such
# a line and rejects any other value.
RETIRED_KEYS: dict[str, tuple[str, object]] = {
    "framework.symmetric_sum": ("bool", False),
    "optimizer.nesterov": ("bool", False),
    "optimizer.exclude_norm": ("bool", True),
    "optimizer.exclude_bias": ("bool", True),
    "optimizer.trust_coefficient": ("float", 1e-3),
    "optimizer.eps": ("float", 1e-9),
    "schedule.kind": ("str", "cosine"),
    "schedule.milestones": ("floats", (0.6, 0.8)),
    "schedule.decay_factor": ("float", 0.1),
}

# Smallest accepted value of each bounded int key: sizes must be positive,
# counts may be zero, a probe needs two classes to tell apart, and the
# crop-resize needs source images and outputs of at least 2x2.
MIN_VALUE: dict[str, int] = {
    "augment.out_side": 2,
    "encoder.backbone_hidden": 1,
    "encoder.backbone_out": 1,
    "encoder.projector_hidden": 1,
    "encoder.projector_out": 1,
    "data.classes": 2,
    "data.per_class": 1,
    "data.side": 2,
    "run.batch": 1,
    "run.epochs": 0,
    "run.checkpoint_every": 0,
    "framework.queue_size": 0,
    "data.val_per_class": 0,
    "schedule.warmup_epochs": 0,
}

# The stages `augment.removed` may name: all but the crop, which every
# pipeline starts with.
REMOVABLE_STAGES = augment.STAGE_ORDER[1:]


def _stage_names(text: str) -> tuple[str, ...]:
    # The comma-separated stage names of an `augment.removed` value.
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _parse_value(key: str, kind: str, raw: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "false"):
                return lowered == "true"
            raise ValueError(raw)
        if kind == "floats":
            if not raw.strip():
                return ()
            return tuple(float(p) for p in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(
            f"{where}: cannot parse {key} value {raw!r} as {kind}"
        ) from None


def parse_value(key: str, raw: str, where: str):
    """Parse one value of a known or retired key and check its range;
    errors start with `where` (such as "line 3") and name the key."""
    tag = (KEY_SPEC.get(key) or RETIRED_KEYS[key])[0]
    value = _parse_value(key, tag, raw, where)
    if tag in ("float", "floats") and not np.isfinite(value).all():
        raise ConfigError(f"{where}: {key} must be finite, got {raw!r}")
    if key in RETIRED_KEYS and value != RETIRED_KEYS[key][1]:
        raise ConfigError(
            f"{where}: {key} is retired and accepted only as "
            f"{_format_value(tag, RETIRED_KEYS[key][1])}, got {raw!r}"
        )
    if key in MIN_VALUE and value < MIN_VALUE[key]:
        raise ConfigError(
            f"{where}: {key} must be >= {MIN_VALUE[key]}, got {value}"
        )
    if key == "augment.removed" and not set(_stage_names(value)) <= set(
            REMOVABLE_STAGES):
        raise ConfigError(
            f"{where}: {key} may name only {','.join(REMOVABLE_STAGES)}, "
            f"got {raw!r}"
        )
    if key == "augment.crop_scale" and not (
            len(value) == 2 and 0.0 < value[0] <= value[1] <= 1.0):
        raise ConfigError(
            f"{where}: {key} must be two values low,high with "
            f"0 < low <= high <= 1, got {raw!r}"
        )
    return value


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    return str(value)


@dataclass
class ExperimentConfig:
    values: dict[str, object]

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = [
            f"{key} = {_format_value(KEY_SPEC[key][0], self.values[key])}"
            for key in sorted(self.values)
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    @property
    def input_dim(self) -> int:
        return 3 * self.values["augment.out_side"] ** 2

    def framework_config(self) -> FrameworkConfig:
        v = self.values
        return FrameworkConfig(
            kind=v["framework.kind"],
            temperature=v["framework.temperature"],
            queue_size=v["framework.queue_size"],
            symmetric_loss=v["framework.symmetric_loss"],
            predictor_placement=v["framework.predictor_placement"],
            momentum_base=v["framework.momentum_base"],
            momentum_schedule=v["framework.momentum_schedule"],
            projector_hidden_bn=v["framework.projector_hidden_bn"],
            stop_gradient=v["framework.stop_gradient"],
            input_dim=self.input_dim,
            backbone_hidden=v["encoder.backbone_hidden"],
            backbone_out=v["encoder.backbone_out"],
            projector_hidden=v["encoder.projector_hidden"],
            projector_out=v["encoder.projector_out"],
        )

    def pipeline(self) -> augment.AugPipeline:
        return augment.AugPipeline.default(
            out_side=self.values["augment.out_side"],
            removed=_stage_names(self.values["augment.removed"]),
            crop_scale=tuple(self.values["augment.crop_scale"]),
        )

    def schedule(self) -> LrSchedule:
        v = self.values
        total = max(v["run.epochs"], 1)  # 0-epoch runs never consult the lr
        return LrSchedule(
            base_lr=v["optimizer.lr"],
            warmup_epochs=min(v["schedule.warmup_epochs"], total),
            total_epochs=total,
        )

    def optimizer(self) -> Optimizer:
        v = self.values
        configs = {"sgd": SgdConfig, "lars": LarsConfig}
        kind = v["optimizer.kind"]
        if kind not in configs:
            raise ConfigError(
                f"optimizer.kind must be one of {', '.join(configs)}, "
                f"got {kind!r}")
        cfg = configs[kind](momentum=v["optimizer.momentum"],
                            weight_decay=v["optimizer.weight_decay"])
        return Optimizer(cfg, self.schedule())


def parse_config(text: str) -> ExperimentConfig:
    provided: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'section.key = value'")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in KEY_SPEC and key not in RETIRED_KEYS:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        if key in provided:
            raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
        provided[key] = parse_value(key, raw_value, f"line {line_no}")

    if "framework.kind" not in provided:
        raise ConfigError("missing required key framework.kind")
    preset = preset_values(provided["framework.kind"])

    # Retired keys are not in KEY_SPEC, so their lines are dropped here.
    values: dict[str, object] = {}
    for key, (_, default) in KEY_SPEC.items():
        if key in provided:
            values[key] = provided[key]
        elif default is _PRESET:
            values[key] = preset[key.split(".", 1)[1]]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key}")
        else:
            values[key] = default
    # Fail fast on invalid combinations.
    n_train = values["data.classes"] * values["data.per_class"]
    if values["run.epochs"] > 0 and values["run.batch"] > n_train:
        raise ConfigError(
            f"run.batch {values['run.batch']} exceeds the {n_train} training "
            f"images (data.classes * data.per_class)"
        )
    cfg = ExperimentConfig(values)
    cfg.framework_config()
    cfg.pipeline()
    cfg.optimizer()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_from_overrides(**overrides) -> ExperimentConfig:
    """Build a config from `section_key=value` keyword overrides (the dots
    replaced by double underscores), mainly for studies and tests."""
    lines = []
    for key, value in overrides.items():
        dotted = key.replace("__", ".")
        if dotted not in KEY_SPEC:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{dotted} = {value}")
    return parse_config("\n".join(lines) + "\n")

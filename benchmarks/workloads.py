"""The benchmark's workloads: generated configs, timed bodies and checks.

Each workload has a set-up (config parse, dataset synthesis and, for
`rescue_eval`, the fixture checkpoints) and a unit: the timed body the run
repeats. The workload seed becomes `run.seed` and `data.seed`; the program
only sees the generated configs and datasets. Every unit of one run does the
same work, so each must reproduce the same `trajectory_sha256`.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from airl import checkpoint, config, evaluation, frameworks, runner

STUDY_KINDS = frameworks.KINDS  # moco_v2, moco_v2_plus, s_moco_v2_plus, byol


@dataclass(frozen=True)
class Sizing:
    """Run lengths; `SMOKE` shrinks the data so the benchmark's own tests
    finish in seconds."""

    study_epochs: int = 4
    # Set-up runs at least `setup_repeats` times and until `setup_seconds`
    # have been spent in it; setup_s is the median.
    setup_repeats: int = 4
    setup_seconds: float = 2.0
    main_data: tuple = ()


FULL = Sizing()
SMOKE = Sizing(
    study_epochs=2, setup_repeats=1, setup_seconds=0.0,
    main_data=(("data__per_class", 12), ("data__val_per_class", 4)),
)


@dataclass
class Checks:
    """Correctness checks; each one is an attempted operation."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class UnitResult:
    probes: list[tuple[str, float]]  # (label, top-1) of every probe
    probe_s: list[float]  # wall time of every probe
    ops: int  # training steps, probes, surgery and analysis calls
    outputs: list[Path]  # hashed into trajectory_sha256, in order
    rescue_s: float | None = None
    cka: list[tuple[str, float]] = field(default_factory=list)

    @property
    def probe_top1(self) -> float:
        return float(np.mean([acc for _, acc in self.probes]))


def trajectory_sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        data = Path(path).read_bytes()
        digest.update(f"{Path(path).name}:{len(data)}:".encode())
        digest.update(data)
    return digest.hexdigest()


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _config(base: dict, seed: int, sizing_data: tuple, **overrides):
    values = {**base, "data__seed": seed, **dict(sizing_data), **overrides}
    return config.config_from_overrides(**values)


# ---------------------------------------------------------------------------
# Checks shared by the workloads.


def check_losses_finite(metrics_csv: Path, checks: Checks) -> None:
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    checks.expect(bool(losses) and all(math.isfinite(x) for x in losses),
                  f"non-finite or missing loss in {metrics_csv}")


def check_round_trip(ckpt: Path, checks: Checks) -> None:
    """load_state, re-serialized with state_records/checkpoint_bytes, must
    reproduce the file. Metadata keys that state_records does not produce
    (the note a rescue adds) are carried over from the file."""
    blob = ckpt.read_bytes()
    state, cfg, meta = checkpoint.load_state(ckpt)
    records, rebuilt_meta = checkpoint.state_records(state, cfg)
    rebuilt_meta = {**meta, **rebuilt_meta}
    checks.expect(checkpoint.checkpoint_bytes(records, rebuilt_meta) == blob,
                  f"checkpoint {ckpt} does not round-trip byte for byte")


def check_rescue(pre: Path, anchor: Path, out: Path, checks: Checks) -> None:
    """Each trainable tensor now has the anchor's norm and the direction it
    had before the rescue, both within 1e-12 relative."""
    pre_t = checkpoint.trainable_records(checkpoint.load_checkpoint(pre)[0])
    anchor_t = checkpoint.trainable_records(
        checkpoint.load_checkpoint(anchor)[0])
    out_t = checkpoint.trainable_records(checkpoint.load_checkpoint(out)[0])
    checks.expect(set(out_t) == set(pre_t) == set(anchor_t),
                  "rescued checkpoint's trainable tensors differ from inputs")
    for name in sorted(set(out_t) & set(pre_t) & set(anchor_t)):
        w, w_pre, w_anchor = out_t[name][1], pre_t[name][1], anchor_t[name][1]
        norm, norm_pre = np.linalg.norm(w), np.linalg.norm(w_pre)
        norm_anchor = np.linalg.norm(w_anchor)
        checks.expect(abs(norm - norm_anchor) <= 1e-12 * norm_anchor,
                      f"rescued {name} norm {norm!r} != anchor {norm_anchor!r}")
        cosine = float(np.sum(w * w_pre) / (norm * norm_pre))
        checks.expect(abs(cosine - 1.0) <= 1e-12,
                      f"rescued {name} changed direction (cosine {cosine!r})")


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    """Set-up, a repeated timed unit, and the checks on the unit's outputs."""

    name = ""
    hot_loop = "training"  # what one step is: "training" or "refresh"

    def __init__(self, seed: int, out: Path, sizing: Sizing):
        self.seed, self.out, self.sizing = seed, out, sizing

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self, checks: Checks) -> None:
        """Checks on what the repeated set-ups built."""

    def unit(self, clock) -> UnitResult:
        raise NotImplementedError

    def verify(self, result: UnitResult, checks: Checks) -> None:
        self.verify_files(result.outputs, checks)
        for label, acc in result.probes:
            checks.expect(acc > 1.0 / self.classes,
                          f"{label} probe top-1 {acc!r} is not above chance")

    @staticmethod
    def verify_files(paths, checks: Checks) -> None:
        """Finite losses in every metrics CSV; every checkpoint round-trips."""
        for path in paths:
            if path.name == "metrics.csv":
                check_losses_finite(path, checks)
            elif path.suffix == ".airl":
                check_round_trip(path, checks)


class StudyMix(Workload):
    """The four presets in turn at study scale (runner.MAIN_DATA: 384 train
    images, 768-d input, batch 48, queue 256, SGD, cosine schedule); each run
    checkpoints every epoch and is followed by its linear probe."""

    name = "study_mix"
    batch = 48

    def setup(self) -> None:
        self.cfgs = {
            kind: _config(
                runner.MAIN_DATA, self.seed, self.sizing.main_data,
                framework__kind=kind, framework__queue_size=256,
                run__epochs=self.sizing.study_epochs, run__batch=self.batch,
                run__seed=self.seed, run__checkpoint_every=1,
            )
            for kind in STUDY_KINDS
        }
        self.dataset = runner.dataset_from_config(self.cfgs[STUDY_KINDS[0]])
        self.classes = self.dataset.classes
        self.images_per_step = self.batch

    def unit(self, clock) -> UnitResult:
        root = _fresh_dir(self.out / "unit")
        probe_s, probes, outputs = [], [], []
        for kind in STUDY_KINDS:
            clock.begin(kind)
            result = runner.pretrain(self.cfgs[kind], root / kind)
            started = time.perf_counter()
            acc, _ = evaluation.linear_probe(result.state.student, self.dataset)
            probe_s.append(time.perf_counter() - started)
            probes.append((kind, acc))
            outputs += [result.checkpoint_path, result.metrics_path]
        return UnitResult(probes, probe_s, clock.marks() + len(probes), outputs)


class RescueEval(Workload):
    """The crossover rescue path. Set-up builds an SGD anchor and a LARS
    checkpoint (moco_v2_plus at study scale); the unit rescales the LARS
    checkpoint onto the anchor with refreshed BN statistics, probes it, and
    runs the CKA and norm analyses. One step is one training-mode forward of
    the statistics refresh over all training images."""

    name = "rescue_eval"
    hot_loop = "refresh"

    def __init__(self, seed: int, out: Path, sizing: Sizing):
        super().__init__(seed, out, sizing)
        self.fixture_hashes: list[str] = []

    def setup(self) -> None:
        root = _fresh_dir(self.out / "fixtures")
        results = {}
        for opt_kind in ("sgd", "lars"):
            extra = {}
            if opt_kind == "lars":
                extra["optimizer__lr"] = runner.CROSSOVER_LARS_LR
            cfg = _config(
                runner.MAIN_DATA, self.seed, self.sizing.main_data,
                framework__kind="moco_v2_plus", framework__queue_size=256,
                run__epochs=1, run__batch=48,
                run__seed=self.seed, optimizer__kind=opt_kind, **extra,
            )
            results[opt_kind] = runner.pretrain(cfg, root / opt_kind)
        self.anchor = results["sgd"].checkpoint_path
        self.lars = results["lars"].checkpoint_path
        self.fixtures = [path for r in results.values()
                         for path in (r.checkpoint_path, r.metrics_path)]
        self.fixture_hashes.append(trajectory_sha256(self.fixtures))
        cfg = results["sgd"].cfg
        self.classes = cfg["data.classes"]
        self.images_per_step = cfg["data.classes"] * cfg["data.per_class"]

    def check_setup(self, checks: Checks) -> None:
        checks.expect(len(set(self.fixture_hashes)) == 1,
                      "repeated set-ups built different fixture checkpoints")
        self.verify_files(self.fixtures, checks)

    def unit(self, clock) -> UnitResult:
        root = _fresh_dir(self.out / "unit")
        rescued = root / "rescued.airl"
        started = time.perf_counter()
        runner.cmd_surgery_rescale(self.lars, rescued, anchor_path=self.anchor,
                                   refresh_stats=True)
        rescue_s = time.perf_counter() - started
        started = time.perf_counter()
        acc = runner.probe_checkpoint(rescued)
        probe_s = [time.perf_counter() - started]
        cka = runner.cmd_analyze_cka(rescued, self.anchor,
                                     out_path=root / "cka.csv")
        runner.cmd_analyze_norms(rescued, out_path=root / "norms.csv")
        return UnitResult(
            [("rescued", acc)], probe_s, 4,
            [*self.fixtures, rescued, root / "cka.csv", root / "norms.csv"],
            rescue_s=rescue_s, cka=cka,
        )

    def verify(self, result: UnitResult, checks: Checks) -> None:
        # The fixtures were verified once, after set-up.
        fixtures = len(self.fixtures)
        rescued = result.outputs[fixtures]
        super().verify(replace(result, outputs=result.outputs[fixtures:]),
                       checks)
        check_rescue(self.lars, self.anchor, rescued, checks)
        for stage, value in result.cka:
            checks.expect(0.0 <= value <= 1.0,
                          f"CKA of stage {stage} is {value!r}, outside [0, 1]")


WORKLOADS = {w.name: w for w in (StudyMix, RescueEval)}

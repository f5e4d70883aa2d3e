import csv
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import augment_reference
from presets import preset
from airl import augment, checkpoint, encoder, evaluation, runner
from airl.augment import REMOVAL_ORDER
from airl.cli import main as cli_main
from airl.config import (REMOVABLE_STAGES, config_from_overrides,
                         parse_config)
from airl.errors import AirlError, CheckpointError, ConfigError
from airl.evaluation import collapse_metrics
from airl.numerics import Rng, l2_normalize_rows


def fast_cfg(**overrides):
    base = dict(
        framework__kind="moco_v2_plus",
        framework__queue_size=64,
        run__epochs=2, run__batch=16, run__seed=0,
        data__classes=4, data__per_class=8, data__val_per_class=4,
        data__side=8, augment__out_side=8,
        encoder__backbone_hidden=12, encoder__backbone_out=12,
        encoder__projector_hidden=8, encoder__projector_out=6,
        schedule__warmup_epochs=1,
    )
    base.update(overrides)
    return config_from_overrides(**base)


# The nine lines of the retired keys, as every config text and checkpoint
# written before their removal holds them.
RETIRED_LINES = (
    "framework.symmetric_sum = false",
    "optimizer.eps = 1e-09",
    "optimizer.exclude_bias = true",
    "optimizer.exclude_norm = true",
    "optimizer.nesterov = false",
    "optimizer.trust_coefficient = 0.001",
    "schedule.decay_factor = 0.1",
    "schedule.kind = cosine",
    "schedule.milestones = 0.6,0.8",
)


def with_retired_lines(text: str) -> str:
    """`text` as the old canonical form: sorted, retired keys included."""
    return "\n".join(sorted([*text.splitlines(), *RETIRED_LINES])) + "\n"


class TestConfig:
    def test_unknown_key_is_error_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("framework.kind = byol\nframework.typo = 3\n")

    def test_duplicate_key_is_error(self):
        text = "framework.kind = byol\nframework.kind = moco_v2\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_missing_kind_is_error(self):
        with pytest.raises(ConfigError, match="framework.kind"):
            parse_config("run.epochs = 3\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(
            "# experiment\nframework.kind = byol\n\nrun.epochs = 3  # short\n"
        )
        assert cfg["run.epochs"] == 3

    def test_presets_fill_framework_defaults(self):
        cfg = parse_config("framework.kind = moco_v2\n")
        assert cfg["framework.momentum_base"] == 0.999
        assert cfg["framework.symmetric_loss"] is False

    def test_canonical_round_trip_and_hash(self):
        cfg = fast_cfg()
        again = parse_config(cfg.canonical_text())
        assert again.values == cfg.values
        assert again.config_hash() == cfg.config_hash()

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("framework.kind = byol\nrun.epochs = soon\n")

    @pytest.mark.parametrize("line, minimum", [
        ("augment.out_side = 1", 2),  # parsed, then failed at the first draw
        ("encoder.backbone_hidden = 0", 1),
        ("encoder.backbone_out = 0", 1),
        ("encoder.projector_hidden = -1", 1),
        ("encoder.projector_out = 0", 1),
        ("data.classes = 1", 2),  # a probe needs two classes
        ("data.per_class = 0", 1),
        ("data.side = 1", 2),  # likewise
        ("run.batch = 0", 1),
        ("run.epochs = -1", 0),
        ("run.checkpoint_every = -2", 0),
        ("framework.queue_size = -3", 0),
        ("data.val_per_class = -1", 0),
        ("schedule.warmup_epochs = -1", 0),
    ])
    def test_out_of_range_sizes_rejected(self, line, minimum):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError,
                           match=f"line 2: {key} must be >= {minimum},"):
            parse_config(f"framework.kind = byol\n{line}\n")

    @pytest.mark.parametrize("kind", ["moco_v2", "moco_v2_plus",
                                      "s_moco_v2_plus"])
    def test_contrastive_kind_without_queue_rejected(self, kind):
        with pytest.raises(ConfigError,
                           match="framework.queue_size must be > 0"):
            parse_config(f"framework.kind = {kind}\nframework.queue_size = 0\n")

    def test_byol_without_queue_parses(self):
        cfg = parse_config("framework.kind = byol\nframework.queue_size = 0\n")
        assert cfg["framework.queue_size"] == 0

    @pytest.mark.parametrize("line", [
        "optimizer.lr = nan",
        "optimizer.lr = inf",
        "optimizer.lr = -inf",
        "framework.temperature = nan",
        "optimizer.weight_decay = nan",
        "data.noise = nan",
        "data.tint = inf",
        "augment.crop_scale = 0.5,nan",
    ])
    def test_non_finite_floats_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError,
                           match=f"line 2: {key} must be finite, got"):
            parse_config(f"framework.kind = byol\n{line}\n")

    @pytest.mark.parametrize("kind, line, message", [
        ("adam", "", "must be one of sgd, lars, got 'adam'"),
        ("sgd", "optimizer.lr = 0", "lr must be > 0, got 0.0"),
        ("sgd", "optimizer.momentum = 1.5", "momentum must be in [0, 1), got"),
        ("sgd", "optimizer.weight_decay = -3", "weight_decay must be >= 0"),
        ("lars", "optimizer.weight_decay = -3", "weight_decay must be >= 0"),
        ("sgd", "framework.temperature = 0", "must be > 0, got 0.0"),
        ("sgd", "framework.momentum_base = 1.5",
         "must be in [0, 1], got 1.5"),
        ("sgd", "framework.predictor_placement = nope",
         "must be one of none, student_only, both, got 'nope'"),
        ("sgd", "framework.momentum_schedule = step",
         "must be one of constant, cosine_ascend, got 'step'"),
        ("sgd", "framework.stop_gradient = false",
         "= false is a collapse ablation"),
    ])
    def test_bad_optimizer_values_rejected(self, kind, line, message):
        # In range for their type but not for the optimizer or the
        # framework: parsing builds both, and the optimizer's lr schedule,
        # so each value fails there, with a message that starts with its
        # key. The kind is contrastive, which rules out stop_gradient off.
        key = line.partition(" = ")[0] or "optimizer.kind"
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} ") as info:
            parse_config(
                f"framework.kind = moco_v2\noptimizer.kind = {kind}\n{line}\n")
        assert message in str(info.value)

    def test_unknown_framework_kind_names_its_key(self):
        with pytest.raises(ConfigError,
                           match="^framework.kind must be one of moco_v2, "):
            parse_config("framework.kind = simclr\n")

    @pytest.mark.parametrize("line", ["optimizer.eps = -1",
                                      "optimizer.trust_coefficient = 5"])
    def test_lars_only_keys_rejected_under_sgd(self, line):
        # Both keys are retired, so a value other than their one is an
        # error under sgd as under lars.
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"line 3: {key} is retired"):
            parse_config(
                f"framework.kind = byol\noptimizer.kind = sgd\n{line}\n")

    @pytest.mark.parametrize("line", RETIRED_LINES)
    def test_retired_key_at_its_value_is_dropped(self, line):
        cfg = parse_config(f"framework.kind = byol\n{line}\n")
        assert cfg.values == parse_config("framework.kind = byol\n").values
        assert line.split(" = ")[0] not in cfg.canonical_text()

    def test_old_canonical_text_parses_to_same_config(self):
        cfg = fast_cfg(optimizer__kind="lars")
        old = parse_config(with_retired_lines(cfg.canonical_text()))
        assert old.values == cfg.values
        assert old.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("line", [
        "framework.symmetric_sum = true",
        "optimizer.nesterov = true",
        "optimizer.trust_coefficient = -1",
        "optimizer.exclude_norm = false",
        "optimizer.exclude_bias = false",
        "schedule.kind = step_decay",
        "schedule.milestones = 0.5,0.8",
        "schedule.decay_factor = 0.5",
    ])
    def test_retired_key_at_another_value_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"line 2: {key} is retired"):
            parse_config(f"framework.kind = byol\n{line}\n")

    def test_retired_key_twice_is_error(self):
        text = ("framework.kind = byol\noptimizer.nesterov = false\n"
                "optimizer.nesterov = false\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    @pytest.mark.parametrize("value", [
        "0.5",  # one value: failed in the first crop draw
        "",  # none: likewise
        "-1,2",  # outside (0, 1]: failed converting a NaN side
        "0.9,0.1",  # low above high: accepted without error
    ])
    def test_bad_crop_scale_rejected(self, value):
        with pytest.raises(ConfigError,
                           match="line 2: augment.crop_scale must be"):
            parse_config(f"framework.kind = byol\naugment.crop_scale = "
                         f"{value}\n")

    @pytest.mark.parametrize("value", [
        "random_crop",
        "solarization, random_crop",
        "blur",  # an unknown stage: failed later, naming no key
    ])
    def test_removing_the_crop_or_an_unknown_stage_rejected(self, value):
        with pytest.raises(ConfigError,
                           match="line 2: augment.removed may name only "
                                 "horizontal_flip,color_jitter,"):
            parse_config(f"framework.kind = byol\naugment.removed = {value}\n")

    def test_every_removable_stage_can_be_removed(self):
        cfg = parse_config("framework.kind = byol\naugment.removed = "
                           f"{','.join(REMOVABLE_STAGES)}\n")
        assert [s.name for s in cfg.pipeline().stages] == ["random_crop"]

    def test_crop_scale_key_reaches_pipeline(self):
        cfg = parse_config(
            "framework.kind = byol\naugment.crop_scale = 0.4,0.9\n"
        )
        stage = cfg.pipeline().stages[0]
        assert dict(stage.params)["scale"] == (0.4, 0.9)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A small real checkpoint (an untrained run) for the parser fuzz."""
    cfg = fast_cfg(
        run__epochs=0, schedule__warmup_epochs=0, data__side=4,
        augment__out_side=4, encoder__backbone_hidden=3,
        encoder__backbone_out=3, encoder__projector_hidden=3,
        encoder__projector_out=2, framework__queue_size=4,
    )
    tmp = tmp_path_factory.mktemp("tiny")
    return runner.pretrain(cfg, tmp / "run").checkpoint_path


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = fast_cfg()
        result = runner.pretrain(cfg, tmp_path / "run")
        first = result.checkpoint_path.read_bytes()
        state, loaded_cfg, meta = checkpoint.load_state(result.checkpoint_path)
        assert loaded_cfg.config_hash() == cfg.config_hash()
        resaved = tmp_path / "resaved.airl"
        checkpoint.save_state(resaved, state, loaded_cfg)
        assert resaved.read_bytes() == first

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.airl"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint.load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        cfg = fast_cfg()
        result = runner.pretrain(cfg, tmp_path / "run")
        blob = bytearray(result.checkpoint_path.read_bytes())
        blob[4] = 99
        path = tmp_path / "v99.airl"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint.load_checkpoint(path)

    def test_every_truncation_raises_checkpoint_error(self, tiny_checkpoint,
                                                      tmp_path):
        # Covers cuts inside the 12-byte header, metadata shorter than its
        # declared length, cut records, and cuts at a record boundary.
        blob = tiny_checkpoint.read_bytes()
        path = tmp_path / "cut.airl"
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises(CheckpointError):
                checkpoint.load_state(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bit_flips_fail_only_with_library_errors(self, tiny_checkpoint,
                                                     data):
        blob = bytearray(tiny_checkpoint.read_bytes())
        bits = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                  min_size=1, max_size=4))
        for bit in bits:
            blob[bit // 8] ^= 1 << (bit % 8)
        try:
            checkpoint.parse_checkpoint_bytes(bytes(blob))
        except CheckpointError:
            return
        # A flipped config digit (out_side 4 -> 0) must fail as a ConfigError.
        path = tiny_checkpoint.with_name("flipped.airl")
        path.write_bytes(bytes(blob))
        try:
            checkpoint.load_state(path)
        except AirlError:
            pass

    @pytest.mark.parametrize("key", (*checkpoint.REQUIRED_METADATA,
                                     *checkpoint.QUEUE_METADATA))
    def test_metadata_without_required_key_rejected(self, tiny_checkpoint,
                                                    tmp_path, key):
        records, meta = checkpoint.load_checkpoint(tiny_checkpoint)
        del meta[key]
        path = tmp_path / "incomplete.airl"
        checkpoint.save_checkpoint(path, records, meta)
        with pytest.raises(CheckpointError, match=key):
            checkpoint.load_state(path)

    @pytest.mark.parametrize("key, value, message", [
        ("config", 5, "config must be a string, got 5"),
        ("step", "x", "step must be an int, got 'x'"),
        ("step", [1], "step must be an int, got [1]"),
        ("step", 2.7, "step must be an int, got 2.7"),
        ("step", True, "step must be an int, got True"),
        ("step", -3, "step -3 outside [0, 0]"),
        ("step", 1, "step 1 outside [0, 0]"),
        ("total_steps", None, "total_steps must be an int, got None"),
        ("queue_capacity", "16", "queue_capacity must be an int, got '16'"),
        ("queue_cursor", "a", "queue_cursor must be an int, got 'a'"),
        ("queue_count", 1.0, "queue_count must be an int, got 1.0"),
    ])
    def test_malformed_metadata_rejected(self, tiny_checkpoint, tmp_path,
                                         key, value, message):
        # The tiny checkpoint is an untrained run: step 0 of 0.
        records, meta = checkpoint.load_checkpoint(tiny_checkpoint)
        meta[key] = value
        path = tmp_path / "malformed.airl"
        checkpoint.save_checkpoint(path, records, meta)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            checkpoint.load_state(path)

    def test_duplicate_record_rejected(self):
        # Two records named x, as `checkpoint_bytes` never writes them.
        first = checkpoint.checkpoint_bytes({"x": ("weight", np.zeros(2))}, {})
        second = checkpoint.checkpoint_bytes({"x": ("weight", np.ones(2))}, {})
        blob = first + second[checkpoint.HEADER_LEN + len(b"{}"):]
        with pytest.raises(CheckpointError,
                           match="duplicate checkpoint record 'x'"):
            checkpoint.parse_checkpoint_bytes(blob)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda records, meta: records.update(
            {"queue.data": ("buffer", np.zeros((3, 7)))}), "queue buffer"),
        # The config decides the queue's capacity, not the metadata.
        (lambda records, meta: meta.update(config=meta["config"].replace(
            "framework.queue_size = 4", "framework.queue_size = 16")),
         "queue_capacity 4 differs from the config's queue capacity 16"),
        (lambda records, meta: meta.update(queue_capacity=0),
         "queue_capacity 0 differs from the config's queue capacity 4"),
        (lambda records, meta: meta.update(queue_cursor=99), "queue_cursor"),
        (lambda records, meta: meta.update(queue_cursor=-1), "queue_cursor"),
        (lambda records, meta: meta.update(queue_count=5), "queue_count"),
        (lambda records, meta: meta.update(queue_count=-1), "queue_count"),
        (lambda records, meta: records.update(
            {"student.stat.backbone1_bn.mean": ("stat", np.zeros(4))}),
         "statistic"),
        (lambda records, meta: records.update(
            {"teacher.stat.projector_bn.var": ("stat", np.ones((3, 1)))}),
         "statistic"),
    ])
    def test_queue_and_statistic_shapes_checked(self, tiny_checkpoint,
                                                tmp_path, corrupt, message):
        # The tiny checkpoint's queue holds 4 rows of 2; its widths are 3.
        records, meta = checkpoint.load_checkpoint(tiny_checkpoint)
        corrupt(records, meta)
        path = tmp_path / "corrupt.airl"
        checkpoint.save_checkpoint(path, records, meta)
        with pytest.raises(CheckpointError, match=message):
            checkpoint.load_state(path)

    @pytest.mark.parametrize("key, role", [
        ("student.backbone1_lin.weight", "bias"),
        ("teacher.stat.backbone1_bn.mean", "weight"),
        ("queue.data", "stat"),
    ])
    def test_record_with_wrong_role_rejected(self, tiny_checkpoint, tmp_path,
                                             key, role):
        records, meta = checkpoint.load_checkpoint(tiny_checkpoint)
        records[key] = (role, records[key][1])
        path = tmp_path / "retagged.airl"
        checkpoint.save_checkpoint(path, records, meta)
        with pytest.raises(CheckpointError, match=f"{key}.*role '{role}'"):
            checkpoint.load_state(path)

    def test_failed_write_keeps_existing_checkpoint(self, tiny_checkpoint,
                                                     tmp_path, monkeypatch):
        records, meta = checkpoint.load_checkpoint(tiny_checkpoint)
        path = tmp_path / "ckpt.airl"
        checkpoint.save_checkpoint(path, records, meta)
        before = path.read_bytes()
        assert before == checkpoint.checkpoint_bytes(records, meta)

        class HalfWrite:
            # A file that takes half of what it is given, then fails.
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **k: HalfWrite(open(*a, **k)),
                            raising=False)
        meta["step"] += 1
        with pytest.raises(OSError, match="no space"):
            checkpoint.save_checkpoint(path, records, meta)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.airl"]

    def test_checkpoint_with_bn_mode_line_rejected(self, tiny_checkpoint,
                                                   tmp_path):
        # Checkpoints written while framework.bn_mode existed embed it.
        records, meta = checkpoint.load_checkpoint(tiny_checkpoint)
        meta["config"] = meta["config"].replace(
            "framework.kind", "framework.bn_mode = global\nframework.kind")
        path = tmp_path / "old.airl"
        checkpoint.save_checkpoint(path, records, meta)
        with pytest.raises(ConfigError,
                           match="unknown config key 'framework.bn_mode'"):
            checkpoint.load_state(path)

    def test_checkpoint_with_retired_lines_loads(self, tiny_checkpoint,
                                                 tmp_path):
        # Checkpoints written while the retired keys existed embed them.
        records, meta = checkpoint.load_checkpoint(tiny_checkpoint)
        _, cfg, _ = checkpoint.load_state(tiny_checkpoint)
        meta["config"] = with_retired_lines(meta["config"])
        path = tmp_path / "old.airl"
        checkpoint.save_checkpoint(path, records, meta)
        old_state, old_cfg, old_meta = checkpoint.load_state(path)
        assert old_cfg.values == cfg.values
        assert old_meta == meta
        old_records, _ = checkpoint.state_records(old_state, old_cfg)
        assert old_records.keys() == records.keys()
        for name, (role, array) in records.items():
            assert old_records[name][0] == role
            assert np.array_equal(old_records[name][1], array), name

    @pytest.fixture(scope="class")
    def ablation_checkpoint(self, tmp_path_factory):
        """A checkpoint of the collapse ablation: no stop-gradient."""
        cfg = fast_cfg(framework__kind="byol",
                       framework__predictor_placement="none",
                       framework__stop_gradient=False)
        result = runner.pretrain(cfg, tmp_path_factory.mktemp("ablation")
                                 / "run")
        assert result.state.teacher is None
        return result

    def test_ablation_checkpoint_holds_no_teacher(self, ablation_checkpoint,
                                                  tmp_path):
        path = ablation_checkpoint.checkpoint_path
        records, _ = checkpoint.load_checkpoint(path)
        assert not any(name.startswith("teacher.") for name in records)
        assert any(name.startswith("student.") for name in records)
        state, cfg, _ = checkpoint.load_state(path)
        assert state.teacher is None
        resaved = tmp_path / "resaved.airl"
        checkpoint.save_state(resaved, state, cfg)
        assert resaved.read_bytes() == path.read_bytes()

    def test_queue_capacity_without_a_queue_rejected(self,
                                                     ablation_checkpoint,
                                                     tmp_path):
        # byol keeps no queue, so its checkpoints hold queue_capacity 0.
        records, meta = checkpoint.load_checkpoint(
            ablation_checkpoint.checkpoint_path)
        meta["queue_capacity"] = 4
        path = tmp_path / "queued.airl"
        checkpoint.save_checkpoint(path, records, meta)
        with pytest.raises(CheckpointError,
                           match="queue_capacity 4 differs from the config's "
                                 "queue capacity 0"):
            checkpoint.load_state(path)

    def test_checkpoint_with_old_teacher_records_loads(self,
                                                       ablation_checkpoint,
                                                       tmp_path):
        # Older ablation runs also saved a teacher copy of the student.
        path = ablation_checkpoint.checkpoint_path
        records, meta = checkpoint.load_checkpoint(path)
        old = dict(records)
        for name, (role, array) in records.items():
            if name.startswith("student."):
                old["teacher." + name.removeprefix("student.")] = (
                    role, array + 1.0)
        old_path = tmp_path / "old.airl"
        checkpoint.save_checkpoint(old_path, old, meta)
        state, cfg, _ = checkpoint.load_state(old_path)
        assert state.teacher is None
        resaved = tmp_path / "resaved.airl"
        checkpoint.save_state(resaved, state, cfg)
        assert resaved.read_bytes() == path.read_bytes()
        out_path = tmp_path / "rescaled.airl"
        runner.cmd_surgery_rescale(old_path, out_path, factor=2.0,
                                   refresh_stats=True)
        rescaled, _ = checkpoint.load_checkpoint(out_path)
        assert not any(name.startswith("teacher.") for name in rescaled)

    @pytest.mark.parametrize("refresh_stats", [False, True])
    def test_rescale_of_old_teacher_records_keeps_only_the_state(
            self, ablation_checkpoint, tmp_path, refresh_stats):
        # An older ablation checkpoint, built by hand: the current one plus a
        # teacher copy of every student record. Rescaling it must touch and
        # write the student alone, with or without the BN refresh, exactly
        # as rescaling the current checkpoint does.
        path = ablation_checkpoint.checkpoint_path
        records, meta = checkpoint.load_checkpoint(path)
        old = dict(records)
        for name, (role, array) in records.items():
            if name.startswith("student."):
                old["teacher." + name.removeprefix("student.")] = (
                    role, array + 1.0)
        old_path = tmp_path / "old.airl"
        checkpoint.save_checkpoint(old_path, old, meta)
        outputs = {}
        for label, source in (("old", old_path), ("current", path)):
            outputs[label] = tmp_path / f"{label}_rescaled.airl"
            report = runner.cmd_surgery_rescale(
                source, outputs[label], factor=2.0,
                refresh_stats=refresh_stats)
            touched = [name for name, _, _ in report.touched]
            assert touched and all(n.startswith("student.") for n in touched)
        rescaled, _ = checkpoint.load_checkpoint(outputs["old"])
        assert sorted(rescaled) == sorted(records)
        assert outputs["old"].read_bytes() == outputs["current"].read_bytes()

    def test_framework_that_contradicts_the_config_rejected(
            self, ablation_checkpoint, tmp_path):
        # A byol checkpoint re-saved as "moco_v2", with an all-zero hash.
        records, meta = checkpoint.load_checkpoint(
            ablation_checkpoint.checkpoint_path)
        meta["framework"] = "moco_v2"
        meta["config_hash"] = "0" * len(meta["config_hash"])
        path = tmp_path / "renamed.airl"
        checkpoint.save_checkpoint(path, records, meta)
        error = ("framework 'moco_v2' differs from the config's "
                 "framework.kind 'byol'")
        with pytest.raises(CheckpointError, match=error):
            checkpoint.load_state(path)
        with pytest.raises(CheckpointError, match=error):
            runner.cmd_surgery_rescale(path, tmp_path / "out.airl",
                                       factor=2.0)

    def test_stale_config_hash_loads_and_rescue_writes_its_own(
            self, ablation_checkpoint, tmp_path):
        # Checkpoints written before a key retirement carry an older hash.
        # A rescue writes the config's framework and hash, and keeps the
        # file's other keys.
        records, meta = checkpoint.load_checkpoint(
            ablation_checkpoint.checkpoint_path)
        own_hash = meta["config_hash"]
        meta["config_hash"] = "0" * len(own_hash)
        meta["note"] = "anchor run"
        del meta["framework"]
        path = tmp_path / "stale.airl"
        checkpoint.save_checkpoint(path, records, meta)
        _, cfg, loaded = checkpoint.load_state(path)
        assert loaded == meta and cfg.config_hash() == own_hash
        out = tmp_path / "rescaled.airl"
        runner.cmd_surgery_rescale(path, out, factor=2.0)
        _, written = checkpoint.load_checkpoint(out)
        assert written == {**meta, "framework": "byol",
                           "config_hash": own_hash,
                           "rescaled": {"anchor": None, "factor": 2.0}}

    def test_metadata_carries_config_hash_and_step(self, tmp_path):
        cfg = fast_cfg()
        result = runner.pretrain(cfg, tmp_path / "run")
        _, meta = checkpoint.load_checkpoint(result.checkpoint_path)
        assert meta["config_hash"] == cfg.config_hash()
        assert meta["step"] == 2 * (32 // 16)
        assert meta["framework"] == "moco_v2_plus"

    def test_queue_state_round_trips(self, tmp_path):
        cfg = fast_cfg()
        result = runner.pretrain(cfg, tmp_path / "run")
        state, _, _ = checkpoint.load_state(result.checkpoint_path)
        assert state.queue is not None
        assert state.queue.count == result.state.queue.count
        assert np.array_equal(state.queue.data, result.state.queue.data)
        assert state.queue.cursor == result.state.queue.cursor


class TestDatasetMemo:
    SPEC = "classes=3,per_class=5,val_per_class=2,side=6,noise=0.1,seed=4"

    @pytest.fixture
    def syntheses(self, monkeypatch):
        """One entry per `make_synthetic_dataset` call (its rng), in order;
        the autouse fixture has emptied the memo."""
        calls = []
        make = runner.make_synthetic_dataset

        def counted(**kwargs):
            calls.append(kwargs["rng"])
            return make(**kwargs)

        monkeypatch.setattr(runner, "make_synthetic_dataset", counted)
        return calls

    def test_equals_a_fresh_synthesis_bit_for_bit(self):
        got = runner.dataset_from_config(runner.parse_data_spec(self.SPEC))
        want = evaluation.make_synthetic_dataset(
            classes=3, per_class=5, side=6, rng=Rng(4, 0).child("data"),
            noise=0.1, tint=0.35, val_per_class=2)
        for name in ("train_images", "train_labels", "val_images",
                     "val_labels"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes())
            assert getattr(got, name).dtype == getattr(want, name).dtype
        assert got.classes == want.classes

    def test_repeated_spec_is_the_same_object(self, syntheses):
        spec = runner.parse_data_spec(self.SPEC)
        # A batch of 5 fits the spec's 15 training images.
        cfg = fast_cfg(run__batch=5, **{key.replace(".", "__"): value
                                        for key, value in spec.items()})
        first = runner.dataset_from_config(spec)
        assert runner.dataset_from_config(cfg) is first
        assert runner.eval_dataset(cfg, "") is first
        assert len(syntheses) == 1

    @pytest.mark.parametrize("key", runner.DATA_KEYS)
    def test_any_data_key_change_gives_another_dataset(self, key, syntheses):
        spec = runner.parse_data_spec(self.SPEC)
        changed = dict(spec, **{key: spec[key] + 1})
        first = runner.dataset_from_config(spec)
        other = runner.dataset_from_config(changed)
        assert other is not first
        assert len(syntheses) == 2
        assert runner.dataset_from_config(changed) is other
        assert len(syntheses) == 2

    def test_dataset_is_read_only(self):
        data = runner.dataset_from_config(runner.parse_data_spec(self.SPEC))
        for name in ("train_images", "train_labels", "val_images",
                     "val_labels"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(data, name)[0] = 0
        with pytest.raises(FrozenInstanceError):
            data.classes = 4
        with pytest.raises(FrozenInstanceError):
            data.train_images = np.zeros(1)

    def test_memo_holds_every_study_spec(self, syntheses):
        specs = [config_from_overrides(framework__kind="byol", **data)
                 for data in (runner.MAIN_DATA, runner.COLLAPSE_DATA,
                              runner.NORMDIV_DATA)]
        assert runner.DATASET_MEMO_SIZE == len(specs)
        for _ in range(2):
            for cfg in specs:
                runner.dataset_from_config(cfg)
        assert len(syntheses) == len(specs)


class TestPretrain:
    def test_zero_epoch_run_saves_initialization(self, tmp_path):
        cfg = fast_cfg(run__epochs=0, schedule__warmup_epochs=0)
        result = runner.pretrain(cfg, tmp_path / "run")
        state, _, meta = checkpoint.load_state(result.checkpoint_path)
        assert meta["step"] == 0
        from airl.frameworks import init_siamese_state

        fresh = init_siamese_state(
            cfg.framework_config(), Rng(0).child("init"), total_steps=0
        )
        for name, tensor in fresh.student.tensors.items():
            assert np.array_equal(tensor, state.student.tensors[name])

    def test_same_seed_runs_bit_identical(self, tmp_path):
        cfg = fast_cfg()
        r1 = runner.pretrain(cfg, tmp_path / "a")
        r2 = runner.pretrain(cfg, tmp_path / "b")
        assert (r1.checkpoint_path.read_bytes()
                == r2.checkpoint_path.read_bytes())

    def test_different_seed_differs(self, tmp_path):
        r1 = runner.pretrain(fast_cfg(), tmp_path / "a")
        r2 = runner.pretrain(fast_cfg(run__seed=1), tmp_path / "b")
        assert (r1.checkpoint_path.read_bytes()
                != r2.checkpoint_path.read_bytes())

    def test_queue_fill_reaches_capacity_and_stays(self, tmp_path):
        cfg = fast_cfg(framework__kind="moco_v2", framework__queue_size=32,
                       run__epochs=4)
        result = runner.pretrain(cfg, tmp_path / "run")
        with open(result.metrics_path) as fh:
            fills = [int(row["queue_fill"]) for row in csv.DictReader(fh)]
        # asymmetric loss enqueues 16 per step; capacity 32
        assert fills[0] == 16
        assert fills[1] == 32
        assert all(f == 32 for f in fills[1:])

    def test_metrics_csv_round_trips_exact_values(self, tmp_path):
        cfg = fast_cfg()
        result = runner.pretrain(cfg, tmp_path / "run")
        with open(result.metrics_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            for column in ("loss", "lr", "momentum_m", "feat_std", "eff_rank"):
                assert repr(float(row[column])) == row[column], column
            assert np.isfinite(float(row["loss"]))

    def test_batched_augmentation_keeps_per_image_trajectory(
            self, tmp_path, monkeypatch):
        batched = runner.pretrain(fast_cfg(), tmp_path / "batched")

        def per_image(images, pipeline, rngs):
            pairs = [augment_reference.two_views(img, pipeline, rng)
                     for img, rng in zip(images, rngs)]
            return tuple(np.stack([pair[v].reshape(-1) for pair in pairs])
                         for v in (0, 1))

        monkeypatch.setattr(runner, "two_views", per_image)
        reference = runner.pretrain(fast_cfg(), tmp_path / "per_image")
        for name in ("ckpt_final.airl", "metrics.csv"):
            assert ((batched.run_dir / name).read_bytes()
                    == (reference.run_dir / name).read_bytes())

    def test_epoch_checkpoints_written(self, tmp_path):
        cfg = fast_cfg(run__epochs=3, run__checkpoint_every=1)
        runner.pretrain(cfg, tmp_path / "run")
        names = sorted(p.name for p in (tmp_path / "run").glob("*.airl"))
        assert names == ["ckpt_epoch0001.airl", "ckpt_epoch0002.airl",
                         "ckpt_final.airl"]

    def test_batch_larger_than_dataset_rejected(self):
        # Rejected when the config is parsed, before a run could start. A
        # 0-epoch run takes no step, so its batch may exceed the set.
        with pytest.raises(ConfigError,
                           match="^run.batch 64 exceeds the 32 training"):
            fast_cfg(run__batch=64)
        assert fast_cfg(run__batch=64, run__epochs=0)["run.batch"] == 64

    def test_bad_optimizer_stops_before_the_run_starts(self, tmp_path):
        cfg_path = tmp_path / "adam.txt"
        cfg_path.write_text("framework.kind = byol\noptimizer.kind = adam\n")
        with pytest.raises(ConfigError, match="optimizer.kind must be one of"):
            runner.cmd_pretrain(cfg_path, out=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_batch_larger_than_dataset_stops_before_the_run_starts(
            self, tmp_path):
        cfg_path = tmp_path / "big_batch.txt"
        cfg_path.write_text("framework.kind = byol\nrun.batch = 64\n"
                            "data.per_class = 4\n")
        with pytest.raises(ConfigError, match="run.batch"):
            runner.cmd_pretrain(cfg_path, out=tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestCollapseStudy:
    @staticmethod
    def shrink(monkeypatch):
        monkeypatch.setattr(runner, "COLLAPSE_EPOCHS", 1)
        monkeypatch.setattr(runner, "COLLAPSE_DATA",
                            dict(runner.COLLAPSE_DATA, data__per_class=12))

    def test_ablation_measures_student_eval_embeddings(self, tmp_path,
                                                       monkeypatch):
        results = {}
        pretrain = runner.pretrain

        def record(cfg, run_dir):
            results[run_dir.name] = pretrain(cfg, run_dir)
            return results[run_dir.name]

        monkeypatch.setattr(runner, "pretrain", record)
        self.shrink(monkeypatch)
        rows = {row["arm"]: row
                for row in runner.run_study("collapse", tmp_path)[0]}
        label = "byol_no_pred_no_stopgrad"
        student = results[label].state.student
        dataset = runner.dataset_from_config(results[label].cfg)
        x = evaluation.images_to_inputs(dataset.val_images, student)
        out, _ = encoder.forward(student, x, training=False)
        assert ((rows[label]["feat_std"], rows[label]["eff_rank"])
                == collapse_metrics(l2_normalize_rows(out)))

    def test_table_holds_plain_floats(self, tmp_path, monkeypatch):
        self.shrink(monkeypatch)
        rows, table = runner.run_study("collapse", tmp_path)
        for row in rows:
            for key, value in row.items():
                if key != "arm":
                    assert type(value) is float, (row["arm"], key, value)
        with open(table, newline="", encoding="utf-8") as fh:
            written = list(csv.DictReader(fh))
        assert [r["arm"] for r in written] == [r["arm"] for r in rows]
        for row, text in zip(rows, written):
            for key, value in row.items():
                if key != "arm":
                    assert float(text[key]) == value

    def test_progress_line_per_arm(self, tmp_path, monkeypatch, capsys):
        self.shrink(monkeypatch)
        _, table = runner.run_study("collapse", tmp_path)
        *progress, summary = capsys.readouterr().out.splitlines()
        runs = ["byol", "byol_no_pred_no_stopgrad", "moco_v2_plus"]
        assert len(progress) == len(runs)
        for i, (line, run) in enumerate(zip(progress, runs), 1):
            assert re.fullmatch(
                rf"study collapse: {i}/3 {run} \(\d+\.\ds\)", line), line
        assert re.fullmatch(rf"study collapse: 3 rows in \d+\.\ds -> "
                            rf"{re.escape(str(table))}", summary), summary


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cmd")
    result = runner.pretrain(fast_cfg(), tmp / "run")
    return tmp, result


class TestCommands:
    def test_cli_pretrain_from_config_file(self, tmp_path):
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(fast_cfg().canonical_text())
        rc = cli_main(["pretrain", "-c", str(cfg_path), "--out",
                       str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "exp" / "ckpt_final.airl").exists()

    def test_eval_linear_writes_csv(self, run, tmp_path):
        _, result = run
        out = tmp_path / "metrics.csv"
        rc = cli_main([
            "eval", "linear", "--ckpt", str(result.checkpoint_path),
            "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert 0.0 <= float(rows[0]["top1"]) <= 1.0

    def test_analyze_norms_lists_each_weight_once(self, run, tmp_path):
        _, result = run
        rows = runner.cmd_analyze_norms(result.checkpoint_path,
                                        tmp_path / "norms.csv")
        names = [n for n, _ in rows]
        assert len(names) == len(set(names))
        student_weights = [n for n in names if n.startswith("student.")
                           and n.endswith(".weight")]
        # 2 backbone + 2 projector + 2 predictor linears
        assert len(student_weights) == 6

    def test_surgery_rescale_then_norms_shows_anchor(self, run, tmp_path):
        tmp, result = run
        other = runner.pretrain(fast_cfg(run__seed=5), tmp_path / "other")
        rescaled = tmp_path / "rescaled.airl"
        report = runner.cmd_surgery_rescale(
            result.checkpoint_path, rescaled,
            anchor_path=other.checkpoint_path,
        )
        assert report.touched
        norms_out = dict(runner.cmd_analyze_norms(rescaled))
        norms_anchor = dict(runner.cmd_analyze_norms(other.checkpoint_path))
        for name, value in norms_out.items():
            assert value == pytest.approx(norms_anchor[name], rel=1e-9)

    def test_surgery_rescale_refresh_stats(self, run, tmp_path):
        tmp, result = run
        out_path = tmp_path / "refreshed.airl"
        runner.cmd_surgery_rescale(result.checkpoint_path, out_path,
                                   factor=2.0, refresh_stats=True)
        state, _, _ = checkpoint.load_state(out_path)
        before, _, _ = checkpoint.load_state(result.checkpoint_path)
        # stats re-estimated at the new scale: first backbone BN sees
        # pre-activations scaled by 2, so its running mean follows suit
        key = "backbone1_bn.mean"
        assert not np.allclose(state.student.running[key],
                               before.student.running[key])

    def test_surgery_refresh_writes_once_what_a_reload_gives(
            self, run, tmp_path, monkeypatch):
        # The refreshed checkpoint equals a plain rescale that is loaded,
        # refreshed and saved again, and it is written once.
        _, result = run
        plain = tmp_path / "plain.airl"
        runner.cmd_surgery_rescale(result.checkpoint_path, plain, factor=2.0)
        state, cfg, meta = checkpoint.load_state(plain)
        data = runner.dataset_from_config(cfg)
        for branch in (state.student, state.teacher):
            encoder.refresh_running_stats(
                branch, evaluation.images_to_inputs(data.train_images, branch))
        expected = checkpoint.checkpoint_bytes(
            checkpoint.state_records(state, cfg)[0], meta)
        writes = []
        save = checkpoint.save_checkpoint
        monkeypatch.setattr(checkpoint, "save_checkpoint",
                            lambda path, *rest: (writes.append(path),
                                                 save(path, *rest)))
        out_path = tmp_path / "refreshed.airl"
        runner.cmd_surgery_rescale(result.checkpoint_path, out_path,
                                   factor=2.0, refresh_stats=True)
        assert writes == [out_path]
        assert out_path.read_bytes() == expected

    def test_surgery_rescale_constant_factor(self, run, tmp_path):
        _, result = run
        out_path = tmp_path / "scaled.airl"
        runner.cmd_surgery_rescale(result.checkpoint_path, out_path,
                                   factor=0.1)
        before = dict(runner.cmd_analyze_norms(result.checkpoint_path))
        after = dict(runner.cmd_analyze_norms(out_path))
        for name in before:
            assert after[name] == pytest.approx(0.1 * before[name], rel=1e-9)

    @pytest.mark.parametrize("factor", ["nan", "inf", "0", "-1"])
    def test_surgery_rejects_non_finite_factor(self, run, tmp_path, capsys,
                                               factor):
        _, result = run
        out_path = tmp_path / "scaled.airl"
        rc = cli_main(["surgery", "rescale", "--input",
                       str(result.checkpoint_path), "--factor", factor,
                       "--output", str(out_path)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out_path.exists()

    def test_surgery_needs_exactly_one_anchor(self, run, tmp_path):
        _, result = run
        with pytest.raises(ConfigError):
            runner.cmd_surgery_rescale(result.checkpoint_path,
                                       tmp_path / "x.airl")

    def test_analyze_cka_self_comparison_is_one(self, run, tmp_path):
        _, result = run
        rows = runner.cmd_analyze_cka(result.checkpoint_path,
                                      result.checkpoint_path)
        assert all(abs(v - 1.0) < 1e-9 for _, v in rows)

    @pytest.mark.parametrize("spec, message", [
        ("classes=x", "data spec: cannot parse data.classes value 'x'"),
        ("side=0", "data spec: data.side must be >= 2"),
        ("side=1", "data spec: data.side must be >= 2"),
        ("classes=1", "data spec: data.classes must be >= 2"),
        ("noise=nan", "data spec: data.noise must be finite"),
        ("tint=inf", "data spec: data.tint must be finite"),
        ("per_class=0", "data spec: data.per_class must be >= 1"),
        ("val_per_class=-1", "data spec: data.val_per_class must be >= 0"),
        ("classes=4,classes=5", "duplicate data-spec field 'classes'"),
        ("classes=4,colour=red", "unknown data-spec field 'colour'"),
    ])
    def test_bad_data_spec_is_config_error(self, run, tmp_path, capsys,
                                           spec, message):
        _, result = run
        with pytest.raises(ConfigError, match=message):
            runner.parse_data_spec(spec)
        rc = cli_main(["eval", "linear", "--ckpt",
                       str(result.checkpoint_path), "--data", spec,
                       "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "m.csv").exists()

    def test_data_spec_builds_the_named_dataset(self, run):
        _, result = run
        got = runner.eval_dataset(result.cfg, "classes=3, per_class=5,side=6,"
                                              "noise=0.1,seed=4")
        want = evaluation.make_synthetic_dataset(
            classes=3, per_class=5, side=6, rng=Rng(4, 0).child("data"),
            noise=0.1, tint=0.35, val_per_class=16)
        for name in ("train_images", "train_labels", "val_images",
                     "val_labels"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes())
        assert got.classes == 3

    @pytest.mark.parametrize("command", ["eval", "cka"])
    def test_empty_val_split_exits_with_error(self, run, tmp_path, capsys,
                                              command):
        _, result = run
        ckpt = str(result.checkpoint_path)
        spec = "classes=4,per_class=8,val_per_class=0,side=8"
        argv = (["eval", "linear", "--ckpt", ckpt, "--data", spec,
                 "--out", str(tmp_path / "m.csv")] if command == "eval"
                else ["analyze", "cka", "--a", ckpt, "--b", ckpt,
                      "--probe", spec])
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "val split is empty" in err

    def test_unknown_study_lists_available(self):
        with pytest.raises(ConfigError, match="ladder"):
            runner.run_study("nonexistent")

    def test_cli_reports_errors_with_exit_code(self, tmp_path, capsys):
        rc = cli_main(["pretrain", "-c", str(tmp_path / "missing.txt")])
        assert rc == 1
        assert any(line.startswith("error: ") and "missing.txt" in line
                   for line in capsys.readouterr().err.splitlines())

    def test_cli_unknown_study_exit_code(self, capsys):
        rc = cli_main(["reproduce", "nonexistent"])
        assert rc == 1
        assert "ladder" in capsys.readouterr().err


class TestSafeWrites:
    def test_outputs_keep_their_bytes(self, run, tmp_path, monkeypatch):
        # The bytes that writing each output in place gave: config.txt is
        # the canonical text, and csv rows end in "\r\n".
        _, result = run
        assert ((result.run_dir / "config.txt").read_bytes()
                == result.cfg.canonical_text().encode("utf-8"))
        ckpt = result.checkpoint_path
        acc = runner.cmd_eval_linear(ckpt, "", tmp_path / "eval.csv")
        assert (tmp_path / "eval.csv").read_bytes() == (
            f"checkpoint,probe_seed,top1\r\n{ckpt},0,{acc!r}\r\n".encode())
        runner._write_rows(tmp_path / "rows.csv", ["stage", "cka"],
                           [("a b", "0.5"), ("c,d", "1.0")])
        assert ((tmp_path / "rows.csv").read_bytes()
                == b'stage,cka\r\na b,0.5\r\n"c,d",1.0\r\n')
        monkeypatch.setitem(runner.STUDY_ARMS, "collapse", lambda: [
            runner.Arm({"arm": "x"}, "x", None, lambda r, p: {"v": 0.1}),
            runner.Arm({"arm": "y"}, "y", None, lambda r, p: {"v": 2.0})])
        _, table = runner.run_study("collapse", tmp_path)
        assert table.read_bytes() == b"arm,v\r\nx,0.1\r\ny,2.0\r\n"

    def test_failed_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "norms.csv"
        runner._write_rows(path, ["tensor", "norm"], [("w", "1.0")])
        before = path.read_bytes()

        def rows():
            yield ("w", "2.0")
            raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space"):
            runner._write_rows(path, ["tensor", "norm"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["norms.csv"]


# Each rung's complete overrides, restating the earlier rungs': what the
# ladder's accumulated per-rung diffs must reproduce.
FULL_LADDER = (
    ("moco_v2", dict(augment__removed="solarization")),
    ("+hidden_bn", dict(
        augment__removed="solarization", framework__projector_hidden_bn=True)),
    ("+predictor", dict(
        augment__removed="solarization", framework__projector_hidden_bn=True,
        framework__predictor_placement="student_only")),
    ("+momentum_ascend", dict(
        augment__removed="solarization", framework__projector_hidden_bn=True,
        framework__predictor_placement="student_only",
        framework__momentum_base=0.99,
        framework__momentum_schedule="cosine_ascend")),
    ("+symmetric_loss (moco_v2+)", dict(
        augment__removed="solarization", framework__projector_hidden_bn=True,
        framework__predictor_placement="student_only",
        framework__momentum_base=0.99,
        framework__momentum_schedule="cosine_ascend",
        framework__symmetric_loss=True)),
    ("+solarization", dict(
        framework__projector_hidden_bn=True,
        framework__predictor_placement="student_only",
        framework__momentum_base=0.99,
        framework__momentum_schedule="cosine_ascend",
        framework__symmetric_loss=True)),
)


class TestLadder:
    @pytest.fixture
    def arms(self):
        return runner.ladder_arms()

    def test_rungs_accumulate_to_full_configs(self, arms):
        assert ([(arm.labels["rung"], arm.labels["config"]) for arm in arms]
                == [(i, label) for i, (label, _) in enumerate(FULL_LADDER)])
        for arm, (_, full) in zip(arms, FULL_LADDER, strict=True):
            assert arm.cfg.values == config_from_overrides(
                framework__kind="moco_v2", framework__queue_size=256,
                run__epochs=runner.MAIN_EPOCHS, run__batch=48, run__seed=0,
                **runner.MAIN_DATA, **full).values

    def test_symmetric_loss_rung_is_moco_v2_plus(self, arms):
        rung = arms[4].cfg.framework_config()
        assert rung.kind == "moco_v2"
        assert (replace(rung, kind="moco_v2_plus")
                == preset("moco_v2_plus"))


# What each study compares: the only config keys in which its arms differ.
STUDY_FACTORS = {
    "ladder": {
        "augment.removed", "framework.projector_hidden_bn",
        "framework.predictor_placement", "framework.momentum_base",
        "framework.momentum_schedule", "framework.symmetric_loss"},
    "crossover": {"framework.kind", "optimizer.kind", "optimizer.lr"},
    "aug-ablation": {
        "framework.kind", "framework.predictor_placement", "augment.removed",
        "run.seed"},
    "collapse": {
        "framework.kind", "framework.predictor_placement",
        "framework.stop_gradient"},
    "norm-divergence": {"optimizer.kind", "optimizer.lr"},
}


@pytest.mark.parametrize("name", runner.STUDIES)
def test_arms_differ_only_in_what_the_study_compares(name):
    configs = [arm.cfg.values for arm in runner.STUDY_ARMS[name]()
               if arm.cfg is not None]
    differ = {key for values in configs for key, value in values.items()
              if value != configs[0][key]}
    assert differ == STUDY_FACTORS[name]


def dry_run(name, tmp_path, monkeypatch, capsys):
    """Run study `name` training nothing. Each pretrain records its run and
    the memo's size, then draws one batch of plans through the memo as the
    arm's run would; each measure returns its position in the run order.
    Returns the rows, the measured runs, the pretrained runs with the memo
    sizes they saw, and the runs the progress lines name."""
    measured, pretrained = [], []

    def pretrain(cfg, run_dir):
        pretrained.append((run_dir.name,
                           augment.memo_plans.cache_info().currsize))
        augment.draw_plans(cfg.pipeline(), [Rng(cfg["run.seed"])], (16, 16))

    def measure(result, path):
        measured.append(path.name)
        return {"top1": float(len(measured))}

    arms = runner.STUDY_ARMS[name]
    monkeypatch.setitem(runner.STUDY_ARMS, name, lambda: [
        arm._replace(measure=measure) for arm in arms()])
    monkeypatch.setattr(runner, "pretrain", pretrain)
    rows, _ = runner.run_study(name, tmp_path)
    assert augment.memo_plans.cache_info().currsize == 0
    progress = [line.split()[3]
                for line in capsys.readouterr().out.splitlines()[:-1]]
    return rows, measured, pretrained, progress


# Each study's arms in the order they run, with the memo size each pretrain
# finds: 0 opens a group of arms that share plan inputs.
RUN_ORDER = {
    "ladder": [("rung0", 0), ("rung1", 1), ("rung2", 1), ("rung3", 1),
               ("rung4", 1), ("rung5", 0)],
    "crossover": [("moco_v2_plus_sgd", 0), ("moco_v2_plus_lars", 1),
                  ("byol_sgd", 1), ("byol_lars", 1),
                  ("moco_v2_plus_lars_rescaled.airl", None),
                  ("byol_lars_rescaled.airl", None)],
    "collapse": [("byol", 0), ("byol_no_pred_no_stopgrad", 1),
                 ("moco_v2_plus", 1)],
    "norm-divergence": [("byol_sgd", 0), ("byol_lars", 1)],
}


@pytest.mark.parametrize("name", sorted(RUN_ORDER))
def test_study_run_order_and_memo_clears(name, tmp_path, monkeypatch,
                                         capsys):
    rows, measured, pretrained, progress = dry_run(name, tmp_path,
                                                   monkeypatch, capsys)
    expected = RUN_ORDER[name]
    assert measured == progress == [run for run, _ in expected]
    assert pretrained == [(run, size) for run, size in expected
                          if size is not None]
    assert [row["top1"] for row in rows] == [
        float(i + 1) for i in range(len(rows))]


def test_aug_ablation_runs_each_rung_and_seed_together(tmp_path, monkeypatch,
                                                       capsys):
    # The frameworks of one (rung, seed) share augmentation streams and run
    # back to back, and the memo is emptied after each such group; the table
    # keeps its framework-major row order.
    kinds = ("moco_v2_plus", "s_moco_v2_plus", "byol")
    rungs = range(len(REMOVAL_ORDER) + 1)
    seeds = (0, 1, 2)
    for arm in runner.aug_ablation_arms():
        kind, rung, seed = (arm.labels[k] for k in ("framework", "rung",
                                                    "seed"))
        assert arm.run == f"{kind}_r{rung}_s{seed}"
        assert (arm.cfg["framework.kind"], arm.cfg["augment.removed"],
                arm.cfg["run.seed"]) == (
            kind, ",".join(REMOVAL_ORDER[:rung]), seed)
    rows, measured, pretrained, progress = dry_run(
        "aug-ablation", tmp_path, monkeypatch, capsys)
    order = [f"{kind}_r{rung}_s{seed}"
             for rung in rungs for seed in seeds for kind in kinds]
    assert measured == progress == order
    assert pretrained == [(run, 0 if i % 3 == 0 else 1)
                          for i, run in enumerate(order)]
    assert [(r["framework"], r["rung"], r["seed"]) for r in rows] == [
        (kind, rung, seed) for kind in kinds for rung in rungs
        for seed in seeds]
    for row in rows:
        run = f"{row['framework']}_r{row['rung']}_s{row['seed']}"
        assert row["top1"] == float(order.index(run) + 1)
        assert row["removed"] == (",".join(REMOVAL_ORDER[:row["rung"]])
                                  or "(none)")

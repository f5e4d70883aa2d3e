"""Versioned binary checkpoints with bit-exact round-trips.

Layout (all integers little-endian):

    magic "AIRL" | version u32 | metadata_len u32 | metadata UTF-8 JSON
    then repeated records:
    name_len u32 | name UTF-8 | role u8 | rank u8 | dims u64 * rank
    | payload float64 * prod(dims)

Records are written in sorted-name order and metadata JSON with sorted keys,
so save(load(save(x))) reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import encoder, frameworks
from .config import ExperimentConfig, parse_config
from .errors import CheckpointError
from .numerics import Rng

MAGIC = b"AIRL"
FORMAT_VERSION = 1
HEADER_LEN = 12  # magic, version, metadata length
REQUIRED_METADATA = ("config", "step", "total_steps")
QUEUE_METADATA = ("queue_capacity", "queue_cursor", "queue_count")

ROLE_CODES = {
    "weight": 0,
    "bias": 1,
    "norm_gain": 2,
    "norm_bias": 3,
    "stat": 4,
    "buffer": 5,
}
CODE_ROLES = {v: k for k, v in ROLE_CODES.items()}


def checkpoint_bytes(records: dict[str, tuple[str, np.ndarray]],
                     metadata: dict) -> bytes:
    """Serialize records {name: (role, array)} plus metadata."""
    meta = json.dumps(metadata, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION),
              struct.pack("<I", len(meta)), meta]
    for name in sorted(records):
        role, array = records[name]
        if role not in ROLE_CODES:
            raise CheckpointError(f"unknown role tag {role!r} for {name!r}")
        arr = np.ascontiguousarray(array, dtype="<f8")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", ROLE_CODES[role], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def parse_checkpoint_bytes(blob: bytes):
    """Inverse of checkpoint_bytes: (records, metadata)."""
    if blob[:4] != MAGIC:
        raise CheckpointError(
            f"bad magic {blob[:4]!r}; not a checkpoint file"
        )
    if len(blob) < HEADER_LEN:
        raise CheckpointError(
            f"truncated checkpoint header: {len(blob)} of {HEADER_LEN} bytes"
        )
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} "
            f"(expected {FORMAT_VERSION})"
        )
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    offset = HEADER_LEN
    if offset + meta_len > len(blob):
        raise CheckpointError(
            f"truncated checkpoint metadata: {meta_len} bytes declared, "
            f"{len(blob) - offset} present"
        )
    try:
        metadata = json.loads(blob[offset:offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint metadata: {exc}") from exc
    if not isinstance(metadata, dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
    offset += meta_len
    records: dict[str, tuple[str, np.ndarray]] = {}
    while offset < len(blob):
        try:
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            role_code, rank = struct.unpack_from("<BB", blob, offset)
            offset += 2
            dims = struct.unpack_from(f"<{rank}Q", blob, offset)
            offset += 8 * rank
            count = math.prod(dims)
            if 8 * count > len(blob) - offset:
                raise CheckpointError(
                    f"truncated checkpoint record {name!r}: {count} values "
                    f"declared, {(len(blob) - offset) // 8} present"
                )
            array = np.frombuffer(blob, dtype="<f8", count=count,
                                  offset=offset).reshape(dims).copy()
            offset += 8 * count
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"truncated checkpoint record: {exc}") from exc
        if role_code not in CODE_ROLES:
            raise CheckpointError(f"unknown role code {role_code}")
        if name in records:
            raise CheckpointError(f"duplicate checkpoint record {name!r}")
        records[name] = (CODE_ROLES[role_code], array)
    return records, metadata


@contextmanager
def open_atomic(path, mode: str, **kwargs):
    """Open a file for writing so that `path` only ever holds a complete file.

    Takes the arguments of `open`. The bytes go to `.<name>.tmp` next to
    `path`, which `os.replace` moves onto `path` in one step when the `with`
    body ends. A write that fails part-way leaves an existing file at `path`
    as it was and removes the temporary file. There is no fsync: this guards
    against failures of the process, not of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, records, metadata) -> None:
    """Write a checkpoint through `open_atomic`."""
    blob = checkpoint_bytes(records, metadata)
    with open_atomic(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        return parse_checkpoint_bytes(fh.read())


def _branch_records(prefix: str, params: encoder.EncoderParams, records) -> None:
    for name, tensor in params.tensors.items():
        records[f"{prefix}.{name}"] = (params.roles[name], tensor)
    for name, tensor in params.running.items():
        records[f"{prefix}.stat.{name}"] = ("stat", tensor)


def state_records(state: frameworks.SiameseState,
                  cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Checkpoint records and metadata for a full siamese training state."""
    records: dict[str, tuple[str, np.ndarray]] = {}
    _branch_records("student", state.student, records)
    if state.teacher is not None:
        _branch_records("teacher", state.teacher, records)
    metadata = {
        "framework": cfg["framework.kind"],
        "step": state.step,
        "total_steps": state.total_steps,
        "config": cfg.canonical_text(),
        "config_hash": cfg.config_hash(),
        "queue_capacity": 0,
        "queue_cursor": 0,
        "queue_count": 0,
    }
    if state.queue is not None:
        records["queue.data"] = ("buffer", state.queue.data)
        metadata["queue_capacity"] = state.queue.capacity
        metadata["queue_cursor"] = state.queue.cursor
        metadata["queue_count"] = state.queue.count
    return records, metadata


def save_state(path, state: frameworks.SiameseState,
               cfg: ExperimentConfig) -> None:
    records, metadata = state_records(state, cfg)
    save_checkpoint(path, records, metadata)


def _record_array(records, key: str, role: str, shape, what: str) -> np.ndarray:
    if key not in records:
        raise CheckpointError(f"checkpoint is missing {what} {key!r}")
    found, array = records[key]
    if found != role:
        raise CheckpointError(
            f"{what} {key!r} has role {found!r}, expected {role!r}"
        )
    if array.shape != shape:
        raise CheckpointError(
            f"{what} {key!r} has shape {array.shape}, expected {shape}"
        )
    return array.astype(np.float64)


def _fill_branch(prefix: str, params: encoder.EncoderParams, records) -> None:
    for name, tensor in params.tensors.items():
        params.tensors[name] = _record_array(
            records, f"{prefix}.{name}", params.roles[name], tensor.shape,
            "tensor"
        )
    for name, stat in params.running.items():
        params.running[name] = _record_array(
            records, f"{prefix}.stat.{name}", "stat", stat.shape, "statistic"
        )


def _require_metadata(metadata: dict, keys) -> None:
    missing = [key for key in keys if key not in metadata]
    if missing:
        raise CheckpointError(
            f"checkpoint metadata is missing {', '.join(missing)}"
        )


def _metadata_int(metadata: dict, key: str, low: int, high: float) -> int:
    # A JSON int (not a bool) in [low, high].
    value = metadata[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise CheckpointError(
            f"checkpoint metadata {key} must be an int, got {value!r}")
    if not low <= value <= high:
        raise CheckpointError(f"{key} {value} outside [{low}, {high}]")
    return value


def load_state(path):
    """Rebuild (state, experiment config, metadata) from a checkpoint.

    The config text decides the framework, the state's shapes and its
    queue's capacity; the records and metadata must match them. The
    metadata's `config_hash` is not checked: checkpoints written before a
    config key was retired carry the hash of their older text.
    """
    records, metadata = load_checkpoint(path)
    _require_metadata(metadata, REQUIRED_METADATA)
    if not isinstance(metadata["config"], str):
        raise CheckpointError(
            f"checkpoint metadata config must be a string, "
            f"got {metadata['config']!r}")
    total_steps = _metadata_int(metadata, "total_steps", 0, math.inf)
    step = _metadata_int(metadata, "step", 0, total_steps)
    cfg = parse_config(metadata["config"])
    kind = cfg["framework.kind"]
    if metadata.get("framework", kind) != kind:
        raise CheckpointError(
            f"framework {metadata['framework']!r} differs from the config's "
            f"framework.kind {kind!r}")
    state = frameworks.init_siamese_state(
        cfg.framework_config(), Rng(0, 0), total_steps=total_steps
    )
    state.step = step
    _fill_branch("student", state.student, records)
    if state.teacher is not None:
        _fill_branch("teacher", state.teacher, records)
    queue = state.queue
    capacity = 0 if queue is None else queue.capacity
    if queue is not None:
        _require_metadata(metadata, QUEUE_METADATA)
    if "queue_capacity" in metadata and _metadata_int(
            metadata, "queue_capacity", 0, math.inf) != capacity:
        raise CheckpointError(
            f"queue_capacity {metadata['queue_capacity']} differs from the "
            f"config's queue capacity {capacity}"
        )
    if queue is not None:
        queue.data = _record_array(records, "queue.data", "buffer",
                                   queue.data.shape, "queue buffer")
        queue.cursor = _metadata_int(metadata, "queue_cursor", 0,
                                     capacity - 1)
        queue.count = _metadata_int(metadata, "queue_count", 0, capacity)
    return state, cfg, metadata


def trainable_records(records: dict) -> dict:
    """The subset of checkpoint records that are trainable parameters."""
    return {
        name: (role, array)
        for name, (role, array) in records.items()
        if role in encoder.ROLES
    }

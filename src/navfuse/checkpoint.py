"""Self-describing versioned checkpoint container.

Layout: 8-byte magic, 4-byte LE header length, JSON header (UTF-8), then a
single little-endian float64 payload. The header records the format version,
a config snapshot, and the parameter path, shape and offset of every array in
the payload, so a reader needs nothing but this file to reconstruct the model;
float32 arrays round-trip exactly. No optimizer state is stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import config_from_dict
from .errors import CheckpointError, ConfigError, ContractError
from .pipeline import ModelState, init_pipeline

MAGIC = b"NAVFCKPT"
# a version 2 file also holds batch-norm running statistics, which no model reads
FORMAT_VERSION = 3


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]
    epoch: int = 0
    best_val_loss: float | None = None


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    entries = []
    offset = 0
    chunks = []
    for name, arr in ckpt.params.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        chunks.append(arr.ravel())
    header = {
        "version": FORMAT_VERSION,
        "config": ckpt.config,
        "epoch": ckpt.epoch,
        "best_val_loss": ckpt.best_val_loss,
        "arrays": entries,
        "total_floats": offset,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = (np.concatenate(chunks) if chunks else np.empty(0, dtype="<f8"))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(payload.astype("<f8").tobytes())


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4 or raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    pos = len(MAGIC)
    hlen = int.from_bytes(raw[pos:pos + 4], "little")
    pos += 4
    if len(raw) < pos + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos:pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from None
    pos += hlen
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r} "
                              f"(reader supports {FORMAT_VERSION})")
    missing = sorted({"arrays", "config", "epoch", "best_val_loss"} - set(header))
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    total = header.get("total_floats")
    if not _is_count(total) or len(raw) - pos != 8 * total:
        raise CheckpointError(f"{path}: payload has {len(raw) - pos} bytes, "
                              f"header promises {total!r} floats")
    if not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: header arrays is not a list")
    payload = np.frombuffer(raw, dtype="<f8", offset=pos)
    params: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(_is_count(d) for d in entry["shape"])
                and _is_count(entry.get("offset"))):
            raise CheckpointError(f"{path}: array entry {entry!r} needs a name, "
                                  f"a shape of counts and an integer offset")
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        n = int(np.prod(shape)) if shape else 1
        if name in params:
            raise CheckpointError(f"{path}: array {name!r} is named twice")
        if offset > total - n:
            raise CheckpointError(f"{path}: array {name!r} runs past the payload")
        params[name] = payload[offset:offset + n].reshape(shape).copy()
    return Checkpoint(config=header["config"], params=params, epoch=header["epoch"],
                      best_val_loss=header["best_val_loss"])


def load_model(path: str) -> ModelState:
    """The model a checkpoint holds, built from its own config snapshot.

    A snapshot that is no valid config, or arrays that do not match the
    model it describes, raise CheckpointError: both are file content.
    """
    ckpt = load_checkpoint(path)
    try:
        model = init_pipeline(config_from_dict(ckpt.config).pipeline)
    except ConfigError as e:
        raise CheckpointError(f"{path}: config snapshot: {e}") from None
    try:
        model.params.load_state_dict(ckpt.params)
    except ContractError as e:
        raise CheckpointError(f"{path}: checkpoint does not match model: {e}") from None
    return model

"""Self-describing versioned checkpoint container.

Layout: 8-byte magic, 4-byte LE header length, JSON header (UTF-8), then a
single little-endian float64 payload. The header records the format version,
a config snapshot, and the name/shape/offset of every array in the payload,
so a reader needs nothing but this file to reconstruct the model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError
from .optim import AdamState
from .params import ParamRegistry

MAGIC = b"NAVFCKPT"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    adam: AdamState | None = None
    epoch: int = 0
    best_val_loss: float | None = None


def _collect(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for k, v in ckpt.params.items():
        arrays["param/" + k] = v
    for k, v in ckpt.buffers.items():
        arrays["buffer/" + k] = v
    if ckpt.adam is not None:
        for k, v in ckpt.adam.m.items():
            arrays["adam.m/" + k] = v
        for k, v in ckpt.adam.v.items():
            arrays["adam.v/" + k] = v
    return arrays


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    arrays = _collect(ckpt)
    entries = []
    offset = 0
    chunks = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        chunks.append(arr.ravel())
    header = {
        "version": FORMAT_VERSION,
        "config": ckpt.config,
        "epoch": ckpt.epoch,
        "best_val_loss": ckpt.best_val_loss,
        "adam": None if ckpt.adam is None else {
            "beta1": ckpt.adam.beta1, "beta2": ckpt.adam.beta2,
            "eps": ckpt.adam.eps, "t": ckpt.adam.t,
        },
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
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r} "
                              f"(reader supports {FORMAT_VERSION})")
    total = header.get("total_floats")
    if not isinstance(total, int) or len(raw) - pos != 8 * total:
        raise CheckpointError(f"{path}: payload has {len(raw) - pos} bytes, "
                              f"header promises {total!r} floats")
    payload = np.frombuffer(raw, dtype="<f8", offset=pos)
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    stores = {"param": params, "buffer": buffers, "adam.m": adam_m, "adam.v": adam_v}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        name, offset = entry["name"], entry["offset"]
        kind, _, key = name.partition("/")
        if kind not in stores:
            raise CheckpointError(f"{path}: array {name!r} has unknown kind {kind!r}")
        if not 0 <= offset <= total - n:
            raise CheckpointError(f"{path}: array {name!r} runs past the payload")
        stores[kind][key] = payload[offset:offset + n].reshape(shape).copy()
    adam = None
    if header.get("adam") is not None:
        a = header["adam"]
        adam = AdamState(beta1=a["beta1"], beta2=a["beta2"], eps=a["eps"],
                         t=a["t"], m=adam_m, v=adam_v)
    return Checkpoint(config=header["config"], params=params, buffers=buffers,
                      adam=adam, epoch=header["epoch"],
                      best_val_loss=header["best_val_loss"])


def restore_model(ckpt: Checkpoint, params: ParamRegistry,
                  buffers: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into a live registry/buffer set, shape-checked."""
    try:
        params.load_state_dict(ckpt.params)
    except Exception as e:
        raise CheckpointError(f"checkpoint does not match model: {e}") from None
    if set(ckpt.buffers) != set(buffers):
        raise CheckpointError("checkpoint buffer names do not match model")
    for k, v in ckpt.buffers.items():
        if v.shape != buffers[k].shape:
            raise CheckpointError(f"buffer shape mismatch for {k!r}")
        buffers[k][...] = v

"""Binary checkpoint format.

Layout (little-endian throughout):
    magic "HAFX" | u32 version | u32 meta_len | meta JSON (utf-8)
    | u32 n_tensors | per tensor: u16 name_len, name, u8 rank,
      u32 dims..., float32 data

Tensors are stored float32; round trips are bit-exact at that precision.
The meta block carries the model config echo, feature-map/LoRA metadata,
and the stage tag (base / post-transfer / post-finetune).
"""

import contextlib
import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .attention import Activation
from .errors import (
    BadMagicError,
    CheckpointError,
    HafxError,
    TruncatedFileError,
    VersionMismatchError,
)
from .model import Model, ModelConfig, init_model

MAGIC = b"HAFX"
VERSION = 1
STAGES = ("base", "post-transfer", "post-finetune")


def _read_exact(f, n):
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"expected {n} bytes, got {len(buf)}")
    return buf


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """`open(<path>.tmp, mode, **kwargs)`; the file replaces `path` when the
    block ends.

    If the block raises, `path` keeps its earlier contents and the
    temporary file is removed.
    """
    tmp = f"{path}.tmp"
    try:
        f = open(tmp, mode, **kwargs)
    except OSError as e:  # name the path the caller gave, not its temporary file
        raise OSError(e.errno, e.strerror, str(path)) from e
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, tensors, meta, stage):
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}")
    meta = dict(meta, stage=stage)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Returns (tensors: dict[str, float32 array], meta: dict)."""
    with open(path, "rb") as f:
        if _read_exact(f, 4) != MAGIC:
            raise BadMagicError(f"{path}: bad magic")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != VERSION:
            raise VersionMismatchError(f"{path}: version {version}, expected {VERSION}")
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4))
        try:
            meta = json.loads(_read_exact(f, meta_len).decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
            raise CheckpointError(f"{path}: meta block is not UTF-8 JSON: {e}") from e
        if not isinstance(meta, dict) or meta.get("stage") not in STAGES:
            raise CheckpointError(f"{path}: meta block has no stage in {STAGES}")
        (n,) = struct.unpack("<I", _read_exact(f, 4))
        tensors = {}
        for _ in range(n):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2))
            name = _read_exact(f, name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", _read_exact(f, 1))
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
            size = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(_read_exact(f, 4 * size), dtype="<f4")
            tensors[name] = data.reshape(dims).copy()
    return tensors, meta


def save_model(path, model: Model, stage):
    meta = {"config": asdict(model.cfg)}
    if model.phi_meta is not None:
        d_prime, act = model.phi_meta
        meta["phi"] = {"d_prime": d_prime, "activation": act.value}
    if model.lora_meta is not None:
        targets, rank, alpha = model.lora_meta
        meta["lora"] = {"targets": list(targets), "rank": rank, "alpha": alpha}
    tensors = {n: p.data for n, p in model.named_parameters().items()}
    save_checkpoint(path, tensors, meta, stage)


def load_model(path):
    """Rebuild a Model (float64 working precision) from a checkpoint.

    The meta block must describe a model, and every tensor must belong to
    that model, with the shape of its parameter and finite values.
    """
    tensors, meta = load_checkpoint(path)
    try:
        model = init_model(ModelConfig(**meta["config"]))
        if "phi" in meta:
            model.attach_feature_maps(
                meta["phi"]["d_prime"], Activation(meta["phi"]["activation"])
            )
        if "lora" in meta:
            lora = meta["lora"]
            model.lora_attach(tuple(lora["targets"]), lora["rank"], lora["alpha"])
    except (HafxError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: meta block does not describe a model: {e!r}") from e
    params = model.named_parameters()
    missing = set(params) - set(tensors)
    if missing:
        raise TruncatedFileError(f"{path}: missing tensors {sorted(missing)[:4]}")
    unknown = sorted(set(tensors) - set(params))
    if unknown:
        raise CheckpointError(f"{path}: tensor {unknown[0]!r} is not a parameter of the model")
    for name, p in params.items():
        arr = tensors[name]
        if arr.shape != p.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {p.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        p.data = arr.astype(np.float64)
    return model, meta["stage"]

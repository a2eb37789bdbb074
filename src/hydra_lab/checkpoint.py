"""Checkpoint serialization.

Binary layout (all little-endian):
  magic   8 bytes  b"HYDRALAB"
  version u32      format version (currently 2)
  meta    u32 len + UTF-8 JSON: {"kind": ..., "config": {...}}
  count   u32      number of parameter records
  record  u32 name len + UTF-8 name
          u32 ndim + ndim * i64 dims
          raw float64 data, row-major
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .model import BUILDERS, ModelConfig
from .tensor import UsageError

MAGIC = b"HYDRALAB"
VERSION = 2


def save_checkpoint(path, kind: str, config: ModelConfig, named_params) -> None:
    """Write atomically: a temp file in the same directory, then a rename,
    so a failed save leaves any earlier file at ``path`` as it was."""
    if kind not in BUILDERS:
        raise UsageError(f"unknown model kind {kind!r}; choose from {sorted(BUILDERS)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = json.dumps({"kind": kind, "config": config.to_dict()}).encode("utf-8")
    named_params = list(named_params)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<I", len(meta)))
            f.write(meta)
            f.write(struct.pack("<I", len(named_params)))
            for name, p in named_params:
                nb = name.encode("utf-8")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                dims = p.data.shape
                f.write(struct.pack("<I", len(dims)))
                for dim in dims:
                    f.write(struct.pack("<q", dim))
                f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already when the rename succeeded


def _read(f, n: int, path, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise UsageError(f"{path}: truncated checkpoint (short read in {what})")
    return buf


def _parse_meta(blob: bytes, path):
    """(kind, ModelConfig) from the JSON header; anything else is a
    ``UsageError`` that names the file."""
    try:
        meta = json.loads(blob.decode("utf-8"))
        kind, config = meta["kind"], dict(meta["config"])
    except (ValueError, TypeError, KeyError) as e:
        raise UsageError(f"{path}: corrupt checkpoint metadata ({type(e).__name__}: {e})") from None
    if not isinstance(kind, str) or kind not in BUILDERS:
        raise UsageError(f"{path}: unknown model kind {kind!r}")
    keys = {f.name for f in fields(ModelConfig)}
    if set(config) != keys:
        raise UsageError(f"{path}: checkpoint config keys differ from ModelConfig: "
                         f"missing={sorted(keys - set(config))} unknown={sorted(set(config) - keys)}")
    return kind, ModelConfig.from_dict(config)


def load_checkpoint(path):
    """Returns (kind, ModelConfig, {name: ndarray})."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise UsageError(f"{path} is not a checkpoint file")
        (version,) = struct.unpack("<I", _read(f, 4, path, "header"))
        if version != VERSION:
            raise UsageError(f"{path}: unsupported checkpoint version {version} (expected {VERSION})")
        (mlen,) = struct.unpack("<I", _read(f, 4, path, "header"))
        kind, config = _parse_meta(_read(f, mlen, path, "header"), path)
        (count,) = struct.unpack("<I", _read(f, 4, path, "header"))
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read(f, 4, path, "name"))
            name = _read(f, nlen, path, "name").decode("utf-8")
            (ndim,) = struct.unpack("<I", _read(f, 4, path, f"dims of {name}"))
            dims = struct.unpack(f"<{ndim}q", _read(f, 8 * ndim, path, f"dims of {name}"))
            n = int(np.prod(dims)) if dims else 1
            arrays[name] = np.frombuffer(_read(f, 8 * n, path, f"data of {name}"), dtype="<f8").reshape(dims).copy()
    return kind, config, arrays


def restore_model(path):
    """Rebuild a model from a checkpoint: (config, params); the model
    reports its kind as ``params.kind``."""
    kind, config, arrays = load_checkpoint(path)
    params = BUILDERS[kind](config)
    named = dict(params.parameters())
    missing = set(named) - set(arrays)
    extra = set(arrays) - set(named)
    if missing or extra:
        raise UsageError(f"checkpoint mismatch: missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}")
    for name, arr in arrays.items():
        if named[name].data.shape != arr.shape:
            raise UsageError(f"shape mismatch for {name}")
        named[name].data[...] = arr
    return config, params

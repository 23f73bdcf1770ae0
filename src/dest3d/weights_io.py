"""Weight serialization: one flat little-endian binary blob plus a JSON
manifest mapping each array name to its shape, dtype, and byte offset.

flatten_weights walks the weight dataclasses generically (nested
dataclasses join names with '.', list items with their index), so the
container stays schema-free: unflatten_weights fills the arrays that walk
finds in a freshly initialized bundle of the same configuration, in place.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .numerics import require_finite
from .sceneio import atomic_write_bytes

__all__ = [
    "flatten_weights",
    "unflatten_weights",
    "save_weights",
    "load_weights",
    "manifest_path",
]

def _walk(obj, prefix: str, out: dict[str, np.ndarray]) -> None:
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            name = f"{prefix}.{f.name}" if prefix else f.name
            if value is None or isinstance(value, (int, bool, str)):
                continue  # structural config, not a weight
            _walk(value, name, out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _walk(item, f"{prefix}.{i}", out)
    elif isinstance(obj, np.ndarray):
        out[prefix] = obj
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} at {prefix!r}")


def flatten_weights(weights) -> dict[str, np.ndarray]:
    """Name -> array view of every tensor reachable from a weight bundle."""
    out: dict[str, np.ndarray] = {}
    _walk(weights, "", out)
    return out


def unflatten_weights(weights, arrays: dict[str, np.ndarray]) -> None:
    """Fill an initialized weight bundle in place from a flat name map.

    Every array must be finite and have its template array's shape; the
    first that does not is named in the error.
    """
    template = flatten_weights(weights)
    missing = sorted(set(template) - set(arrays))
    extra = sorted(set(arrays) - set(template))
    if missing or extra:
        raise ValueError(f"weight name mismatch: missing={missing[:4]} extra={extra[:4]}")
    for name, target in template.items():
        value = require_finite(f"weight {name}", arrays[name])
        if target.shape != value.shape:
            raise ValueError(f"shape mismatch at {name}: {target.shape} vs {value.shape}")
        target[...] = value


def manifest_path(bin_path: str | Path) -> Path:
    return Path(bin_path).with_suffix(".manifest.json")


def save_weights(bin_path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write the arrays back-to-back (little-endian) plus the manifest."""
    entries = {}
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        le = arr.astype(arr.dtype.newbyteorder("<")) if arr.dtype.byteorder == ">" else arr
        payload = np.ascontiguousarray(le).tobytes()
        entries[name] = {
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "offset": offset,
            "nbytes": len(payload),
        }
        blobs.append(payload)
        offset += len(payload)
    atomic_write_bytes(bin_path, b"".join(blobs))
    atomic_write_bytes(manifest_path(bin_path),
                       (json.dumps(entries, indent=1, sort_keys=True) + "\n").encode())


def load_weights(bin_path: str | Path) -> dict[str, np.ndarray]:
    raw = Path(bin_path).read_bytes()
    manifest = json.loads(manifest_path(bin_path).read_text())
    if not isinstance(manifest, dict):
        raise ValueError("weight manifest must be a JSON object of entries")
    out = {}
    for name, meta in manifest.items():
        try:
            dtype = np.dtype(meta["dtype"]).newbyteorder("<")
            shape, offset, nbytes = meta["shape"], meta["offset"], meta["nbytes"]
            if not isinstance(shape, list) or any(type(n) is not int for n in shape):
                raise TypeError(f"shape {shape!r} is not a list of ints")
            if type(offset) is not int or type(nbytes) is not int:
                raise TypeError(f"offset {offset!r} and nbytes {nbytes!r} must be ints")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"weight manifest entry {name!r}: bad field {exc}") from None
        count = math.prod(shape)
        if dtype.kind != "f":
            raise ValueError(f"weight manifest entry {name!r}: dtype {meta['dtype']!r} "
                             f"is not a floating-point type")
        if count < 0 or nbytes != count * dtype.itemsize:
            raise ValueError(f"weight manifest entry {name!r}: nbytes {nbytes} != "
                             f"{count} x {dtype.itemsize} bytes of shape {shape}")
        if min(shape, default=0) < 0:
            raise ValueError(f"weight manifest entry {name!r}: shape {shape} "
                             f"has a negative dimension")
        if not 0 <= offset <= len(raw) - nbytes:
            raise ValueError(f"weight manifest entry {name!r}: bytes [{offset}, "
                             f"{offset + nbytes}) lie outside the {len(raw)}-byte file")
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        out[name] = arr.reshape(shape).astype(np.dtype(meta["dtype"]))
    return out

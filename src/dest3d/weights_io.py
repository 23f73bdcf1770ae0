"""Weight bundles as flat name -> array maps, the form sceneio's .npz holds.

flatten_weights walks the weight dataclasses generically (nested
dataclasses join names with '.', list items with their index), so the
file stays schema-free: unflatten_weights fills and checks the arrays
that walk finds in a freshly initialized bundle of the same configuration.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .numerics import require_finite

__all__ = ["flatten_weights", "unflatten_weights"]


def _walk(obj, prefix: str, out: dict[str, np.ndarray]) -> None:
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            name = f"{prefix}.{f.name}" if prefix else f.name
            if value is not None:  # e.g. a bias-free linear map
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

    Every array must be finite and have its template array's shape, and a
    transition rate (a_vec) must be <= 0; the first that is not is named in
    the error.
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
        # a positive scan transition rate makes exp(delta * a) overflow
        if name.endswith(".a_vec") and (value > 0).any():
            raise ValueError(f"weight {name} must be <= 0 (a scan transition rate), "
                             f"got {float(value.max()):g}")
        target[...] = value

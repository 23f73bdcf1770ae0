"""Point-cloud and weight files, and the ground-truth box sidecar.

Binary clouds and weights share one container: an uncompressed .npz of
named floating-point arrays, written by save_npz and read back, without
pickle, by load_npz. A cloud holds "positions" (M, 3) and optionally
"colors" (M, 3), both float64 as Scene holds them.

Text format: one point per line, 3 or 6 whitespace-separated decimals,
'#' starts a comment. Boxes travel in a JSON sidecar next to the cloud.
All writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .geometry import Box3D

__all__ = [
    "save_npz",
    "load_npz",
    "write_text_points",
    "read_text_points",
    "read_points",
    "write_boxes_json",
    "read_boxes_json",
    "boxes_sidecar_path",
    "atomic_write_bytes",
]

_ZIP_SIGNATURES = (b"PK\x03\x04", b"PK\x05\x06")  # a local file header, an empty archive


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write-temp-then-rename so interrupted runs never leave truncated files.
    A failure leaves no temp file, and an OSError names path, not the temp file."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def save_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write the arrays as one uncompressed .npz archive, in one rename."""
    if {"file", "allow_pickle"} & set(arrays):
        raise ValueError("'file' and 'allow_pickle' are np.savez parameters, not array names")
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def load_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Name -> array map of an .npz file, read without pickle. A file or
    entry that is not an .npz of float arrays is refused by one ValueError
    naming the path; only MemoryError (a huge header shape) passes."""
    raw = Path(path).read_bytes()  # so an OSError is the file's, not a bad zip offset's
    try:
        if not raw.startswith(_ZIP_SIGNATURES):  # np.load would try .npy, pickle
            raise ValueError("not a zip archive")
        arrays = dict(np.load(io.BytesIO(raw), allow_pickle=False).items())
    except MemoryError:
        raise
    except Exception as exc:  # numpy and zipfile raise a dozen types on bad bytes
        reason = str(exc) or type(exc).__name__
        raise ValueError(f"{path}: not an .npz file ({reason})") from None
    for name, arr in arrays.items():
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind == "f"):
            kind = f"dtype {arr.dtype}" if isinstance(arr, np.ndarray) else "not an .npy member"
            raise ValueError(f"{path}: entry {name!r} is not a floating-point array ({kind})")
    return arrays


def write_text_points(path: str | Path, positions: np.ndarray,
                      colors: np.ndarray | None = None) -> None:
    positions = np.asarray(positions, dtype=np.float64)
    lines = ["# x y z" + (" r g b" if colors is not None else "")]
    for i in range(positions.shape[0]):
        vals = list(positions[i])
        if colors is not None:
            vals += list(colors[i])
        lines.append(" ".join(f"{v:.9g}" for v in vals))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_text_points(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:  # a binary file that is not an .npz
        raise ValueError(f"{path}: {exc}") from None
    positions, colors = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) not in (3, 6):
            raise ValueError(f"{path}:{lineno}: expected 3 or 6 numbers, got {len(fields)}")
        try:
            vals = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        positions.append(vals[:3])
        if len(fields) == 6:
            colors.append(vals[3:])
    if not positions:
        raise ValueError(f"{path}: no points found")
    if colors and len(colors) != len(positions):
        raise ValueError(f"{path}: mixed 3- and 6-column rows")
    pos = np.asarray(positions, dtype=np.float64)
    col = np.asarray(colors, dtype=np.float64) if colors else None
    return pos, col


def read_points(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Dispatch on the zip signature: an .npz of positions and optionally
    colors, else whitespace text."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head not in _ZIP_SIGNATURES:
        return read_text_points(path)
    arrays = load_npz(path)
    missing = sorted({"positions"} - set(arrays))
    extra = sorted(set(arrays) - {"positions", "colors"})
    if missing or extra:
        raise ValueError(f"{path}: a cloud .npz holds 'positions' and optionally 'colors', "
                         f"missing={missing} extra={extra[:4]}")
    return arrays["positions"], arrays.get("colors")


def boxes_sidecar_path(cloud_path: str | Path) -> Path:
    return Path(cloud_path).with_suffix(".boxes.json")


def write_boxes_json(path: str | Path, boxes: list[Box3D]) -> None:
    doc = [
        {
            "center": [float(v) for v in b.center],
            "size": [float(v) for v in b.size],
            "yaw": float(b.yaw),
            "class_id": b.class_id,
        }
        for b in boxes
    ]
    atomic_write_bytes(path, (json.dumps(doc, indent=2) + "\n").encode())


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_boxes_json(path: str | Path) -> list[Box3D]:
    """Boxes from a JSON list of {center, size, yaw, class_id} objects; a
    malformed entry is refused with its index."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSON syntax or text decoding error
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, list):
        raise ValueError(f"{path}: box sidecar must be a JSON list of box objects")
    boxes = []
    for i, d in enumerate(doc):
        where = f"{path}: box {i}"
        if not isinstance(d, dict):
            raise ValueError(f"{where}: expected an object, got {d!r}")
        for key in ("center", "size"):
            v = d.get(key)
            if not (isinstance(v, list) and len(v) == 3 and all(map(_is_number, v))):
                raise ValueError(f"{where}: {key} must be a list of 3 numbers")
        if not _is_number(d.get("yaw")):
            raise ValueError(f"{where}: yaw must be a number")
        class_id = d.get("class_id")
        if class_id is not None and (isinstance(class_id, bool) or not isinstance(class_id, int)):
            raise ValueError(f"{where}: class_id must be an int or null")
        try:
            boxes.append(Box3D(center=np.array(d["center"]), size=np.array(d["size"]),
                               yaw=d["yaw"], class_id=class_id))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return boxes

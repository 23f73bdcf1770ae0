"""Point-cloud file formats and the ground-truth box sidecar.

Binary layout (little-endian):
    8 bytes  magic "DESTPC1\\0"
    u32      number of points M
    u8       has_color flag, 0 or 1
    3 bytes  reserved, must be zero
    M*3 f32  positions
    M*3 f32  colors, only when has_color

A file must be exactly as long as its header declares, 16 + M*12 bytes, or
16 + M*24 with colors; a shorter or longer one is refused, so colors behind
a has_color = 0 header are never silently dropped.

Text format: one point per line, 3 or 6 whitespace-separated decimals,
'#' starts a comment. Boxes travel in a JSON sidecar next to the cloud.
All writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .geometry import Box3D

__all__ = [
    "MAGIC",
    "write_destpc",
    "read_destpc",
    "write_text_points",
    "read_text_points",
    "read_points",
    "write_boxes_json",
    "read_boxes_json",
    "boxes_sidecar_path",
    "atomic_write_bytes",
]

MAGIC = b"DESTPC1\x00"


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write-temp-then-rename so interrupted runs never leave truncated files."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _as_f32(name: str, values: np.ndarray) -> np.ndarray:
    """values as little-endian float32, refused unless every entry is finite
    there; a value past float32's range would otherwise be written as inf."""
    with np.errstate(over="ignore"):
        out = np.asarray(values, dtype="<f4")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite in float32 (DESTPC1 stores float32, "
                         f"|value| <= {np.finfo(np.float32).max:.4g})")
    return out


def write_destpc(path: str | Path, positions: np.ndarray,
                 colors: np.ndarray | None = None) -> None:
    """Write a DESTPC1 file; positions or colors that are not finite in
    float32 are refused before anything is written."""
    positions = _as_f32("positions", positions)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (M, 3)")
    m = positions.shape[0]
    parts = [MAGIC, struct.pack("<IB3x", m, 1 if colors is not None else 0),
             positions.tobytes()]
    if colors is not None:
        colors = _as_f32("colors", colors)
        if colors.shape != positions.shape:
            raise ValueError("colors must be (M, 3)")
        parts.append(colors.tobytes())
    atomic_write_bytes(path, b"".join(parts))


def read_destpc(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a DESTPC1 file")
    m, has_color, reserved = struct.unpack_from("<IB3s", raw, 8)
    if has_color not in (0, 1):
        raise ValueError(f"{path}: has_color flag must be 0 or 1, got {has_color}")
    if reserved != bytes(3):
        raise ValueError(f"{path}: reserved header bytes must be zero, got {reserved.hex(' ')}")
    offset = 16
    size = offset + m * 12 * (1 + has_color)
    if len(raw) != size:
        raise ValueError(f"{path}: the header declares {size} bytes, the file has {len(raw)}")
    positions = np.frombuffer(raw, dtype="<f4", count=m * 3, offset=offset)
    positions = positions.reshape(m, 3).astype(np.float64)
    colors = None
    if has_color:
        colors = np.frombuffer(raw, dtype="<f4", count=m * 3, offset=offset + m * 12)
        colors = colors.reshape(m, 3).astype(np.float64)
    return positions, colors


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
    positions, colors = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
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
    """Dispatch on the magic header: binary DESTPC1 or whitespace text."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == MAGIC:
        return read_destpc(path)
    return read_text_points(path)


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

"""Rotated 3D boxes, their derived quantities, and synthetic scene generation.

Boxes are center/size/yaw with yaw about the z axis; axis-aligned boxes are
the yaw=0 special case. The canonical vertex order iterates corner
signs with z fastest, then y, then x, before the yaw rotation is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import PrngStream, require_finite

__all__ = [
    "Box3D",
    "Scene",
    "box_vertices",
    "circumscribed_radius",
    "box_local_coords",
    "point_in_box",
    "farthest_point_sampling",
    "synth_scene",
]

# Corner sign patterns, z fastest then y then x.
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    dtype=np.float64,
)


def normalize_yaw(yaw: float) -> float:
    """Wrap into (-pi, pi]."""
    y = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


@dataclass
class Box3D:
    """Rotated 3D bounding box: center (m), full extents (m), yaw (rad)."""

    center: np.ndarray
    size: np.ndarray
    yaw: float = 0.0
    class_id: int | None = None

    def __post_init__(self):
        self.center = require_finite("center", np.asarray(self.center, dtype=np.float64))
        self.size = require_finite("size", np.asarray(self.size, dtype=np.float64))
        if self.center.shape != (3,) or self.size.shape != (3,):
            raise ValueError("center and size must be 3-vectors")
        if not (self.size > 0).all():
            raise ValueError(f"box size must be positive, got {self.size}")
        self.yaw = normalize_yaw(float(require_finite("yaw", self.yaw)))

    def rotation(self) -> np.ndarray:
        """World-from-local rotation about z."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class Scene:
    """M scene points with features, plus ground-truth boxes."""

    positions: np.ndarray
    features: np.ndarray
    colors: np.ndarray | None = None
    gt_boxes: list[Box3D] = field(default_factory=list)

    def __post_init__(self):
        self.positions = require_finite("positions", np.asarray(self.positions, dtype=np.float64))
        self.features = require_finite("features", np.asarray(self.features, dtype=np.float64))
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (M, 3)")
        if self.positions.shape[0] < 1:
            raise ValueError("scene needs at least one point")
        if self.features.shape[0] != self.positions.shape[0]:
            raise ValueError("features first dim must match number of points")
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.float64)
            if self.colors.shape != self.positions.shape:
                raise ValueError("colors must be (M, 3)")

    @property
    def num_points(self) -> int:
        return self.positions.shape[0]


def box_vertices(box: Box3D) -> np.ndarray:
    """Eight corners, canonical sign order, rotated by yaw and translated."""
    local = _CORNER_SIGNS * (box.size / 2.0)
    return local @ box.rotation().T + box.center


def circumscribed_radius(box: Box3D) -> float:
    """Radius of the sphere through all eight vertices (yaw-invariant)."""
    return 0.5 * float(np.linalg.norm(box.size))


def box_local_coords(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Points in the box's yaw-aligned frame, scaled so faces sit at +/-1."""
    points = np.asarray(points, dtype=np.float64)
    local = (points - box.center) @ box.rotation()
    return local / (box.size / 2.0)


def point_in_box(point: np.ndarray, box: Box3D) -> bool:
    """True iff every box-local coordinate lies in [-1, 1]."""
    local = box_local_coords(np.asarray(point, dtype=np.float64)[None, :], box)[0]
    return bool((np.abs(local) <= 1.0).all())


def points_in_box(points: np.ndarray, box: Box3D, tol: float = 0.0) -> np.ndarray:
    """Vectorized point_in_box, returns a boolean mask of length M.

    tol widens the acceptance band so exactly-on-boundary points survive the
    local-frame round trip.
    """
    local = box_local_coords(points, box)
    return (np.abs(local) <= 1.0 + tol).all(axis=1)


def farthest_point_sampling(positions: np.ndarray, k: int, start: int = 0) -> list[int]:
    """Greedy max-min sampling of k point indices.

    Each pick maximizes the minimum distance to the already-chosen set; ties
    resolve to the lowest index (argmax takes the first maximum).
    """
    positions = np.asarray(positions, dtype=np.float64)
    m = positions.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    if not 0 <= start < m:
        raise ValueError(f"start must be in [0, {m}), got {start}")
    chosen = [start]
    min_d2 = ((positions - positions[start]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        d2 = ((positions - positions[nxt]) ** 2).sum(axis=1)
        np.minimum(min_d2, d2, out=min_d2)
    return chosen


def _sample_box(stream: PrngStream, extent: float) -> Box3D:
    half = extent / 2.0
    max_size = min(1.2, extent / 3.0)
    size = stream.uniform((3,), 0.3 * max_size, max_size)
    margin = np.linalg.norm(size) / 2.0
    lo, hi = -half + margin, half - margin
    if hi <= lo:
        center = np.zeros(3)
    else:
        center = stream.uniform((3,), lo, hi)
    yaw = stream.uniform((), -math.pi, math.pi)
    return Box3D(center=center, size=size, yaw=float(yaw))


def _sample_surface_points(stream: PrngStream, box: Box3D, n: int) -> np.ndarray:
    """Uniform samples on the box surface, face area weighted."""
    sx, sy, sz = box.size
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    cdf = np.cumsum(areas / areas.sum())
    u = stream.uniform((n,))
    face = np.searchsorted(cdf, u)
    local = stream.uniform((n, 3), -1.0, 1.0)
    axis = face // 2
    sign = np.where(face % 2 == 0, -1.0, 1.0)
    local[np.arange(n), axis] = sign
    world = (local * (box.size / 2.0)) @ box.rotation().T + box.center
    return world


def synth_scene(num_boxes: int = 3, points_per_box: int = 128,
                noise_points: int = 256, extent: float = 6.0,
                seed: int = 0, feature_dim: int = 32) -> Scene:
    """Synthetic room: boxes with surface-sampled points plus uniform noise.

    Deterministic for a given seed. Features are drawn from the seeded stream
    as a stand-in for encoder output.
    """
    if num_boxes < 0 or points_per_box < 0 or noise_points < 0:
        raise ValueError("counts must be non-negative")
    if not (math.isfinite(extent) and extent > 0):
        raise ValueError(f"extent must be finite and positive, got {extent}")
    total = num_boxes * points_per_box + noise_points
    if total == 0:
        raise ValueError("scene would contain zero points")
    stream = PrngStream(seed)
    boxes = [_sample_box(stream, extent) for _ in range(num_boxes)]
    chunks = []
    for box in boxes:
        if points_per_box:
            chunks.append(_sample_surface_points(stream, box, points_per_box))
    if noise_points:
        chunks.append(stream.uniform((noise_points, 3), -extent / 2.0, extent / 2.0))
    positions = np.concatenate(chunks, axis=0)
    features = stream.normal((total, feature_dim), 0.0, 1.0)
    colors = stream.uniform((total, 3), 0.0, 1.0)
    return Scene(positions=positions, features=features, colors=colors, gt_boxes=boxes)

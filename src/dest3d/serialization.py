"""Hilbert space-filling-curve serialization of point clouds.

Points are quantized onto a 2^bits cubic grid, each cell is mapped to its
position along the 3D Hilbert curve, and points are stable-sorted by that
code. Six axis-priority variants (xyz ... zyx) reorder which coordinate the
curve consumes first; cycling them across decoder layers gives each layer a
different 1D view of the same cloud.

The coordinate-to-index transform is Skilling's bit-manipulation algorithm,
vectorized over points without per-point branches. Its contract, exhaustively
tested: a bijection onto [0, 2^(3 bits)) whose consecutive codes are grid
neighbors at L1 distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import require_finite

__all__ = [
    "AXIS_ORDERS",
    "SerializationOrder",
    "hilbert_indices",
    "serialize",
    "order_for_layer",
    "locality_score",
    "bounds_from_points",
]

AXIS_ORDERS = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")


@dataclass(frozen=True)
class SerializationOrder:
    """Axis priority tag plus grid resolution (2^bits cells per axis)."""

    axis_order: str = "xyz"
    bits: int = 9

    def __post_init__(self):
        if self.axis_order not in AXIS_ORDERS:
            raise ValueError(f"unknown axis order {self.axis_order!r}")
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must be in [1, 16], got {self.bits}")


def hilbert_indices(cells: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert codes for an (M, 3) array of non-negative cell coordinates.

    Skilling's transform: undo the excess rotations top bit down, Gray-encode
    across axes, then interleave the transposed bits most significant first.
    The coordinates are held as (3, M) uint64 rows. Each per-point branch is
    an all-ones/zero mask applied with &, not a boolean index, and every step
    writes into two reused (M,) rows instead of allocating temporaries.
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    cells = np.asarray(cells)
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise ValueError("cells must be (M, 3)")
    if cells.min(initial=0) < 0 or cells.max(initial=0) >= (1 << bits):
        raise ValueError(f"cell coordinates must lie in [0, 2^{bits})")
    x = cells.T.astype(np.uint64, order="C")
    mask, t = np.empty_like(x[0]), np.empty_like(x[0])
    one = np.uint64(1)
    for b in range(bits - 1, 0, -1):
        shift = np.uint64(b)
        p = (one << shift) - one
        # where bit b of axis i is set, invert the low bits of axis 0;
        # elsewhere swap the low bits of axes 0 and i
        for i in range(3):
            np.right_shift(x[i], shift, out=mask)
            mask &= one
            mask -= one  # all ones where the bit is clear
            np.bitwise_xor(x[0], x[i], out=t)
            t &= p
            t &= mask
            np.invert(mask, out=mask)
            mask &= p
            mask |= t
            x[0] ^= mask
            x[i] ^= t
    x[1] ^= x[0]
    x[2] ^= x[1]
    t.fill(0)
    for b in range(bits - 1, 0, -1):
        shift = np.uint64(b)
        np.right_shift(x[2], shift, out=mask)
        mask &= one
        np.negative(mask, out=mask)  # all ones where the bit is set
        mask &= (one << shift) - one
        t ^= mask
    x ^= t
    codes = np.zeros_like(t)
    for b in range(bits - 1, -1, -1):
        for i in range(3):
            np.right_shift(x[i], np.uint64(b), out=mask)
            mask &= one
            codes <<= one
            codes |= mask
    return codes


def bounds_from_points(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis min/max, padded by 1e-9 on flat axes so max > min on each."""
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    flat = hi - lo <= 0
    hi = hi + np.where(flat, 1e-9, 0.0)
    return lo, hi


def serialize(positions: np.ndarray, order: SerializationOrder) -> np.ndarray:
    """Permutation of point indices along the chosen Hilbert variant.

    The grid spans the points' own bounds (bounds_from_points); points
    sharing a cell keep their input order.
    """
    positions = require_finite("positions", np.asarray(positions, dtype=np.float64))
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (M, 3)")
    if positions.shape[0] == 0:
        raise ValueError("cannot serialize an empty point set")
    lo, hi = bounds_from_points(positions)
    n_cells = 1 << order.bits
    scaled = (positions - lo) / (hi - lo) * n_cells
    cells = np.clip(np.floor(scaled), 0, n_cells - 1).astype(np.int64)
    axes = ["xyz".index(a) for a in order.axis_order]
    codes = hilbert_indices(cells[:, axes], order.bits)
    return np.argsort(codes, kind="stable").astype(np.int64)


def order_for_layer(layer: int) -> str:
    """Cycle the six axis orders across decoder layers."""
    if layer < 0:
        raise ValueError("layer must be >= 0")
    return AXIS_ORDERS[layer % 6]


def locality_score(perm: np.ndarray, positions: np.ndarray, knn: int) -> float:
    """Mean |sequence-rank difference| to each point's knn nearest neighbors.

    Lower means spatial neighbors stay closer together in the 1D sequence.
    Neighbor ties at equal distance resolve to lower point index, so the
    score is deterministic. Distances are computed 512 points at a time, so
    memory grows as 512·M rather than M².
    """
    positions = np.asarray(positions, dtype=np.float64)
    perm = np.asarray(perm)
    m = positions.shape[0]
    if not 1 <= knn < m:
        raise ValueError(f"knn must be in [1, {m}), got {knn}")
    rank = np.empty(m, dtype=np.int64)
    rank[perm] = np.arange(m)
    total = 0.0
    sq = (positions**2).sum(axis=1)
    for lo in range(0, m, 512):
        hi = min(lo + 512, m)
        d2 = sq[lo:hi, None] - 2.0 * positions[lo:hi] @ positions.T + sq[None, :]
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        neigh = np.argsort(d2, axis=1, kind="stable")[:, :knn]
        diffs = np.abs(rank[neigh] - rank[lo:hi, None])
        total += diffs.mean(axis=1).sum()
    return total / m

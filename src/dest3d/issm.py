"""Interactive state-space block: scan parameters that depend on both the
input sequence (scene point features) and the states (object candidates,
through their predicted boxes).

Per (scene point m, state k) the geometry enters three ways:
  * a spatial correlation feature s[m, k, :], either trilinearly sampled from
    a learnable 10x10x10 table at the point's box-local coordinates, or the
    literal sum over the 8 box vertices of an MLP applied to point-vertex
    offsets;
  * additive parameter generation: each of delta/b/c is a projection of the
    point features broadcast over states, plus a projection of s;
  * an explicit delay kernel exp(alpha * min(R_k - d(m, k), 0)) that damps
    delta for points outside a state's circumscribed sphere, so far
    background points barely move that state.

ibs_forward takes s and the delay factors as arrays and runs the resulting
scan over the serialized sequence in both directions with direction-specific
weights, gates the outputs with a shared SiLU(z), and applies residual output
projections to both streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, box_local_coords, box_vertices, circumscribed_radius, relative_offsets
from .numerics import (
    LinearWeights,
    PrngStream,
    depthwise_conv1d,
    layer_norm,
    linear,
    linear_init,
    require_finite,
    silu,
    softplus,
)
from .ssm import ScanInputs, discretize_zoh, scan_sequential

# Serialized points per step of the streamed parameter pipeline in
# _run_direction: the working set past the conv is O(CHUNK * K * E), and the
# per-chunk Python overhead stays small next to the numpy work at 64.
CHUNK = 64

__all__ = [
    "CorrelationTable",
    "CorrelationMlp",
    "DirectionWeights",
    "IbsWeights",
    "spatial_correlation",
    "gen_params",
    "delay_kernel",
    "ibs_forward",
    "ibs_weights_init",
]


@dataclass
class CorrelationTable:
    """Learnable 10x10x10xD feature grid sampled at box-local coordinates.

    Local coordinates are clamped to [-extent, extent] per axis and mapped
    linearly onto the grid, so extent controls how far outside a box the
    table still varies.
    """

    grid: np.ndarray
    extent: float = 2.0

    def __post_init__(self):
        self.grid = require_finite("table grid", np.asarray(self.grid, dtype=np.float64))
        if self.grid.ndim != 4 or self.grid.shape[:3] != (10, 10, 10):
            raise ValueError(f"grid must be (10, 10, 10, D), got {self.grid.shape}")
        if not self.extent > 0:
            raise ValueError("extent must be positive")

    @property
    def dim(self) -> int:
        return self.grid.shape[3]


@dataclass
class CorrelationMlp:
    """One-hidden-layer MLP from a 3-vector offset to a D-vector feature."""

    hidden: LinearWeights  # 3 -> H
    out: LinearWeights     # H -> D


@dataclass
class DirectionWeights:
    """Per-scan-direction weights: conv kernel, parameter projections, transition vector."""

    conv_kernel: np.ndarray       # (E, ksize)
    b_from_x: LinearWeights       # E -> 1
    b_from_s: LinearWeights       # D -> 1
    c_from_x: LinearWeights       # E -> 1
    c_from_s: LinearWeights       # D -> 1
    delta_from_x: LinearWeights   # E -> E
    delta_from_s: LinearWeights   # D -> E
    a_vec: np.ndarray             # (E,), non-positive for stability


@dataclass
class IbsWeights:
    """Full weight bundle for one bidirectional scan block."""

    norm_x_gamma: np.ndarray
    norm_x_beta: np.ndarray
    norm_h_gamma: np.ndarray
    norm_h_beta: np.ndarray
    in_x: LinearWeights    # C -> E
    in_z: LinearWeights    # C -> E
    in_h: LinearWeights    # C -> E
    out_y: LinearWeights   # E -> C
    out_h: LinearWeights   # E -> C
    forward: DirectionWeights
    backward: DirectionWeights
    alpha_raw: float = 1.0


def _trilinear_sample(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a (G,G,G,D) grid at continuous indices (N,3)."""
    g = grid.shape[0]
    c = np.clip(coords, 0.0, g - 1.0)
    i0 = np.floor(c).astype(np.int64)
    i0 = np.minimum(i0, g - 2)
    frac = c - i0
    out = 0.0
    for dx in (0, 1):
        wx = frac[:, 0] if dx else 1.0 - frac[:, 0]
        for dy in (0, 1):
            wy = frac[:, 1] if dy else 1.0 - frac[:, 1]
            for dz in (0, 1):
                wz = frac[:, 2] if dz else 1.0 - frac[:, 2]
                vals = grid[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                out = out + (wx * wy * wz)[:, None] * vals
    return out


def spatial_correlation(points: np.ndarray, boxes: list[Box3D],
                        corr: CorrelationTable | CorrelationMlp) -> np.ndarray:
    """Per (point, box) geometric feature s of shape (M, K, D).

    The type of corr picks the form: a CorrelationTable samples its grid
    trilinearly at clamped box-local coords; a CorrelationMlp sums
    MLP(point - vertex) over the 8 box vertices, the memory-heavy exact form
    the table approximates.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    k = len(boxes)
    if isinstance(corr, CorrelationTable):
        out = np.empty((m, k, corr.dim), dtype=np.float64)
        for j, box in enumerate(boxes):
            local = box_local_coords(points, box)
            clamped = np.clip(local, -corr.extent, corr.extent)
            idx = (clamped + corr.extent) / (2.0 * corr.extent) * 9.0
            out[:, j, :] = _trilinear_sample(corr.grid, idx)
        return out
    if isinstance(corr, CorrelationMlp):
        out = np.zeros((m, k, corr.out.out_features), dtype=np.float64)
        for j, box in enumerate(boxes):
            offsets = relative_offsets(points, box)  # (M, 8, 3)
            hidden = silu(linear(offsets, corr.hidden))
            out[:, j, :] = linear(hidden, corr.out).sum(axis=1)
        return out
    raise TypeError("corr must be a CorrelationTable or a CorrelationMlp, "
                    f"got {type(corr).__name__}")


def gen_params(s: np.ndarray, x_feats: np.ndarray,
               w: DirectionWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-softplus scan parameters (delta_logits (M,K,E), b (M,K), c (M,K)).

    b[m, k] and c[m, k] each combine a scalar projection of x_feats[m]
    (broadcast over k) with a scalar projection of s[m, k]; delta_logits gets
    the same structure at width E. Every row depends only on its own point,
    so ibs_forward calls this on one chunk of points at a time.
    """
    s = np.asarray(s, dtype=np.float64)
    x_feats = np.asarray(x_feats, dtype=np.float64)
    if s.ndim != 3 or x_feats.ndim != 2 or s.shape[0] != x_feats.shape[0]:
        raise ValueError(f"shape mismatch: s {s.shape}, x_feats {x_feats.shape}")
    b = linear(x_feats, w.b_from_x) + linear(s, w.b_from_s)[..., 0]
    c = linear(x_feats, w.c_from_x) + linear(s, w.c_from_s)[..., 0]
    delta_logits = linear(x_feats, w.delta_from_x)[:, None, :] + linear(s, w.delta_from_s)
    return delta_logits, b, c


def delay_kernel(boxes: list[Box3D], points: np.ndarray, alpha_raw: float,
                 metric: str = "center") -> np.ndarray:
    """Multiplicative damping in (0, 1]: exp(alpha * min(R_k - d(m,k), 0)).

    d(m, k) is the distance from point m to box k's "center", nearest
    "vertex" or nearest "surface" point, by metric. alpha = softplus(alpha_raw)
    keeps the kernel a suppressor; points within a state's circumscribed
    sphere are untouched (factor exactly 1).
    """
    if metric not in ("center", "vertex", "surface"):
        raise ValueError(f"unknown delay metric {metric!r}")
    alpha = float(softplus(np.float64(alpha_raw)))
    radii = np.array([circumscribed_radius(b) for b in boxes])
    points = np.asarray(points, dtype=np.float64)
    d = np.empty((points.shape[0], len(boxes)), dtype=np.float64)
    for j, box in enumerate(boxes):
        if metric == "center":
            d[:, j] = np.linalg.norm(points - box.center, axis=1)
        elif metric == "vertex":
            dv = np.linalg.norm(points[:, None, :] - box_vertices(box)[None, :, :], axis=2)
            d[:, j] = dv.min(axis=1)
        else:
            local = box_local_coords(points, box)
            nearest = np.clip(local, -1.0, 1.0) * (box.size / 2.0)
            nearest = nearest @ box.rotation().T + box.center
            d[:, j] = np.linalg.norm(points - nearest, axis=1)
    return np.exp(alpha * np.minimum(radii[None, :] - d, 0.0))


def _run_direction(x_in: np.ndarray, h0_hat: np.ndarray, s: np.ndarray,
                   delay: np.ndarray, w: DirectionWeights,
                   keep_trace: bool) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """One causal scan over the rows of x_in in order. Returns (y, h_final, trace).

    Past the depthwise conv, parameters and scan run on CHUNK rows at a
    time, carrying the state from chunk to chunk: gen_params -> softplus ->
    delay -> discretize_zoh -> scan_sequential. The (M, K, E) parameters are
    never held at full size. The backward direction is this function on
    reversed views of x_in, s and delay. With keep_trace the chunk parameters
    are copied into full-size arrays for the trace dict, otherwise it is None.
    """
    x_conv = silu(depthwise_conv1d(x_in, w.conv_kernel))
    m = x_conv.shape[0]
    y = np.empty_like(x_conv)
    trace = None
    if keep_trace:
        k, e = h0_hat.shape
        trace = {"x_conv": x_conv, "b": np.empty((m, k)), "c": np.empty((m, k)),
                 "delta": np.empty((m, k, e)), "a_bar": np.empty((m, k, e)),
                 "b_bar": np.empty((m, k, e))}
    h = h0_hat
    for lo in range(0, m, CHUNK):
        sl = slice(lo, lo + CHUNK)
        delta_logits, b, c = gen_params(s[sl], x_conv[sl], w)
        delta = softplus(delta_logits) * delay[sl, :, None]
        a_bar, b_bar = discretize_zoh(delta, w.a_vec, b)
        out = scan_sequential(ScanInputs(a_bar=a_bar, b_bar=b_bar, c=c,
                                         x=x_conv[sl], h0=h))
        y[sl] = out.y
        h = out.h_final
        if trace is not None:
            for name, value in (("b", b), ("c", c), ("delta", delta),
                                ("a_bar", a_bar), ("b_bar", b_bar)):
                trace[name][sl] = value
    return y, h, trace


def ibs_forward(x: np.ndarray, h0: np.ndarray, s: np.ndarray, delay: np.ndarray,
                w: IbsWeights, return_trace: bool = False):
    """Bidirectional interactive scan over a serialized point sequence.

    x is (M, C) in the layer's serialized order and h0 is (K, C). The states
    condition the scan only through the arrays s (M, K, D) and delay (M, K),
    built on x's rows by spatial_correlation and delay_kernel. Both streams
    are normalized and projected, the scan runs forward and backward with
    direction-specific weights sharing one SiLU(z) gate, and both outputs get
    residual connections: y = out_y(gated sum) + x, h = out_h(sum of final
    states) + h0.
    """
    x = require_finite("x", np.asarray(x, dtype=np.float64))
    h0 = require_finite("h0", np.asarray(h0, dtype=np.float64))
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("x must be a non-empty (M, C) array")
    if h0.ndim != 2 or h0.shape[1] != x.shape[1]:
        raise ValueError("h0 must be (K, C) with the same C as x")
    mk = (x.shape[0], h0.shape[0])
    if s.ndim != 3 or s.shape[:2] != mk or delay.shape != mk:
        raise ValueError(f"s must be (M, K, D) and delay (M, K) with (M, K) = {mk}, "
                         f"got s {s.shape}, delay {delay.shape}")

    xn = layer_norm(x, w.norm_x_gamma, w.norm_x_beta)
    hn = layer_norm(h0, w.norm_h_gamma, w.norm_h_beta)
    x_hat = linear(xn, w.in_x)
    z = linear(xn, w.in_z)
    h_hat0 = linear(hn, w.in_h)

    y_fwd, h_fwd, tr_f = _run_direction(x_hat, h_hat0, s, delay, w.forward, return_trace)
    # The backward scan is the forward code on reversed views; its outputs
    # are flipped back so row t is serialized position t again.
    y_bwd, h_bwd, tr_b = _run_direction(x_hat[::-1], h_hat0, s[::-1], delay[::-1],
                                        w.backward, return_trace)
    y_bwd = y_bwd[::-1]

    gate = silu(z)
    y = linear((y_fwd + y_bwd) * gate, w.out_y) + x
    h_out = linear(h_fwd + h_bwd, w.out_h) + h0
    if return_trace:
        trace = {
            "x_hat": x_hat, "z": z, "h_hat0": h_hat0, "s": s, "delay": delay,
            "forward": tr_f, "backward": {name: v[::-1] for name, v in tr_b.items()},
            "y_fwd": y_fwd, "y_bwd": y_bwd, "h_fwd": h_fwd, "h_bwd": h_bwd,
        }
        return y, h_out, trace
    return y, h_out


def _direction_init(stream: PrngStream, state_dim: int, corr_dim: int,
                    kernel_size: int) -> DirectionWeights:
    bound = 1.0 / np.sqrt(kernel_size)
    return DirectionWeights(
        conv_kernel=stream.uniform((state_dim, kernel_size), -bound, bound),
        b_from_x=linear_init(stream, 1, state_dim),
        b_from_s=linear_init(stream, 1, corr_dim),
        c_from_x=linear_init(stream, 1, state_dim),
        c_from_s=linear_init(stream, 1, corr_dim),
        delta_from_x=linear_init(stream, state_dim, state_dim),
        delta_from_s=linear_init(stream, state_dim, corr_dim),
        a_vec=np.full(state_dim, -1.0),
    )


def ibs_weights_init(stream: PrngStream, channels: int, state_dim: int,
                     corr_dim: int, kernel_size: int = 8) -> IbsWeights:
    """Seeded weight bundle; transition vectors start at -1 per channel."""
    return IbsWeights(
        norm_x_gamma=np.ones(channels), norm_x_beta=np.zeros(channels),
        norm_h_gamma=np.ones(channels), norm_h_beta=np.zeros(channels),
        in_x=linear_init(stream, state_dim, channels),
        in_z=linear_init(stream, state_dim, channels),
        in_h=linear_init(stream, state_dim, channels),
        # residual-branch projections carry no bias: zeroed weights must give
        # the exact identity
        out_y=linear_init(stream, channels, state_dim, bias=False),
        out_h=linear_init(stream, channels, state_dim, bias=False),
        forward=_direction_init(stream, state_dim, corr_dim, kernel_size),
        backward=_direction_init(stream, state_dim, corr_dim, kernel_size),
        alpha_raw=1.0,
    )


def correlation_table_init(stream: PrngStream, corr_dim: int,
                           extent: float = 2.0) -> CorrelationTable:
    return CorrelationTable(grid=stream.normal((10, 10, 10, corr_dim), 0.0, 0.5),
                            extent=extent)


def correlation_mlp_init(stream: PrngStream, corr_dim: int,
                         hidden_dim: int = 16) -> CorrelationMlp:
    return CorrelationMlp(hidden=linear_init(stream, hidden_dim, 3),
                          out=linear_init(stream, corr_dim, hidden_dim))

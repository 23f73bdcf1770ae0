"""Interactive state-space block: scan parameters that depend on both the
input sequence (scene point features) and the states (object candidates,
through their predicted boxes).

Per (scene point m, state k) the geometry enters three ways:
  * a spatial correlation feature s[m, k, :], either trilinearly sampled from
    a learnable 10x10x10 table at the point's box-local coordinates, or the
    sum over the 8 box vertices of an MLP applied to point-vertex offsets
    (exact, with the MLP's two affine layers split around the vertex sum);
  * additive parameter generation: each of delta/b/c is a projection of the
    point features broadcast over states, plus a projection of s;
  * an explicit delay kernel exp(alpha * min(R_k - d(m, k), 0)) that damps
    delta for points outside a state's circumscribed sphere, so far
    background points barely move that state; d is the distance to the box
    center, or to its nearest vertex or nearest point, the last two read off
    the point in the box frame.

ibs_forward takes s and the delay factors as arrays and runs the resulting
scan over the serialized sequence in both directions with direction-specific
weights, gates the outputs with a shared SiLU(z), and applies residual output
projections to both streams.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .geometry import _CORNER_SIGNS, Box3D, box_local_coords, box_vertices, circumscribed_radius
from .numerics import (
    LinearWeights,
    PrngStream,
    depthwise_conv1d,
    layer_norm,
    linear,
    linear_init,
    require_finite,
    row_blocks,
    silu,
    softplus,
)
from .ssm import ScanInputs, scan_sequential
# Not called here: _run_direction discretizes in place on its chunk buffers.
# Kept importable as dest3d.issm.discretize_zoh, a name perfbench's tracer
# looks up, so a traced run counts it as 0 calls instead of as missing.
from .ssm import discretize_zoh  # noqa: F401

TABLE_EXTENT = 2.0  # the table varies out to one box half-size past each face
# K from which a layer's two independent halves run on two threads: at E=32,
# a 2048-element state block per scan step (see _two_threads)
_THREAD_MIN_STATES = 64

__all__ = [
    "CorrelationTable",
    "CorrelationMlp",
    "DirectionWeights",
    "IbsWeights",
    "spatial_correlation",
    "delay_kernel",
    "ibs_forward",
    "ibs_weights_init",
]


@dataclass
class CorrelationTable:
    """Learnable 10x10x10xD feature grid sampled at box-local coordinates.

    Local coordinates are clamped to [-TABLE_EXTENT, TABLE_EXTENT] per axis
    and mapped linearly onto the grid.
    """

    grid: np.ndarray

    def __post_init__(self):
        self.grid = require_finite("table grid", np.asarray(self.grid, dtype=np.float64))
        if self.grid.ndim != 4 or self.grid.shape[:3] != (10, 10, 10):
            raise ValueError(f"grid must be (10, 10, 10, D), got {self.grid.shape}")

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
    alpha_raw: np.ndarray  # 0-d: the delay kernel's rate before softplus


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _two_threads(k: int) -> bool:
    """Whether _both runs a layer's two independent halves, its two scan
    directions or the two halves of its correlation's boxes, on two threads.

    Both halves are numpy passes that release the GIL, but below K=64 (E=32)
    a scan step is too short to pay for the GIL hand-offs. ibs_forward alone,
    two threads over serial (in-process medians, 2 vCPUs), read 1.43 at
    K·E=512, 0.90 at 1024, 0.65 at 2048 and 0.75 at 4096. The correlation
    split alone ran at 0.65-0.68 of serial at M >= 2048 for any K, but below
    the gate it raised peak RSS by 4.0-4.7 MB (the worker's malloc arena) on
    workloads that gain nothing else, so it takes the same gate.
    """
    return k >= _THREAD_MIN_STATES and _cpu_count() > 1


def _both(k: int, first, second):
    """(first(), second()) for a layer with k states: one after the other,
    or at _two_threads(k) with second on a worker thread meanwhile.

    The worker is joined before this returns, also when either call raises;
    first's exception wins over the worker's, as in the serial order.
    """
    if not _two_threads(k):
        return first(), second()
    # imported here, not at the top: there it added 0.5-0.7 MB of peak RSS to every decoder run
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        later = pool.submit(second)
        return first(), later.result()


def spatial_correlation(points: np.ndarray, boxes: list[Box3D],
                        corr: CorrelationTable | CorrelationMlp) -> np.ndarray:
    """Per (point, box) geometric feature s of shape (M, K, D).

    The type of corr picks the form. A CorrelationTable is sampled
    trilinearly at clamped box-local coords: per box, one gather of the 8
    corners from the flattened grid and one stacked (M, 1, 8) @ (M, 8, D)
    product with their weights. A CorrelationMlp sums out(silu(hidden(point
    - vertex))) over the 8 box vertices; both layers are affine, so hidden
    runs on the points once and on each box's vertices, and out runs once on
    the (M, K, H) sum of silu (its bias counted 8 times).

    Each box's column is computed on its own, so the boxes are filled in two
    halves through _both, which at K >= 64 on more than one CPU runs the
    second half on a worker thread, with its own scratch, into its own
    columns of the one output. The result is bit-identical either way. The
    table form walks each half's boxes inside row_blocks of the points, of
    width D, so a box's scratch stays within L2 at any M. Its 2048-row
    blocks ran 1.4-1.5x faster than one block at M >= 8192; blocks of 512
    or 256 rows ran 1.9x and 2.9x slower at M=2048, K=64, where the two
    threads hand the GIL over at every numpy call.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    k = len(boxes)
    if isinstance(corr, CorrelationTable):
        g, d = corr.grid.shape[0], corr.dim
        flat = corr.grid.reshape(g ** 3, d)
        strides = np.array([g * g, g, 1])
        # corner v takes the upper grid index on the axes where its sign is
        # +, so the corners keep box_vertices' x-y-z order
        upper = (_CORNER_SIGNS > 0).astype(np.intp)
        out = np.empty((m, k, d), dtype=np.float64)

        def fill(lo: int, hi: int) -> None:
            for blk in row_blocks(m, d):
                p = points[blk]
                frac_pair = np.empty((len(p), 2, 3))  # [1 - f | f] per axis
                for j in range(lo, hi):
                    # clamped, the map onto [0, g-1] is exact at both ends: no second clip
                    c = np.clip(box_local_coords(p, boxes[j]), -TABLE_EXTENT, TABLE_EXTENT)
                    c = (c + TABLE_EXTENT) / (2.0 * TABLE_EXTENT) * (g - 1.0)
                    i0 = np.minimum(c.astype(np.int64), g - 2)
                    np.subtract(c, i0, out=frac_pair[:, 1])
                    np.subtract(1.0, frac_pair[:, 1], out=frac_pair[:, 0])
                    w = frac_pair[:, upper, np.arange(3)]  # (rows, 8, 3)
                    weights = w[..., 0] * w[..., 1] * w[..., 2]
                    idx = (i0 @ strides)[:, None] + upper @ strides
                    out[blk, j] = (weights[:, None] @ flat.take(idx, axis=0))[:, 0]

        _both(k, lambda: fill(0, k // 2), lambda: fill(k // 2, k))
        return out
    if isinstance(corr, CorrelationMlp):
        hidden, head = corr.hidden, corr.out
        ph = points @ hidden.weight.T
        if hidden.bias is not None:
            ph += hidden.bias
        hsum = np.empty((m, k, hidden.out_features), dtype=np.float64)

        def fill(lo: int, hi: int) -> None:
            a, b, acc = (np.empty_like(ph) for _ in range(3))
            for j in range(lo, hi):
                # the 8 vertices add in order into one contiguous (M, H)
                # buffer, written to the strided column hsum[:, j] once:
                # adding into that column per vertex ran about 10x slower
                acc.fill(0.0)
                for vh in box_vertices(boxes[j]) @ hidden.weight.T:
                    acc += silu(np.subtract(ph, vh, out=a), out=b)
                hsum[:, j] = acc

        # fill's scratch is freed before the (M, K, D) output is allocated
        _both(k, lambda: fill(0, k // 2), lambda: fill(k // 2, k))
        out = (hsum.reshape(m * k, -1) @ head.weight.T).reshape(m, k, head.out_features)
        if head.bias is not None:
            out += 8.0 * head.bias
        return out
    raise TypeError("corr must be a CorrelationTable or a CorrelationMlp, "
                    f"got {type(corr).__name__}")


# Not in __all__; a dest3d.issm global because perfbench's tracer and tests look it up here.
def gen_params(s: np.ndarray, x_row: np.ndarray, w_s: np.ndarray, delta: np.ndarray,
               bc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-softplus scan parameters of one chunk of n points, written in place.

    delta_logits (n,K,E), b (n,K) and c (n,K) each add a projection of s[m, k]
    to one of the point's conv features, broadcast over states. x_row (n, E+2)
    holds the latter for columns [delta | b | c], all biases folded in, and
    w_s (D, E+2) maps s: one GEMM fills the contiguous buffer delta (n, K, E),
    one fills bc (n, K, 2). Returns (delta, b, c); b and c are views of bc.
    """
    n, k, d = s.shape
    e = delta.shape[2]
    s_rows = s.reshape(n * k, d)
    np.matmul(s_rows, w_s[:, :e], out=delta.reshape(n * k, e))
    delta += x_row[:, None, :e]
    np.matmul(s_rows, w_s[:, e:], out=bc.reshape(n * k, 2))
    bc += x_row[:, None, e:]
    return delta, bc[..., 0], bc[..., 1]


def delay_kernel(boxes: list[Box3D], points: np.ndarray, alpha_raw: float,
                 metric: str = "center") -> np.ndarray:
    """Multiplicative damping in (0, 1]: exp(alpha * min(R_k - d(m,k), 0)).

    d(m, k) is the distance from point m to box k's "center", nearest
    "vertex" or nearest "surface" point, by metric. The last two read the
    point in the box frame, q = (p - center) @ R, against the half size h:
    the nearest vertex has q's sign on each axis, so d = norm(|q| - h), and
    the nearest point of the box is q clipped to it, so
    d = norm(max(|q| - h, 0)), 0 inside. alpha = softplus(alpha_raw) keeps
    the kernel a suppressor; points within a state's circumscribed sphere are
    untouched (factor exactly 1).
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
            continue
        q = np.abs((points - box.center) @ box.rotation())
        q -= box.size / 2.0
        if metric == "surface":
            np.maximum(q, 0.0, out=q)
        d[:, j] = np.linalg.norm(q, axis=1)
    return np.exp(alpha * np.minimum(radii[None, :] - d, 0.0))


def _param_weights(w: DirectionWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three parameter projections side by side, columns [delta | b | c]:
    x-side weights (E, E+2), s-side weights (D, E+2), and the (E+2,) sum of
    all six biases (a missing bias counts as zero)."""
    pairs = ((w.delta_from_x, w.delta_from_s), (w.b_from_x, w.b_from_s),
             (w.c_from_x, w.c_from_s))

    def bias_of(lw: LinearWeights) -> np.ndarray:
        return lw.bias if lw.bias is not None else np.zeros(lw.out_features)

    w_x = np.concatenate([px.weight for px, _ in pairs]).T
    w_s = np.concatenate([ps.weight for _, ps in pairs]).T
    bias = np.concatenate([bias_of(px) + bias_of(ps) for px, ps in pairs])
    return w_x, w_s, bias


def _chunk_rows(k: int, e: int) -> int:
    """Serialized points per step of _run_direction at K states and E state
    channels: a budget of 2^14 elements per (rows, K, E) buffer, at least 24
    rows. Longer steps spread each step's fixed Python overhead at small K·E
    (128 rows at K=4, E=32); at K=16 more than 32 rows measured no faster.

    The floor binds from K·E = 683 (K >= 22 at E=32), serial layers with
    K < 64 included. Where _two_threads(K) holds, both directions hold their
    buffers at once, so the floor sets what the second direction's buffers
    add to peak RSS. On the benchmark's M=2048, K=64 workload, op time over
    the serial parent / peak-RSS change read: floor 32, 0.65-0.68 / +6.5%;
    floor 24, 0.69-0.73 / +3.1 to +4.1%; floor 16, 0.77 / +1.7%. Serial,
    floor 24 read within noise of floor 32.
    """
    return max(24, 2**14 // (k * e))


def _mk_bytes(m: int, k: int, e: int, d: int) -> int:
    """Bytes a layer of M points, K states, E state channels and D correlation
    channels holds in arrays that grow with M·K: s (M, K, D), the delay
    (M, K), and the scan's three (rows, K, E) and one (rows, K, 2) chunk
    buffers, twice when both directions run at once.

    It leaves out the arrays that grow with M alone: the scene stream's
    (M, C) features, their serialized copy and each stage's (M, C) output;
    ibs_forward's (M, E) x_hat and gate; and per direction x_conv, x_row
    and y. It also leaves out the per-stage scratch, which row_blocks
    bounds at about BLOCK_ELEMENTS f64 values per array at any M (per
    thread at K >= 64), and the (M, K) temporaries of the delay kernel."""
    rows = min(m, _chunk_rows(k, e))
    scans = 2 if _two_threads(k) else 1
    return 8 * (m * k * (d + 1) + scans * rows * k * (3 * e + 2))


def _run_direction(x_in: np.ndarray, h0_hat: np.ndarray, s: np.ndarray,
                   delay: np.ndarray, w: DirectionWeights) -> tuple[np.ndarray, np.ndarray]:
    """One causal scan over the rows of x_in in order. Returns (y, h_final).

    row_blocks of x_in, each run with its ksize - 1 rows of context before
    it, go through the causal conv and SiLU into x_conv and are projected
    onto [delta | b | c], biases included, into x_row; no other (M, E) array
    is made. Then _chunk_rows(K, E) rows at a time, reusing four buffers of
    min(M, _chunk_rows(K, E)) rows allocated here: gen_params adds the s
    projection, softplus and the delay act in place on delta, a_bar =
    exp(delta * a) and b_bar = delta * b fill two more buffers, and
    scan_sequential carries the state on (delta >= 0 by construction, so no
    chunk is checked), so the (M, K, E) parameters are never held at full
    size. The backward direction is this function on reversed views of
    x_in, s and delay.
    """
    m, e = x_in.shape
    k = h0_hat.shape[0]
    context = w.conv_kernel.shape[1] - 1
    w_x, w_s, bias = _param_weights(w)
    x_conv, x_row = np.empty((m, e)), np.empty((m, e + 2))
    for blk in row_blocks(m, e + 2):
        ctx = min(blk.start, context)
        conv = depthwise_conv1d(x_in[blk.start - ctx:blk.stop], w.conv_kernel)
        silu(conv[ctx:], out=x_conv[blk])
        np.matmul(x_conv[blk], w_x, out=x_row[blk])
        x_row[blk] += bias
    step = _chunk_rows(k, e)
    rows = min(m, step)
    delta_buf, a_bar_buf, b_bar_buf = (np.empty((rows, k, e)) for _ in range(3))
    bc_buf = np.empty((rows, k, 2))
    y = np.empty_like(x_conv)
    h = h0_hat
    for lo in range(0, m, step):
        sl = slice(lo, lo + step)
        buf = slice(min(step, m - lo))
        delta, b, c = gen_params(s[sl], x_row[sl], w_s, delta_buf[buf], bc_buf[buf])
        softplus(delta, out=delta)
        delta *= delay[sl, :, None]
        a_bar = np.multiply(delta, w.a_vec, out=a_bar_buf[buf])
        np.exp(a_bar, out=a_bar)
        b_bar = np.multiply(delta, b[:, :, None], out=b_bar_buf[buf])
        out = scan_sequential(ScanInputs(a_bar=a_bar, b_bar=b_bar, c=c,
                                         x=x_conv[sl], h0=h))
        y[sl] = out.y
        h = out.h_final
    return y, h


def ibs_forward(x: np.ndarray, h0: np.ndarray, s: np.ndarray, delay: np.ndarray,
                w: IbsWeights) -> tuple[np.ndarray, np.ndarray]:
    """Bidirectional interactive scan over a serialized point sequence.

    x is (M, C) in the layer's serialized order and h0 is (K, C). The states
    condition the scan only through the arrays s (M, K, D) and delay (M, K),
    built on x's rows by spatial_correlation and delay_kernel. Both streams
    are normalized and projected, the scan runs forward and backward with
    direction-specific weights sharing one SiLU(z) gate, and both outputs get
    residual connections: y = out_y(gated sum) + x, h = out_h(sum of final
    states) + h0. Returns (y, h).

    The two directions share no state, so they run through _both: at K >= 64
    on more than one CPU the backward one runs on a worker thread while this
    thread runs the forward one, each with its own chunk buffers; the result
    is bit-identical to running them one after the other. The x stream's
    layer norm and input projections, and the gate and out_y residual, run
    over row_blocks, so its normalized copy and the SiLU scratch are never
    held at (M, C) or (M, E).
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

    m, e = x.shape[0], w.in_x.out_features
    width = max(x.shape[1], e)
    x_hat, gate = np.empty((m, e)), np.empty((m, e))
    for blk in row_blocks(m, width):
        xn = layer_norm(x[blk], w.norm_x_gamma, w.norm_x_beta)
        x_hat[blk] = linear(xn, w.in_x)
        silu(linear(xn, w.in_z), out=gate[blk])
    hn = layer_norm(h0, w.norm_h_gamma, w.norm_h_beta)
    h_hat0 = linear(hn, w.in_h)

    def forward():
        return _run_direction(x_hat, h_hat0, s, delay, w.forward)

    # The backward scan is the forward code on reversed views; its output is
    # flipped back so row t is serialized position t again.
    def backward():
        return _run_direction(x_hat[::-1], h_hat0, s[::-1], delay[::-1], w.backward)

    (y_fwd, h_fwd), (y_bwd, h_bwd) = _both(h0.shape[0], forward, backward)
    y_bwd = y_bwd[::-1]

    y = np.empty_like(x)
    for blk in row_blocks(m, width):
        gated = np.add(y_fwd[blk], y_bwd[blk])
        gated *= gate[blk]
        np.add(linear(gated, w.out_y), x[blk], out=y[blk])
    h_out = linear(h_fwd + h_bwd, w.out_h) + h0
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
        alpha_raw=np.array(1.0),
    )


def correlation_table_init(stream: PrngStream, corr_dim: int) -> CorrelationTable:
    return CorrelationTable(grid=stream.normal((10, 10, 10, corr_dim), 0.0, 0.5))


def correlation_mlp_init(stream: PrngStream, corr_dim: int) -> CorrelationMlp:
    return CorrelationMlp(hidden=linear_init(stream, 16, 3),
                          out=linear_init(stream, corr_dim, 16))

"""Deterministic numerical substrate: seeded randomness and the small set of
neural primitives the decoder blocks are built from (linear maps, layer norm,
SiLU/softplus, causal depthwise convolution, multi-head attention).

All arrays are plain numpy ndarrays, float64 by default. Every operation is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrngStream",
    "LinearWeights",
    "require_finite",
    "linear",
    "layer_norm",
    "sigmoid",
    "silu",
    "softplus",
    "depthwise_conv1d",
    "softmax_attention",
]

# Elements per row block of the decoder's per-point stages: 256 KB per f64
# array, so a block's inputs, outputs and scratch fit one core's L2 together.
BLOCK_ELEMENTS = 2**15


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Reject NaN/Inf at the public entry points."""
    arr = np.asarray(arr)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


class PrngStream:
    """Seeded pseudo-random stream.

    Backed by numpy's PCG64 (a documented 64-bit counter-based generator).
    The same seed always yields the same value stream within this
    implementation; bit-equality across implementations is not promised.
    A stream is single-owner: do not advance one stream from two places.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        if not high > low:
            raise ValueError(f"uniform needs high > low, got [{low}, {high})")
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if not std > 0:
            raise ValueError(f"normal needs std > 0, got {std}")
        return self._gen.normal(mean, std, size=shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)


@dataclass
class LinearWeights:
    """Dense affine map. weight is (out, in); bias, when present, is (out,)."""

    weight: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weight.shape[0],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match "
                    f"{self.weight.shape[0]} output rows"
                )

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]


def linear_init(stream: PrngStream, out_features: int, in_features: int,
                bias: bool = True) -> LinearWeights:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(in_features)
    w = stream.uniform((out_features, in_features), -bound, bound)
    b = stream.uniform((out_features,), -bound, bound) if bias else None
    return LinearWeights(w, b)


def linear(x: np.ndarray, w: LinearWeights) -> np.ndarray:
    """y[..., o] = sum_i x[..., i] * weight[o, i] + bias[o], bias added in place."""
    x = np.asarray(x)
    if x.shape[-1] != w.in_features:
        raise ValueError(
            f"linear: input last dim {x.shape[-1]} != weight in dim {w.in_features}"
        )
    y = x @ w.weight.T
    if w.bias is not None:
        y += w.bias
    return y


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-6) -> np.ndarray:
    """Per-row normalization over the last axis, then affine: x is centred
    once, and the centred rows are divided, scaled and shifted in place."""
    x = np.asarray(x)
    if x.shape[-1] == 0:
        raise ValueError("layer_norm: last dimension must be >= 1")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be > 0")
    d = x - x.mean(axis=-1, keepdims=True)
    var = np.square(d).mean(axis=-1, keepdims=True)
    d /= np.sqrt(var + eps)
    d *= gamma
    d += beta
    return d


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow, as where(x >= 0, 1, e) / (1 + e)
    with e = exp(-|x|): bit for bit 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) otherwise (a NaN's sign bit aside). 0-d input
    gives a 0-d array.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    # in place: with one more small temporary per call, a decoder run on
    # M=8192, K=4 peaked 1.8 MB (3%) higher, from heap layout alone
    out /= e + 1.0
    return out


def softplus(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(x)) as max(log1p(exp(min(x, 50))), x): past 50 the log
    term rounds to 50, so x wins and nothing overflows; within one rounding
    of np.logaddexp(0, x). One scratch array whether or not out is given
    (out=x works in place); 0-d input gives a 0-d array.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.minimum(x, 50.0, out=np.empty_like(x))
    np.exp(t, out=t)
    np.log1p(t, out=t)
    return np.maximum(t, x, out=t if out is None else out)


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x / (1 + exp(-x)); where exp(-x) overflows (x below about -709.8) this
    gives -0.0, not NaN. The result goes to out when given; out must not
    overlap x, which is read again after out is written. 0-d input gives a
    0-d array.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(x, out, out=out)


def depthwise_conv1d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal per-channel convolution along the sequence axis.

    x is (seq, channels), kernel is (channels, ksize); tap 0 multiplies the
    current step, tap j the step j positions earlier (zero-padded past). An
    anti-causal conv is this one on a reversed view, reversed back. Each
    output element gets tap 0's product and then taps 1, 2, ... added in
    order, so a row block run with its ksize - 1 rows of context before it
    gives the same bits as the whole sequence (see row_blocks).
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.ndim != 2 or kernel.ndim != 2 or kernel.shape[0] != x.shape[1]:
        raise ValueError(
            f"depthwise_conv1d: x {x.shape} and kernel {kernel.shape} disagree"
        )
    out = np.multiply(x, kernel[:, 0])
    prod = np.empty_like(out)
    for j in range(1, min(kernel.shape[1], x.shape[0])):
        out[j:] += np.multiply(x[:-j], kernel[:, j], out=prod[j:])
    return out


def block_rows(width: int, unit: int = 1) -> int:
    """Rows per row_blocks block: max(1, BLOCK_ELEMENTS // width), rounded
    up to a whole number of units of unit rows."""
    rows = max(1, BLOCK_ELEMENTS // width)
    return rows + -rows % unit


def row_blocks(m: int, width: int, unit: int = 1) -> list[slice]:
    """Consecutive row slices covering range(m), for a stage whose widest
    per-row array holds width elements.

    Each block has rows = block_rows(width, unit) rows, except the last,
    which also takes the m % rows rows left over: no block is shorter than
    rows unless m is, and every block but the last holds whole units. A
    BLAS product of a few rows can round differently from the same rows of a
    larger product (OpenBLAS's small-matrix and single-row paths); over
    blocks this long, a stage gives the same bits as one pass over all m
    rows.
    """
    rows = block_rows(width, unit)
    starts = list(range(0, max(m - rows, 0) + 1, rows))
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [m])]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      heads: int = 1) -> np.ndarray:
    """Multi-head scaled dot-product attention; heads split the channel axis."""
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    n, c = q.shape
    if c % heads != 0:
        raise ValueError(f"channels {c} not divisible by {heads} heads")
    d = c // heads
    out = np.empty_like(q)
    for h in range(heads):
        sl = slice(h * d, (h + 1) * d)
        scores = (q[:, sl] @ k[:, sl].T) / np.sqrt(d)
        out[:, sl] = softmax(scores, axis=-1) @ v[:, sl]
    return out

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

# Elements per row block of depthwise_conv1d: 256 KB per f64 array, so a
# block's input, output and product buffer fit one core's L2 together.
CONV_BLOCK_ELEMENTS = 2**15


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
    """Per-row normalization over the last axis, then affine."""
    x = np.asarray(x)
    if x.shape[-1] == 0:
        raise ValueError("layer_norm: last dimension must be >= 1")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be > 0")
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow, as where(x >= 0, 1, e) / (1 + e)
    with e = exp(-|x|).

    Equal bit for bit to evaluating 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) otherwise (a NaN's sign bit aside). The numerator
    is selected branch-free as max(x >= 0, e), the comparison written as
    0.0 or 1.0: e lies in [0, 1] (NaN for NaN x, which max passes through),
    so this equals where(x >= 0, 1, e) bit for bit, and np.where's select
    is numpy's slow path: without it the whole sigmoid ran 2.5x faster at
    (2048, 16). The result goes to out when given (out=x works in place,
    with one scratch array of x's size); 0-d input gives a 0-d array.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.greater_equal(x, 0.0, out=np.empty_like(x) if out is None else out,
                           casting="unsafe")
    np.maximum(out, e, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def softplus(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), overflow-safe for large |x|.

    np.logaddexp(0, x) evaluates the same formula one element at a time; as
    whole-array operations it runs faster and agrees with it within one
    rounding. The result goes to out when given (out=x works in place, with
    one scratch array of x's size); 0-d input gives a 0-d array.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.abs(x, out=np.empty_like(x))
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out = np.maximum(x, 0.0, out=np.empty_like(x) if out is None else out)
    return np.add(out, t, out=out)


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), with sigmoid's branch-free select.

    The result goes to out when given; out must not overlap x, which is
    read again after sigmoid has written out. 0-d input gives a 0-d array.
    """
    s = sigmoid(x, out=out)
    return np.multiply(x, s, out=s)


def depthwise_conv1d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal per-channel convolution along the sequence axis.

    x is (seq, channels), kernel is (channels, ksize); tap 0 multiplies the
    current step, tap j the step j positions earlier (zero-padded past). An
    anti-causal conv is this one on a reversed view, reversed back.

    The sequence is walked in blocks of about CONV_BLOCK_ELEMENTS elements, so
    a block's input rows, its output rows and the one reused product buffer
    stay in cache across the taps. Each output element still gets tap 0's
    product and then taps 1, 2, ... added in order, as in a whole-sequence
    pass, so the result does not depend on the block size.
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.ndim != 2 or kernel.ndim != 2 or kernel.shape[0] != x.shape[1]:
        raise ValueError(
            f"depthwise_conv1d: x {x.shape} and kernel {kernel.shape} disagree"
        )
    m, channels = x.shape
    out = np.empty(x.shape, dtype=np.result_type(x, kernel))
    rows = max(1, CONV_BLOCK_ELEMENTS // max(channels, 1))
    prod = np.empty((min(rows, m), channels), dtype=out.dtype)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        np.multiply(x[lo:hi], kernel[:, 0], out=out[lo:hi])
        for j in range(1, min(kernel.shape[1], hi)):
            start = max(lo, j)
            out[start:hi] += np.multiply(x[start - j:hi - j], kernel[:, j],
                                         out=prod[:hi - start])
    return out


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

"""State-space scan core.

The recurrence advanced here is, per step t and state channel (k, e):

    h_t[k, e] = a_bar[t, k, e] * h_{t-1}[k, e] + b_bar[t, k, e] * x[t, e]
    y_t[e]    = sum_k c[t, k] * h_t[k, e]

with K state rows attending one shared input sequence of length M. _recur
steps it for the plain sweep, the chunked variant (identical outputs, chunk
summaries combine as affine maps) and both sweeps of the analytic
reverse-mode pass (checked against finite differences); a time-invariant
convolutional form is the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import depthwise_conv1d

# Steps per block of _recur: bounds its scratch to O(_BLOCK * K * E) whatever
# the sequence length, while the per-block ops stay large next to Python
# overhead.
_BLOCK = 64

__all__ = [
    "ScanInputs",
    "ScanOutputs",
    "ScanGradients",
    "discretize_zoh",
    "scan_sequential",
    "scan_chunked",
    "lti_conv_form",
    "scan_backward",
    "finite_diff_grad",
]


@dataclass
class ScanInputs:
    """Discrete scan parameters: a_bar/b_bar (M,K,E), c (M,K), x (M,E), h0 (K,E)."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray
    x: np.ndarray
    h0: np.ndarray

    def __post_init__(self):
        self.a_bar = np.asarray(self.a_bar, dtype=np.float64)
        self.b_bar = np.asarray(self.b_bar, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        self.h0 = np.asarray(self.h0, dtype=np.float64)
        m, k, e = self.a_bar.shape
        if self.b_bar.shape != (m, k, e):
            raise ValueError(f"b_bar shape {self.b_bar.shape} != {(m, k, e)}")
        if self.c.shape != (m, k):
            raise ValueError(f"c shape {self.c.shape} != {(m, k)}")
        if self.x.shape != (m, e):
            raise ValueError(f"x shape {self.x.shape} != {(m, e)}")
        if self.h0.shape != (k, e):
            raise ValueError(f"h0 shape {self.h0.shape} != {(k, e)}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.a_bar.shape


@dataclass
class ScanOutputs:
    """Per-step outputs y (M,E) and final states (K,E)."""

    y: np.ndarray
    h_final: np.ndarray


@dataclass
class ScanGradients:
    a_bar: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray
    x: np.ndarray
    h0: np.ndarray


def discretize_zoh(delta: np.ndarray, a: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discretize a continuous diagonal system over per-step timescales.

    delta is (M, K, E) and non-negative, a is (E,) and expected non-positive,
    b is (M, K). Returns a_bar = exp(delta * a) and the first-order input
    term b_bar = delta * b, the pairing Mamba uses. This is the checked
    public form (demos, verify suites); the decoder's scan block computes the
    same two products in place on its reused chunk buffers instead.
    """
    delta = np.asarray(delta, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if delta.ndim != 3 or a.shape != (delta.shape[2],) or b.shape != delta.shape[:2]:
        raise ValueError(
            f"shape mismatch: delta {delta.shape}, a {a.shape}, b {b.shape}"
        )
    if (delta < 0).any():
        raise ValueError("delta must be non-negative")
    return np.exp(delta * a), delta * b[:, :, None]


def _recur(a_bar, b_bar, x, h, c=None, y=None, trace=None) -> np.ndarray:
    """Advance state h over the given steps and return the last state.

    The one recurrence step of this package: the scans, both sweeps of
    scan_backward and verify's prefix attention run it. Steps run in blocks of
    at most _BLOCK rows: the block's input terms b_bar[t] * x[t] are formed
    in one op into a buffer (the trace rows when trace is given, else
    O(_BLOCK * K * E) scratch), each step adds a_bar[t] * h into its row in
    place, and y[t] = c[t] @ h_t is written for the whole block by one
    stacked matmul when y is given. Inputs and h are not mutated, and the
    returned state is a fresh array, also when there are no steps.
    """
    m = x.shape[0]
    scratch = None if trace is not None else np.empty((min(m, _BLOCK),) + h.shape)
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        u = trace[lo:hi] if trace is not None else scratch[:hi - lo]
        np.multiply(b_bar[lo:hi], x[lo:hi, None, :], out=u)
        for a_t, u_t in zip(a_bar[lo:hi], u):
            h = np.add(u_t, a_t * h, out=u_t)
        if y is not None:
            np.matmul(c[lo:hi, None, :], u, out=y[lo:hi, None, :])
        h = h.copy()  # the next block refills the buffer h is a row of
    return h if m else h.copy()


def scan_sequential(inputs: ScanInputs) -> ScanOutputs:
    """Plain left-to-right recurrence."""
    y = np.empty(inputs.x.shape, dtype=np.float64)
    h = _recur(inputs.a_bar, inputs.b_bar, inputs.x, inputs.h0, inputs.c, y)
    return ScanOutputs(y=y, h_final=h)


def scan_chunked(inputs: ScanInputs, chunk: int) -> ScanOutputs:
    """Chunked scan with identical contract to scan_sequential.

    Each chunk is summarized as the affine map h -> A*h + B it applies to the
    incoming state (composition (a2*a1, a2*b1 + b2)); summaries combine
    sequentially to give every chunk its exact entry state, after which chunks
    are independent and could run concurrently. The reduction order is fixed,
    so results do not depend on worker count.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    m, k, e = inputs.shape
    spans = [slice(s, min(s + chunk, m)) for s in range(0, m, chunk)]
    # Exact entry state per chunk from the summaries of the chunks before it:
    # A = prod a_bar, B = the chunk's scan from a zero state.
    entries = [inputs.h0]
    for sl in spans[:-1]:
        acc_a = np.prod(inputs.a_bar[sl], axis=0)
        acc_b = _recur(inputs.a_bar[sl], inputs.b_bar[sl], inputs.x[sl],
                       np.zeros((k, e), dtype=np.float64))
        entries.append(acc_a * entries[-1] + acc_b)
    # Replay each chunk from its entry state.
    y = np.empty((m, e), dtype=np.float64)
    h = inputs.h0.copy()  # the result when M = 0
    for sl, h_in in zip(spans, entries):
        h = _recur(inputs.a_bar[sl], inputs.b_bar[sl], inputs.x[sl], h_in,
                   inputs.c[sl], y[sl])
    return ScanOutputs(y=y, h_final=h)


def lti_conv_form(a_bar_0: np.ndarray, b_bar_0: np.ndarray, c0: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Time-invariant scan as a causal convolution (zero initial state).

    Kernel tap j per channel e is sum_k c0[k] * a_bar_0[k,e]^j * b_bar_0[k,e];
    the output is that kernel convolved causally with x. Equals the recurrence
    with the single-step parameters broadcast over time.
    """
    a_bar_0 = np.asarray(a_bar_0, dtype=np.float64)
    b_bar_0 = np.asarray(b_bar_0, dtype=np.float64)
    c0 = np.asarray(c0, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    # a^1 .. a^M as running products, shifted to a^0 .. a^(M-1)
    powers = np.cumprod(np.broadcast_to(a_bar_0, (x.shape[0],) + a_bar_0.shape), axis=0)
    powers = np.concatenate([np.ones((1,) + a_bar_0.shape), powers[:-1]])
    kern = np.einsum("k,jke,ke->je", c0, powers, b_bar_0)  # (M, E)
    return depthwise_conv1d(x, kern.T)


def scan_backward(inputs: ScanInputs, dy: np.ndarray, dh_final: np.ndarray) -> ScanGradients:
    """Exact reverse-mode derivatives of (y, h_final) under scan_sequential.

    _recur records the forward states h_t, then runs the adjoint
    g_t = dL/dh_t = a_bar[t+1] * g_{t+1} + c[t] (x) dy[t] (from dh_final)
    over reversed time; each gradient is then a whole-array product.
    """
    m, k, e = inputs.shape
    dy = np.asarray(dy, dtype=np.float64)
    dh_final = np.asarray(dh_final, dtype=np.float64)
    if dy.shape != (m, e) or dh_final.shape != (k, e):
        raise ValueError("cotangent shapes must match scan outputs")
    h = np.empty((m, k, e))
    _recur(inputs.a_bar, inputs.b_bar, inputs.x, inputs.h0, trace=h)
    g = np.empty((m, k, e))
    a_rev = np.concatenate([np.ones((1, k, e)), inputs.a_bar[:0:-1]])
    g_0 = _recur(a_rev, inputs.c[::-1, :, None], dy[::-1], dh_final, trace=g)
    g = g[::-1]
    return ScanGradients(
        a_bar=g * np.concatenate([inputs.h0[None], h[:-1]]),
        b_bar=g * inputs.x[:, None, :],
        c=(h @ dy[:, :, None])[:, :, 0],
        x=(g * inputs.b_bar).sum(axis=1),
        h0=g_0 * inputs.a_bar[0] if m else g_0.copy(),
    )


def finite_diff_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad

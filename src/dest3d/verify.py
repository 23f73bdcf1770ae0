"""Executable equivalence oracles and the complexity benchmark.

The centerpiece: prefix attention (each query normalized over its first m
keys) obeys the two-term recurrence

    Q_m = (S_{m-1} / S_m) Q_{m-1} + (sim(q0, K_m) / S_m) V_m

with S_m the running similarity sum, which is exactly a state-space update
whose coefficients come from query-key similarity. attention_direct computes
one prefix's normalized sum outright; attention_recurrence runs the
recurrence on the scan kernel of ssm, with the queries as its states;
run_equivalence_suite checks every prefix of the recurrence to machine
precision against one lower-triangle-masked product of the similarities (no
running sum, no scan), alongside the scan/convolution, chunked-scan,
gradient, and delay-kernel contracts.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .geometry import Box3D
from .issm import delay_kernel
from .numerics import PrngStream, softplus
from .ssm import ScanInputs, _recur, discretize_zoh, finite_diff_grad, lti_conv_form, scan_backward, scan_chunked, scan_sequential

__all__ = [
    "EquivalenceReport",
    "SUITE_NAMES",
    "attention_direct",
    "attention_recurrence",
    "run_equivalence_suite",
    "complexity_bench",
]

@dataclass
class EquivalenceReport:
    """Aggregated oracle result; pass iff max_abs_err <= tolerance.

    For grad_check, max_abs_err holds the gated metric (0 where the absolute
    gap is already <= 1e-8, else the relative gap) so the same pass rule
    applies; max_rel_err is informational everywhere.
    """

    suite: str
    max_abs_err: float
    max_rel_err: float
    cases: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_err <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "cases": self.cases,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _similarity(q0: np.ndarray, keys: np.ndarray, kind: str) -> np.ndarray:
    """(K, M) positive similarities between each query and each key."""
    c = q0.shape[1]
    if kind == "exp_dot":
        return np.exp(q0 @ keys.T / np.sqrt(c))
    if kind == "rbf":
        d2 = ((q0[:, None, :] - keys[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * c))
    raise ValueError(f"unknown similarity kind {kind!r}")


def attention_direct(q0: np.ndarray, keys: np.ndarray, values: np.ndarray,
                     m: int, sim: str = "exp_dot") -> np.ndarray:
    """Similarity-weighted mean of the first m values, computed directly.

    The single-prefix public form; like attention_recurrence, it refuses
    values without exactly one row per key.
    """
    if values.shape[0] != keys.shape[0]:
        raise ValueError(f"values has {values.shape[0]} rows, keys has {keys.shape[0]}")
    if not 1 <= m <= keys.shape[0]:
        raise ValueError(f"m must be in [1, {keys.shape[0]}]")
    w = _similarity(np.asarray(q0, dtype=np.float64),
                    np.asarray(keys[:m], dtype=np.float64), sim)  # (K, m)
    return (w @ values[:m]) / w.sum(axis=1, keepdims=True)


def attention_recurrence(q0: np.ndarray, keys: np.ndarray, values: np.ndarray,
                         sim: str = "exp_dot") -> np.ndarray:
    """All prefix results Q_m, m = 1..M, via the two-term recurrence.

    The queries are the states of ssm's scan kernel, A_m = S_{m-1} / S_m and
    B_m = sim(q0, K_m) / S_m come from one cumsum. A_1 = 0 and B_1 = 1 (the
    sum starts at zero), so the initialization of Q_0 never matters.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != keys.shape[0]:
        raise ValueError(f"values has {values.shape[0]} rows, keys has {keys.shape[0]}")
    w = _similarity(q0, keys, sim).T  # (M, K)
    s_curr = np.cumsum(w, axis=0)
    s_prev = np.concatenate([np.zeros((1, q0.shape[0])), s_curr[:-1]])
    out = np.empty((keys.shape[0],) + q0.shape, dtype=np.float64)
    _recur((s_prev / s_curr)[:, :, None], (w / s_curr)[:, :, None], values,
           np.zeros_like(q0), trace=out)
    return out


def _random_scan_inputs(stream: PrngStream, m: int, k: int, e: int) -> ScanInputs:
    delta = stream.uniform((m, k, e), 0.0, 1.0)
    a = -stream.uniform((e,), 0.2, 1.5)
    a_bar, b_bar = discretize_zoh(delta, a, stream.normal((m, k), 0.0, 1.0))
    return ScanInputs(a_bar=a_bar, b_bar=b_bar,
                      c=stream.normal((m, k), 0.0, 1.0),
                      x=stream.normal((m, e), 0.0, 1.0),
                      h0=stream.normal((k, e), 0.0, 1.0))


def _case_attn(stream: PrngStream, perturb: float) -> tuple[float, float]:
    m = int(stream.integers(4, 65))
    k = int(stream.integers(1, 9))
    c = int(stream.integers(2, 9))
    q0 = stream.normal((k, c), 0.0, 1.0)
    keys = stream.normal((m, c), 0.0, 1.0)
    values = stream.normal((m, c), 0.0, 1.0)
    mask = np.tri(m)[:, None, :]  # row p-1 keeps keys 0..p-1
    worst_abs = worst_rel = 0.0
    for sim in ("exp_dot", "rbf"):
        w = mask * _similarity(q0, keys, sim)  # (M prefixes, K, M)
        ref = (w @ values) / w.sum(axis=2, keepdims=True)
        diff = np.abs(attention_recurrence(q0, keys, values, sim) + perturb - ref)
        worst_abs = max(worst_abs, float(diff.max()))
        worst_rel = max(worst_rel, float((diff / (np.abs(ref) + 1e-300)).max()))
    return worst_abs, worst_rel


def _case_scan_conv(stream: PrngStream, perturb: float) -> tuple[float, float]:
    m = int(stream.integers(2, 65))
    k = int(stream.integers(1, 9))
    e = int(stream.integers(1, 9))
    delta = stream.uniform((k, e), 0.0, 1.0)
    a_bar0 = np.exp(-delta * stream.uniform((e,), 0.2, 1.5))
    b_bar0 = delta * stream.normal((k,), 0.0, 1.0)[:, None]
    c0 = stream.normal((k,), 0.0, 1.0)
    x = stream.normal((m, e), 0.0, 1.0)
    y_conv = lti_conv_form(a_bar0, b_bar0, c0, x) + perturb
    scan_in = ScanInputs(
        a_bar=np.broadcast_to(a_bar0, (m, k, e)).copy(),
        b_bar=np.broadcast_to(b_bar0, (m, k, e)).copy(),
        c=np.broadcast_to(c0, (m, k)).copy(), x=x, h0=np.zeros((k, e)),
    )
    y_scan = scan_sequential(scan_in).y
    diff = np.abs(y_conv - y_scan)
    return float(diff.max()), float((diff / (np.abs(y_scan) + 1e-300)).max())


def _case_scan_chunked(stream: PrngStream, perturb: float) -> tuple[float, float]:
    m = int(stream.integers(5, 258))
    k = int(stream.integers(1, 9))
    e = int(stream.integers(1, 17))
    inputs = _random_scan_inputs(stream, m, k, e)
    ref = scan_sequential(inputs)
    worst_abs = worst_rel = 0.0
    for chunk in (1, 7, 64, m):
        out = scan_chunked(inputs, chunk)
        diff = max(float(np.abs(out.y - ref.y).max()),
                   float(np.abs(out.h_final - ref.h_final).max())) + perturb
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel,
                        float((np.abs(out.y - ref.y) / (np.abs(ref.y) + 1e-300)).max()))
    return worst_abs, worst_rel


def _case_grad(stream: PrngStream, perturb: float) -> tuple[float, float]:
    m, k, e = 6, 3, 4
    inputs = _random_scan_inputs(stream, m, k, e)
    wy = stream.normal((m, e), 0.0, 1.0)
    wh = stream.normal((k, e), 0.0, 1.0)

    def loss_from(field: str):
        def f(stack):  # (B, *field shape) probes -> (B,) losses, one batched _recur
            kw = {name: getattr(inputs, name)[:, None] for name in ("a_bar", "b_bar", "c", "x")}
            kw["h0"] = np.broadcast_to(inputs.h0, (len(stack), k, e))
            kw[field] = stack if field == "h0" else stack.swapaxes(0, 1)
            y = np.empty((m, len(stack), e))
            h = _recur(kw["a_bar"], kw["b_bar"], kw["x"], kw["h0"], kw["c"], y)
            return (y * wy[:, None]).sum(axis=(0, 2)) + (h * wh).sum(axis=(1, 2))
        return f

    grads = scan_backward(inputs, dy=wy, dh_final=wh)
    worst_gated = worst_rel = 0.0
    for name in ("a_bar", "b_bar", "c", "x", "h0"):
        numeric = finite_diff_grad(loss_from(name), getattr(inputs, name).copy(), 1e-5)
        analytic = getattr(grads, name) + perturb
        diff = np.abs(analytic - numeric)
        rel = diff / np.maximum(np.abs(numeric), 1e-300)
        gated = np.where(diff <= 1e-8, 0.0, rel)
        worst_gated = max(worst_gated, float(gated.max()))
        worst_rel = max(worst_rel, float(rel.max()))
    return worst_gated, worst_rel


def _case_delay(stream: PrngStream, perturb: float) -> tuple[float, float]:
    center = stream.normal((3,), 0.0, 1.0)
    size = stream.uniform((3,), 0.4, 1.2)
    box = Box3D(center=center, size=size, yaw=float(stream.uniform((), -3.0, 3.0)))
    alpha_raw = float(stream.uniform((), 0.0, 2.0))
    alpha = float(softplus(np.float64(alpha_raw)))
    radius = 0.5 * float(np.linalg.norm(size))
    direction = stream.normal((3,), 0.0, 1.0)
    direction /= np.linalg.norm(direction)
    dists = np.concatenate([
        np.linspace(0.0, radius, 40),
        radius + np.linspace(1e-3, 5.0 / alpha, 120),
    ])
    pts = center[None, :] + dists[:, None] * direction[None, :]
    factors = delay_kernel([box], pts, alpha_raw)[:, 0] + perturb
    inside = factors[dists <= radius]
    v_inside = float(np.abs(inside - 1.0).max())
    beyond = factors[dists > radius]
    v_monotone = float(np.maximum(np.diff(beyond), 0.0).max()) if len(beyond) > 1 else 0.0
    anchor = center + (radius + 1.0 / alpha) * direction
    v_anchor = abs(float(delay_kernel([box], anchor[None, :], alpha_raw)[0, 0] + perturb)
                   - np.exp(-1.0))
    # far-point suppression: delta scales by the factor, so the state-update
    # magnitude ratio with/without the kernel is the factor itself
    far = center + (radius + 12.0 / alpha) * direction
    ratio = float(delay_kernel([box], far[None, :], alpha_raw)[0, 0])
    v_suppress = max(0.0, ratio - 1e-4)
    worst = max(v_inside, v_monotone, v_anchor, v_suppress)
    return worst, worst


_SUITES = {
    "attn_recurrence": (_case_attn, 1e-12),
    "scan_conv": (_case_scan_conv, 1e-12),
    "scan_chunked": (_case_scan_chunked, 1e-12),
    "grad_check": (_case_grad, 1e-5),
    "delay_monotone": (_case_delay, 1e-12),
}
SUITE_NAMES = tuple(_SUITES)


def run_equivalence_suite(kind: str, seeds: int = 20, tol: float | None = None,
                          perturb: float = 0.0) -> EquivalenceReport:
    """Run one named oracle over seeded random desk-scale instances.

    Failures are reported, never raised. perturb injects a deliberate error
    into the checked side (a negative-control hook for the CLI).
    """
    if kind not in _SUITES:
        raise ValueError(f"unknown suite {kind!r}; choose from {SUITE_NAMES}")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    case, default_tol = _SUITES[kind]
    if tol is None:
        tol = default_tol
    elif not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    worst_abs = worst_rel = 0.0
    for seed in range(seeds):
        a, r = case(PrngStream(seed), perturb)
        worst_abs = max(worst_abs, a)
        worst_rel = max(worst_rel, r)
    return EquivalenceReport(suite=kind, max_abs_err=worst_abs,
                             max_rel_err=worst_rel, cases=seeds, tolerance=tol)


def _f32_attention(feats: np.ndarray, block: int = 256) -> np.ndarray:
    """Dense self-attention used only for timing.

    Row-blocked with in-place softmax so the working set stays cache-sized at
    every M; otherwise the small sizes run cache-resident and the fitted
    exponent measures the allocator, not the quadratic work.
    """
    m, e = feats.shape
    out = np.empty_like(feats)
    inv = np.float32(1.0 / np.sqrt(e))
    ft = feats.T.copy()
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        s = feats[lo:hi] @ ft
        s *= inv
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        out[lo:hi] = s @ feats
    return out


def complexity_bench(m_values: list[int], k: int = 16, e: int = 32,
                     repeats: int = 5, seed: int = 0, threads: int = 1) -> dict:
    """Median wall-times of the decoder's f64 scan_sequential vs f32 M x M attention.

    Returns rows {M, scan_time, attention_time} plus log-log slopes. Machine
    constants cancel in the slopes: the scan should sit near 1, dense
    attention near 2. Every size gets one untimed warmup pass and the timed
    repeats interleave across sizes, so page faults and clock ramp-up do not
    bias the small sizes. Each slope is the median of the slopes fitted to
    single sweeps over all sizes, so a machine whose speed drifts between
    sweeps moves every point of a fit alike. Timing requires a pinned worker
    count: the timing runs in one child process whose environment limits the
    BLAS and OpenMP pools to `threads` workers (default one, at least one).
    """
    if len(m_values) < 2:
        raise ValueError(f"need at least two sizes to fit a slope, got {m_values}")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError(f"sizes must be strictly ascending, got {m_values}")
    for name, value, least in (("sizes", min(m_values), 1), ("k", k, 1), ("e", e, 1),
                               ("repeats", repeats, 3), ("threads", threads, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    # imported here, not at the top: subprocess alone adds 0.6 MB of RSS to
    # every process that imports dest3d
    import json
    import subprocess

    src = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = ("import json, sys; from dest3d.verify import _time_scan_and_attention; "
             "print(json.dumps(_time_scan_and_attention(*json.loads(sys.argv[1]))))")
    args = json.dumps([m_values, k, e, repeats, seed])
    proc = subprocess.run([sys.executable, "-c", child, args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"complexity_bench timing process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _time_scan_and_attention(m_values: list[int], k: int, e: int, repeats: int,
                             seed: int) -> dict:
    """complexity_bench's timing, run in the process whose pools it pinned."""
    cases = {}
    for m in m_values:
        stream = PrngStream(seed)
        inputs = ScanInputs(a_bar=np.exp(-stream.uniform((m, k, e), 0.0, 1.0)),
                            b_bar=stream.normal((m, k, e), 0.0, 0.1),
                            c=stream.normal((m, k), 0.0, 1.0),
                            x=stream.normal((m, e), 0.0, 1.0),
                            h0=np.zeros((k, e)))
        feats = stream.normal((m, e), 0.0, 1.0).astype(np.float32)
        cases[m] = (partial(scan_sequential, inputs), partial(_f32_attention, feats))

    times = {m: ([], []) for m in m_values}
    for run_scan, run_attn in cases.values():  # warmup
        run_scan()
        run_attn()
    for side in (0, 1):  # every scan repeat, then every attention repeat
        for _ in range(repeats):
            for m, runs in cases.items():
                t0 = time.perf_counter()
                runs[side]()
                times[m][side].append(time.perf_counter() - t0)

    rows = [{"M": m, "scan_time": float(np.median(times[m][0])),
             "attention_time": float(np.median(times[m][1]))} for m in m_values]
    logm = np.log(m_values)

    def slope(side: int) -> float:
        fits = [np.polyfit(logm, np.log([times[m][side][r] for m in m_values]), 1)[0]
                for r in range(repeats)]
        return float(np.median(fits))

    return {"rows": rows, "scan_slope": slope(0), "attention_slope": slope(1)}

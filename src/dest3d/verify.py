"""Executable equivalence oracles and the complexity benchmark.

The centerpiece: prefix attention (each query normalized over its first m
keys) obeys the two-term recurrence

    Q_m = (S_{m-1} / S_m) Q_{m-1} + (sim(q0, K_m) / S_m) V_m

with S_m the running similarity sum, which is exactly a state-space update
whose coefficients come from query-key similarity. attention_direct computes
every prefix's normalized sum outright, from one lower-triangle-masked
product of the similarities (no running sum, no scan); attention_recurrence
runs the recurrence on the scan kernel of ssm, with the queries as its
states; run_equivalence_suite checks the two against each other on every
prefix to machine precision, alongside the scan/convolution, chunked-scan,
gradient, and delay-kernel contracts.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .decoder import DecoderConfig, _require_memory, decoder_stack, decoder_weights_init
from .geometry import Box3D, BoxSet, synth_scene
from .issm import _layer_bytes, delay_kernel
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

    max_abs_err is the largest error the suite gates on. For grad_check it is
    the gated metric (0 where the absolute gap is already <= 1e-8, else the
    relative gap), so the same pass rule applies.
    """

    suite: str
    max_abs_err: float
    cases: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_err <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "max_abs_err": self.max_abs_err,
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
                     sim: str = "exp_dot") -> np.ndarray:
    """All prefix results (M, K, C), each a similarity-weighted mean computed directly.

    Row m-1 weights keys 0..m-1 through the lower triangle of one (M, K, M)
    similarity product. Like attention_recurrence, it refuses values without
    exactly one row per key.
    """
    if values.shape[0] != keys.shape[0]:
        raise ValueError(f"values has {values.shape[0]} rows, keys has {keys.shape[0]}")
    w = np.tri(keys.shape[0])[:, None, :] * _similarity(
        np.asarray(q0, dtype=np.float64), np.asarray(keys, dtype=np.float64), sim)
    return (w @ values) / w.sum(axis=2, keepdims=True)


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


def _case_attn(stream: PrngStream, perturb: float) -> float:
    m = int(stream.integers(4, 65))
    k = int(stream.integers(1, 9))
    c = int(stream.integers(2, 9))
    q0 = stream.normal((k, c), 0.0, 1.0)
    keys = stream.normal((m, c), 0.0, 1.0)
    values = stream.normal((m, c), 0.0, 1.0)
    worst = 0.0
    for sim in ("exp_dot", "rbf"):
        ref = attention_direct(q0, keys, values, sim)
        diff = np.abs(attention_recurrence(q0, keys, values, sim) + perturb - ref)
        worst = max(worst, float(diff.max()))
    return worst


def _case_scan_conv(stream: PrngStream, perturb: float) -> float:
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
        a_bar=np.broadcast_to(a_bar0, (m, k, e)),
        b_bar=np.broadcast_to(b_bar0, (m, k, e)),
        c=np.broadcast_to(c0, (m, k)), x=x, h0=np.zeros((k, e)),
    )
    return float(np.abs(y_conv - scan_sequential(scan_in).y).max())


def _case_scan_chunked(stream: PrngStream, perturb: float) -> float:
    m = int(stream.integers(5, 258))
    k = int(stream.integers(1, 9))
    e = int(stream.integers(1, 17))
    inputs = _random_scan_inputs(stream, m, k, e)
    ref = scan_sequential(inputs)
    worst = 0.0
    for chunk in (1, 7, 64, m):
        out = scan_chunked(inputs, chunk)
        diff = max(float(np.abs(out.y - ref.y).max()),
                   float(np.abs(out.h_final - ref.h_final).max())) + perturb
        worst = max(worst, diff)
    return worst


def _case_grad(stream: PrngStream, perturb: float) -> float:
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
    worst = 0.0
    for name in ("a_bar", "b_bar", "c", "x", "h0"):
        numeric = finite_diff_grad(loss_from(name), getattr(inputs, name).copy(), 1e-5)
        analytic = getattr(grads, name) + perturb
        diff = np.abs(analytic - numeric)
        gated = np.where(diff <= 1e-8, 0.0, diff / np.maximum(np.abs(numeric), 1e-300))
        worst = max(worst, float(gated.max()))
    return worst


def _case_delay(stream: PrngStream, perturb: float) -> float:
    center = stream.normal((3,), 0.0, 1.0)
    size = stream.uniform((3,), 0.4, 1.2)
    boxes = BoxSet([Box3D(center=center, size=size, yaw=float(stream.uniform((), -3.0, 3.0)))])
    alpha_raw = float(stream.uniform((), 0.0, 2.0))
    alpha = float(softplus(np.float64(alpha_raw)))
    radius = float(boxes.radii[0])
    direction = stream.normal((3,), 0.0, 1.0)
    direction /= np.linalg.norm(direction)
    # a line of 160 points out from the center, then the 1/e anchor and a far point
    line = np.concatenate([
        np.linspace(0.0, radius, 40),
        radius + np.linspace(1e-3, 5.0 / alpha, 120),
    ])
    dists = np.concatenate([line, [radius + 1.0 / alpha, radius + 12.0 / alpha]])
    pts = center[None, :] + dists[:, None] * direction[None, :]
    kernel = delay_kernel(boxes, pts, alpha_raw)[:, 0]
    factors = kernel[:len(line)] + perturb
    inside = factors[line <= radius]
    v_inside = float(np.abs(inside - 1.0).max())
    beyond = factors[line > radius]
    v_monotone = float(np.maximum(np.diff(beyond), 0.0).max()) if len(beyond) > 1 else 0.0
    v_anchor = abs(float(kernel[-2] + perturb) - np.exp(-1.0))
    # far-point suppression: delta scales by the factor, so the state-update
    # magnitude ratio with/without the kernel is the factor itself
    v_suppress = max(0.0, float(kernel[-1]) - 1e-4)
    return max(v_inside, v_monotone, v_anchor, v_suppress)


_SUITES = {
    "attn_recurrence": (_case_attn, 1e-12),
    "scan_conv": (_case_scan_conv, 1e-12),
    "scan_chunked": (_case_scan_chunked, 1e-12),
    "grad_check": (_case_grad, 1e-5),
    "delay_monotone": (_case_delay, 1e-12),
}
SUITE_NAMES = tuple(_SUITES)


def run_equivalence_suite(kind: str, seeds: int = 20,
                          perturb: float = 0.0) -> EquivalenceReport:
    """Run one named oracle over seeded random desk-scale instances, at the
    suite's own tolerance.

    Failures are reported, never raised. perturb injects a deliberate error
    into the checked side (a negative-control hook for the CLI).
    """
    if kind not in _SUITES:
        raise ValueError(f"unknown suite {kind!r}; choose from {SUITE_NAMES}")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    case, tol = _SUITES[kind]
    worst = 0.0
    for seed in range(seeds):
        err = case(PrngStream(seed), perturb)
        worst = max(worst, float(err))  # Python floats: to_dict() feeds json
    return EquivalenceReport(suite=kind, max_abs_err=worst, cases=seeds, tolerance=tol)


def _f32_attention(feats: np.ndarray) -> np.ndarray:
    """Dense self-attention over a scene's (M, C) features, used only for timing.

    Blocks of 256 rows with in-place softmax, so the working set stays
    cache-sized at every M; otherwise the small sizes run cache-resident and
    the fitted exponent measures the allocator, not the quadratic work.
    """
    m, e = feats.shape
    out = np.empty_like(feats)
    inv = np.float32(1.0 / np.sqrt(e))
    ft = feats.T.copy()
    for lo in range(0, m, 256):
        hi = min(lo + 256, m)
        s = feats[lo:hi] @ ft
        s *= inv
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        out[lo:hi] = s @ feats
    return out


def complexity_bench(m_values: list[int], repeats: int = 5) -> dict:
    """Median wall-times of one decoder layer vs f32 M x M attention.

    Per size M, the layer is decoder_stack with num_layers=1 at
    DecoderConfig()'s other settings, on a synth_scene of M points, half on
    box surfaces; the attention runs on that scene's features. Returns rows
    {M, layer_time, attention_time} plus log-log slopes. Machine constants
    cancel in the slopes: the layer should sit near 1, dense attention near
    2. Every size gets one untimed warmup pass and the timed repeats
    interleave across sizes, so page faults and clock ramp-up do not bias
    the small sizes. Each slope is the median of the slopes fitted to single
    sweeps over all sizes, so a machine whose speed drifts between sweeps
    moves every point of a fit alike. The timing runs in one child process
    whose environment limits the BLAS and OpenMP pools to one worker. The
    child holds every size's scene and runs one stack at a time; sizes whose
    summed issm._layer_bytes exceed physical memory raise MemoryError before
    it starts, and a child that fails raises ChildProcessError.
    """
    if len(m_values) < 2:
        raise ValueError(f"need at least two sizes to fit a slope, got {m_values}")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError(f"sizes must be strictly ascending, got {m_values}")
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3, got {repeats}")
    cfg = DecoderConfig()
    if m_values[0] < cfg.num_states:  # decoder_stack's own floor: one point per state
        raise ValueError(f"sizes must be >= {cfg.num_states}, the decoder's states, "
                         f"got {m_values[0]}")
    _require_memory(sum(_layer_bytes(m, cfg.num_states, cfg.channels, cfg.state_dim,
                                     cfg.corr_dim, cfg.kernel_size) for m in m_values),
                    f"sizes {m_values}", "the decoder layer's arrays")
    # imported here, not at the top: subprocess alone adds 0.6 MB of RSS to
    # every process that imports dest3d
    import json
    import subprocess

    src = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = ("import json, sys; from dest3d.verify import _time_layer_and_attention; "
             "print(json.dumps(_time_layer_and_attention(*json.loads(sys.argv[1]))))")
    proc = subprocess.run([sys.executable, "-c", child, json.dumps([m_values, repeats])],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        status = (f"was killed by signal {-proc.returncode}" if proc.returncode < 0
                  else f"exited with status {proc.returncode}")
        last = proc.stderr.strip().splitlines()[-1:]
        raise ChildProcessError(f"complexity_bench timing process {status}"
                                + "".join(f": {line}" for line in last))
    return json.loads(proc.stdout)


def _time_layer_and_attention(m_values: list[int], repeats: int) -> dict:
    """complexity_bench's timing, run in the process whose pools it pinned."""
    cfg = replace(DecoderConfig(), num_layers=1)
    weights = decoder_weights_init(PrngStream(0), cfg)
    cases = {}
    for m in m_values:
        scene = synth_scene(points_per_box=m // 6, noise_points=m - 3 * (m // 6),
                            feature_dim=cfg.channels)
        cases[m] = (partial(decoder_stack, scene, cfg, weights),
                    partial(_f32_attention, scene.features.astype(np.float32)))

    times = {m: ([], []) for m in m_values}
    for run_layer, run_attn in cases.values():  # warmup
        run_layer()
        run_attn()
    for side in (0, 1):  # every layer repeat, then every attention repeat
        for _ in range(repeats):
            for m, runs in cases.items():
                t0 = time.perf_counter()
                runs[side]()
                times[m][side].append(time.perf_counter() - t0)

    rows = [{"M": m, "layer_time": float(np.median(times[m][0])),
             "attention_time": float(np.median(times[m][1]))} for m in m_values]
    logm = np.log(m_values)

    def slope(side: int) -> float:
        fits = [np.polyfit(logm, np.log([times[m][side][r] for m in m_values]), 1)[0]
                for r in range(repeats)]
        return float(np.median(fits))

    return {"rows": rows, "layer_slope": slope(0), "attention_slope": slope(1)}

import tracemalloc

import numpy as np
import pytest

from dest3d.numerics import PrngStream
from dest3d.ssm import (
    _BLOCK,
    ScanInputs,
    ScanOutputs,
    _recur,
    discretize_zoh,
    finite_diff_grad,
    lti_conv_form,
    scan_backward,
    scan_chunked,
    scan_sequential,
)


def random_inputs(seed, m, k, e):
    rng = PrngStream(seed)
    delta = rng.uniform((m, k, e), 0.0, 1.0)
    a = -rng.uniform((e,), 0.2, 1.5)
    a_bar, b_bar = discretize_zoh(delta, a, rng.normal((m, k)))
    return ScanInputs(a_bar=a_bar, b_bar=b_bar, c=rng.normal((m, k)),
                      x=rng.normal((m, e)), h0=rng.normal((k, e)))


class TestDiscretize:
    def test_zero_timestep_limit(self):
        a_bar, b_bar = discretize_zoh(np.zeros((2, 2, 2)), -np.ones(2), np.ones((2, 2)))
        np.testing.assert_array_equal(a_bar, 1.0)
        np.testing.assert_array_equal(b_bar, 0.0)

    def test_a_bar_in_unit_interval(self):
        rng = PrngStream(4)
        a_bar, _ = discretize_zoh(rng.uniform((3, 2, 5), 0, 2),
                                  -rng.uniform((5,), 0.1, 2), rng.normal((3, 2)))
        assert (a_bar > 0).all() and (a_bar <= 1).all()

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            discretize_zoh(-np.ones((1, 1, 1)), np.array([-1.0]), np.ones((1, 1)))


class TestScanSequential:
    def test_frozen_states(self):
        rng = PrngStream(1)
        m, k, e = 5, 3, 2
        h0 = rng.normal((k, e))
        c = rng.normal((m, k))
        out = scan_sequential(ScanInputs(a_bar=np.ones((m, k, e)),
                                         b_bar=np.zeros((m, k, e)),
                                         c=c, x=rng.normal((m, e)), h0=h0))
        np.testing.assert_array_equal(out.h_final, h0)
        for t in range(m):
            np.testing.assert_allclose(out.y[t], c[t] @ h0, rtol=1e-14)

    def test_hand_recurrence(self):
        out = scan_sequential(ScanInputs(
            a_bar=np.full((2, 1, 1), 0.5), b_bar=np.ones((2, 1, 1)),
            c=np.ones((2, 1)), x=np.array([[1.0], [2.0]]), h0=np.zeros((1, 1))))
        np.testing.assert_allclose(out.y.ravel(), [1.0, 2.5])
        np.testing.assert_allclose(out.h_final.ravel(), [2.5])

    def test_zero_observation(self):
        inputs = random_inputs(2, 6, 2, 3)
        silenced = ScanInputs(a_bar=inputs.a_bar, b_bar=inputs.b_bar,
                              c=np.zeros_like(inputs.c), x=inputs.x, h0=inputs.h0)
        out = scan_sequential(silenced)
        np.testing.assert_array_equal(out.y, 0.0)
        ref = scan_sequential(inputs)
        np.testing.assert_array_equal(out.h_final, ref.h_final)

    def test_trace_last_equals_final(self):
        inputs = random_inputs(3, 7, 2, 2)
        trace = np.empty((7, 2, 2))
        h = _recur(inputs.a_bar, inputs.b_bar, inputs.x, inputs.h0, trace=trace)
        np.testing.assert_array_equal(trace[-1], h)
        np.testing.assert_array_equal(h, scan_sequential(inputs).h_final)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScanInputs(a_bar=np.ones((2, 1, 1)), b_bar=np.ones((2, 1, 1)),
                       c=np.ones((3, 1)), x=np.ones((2, 1)), h0=np.ones((1, 1)))


    def test_stability_bound(self):
        inputs = random_inputs(5, 50, 3, 4)
        trace = np.empty((50, 3, 4))
        _recur(inputs.a_bar, inputs.b_bar, inputs.x, inputs.h0, trace=trace)
        bound = np.abs(inputs.h0).max() + np.abs(
            inputs.b_bar * inputs.x[:, None, :]).sum(axis=0).max()
        assert np.abs(trace).max() <= bound + 1e-12


class TestScanChunked:
    def test_single_chunk_bit_identical(self):
        inputs = random_inputs(6, 33, 2, 4)
        ref = scan_sequential(inputs)
        out = scan_chunked(inputs, 33)
        np.testing.assert_array_equal(out.y, ref.y)
        np.testing.assert_array_equal(out.h_final, ref.h_final)

    def test_chunk_one(self):
        inputs = random_inputs(7, 20, 2, 3)
        ref = scan_sequential(inputs)
        out = scan_chunked(inputs, 1)
        np.testing.assert_allclose(out.y, ref.y, atol=1e-13)
        np.testing.assert_allclose(out.h_final, ref.h_final, atol=1e-13)

    def test_spec_shape_equivalence(self):
        inputs = random_inputs(8, 257, 8, 16)
        ref = scan_sequential(inputs)
        out = scan_chunked(inputs, 64)
        assert np.abs(out.y - ref.y).max() < 1e-12
        assert np.abs(out.h_final - ref.h_final).max() < 1e-12

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, 64, 257])
    def test_many_chunk_sizes(self, chunk):
        inputs = random_inputs(9, 257, 4, 8)
        ref = scan_sequential(inputs)
        out = scan_chunked(inputs, chunk)
        assert np.abs(out.y - ref.y).max() < 1e-12

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            scan_chunked(random_inputs(1, 4, 1, 1), 0)


def loop_scan(inputs, h, steps, y, trace):
    """Per-step reference recurrence over the given steps; returns the last state."""
    for t in steps:
        h = inputs.a_bar[t] * h + inputs.b_bar[t] * inputs.x[t]
        if y is not None:
            y[t] = inputs.c[t] @ h
            trace[t] = h
    return h


def loop_chunked(inputs, chunk):
    """Per-step reference of scan_chunked's summaries and replay; returns (y, h)."""
    m, k, e = inputs.shape
    spans = [range(s, min(s + chunk, m)) for s in range(0, m, chunk)]
    entries = [inputs.h0]
    for sp in spans[:-1]:
        acc_a = np.prod(inputs.a_bar[sp.start:sp.stop], axis=0)
        acc_b = loop_scan(inputs, np.zeros((k, e)), sp, None, None)
        entries.append(acc_a * entries[-1] + acc_b)
    y, trace, h = np.empty((m, e)), np.empty((m, k, e)), inputs.h0
    for sp, h_in in zip(spans, entries):
        h = loop_scan(inputs, h_in, sp, y, trace)
    return y, h


class TestBlockedRecurrence:
    """The blocked recurrence equals a plain per-step loop bit for bit."""

    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 257])
    @pytest.mark.parametrize("k", [1, 4, 64])
    @pytest.mark.parametrize("traced", [False, True])
    def test_bitwise_equal_to_step_loop(self, m, k, traced):
        inputs = random_inputs(100 + m + k, m, k, 8)
        saved = {f: getattr(inputs, f).copy() for f in ("a_bar", "b_bar", "c", "x", "h0")}
        y_ref, trace_ref = np.empty((m, 8)), np.empty((m, k, 8))
        h_ref = loop_scan(inputs, inputs.h0, range(m), y_ref, trace_ref)
        out = scan_sequential(inputs)
        if traced:
            y, trace = np.empty((m, 8)), np.empty((m, k, 8))
            h = _recur(inputs.a_bar, inputs.b_bar, inputs.x, inputs.h0, inputs.c, y, trace)
            np.testing.assert_array_equal(trace, trace_ref)
            assert not np.shares_memory(h, trace)
            out = ScanOutputs(y=y, h_final=h)
        runs = [(out, (y_ref, h_ref))]
        for chunk in (1, 7, 64, max(m, 1)):
            runs.append((scan_chunked(inputs, chunk), loop_chunked(inputs, chunk)))
        for out, (y, h) in runs:
            np.testing.assert_array_equal(out.y, y)
            np.testing.assert_array_equal(out.h_final, h)
            assert not np.shares_memory(out.h_final, inputs.h0)
        for f, before in saved.items():
            np.testing.assert_array_equal(getattr(inputs, f), before)

    def test_scratch_bounded_without_trace(self):
        m, k, e = 4096, 16, 32
        inputs = random_inputs(31, m, k, e)
        tracemalloc.start()
        try:
            scan_sequential(inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m * k * e * 8


class TestLtiConvForm:
    def test_zero_input_matrix(self):
        rng = PrngStream(10)
        y = lti_conv_form(rng.uniform((2, 3), 0, 1), np.zeros((2, 3)),
                          rng.normal((2,)), rng.normal((6, 3)))
        np.testing.assert_array_equal(y, 0.0)

    def test_single_step(self):
        rng = PrngStream(11)
        a0, b0 = rng.uniform((3, 2), 0, 1), rng.normal((3, 2))
        c0, x = rng.normal((3,)), rng.normal((1, 2))
        y = lti_conv_form(a0, b0, c0, x)
        expected = np.einsum("k,ke,e->e", c0, b0, x[0])
        np.testing.assert_allclose(y[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_broadcast_scan(self, seed):
        rng = PrngStream(100 + seed)
        m, k, e = 32, 3, 4
        delta = rng.uniform((k, e), 0, 1)
        a_bar0 = np.exp(-delta * rng.uniform((e,), 0.2, 1.5))
        b_bar0 = delta * rng.normal((k,))[:, None]
        c0 = rng.normal((k,))
        x = rng.normal((m, e))
        y_conv = lti_conv_form(a_bar0, b_bar0, c0, x)
        scan = scan_sequential(ScanInputs(
            a_bar=np.broadcast_to(a_bar0, (m, k, e)).copy(),
            b_bar=np.broadcast_to(b_bar0, (m, k, e)).copy(),
            c=np.broadcast_to(c0, (m, k)).copy(), x=x, h0=np.zeros((k, e))))
        assert np.abs(y_conv - scan.y).max() < 1e-12


class TestScanBackward:
    def test_zero_cotangents(self):
        inputs = random_inputs(12, 5, 2, 3)
        g = scan_backward(inputs, np.zeros((5, 3)), np.zeros((2, 3)))
        for name in ("a_bar", "b_bar", "c", "x", "h0"):
            np.testing.assert_array_equal(getattr(g, name), 0.0)

    def test_single_step_closed_form(self):
        # M=K=E=1: dL/dx1 = c1*bbar1*dy1 + bbar1*dh
        a, b, c = 0.7, 1.3, -0.4
        dy, dh = 2.0, 0.5
        inputs = ScanInputs(a_bar=np.full((1, 1, 1), a), b_bar=np.full((1, 1, 1), b),
                            c=np.full((1, 1), c), x=np.full((1, 1), 0.9),
                            h0=np.full((1, 1), 0.2))
        g = scan_backward(inputs, np.full((1, 1), dy), np.full((1, 1), dh))
        np.testing.assert_allclose(g.x[0, 0], c * b * dy + b * dh, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_finite_differences(self, seed):
        m, k, e = 6, 3, 4
        inputs = random_inputs(1000 + seed, m, k, e)
        rng = PrngStream(5000 + seed)
        wy, wh = rng.normal((m, e)), rng.normal((k, e))
        grads = scan_backward(inputs, dy=wy, dh_final=wh)
        for name in ("a_bar", "b_bar", "c", "x", "h0"):
            def f(arr, _name=name):
                kw = {n: getattr(inputs, n) for n in ("a_bar", "b_bar", "c", "x", "h0")}
                kw[_name] = arr
                out = scan_sequential(ScanInputs(**kw))
                return float((out.y * wy).sum() + (out.h_final * wh).sum())

            numeric = finite_diff_grad(f, getattr(inputs, name).copy(), step=1e-5)
            analytic = getattr(grads, name)
            diff = np.abs(analytic - numeric)
            ok = (diff <= 1e-8) | (diff <= 1e-5 * np.abs(numeric))
            assert ok.all(), f"{name}: worst diff {diff.max()}"


def loop_backward(inputs, dy, dh_final):
    """Per-step reference of scan_backward: the adjoint walked from t = M-1 down."""
    m, k, e = inputs.shape
    h_trace = np.empty((m, k, e))
    loop_scan(inputs, inputs.h0, range(m), np.empty((m, e)), h_trace)
    g = dh_final.copy()
    grads = {"a_bar": np.zeros((m, k, e)), "b_bar": np.zeros((m, k, e)),
             "c": np.zeros((m, k)), "x": np.zeros((m, e))}
    for t in range(m - 1, -1, -1):
        grads["c"][t] = h_trace[t] @ dy[t]
        g += inputs.c[t][:, None] * dy[t]
        grads["a_bar"][t] = g * (inputs.h0 if t == 0 else h_trace[t - 1])
        grads["b_bar"][t] = g * inputs.x[t]
        grads["x"][t] = (g * inputs.b_bar[t]).sum(axis=0)
        g = g * inputs.a_bar[t]
    grads["h0"] = g
    return grads


class TestScanBackwardBitwise:
    """scan_backward equals the per-step adjoint loop bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, _BLOCK + 1, 2 * _BLOCK + 2, None])
    def test_equal_to_loop(self, m):
        # 30 seeds per fixed length; None draws the length per seed
        for seed in range(30):
            rng = PrngStream(7000 + seed)
            steps = int(rng.integers(1, 140)) if m is None else m
            k, e = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            inputs = random_inputs(8000 + seed, steps, k, e)
            saved = {f: getattr(inputs, f).copy() for f in ("a_bar", "b_bar", "c", "x", "h0")}
            dy, dh = rng.normal((steps, e)), rng.normal((k, e))
            dh_saved = dh.copy()
            grads = scan_backward(inputs, dy, dh)
            for name, ref in loop_backward(inputs, dy, dh).items():
                np.testing.assert_array_equal(getattr(grads, name), ref, err_msg=name)
            assert not np.shares_memory(grads.h0, dh)
            np.testing.assert_array_equal(dh, dh_saved)
            for f, before in saved.items():
                np.testing.assert_array_equal(getattr(inputs, f), before)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float((v**2).sum()), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_linear_exact(self):
        w = np.array([3.0, -1.0, 0.5])
        grad = finite_diff_grad(lambda v: float(v @ w), np.zeros(3))
        np.testing.assert_allclose(grad, w, atol=1e-10)

    def test_sine(self):
        grad = finite_diff_grad(lambda v: float(np.sin(v[0])), np.zeros(1))
        np.testing.assert_allclose(grad, [1.0], atol=1e-10)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.zeros(1), step=0.0)

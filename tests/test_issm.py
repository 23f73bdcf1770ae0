import math
import tracemalloc

import numpy as np
import pytest

from dest3d import issm
from dest3d.geometry import Box3D, box_vertices, synth_scene
from dest3d.issm import (
    TABLE_EXTENT,
    CorrelationMlp,
    CorrelationTable,
    DirectionWeights,
    _chunk_rows,
    _param_weights,
    IbsWeights,
    correlation_mlp_init,
    correlation_table_init,
    delay_kernel,
    gen_params,
    ibs_forward,
    ibs_weights_init,
    spatial_correlation,
)
from dest3d.numerics import LinearWeights, PrngStream, depthwise_conv1d, layer_norm, linear, silu
from dest3d.ssm import ScanInputs, discretize_zoh, scan_sequential


def make_boxes(rng, k):
    return [Box3D(center=rng.normal((3,)), size=rng.uniform((3,), 0.4, 1.2),
                  yaw=float(rng.uniform((), -3.0, 3.0))) for _ in range(k)]


def rotz(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def probe_points(rng, boxes):
    """Per box, 20 points: 4 inside it, 4 on its faces, 4 at 5 to 20 times
    its circumradius from its center, and its 8 vertices."""
    chunks = []
    for box in boxes:
        local = rng.uniform((8, 3), -1.0, 1.0)
        local[np.arange(4, 8), np.arange(4) % 3] = [1.0, -1.0, 1.0, -1.0]
        far = rng.normal((4, 3))
        far *= rng.uniform((4, 1), 5.0, 20.0) * np.linalg.norm(box.size) / 2.0
        far /= np.linalg.norm(far, axis=1, keepdims=True)
        chunks += [(local * (box.size / 2.0)) @ box.rotation().T + box.center,
                   box.center + far, box_vertices(box)]
    return np.concatenate(chunks)


def conditioning(points, boxes, w: IbsWeights, corr, metric="center"):
    """The (s, delay) pair ibs_forward takes, built as decoder_layer builds it."""
    return (spatial_correlation(points, boxes, corr),
            delay_kernel(boxes, points, w.alpha_raw, metric=metric))


def far_point_case(seed, kernel_size=8):
    """A two-state block on two points: the first box's center, and a far
    point 12 / alpha + 5 past the largest circumscribed radius from the mean
    box center, with alpha = softplus(1)."""
    rng = PrngStream(seed)
    k, e = 2, 6
    boxes = make_boxes(rng, k)
    alpha = float(np.logaddexp(0, 1.0))
    radius = max(0.5 * np.linalg.norm(b.size) for b in boxes)
    center = np.mean([b.center for b in boxes], axis=0)
    far_point = center + np.array([radius + 12.0 / alpha + 5.0, 0.0, 0.0])
    pts = np.vstack([boxes[0].center, far_point])
    w = ibs_weights_init(rng, channels=4, state_dim=e, corr_dim=3, kernel_size=kernel_size)
    w.alpha_raw = 1.0
    table = correlation_table_init(rng, 3)
    return rng.normal((2, 4)), rng.normal((k, 4)), pts, boxes, w, table


# ---------------------------------------------------------------------------
# scalar-loop transcription of the whole bidirectional block, used as the
# independence oracle below; everything here is plain Python floats
# ---------------------------------------------------------------------------

def s_sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    ev = math.exp(v)
    return ev / (1.0 + ev)


def s_silu(v):
    return v * s_sigmoid(v)


def s_softplus(v):
    if v > 30:
        return v + math.log1p(math.exp(-v))
    return math.log1p(math.exp(v))


def s_norm(row, gamma, beta, eps=1e-6):
    n = len(row)
    mu = sum(row) / n
    var = sum((r - mu) ** 2 for r in row) / n
    return [(r - mu) / math.sqrt(var + eps) * g + b
            for r, g, b in zip(row, gamma, beta)]


def s_linear(row, w: LinearWeights):
    out = []
    for o in range(w.out_features):
        acc = 0.0 if w.bias is None else float(w.bias[o])
        for i in range(w.in_features):
            acc += row[i] * float(w.weight[o, i])
        out.append(acc)
    return out


def s_conv_causal(rows, kernel):
    m, e = len(rows), len(rows[0])
    ks = kernel.shape[1]
    out = [[0.0] * e for _ in range(m)]
    for t in range(m):
        for ch in range(e):
            acc = 0.0
            for j in range(ks):
                if t - j >= 0:
                    acc += float(kernel[ch, j]) * rows[t - j][ch]
            out[t][ch] = acc
    return out


def s_trilinear(grid, coord):
    g = grid.shape[0]
    c = [min(max(v, 0.0), g - 1.0) for v in coord]
    i0 = [min(int(math.floor(v)), g - 2) for v in c]
    fr = [c[i] - i0[i] for i in range(3)]
    d = grid.shape[3]
    out = [0.0] * d
    for dx in (0, 1):
        wx = fr[0] if dx else 1 - fr[0]
        for dy in (0, 1):
            wy = fr[1] if dy else 1 - fr[1]
            for dz in (0, 1):
                wz = fr[2] if dz else 1 - fr[2]
                cell = grid[i0[0] + dx, i0[1] + dy, i0[2] + dz]
                for a in range(d):
                    out[a] += wx * wy * wz * float(cell[a])
    return out


def s_box_local(p, box):
    rel = [p[i] - float(box.center[i]) for i in range(3)]
    cy, sy = math.cos(box.yaw), math.sin(box.yaw)
    # world->local is the transpose of the z rotation
    lx = cy * rel[0] + sy * rel[1]
    ly = -sy * rel[0] + cy * rel[1]
    lz = rel[2]
    return [lx / (float(box.size[0]) / 2), ly / (float(box.size[1]) / 2),
            lz / (float(box.size[2]) / 2)]


def s_spatial_correlation(points, boxes, table):
    out = []
    for p in points:
        row = []
        for box in boxes:
            local = s_box_local(p, box)
            clamped = [min(max(v, -TABLE_EXTENT), TABLE_EXTENT) for v in local]
            idx = [(v + TABLE_EXTENT) / (2 * TABLE_EXTENT) * 9.0 for v in clamped]
            row.append(s_trilinear(table.grid, idx))
        out.append(row)
    return out


def s_delay(points, boxes, alpha_raw):
    alpha = s_softplus(alpha_raw)
    out = []
    for p in points:
        row = []
        for box in boxes:
            r = 0.5 * math.sqrt(sum(float(s) ** 2 for s in box.size))
            d = math.sqrt(sum((p[i] - float(box.center[i])) ** 2 for i in range(3)))
            row.append(math.exp(alpha * min(r - d, 0.0)))
        out.append(row)
    return out


def transcribe_block(x, h0, points, boxes, w: IbsWeights, table):
    """Straight-line scalar version of the bidirectional block."""
    m, c = x.shape
    k = h0.shape[0]
    e = w.in_x.out_features
    xn = [s_norm(list(map(float, x[i])), w.norm_x_gamma, w.norm_x_beta) for i in range(m)]
    hn = [s_norm(list(map(float, h0[i])), w.norm_h_gamma, w.norm_h_beta) for i in range(k)]
    x_hat = [s_linear(r, w.in_x) for r in xn]
    z = [s_linear(r, w.in_z) for r in xn]
    h_hat0 = [s_linear(r, w.in_h) for r in hn]
    pts = [list(map(float, p)) for p in points]
    s = s_spatial_correlation(pts, boxes, table)           # (M)(K)(D)
    delay = s_delay(pts, boxes, w.alpha_raw)               # (M)(K)

    results = {}
    for direction, dw in (("forward", w.forward), ("backward", w.backward)):
        if direction == "backward":
            conv_in = list(reversed(x_hat))
            conv = list(reversed(s_conv_causal(conv_in, dw.conv_kernel)))
        else:
            conv = s_conv_causal(x_hat, dw.conv_kernel)
        xo = [[s_silu(v) for v in row] for row in conv]
        b = [[s_linear(xo[t], dw.b_from_x)[0] + s_linear(s[t][j], dw.b_from_s)[0]
              for j in range(k)] for t in range(m)]
        cc = [[s_linear(xo[t], dw.c_from_x)[0] + s_linear(s[t][j], dw.c_from_s)[0]
               for j in range(k)] for t in range(m)]
        delta = [[[s_softplus(dx + ds) * delay[t][j]
                   for dx, ds in zip(s_linear(xo[t], dw.delta_from_x),
                                     s_linear(s[t][j], dw.delta_from_s))]
                  for j in range(k)] for t in range(m)]
        # scan over the direction-ordered sequence
        order = range(m) if direction == "forward" else range(m - 1, -1, -1)
        h = [[float(h_hat0[j][a]) for a in range(e)] for j in range(k)]
        y = [[0.0] * e for _ in range(m)]
        for t in order:
            for j in range(k):
                for a in range(e):
                    a_bar = math.exp(delta[t][j][a] * float(dw.a_vec[a]))
                    b_bar = delta[t][j][a] * b[t][j]
                    h[j][a] = a_bar * h[j][a] + b_bar * xo[t][a]
            for a in range(e):
                y[t][a] = sum(cc[t][j] * h[j][a] for j in range(k))
        results[direction] = (y, h)

    y_out = []
    for t in range(m):
        gate = [s_silu(v) for v in z[t]]
        merged = [results["forward"][0][t][a] * gate[a]
                  + results["backward"][0][t][a] * gate[a] for a in range(e)]
        y_out.append([v + float(x[t][i]) for i, v in enumerate(s_linear(merged, w.out_y))])
    h_out = []
    for j in range(k):
        summed = [results["forward"][1][j][a] + results["backward"][1][j][a]
                  for a in range(e)]
        h_out.append([v + float(h0[j][i]) for i, v in enumerate(s_linear(summed, w.out_h))])
    return np.array(y_out), np.array(h_out)


class TestSpatialCorrelation:
    def test_constant_table_ignores_geometry(self):
        rng = PrngStream(0)
        table = CorrelationTable(grid=np.full((10, 10, 10, 3), 2.5))
        s = spatial_correlation(rng.normal((6, 3)), make_boxes(rng, 2), table)
        np.testing.assert_allclose(s, 2.5, rtol=1e-12)

    def test_center_sample_deterministic(self):
        rng = PrngStream(1)
        table = correlation_table_init(rng, 4)
        box = make_boxes(rng, 1)[0]
        s1 = spatial_correlation(box.center[None, :], [box], table)
        s2 = spatial_correlation(box.center[None, :], [box], table)
        np.testing.assert_array_equal(s1, s2)
        assert s1.shape == (1, 1, 4)

    def test_mlp_zero_weights_gives_eight_beta(self):
        rng = PrngStream(2)
        beta = np.array([0.3, -1.1])
        mlp = CorrelationMlp(hidden=LinearWeights(np.zeros((5, 3)), np.zeros(5)),
                             out=LinearWeights(np.zeros((2, 5)), beta))
        s = spatial_correlation(rng.normal((4, 3)), make_boxes(rng, 3), mlp)
        np.testing.assert_allclose(s, np.broadcast_to(8 * beta, (4, 3, 2)), rtol=1e-12)

    @pytest.mark.parametrize("corr", [None, "table"])
    def test_other_form_type_rejected(self, corr):
        # anything but the two forms fails by type, naming the type it got
        rng = PrngStream(2)
        with pytest.raises(TypeError, match=type(corr).__name__):
            spatial_correlation(rng.normal((4, 3)), make_boxes(rng, 2), corr)

    def test_matches_scalar_oracle(self):
        rng = PrngStream(3)
        table = correlation_table_init(rng, 5)
        boxes = make_boxes(rng, 2)
        pts = rng.normal((7, 3))
        s = spatial_correlation(pts, boxes, table)
        oracle = s_spatial_correlation([list(map(float, p)) for p in pts], boxes, table)
        np.testing.assert_allclose(s, np.array(oracle), atol=1e-12)

    @pytest.mark.parametrize("hidden_bias", [True, False], ids=["hb", "no_hb"])
    @pytest.mark.parametrize("out_bias", [True, False], ids=["ob", "no_ob"])
    def test_mlp_matches_vertex_sum_oracle(self, hidden_bias, out_bias):
        # sum_v out(silu(hidden(p - v))) over box_vertices, one offset at a
        # time in plain floats, with nonzero random weights on yawed boxes
        rng = PrngStream(4)
        mlp = CorrelationMlp(hidden=LinearWeights(rng.normal((6, 3)),
                                                  rng.normal((6,)) if hidden_bias else None),
                             out=LinearWeights(rng.normal((4, 6)),
                                               rng.normal((4,)) if out_bias else None))
        boxes = make_boxes(rng, 3)
        pts = probe_points(rng, boxes[:1])
        oracle = np.zeros((len(pts), len(boxes), 4))
        for j, box in enumerate(boxes):
            verts = box_vertices(box)
            for m, p in enumerate(pts):
                for v in verts:
                    offset = [float(p[i] - v[i]) for i in range(3)]
                    hidden = [s_silu(h) for h in s_linear(offset, mlp.hidden)]
                    oracle[m, j] += s_linear(hidden, mlp.out)
        assert max_rel_err(spatial_correlation(pts, boxes, mlp), oracle) < 1e-12

    def test_mlp_bitwise_equal_to_strided_vertex_sum(self):
        # at the mlp_vertex shape, the per-box accumulator gives the same
        # bits as adding each vertex's silu into the (M, K, H) sum directly
        m, k, h, d = 2048, 16, 16, 16
        rng = PrngStream(6)
        mlp = CorrelationMlp(hidden=LinearWeights(rng.normal((h, 3)), rng.normal((h,))),
                             out=LinearWeights(rng.normal((d, h)), rng.normal((d,))))
        points, boxes = rng.normal((m, 3), 0.0, 2.0), make_boxes(rng, k)
        ph = points @ mlp.hidden.weight.T + mlp.hidden.bias
        hsum = np.zeros((m, k, h))
        for j, box in enumerate(boxes):
            for vh in box_vertices(box) @ mlp.hidden.weight.T:
                hsum[:, j] += silu(ph - vh)
        expected = (hsum.reshape(m * k, h) @ mlp.out.weight.T).reshape(m, k, d)
        expected += 8.0 * mlp.out.bias
        assert np.array_equal(spatial_correlation(points, boxes, mlp), expected)

    @pytest.mark.parametrize("form", ["table", "mlp"])
    def test_peak_memory_per_box(self, form):
        # s is 4 MiB at M=2048, K=16, D=16, and the per-box loop adds about
        # one more s-sized array (measured 7.1 MiB table; 8.3 MiB mlp, whose
        # three (M, H) loop buffers are freed before its output layer). An
        # all-K form holds an (M, K, 8, D or H) intermediate, 32 MiB here.
        m, k, d = 2048, 16, 16
        rng = PrngStream(5)
        corr = (correlation_table_init(rng, d) if form == "table"
                else correlation_mlp_init(rng, d))
        points, boxes = rng.normal((m, 3), 0.0, 2.0), make_boxes(rng, k)
        bound = 10 * 2**20
        assert bound < m * k * 8 * d * 8
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            spatial_correlation(points, boxes, corr)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < bound, peak / 2**20


def params_of(s, x_feats, w: DirectionWeights):
    """gen_params on every row of s at once, from the conv features x_feats
    projected as _run_direction projects them."""
    w_x, w_s, bias = _param_weights(w)
    m, k, _ = s.shape
    return gen_params(s, x_feats @ w_x + bias, w_s,
                      np.empty((m, k, w.delta_from_s.out_features)), np.empty((m, k, 2)))


class TestGenParams:
    def test_zero_spatial_projections(self):
        rng = PrngStream(4)
        w = DirectionWeights(
            conv_kernel=rng.normal((6, 8)),
            b_from_x=LinearWeights(rng.normal((1, 6)), rng.normal((1,))),
            b_from_s=LinearWeights(np.zeros((1, 3)), np.zeros(1)),
            c_from_x=LinearWeights(rng.normal((1, 6)), rng.normal((1,))),
            c_from_s=LinearWeights(np.zeros((1, 3)), np.zeros(1)),
            delta_from_x=LinearWeights(rng.normal((6, 6)), rng.normal((6,))),
            delta_from_s=LinearWeights(np.zeros((6, 3)), np.zeros(6)),
            a_vec=-np.ones(6))
        s = rng.normal((5, 2, 3))
        x = rng.normal((5, 6))
        delta_logits, b, _ = params_of(s, x, w)
        # every state column identical: parameters depend on x alone
        np.testing.assert_allclose(b[:, 0], b[:, 1], rtol=1e-14)
        np.testing.assert_allclose(delta_logits[:, 0], delta_logits[:, 1],
                                   rtol=1e-14)

    def test_zero_input_projections(self):
        rng = PrngStream(5)
        w = DirectionWeights(
            conv_kernel=rng.normal((6, 8)),
            b_from_x=LinearWeights(np.zeros((1, 6)), np.zeros(1)),
            b_from_s=LinearWeights(rng.normal((1, 3)), rng.normal((1,))),
            c_from_x=LinearWeights(np.zeros((1, 6)), np.zeros(1)),
            c_from_s=LinearWeights(rng.normal((1, 3)), rng.normal((1,))),
            delta_from_x=LinearWeights(np.zeros((6, 6)), np.zeros(6)),
            delta_from_s=LinearWeights(rng.normal((6, 3)), rng.normal((6,))),
            a_vec=-np.ones(6))
        s = rng.normal((5, 2, 3))
        x1, x2 = rng.normal((5, 6)), rng.normal((5, 6))
        delta1, b1, _ = params_of(s, x1, w)
        delta2, b2, _ = params_of(s, x2, w)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(delta1, delta2)

    def test_additive_structure_oracle(self):
        rng = PrngStream(6)
        w = DirectionWeights(
            conv_kernel=rng.normal((4, 8)),
            b_from_x=LinearWeights(rng.normal((1, 4)), rng.normal((1,))),
            b_from_s=LinearWeights(rng.normal((1, 3)), rng.normal((1,))),
            c_from_x=LinearWeights(rng.normal((1, 4)), rng.normal((1,))),
            c_from_s=LinearWeights(rng.normal((1, 3)), rng.normal((1,))),
            delta_from_x=LinearWeights(rng.normal((4, 4)), rng.normal((4,))),
            delta_from_s=LinearWeights(rng.normal((4, 3)), rng.normal((4,))),
            a_vec=-np.ones(4))
        s = rng.normal((3, 2, 3))
        x = rng.normal((3, 4))
        delta_logits, b, _ = params_of(s, x, w)
        for m in range(3):
            for k in range(2):
                b_exp = (s_linear(list(map(float, x[m])), w.b_from_x)[0]
                         + s_linear(list(map(float, s[m, k])), w.b_from_s)[0])
                np.testing.assert_allclose(b[m, k], b_exp, atol=1e-12)
                d_exp = [dx + ds for dx, ds in zip(
                    s_linear(list(map(float, x[m])), w.delta_from_x),
                    s_linear(list(map(float, s[m, k])), w.delta_from_s))]
                np.testing.assert_allclose(delta_logits[m, k], d_exp, atol=1e-12)


class TestDelayKernel:
    def test_center_gives_one(self):
        rng = PrngStream(7)
        boxes = make_boxes(rng, 3)
        centers = np.stack([b.center for b in boxes])
        factors = delay_kernel(boxes, centers, alpha_raw=1.0)
        for i in range(3):
            assert factors[i, i] == 1.0

    def test_disabled_kernel(self):
        rng = PrngStream(8)
        boxes = make_boxes(rng, 2)
        factors = delay_kernel(boxes, rng.normal((10, 3)) * 10, alpha_raw=-80.0)
        np.testing.assert_allclose(factors, 1.0, atol=1e-12)

    def test_closed_form_value(self):
        # R=1, d=2: factor with alpha=1 is exp(-1); solve softplus(a)=1
        alpha_raw = float(np.log(np.expm1(1.0)))
        box = Box3D(center=np.zeros(3), size=2.0 * np.ones(3) / np.sqrt(3))
        np.testing.assert_allclose(0.5 * np.linalg.norm(box.size), 1.0, rtol=1e-12)
        factor = delay_kernel([box], np.array([[2.0, 0.0, 0.0]]), alpha_raw)
        np.testing.assert_allclose(factor[0, 0], np.exp(-1), rtol=1e-10)

    def test_unit_at_exact_radius_and_anchor(self):
        box = Box3D(center=np.zeros(3), size=np.array([1.0, 0.8, 0.6]))
        r = 0.5 * float(np.linalg.norm(box.size))
        alpha_raw = 1.3
        alpha = float(np.logaddexp(0, alpha_raw))
        pts = np.array([[r, 0, 0], [r + 1.0 / alpha, 0, 0]])
        factors = delay_kernel([box], pts, alpha_raw)[:, 0]
        assert factors[0] == 1.0
        np.testing.assert_allclose(factors[1], np.exp(-1), atol=1e-12)

    def test_monotone_beyond_radius(self):
        box = Box3D(center=np.zeros(3), size=np.ones(3))
        r = 0.5 * np.sqrt(3)
        d = r + np.linspace(0.01, 4.0, 200)
        pts = np.zeros((200, 3))
        pts[:, 0] = d
        f = delay_kernel([box], pts, alpha_raw=0.7)[:, 0]
        assert (np.diff(f) < 0).all()

    def test_metrics_agree_inside(self):
        box = Box3D(center=np.zeros(3), size=np.ones(3))
        for metric in ("center", "vertex", "surface"):
            f = delay_kernel([box], np.zeros((1, 3)), 1.0, metric=metric)
            assert f[0, 0] == 1.0

    @staticmethod
    def distances(boxes, points, metric, monkeypatch):
        # a zero radius makes every factor exp(-alpha d), with alpha = 1 here,
        # so d reads back as -log(factor)
        monkeypatch.setattr(issm, "circumscribed_radius", lambda box: 0.0)
        return -np.log(delay_kernel(boxes, points, math.log(math.e - 1.0), metric))

    def test_vertex_matches_nearest_vertex_oracle(self, monkeypatch):
        rng = PrngStream(11)
        boxes = make_boxes(rng, 4)
        pts = probe_points(rng, boxes)
        d = self.distances(boxes, pts, "vertex", monkeypatch)
        oracle = np.stack([np.linalg.norm(pts[:, None] - box_vertices(b)[None], axis=2).min(axis=1)
                           for b in boxes], axis=1)
        np.testing.assert_allclose(d, oracle, rtol=0, atol=1e-12)
        # each box's vertices are the last 8 of its 20 probe points
        at_vertex = np.concatenate([d[20 * j + 12:20 * j + 20, j] for j in range(4)])
        np.testing.assert_allclose(at_vertex, 0.0, atol=1e-12)

    def test_surface_matches_clip_rotate_back_oracle(self, monkeypatch):
        rng = PrngStream(12)
        boxes = make_boxes(rng, 4)
        pts = probe_points(rng, boxes)
        d = self.distances(boxes, pts, "surface", monkeypatch)
        oracle = np.empty_like(d)
        for j, box in enumerate(boxes):
            local = (pts - box.center) @ box.rotation() / (box.size / 2.0)
            nearest = np.clip(local, -1.0, 1.0) * (box.size / 2.0) @ box.rotation().T + box.center
            oracle[:, j] = np.linalg.norm(pts - nearest, axis=1)
        np.testing.assert_allclose(d, oracle, rtol=0, atol=1e-12)
        # inside and on the faces of its own box, a point is at distance 0
        own = np.concatenate([d[20 * j:20 * j + 8, j] for j in range(4)])
        np.testing.assert_allclose(own, 0.0, atol=1e-12)

    def test_unknown_metric(self):
        # checked before the per-box loop, so an empty box list does not hide it
        box = Box3D(center=np.zeros(3), size=np.ones(3))
        for boxes in ([box], []):
            with pytest.raises(ValueError, match="voronoi"):
                delay_kernel(boxes, np.zeros((3, 3)), 1.0, metric="voronoi")


class TestIbsForward:
    def micro(self, seed, m=4, k=2, c=4, e=8, d=3):
        rng = PrngStream(seed)
        w = ibs_weights_init(rng, channels=c, state_dim=e, corr_dim=d, kernel_size=8)
        table = correlation_table_init(rng, d)
        x = rng.normal((m, c))
        h0 = rng.normal((k, c))
        points = rng.normal((m, 3))
        boxes = make_boxes(rng, k)
        return x, h0, points, boxes, w, table

    def test_shapes_and_finiteness(self):
        x, h0, points, boxes, w, table = self.micro(42, m=4, k=1)
        y, h = ibs_forward(x, h0, *conditioning(points, boxes, w, table), w)
        assert y.shape == (4, 4) and h.shape == (1, 4)
        assert np.isfinite(y).all() and np.isfinite(h).all()

    def test_intermediate_shapes(self):
        m, k, c, e, d = 4, 2, 4, 8, 3
        x, h0, points, boxes, w, table = self.micro(0, m, k, c, e, d)
        _, _, trace = traced_block(x, h0, *conditioning(points, boxes, w, table), w)
        for direction in ("forward", "backward"):
            t = trace[direction]
            assert t["x_conv"].shape == (m, e)
            assert t["b"].shape == (m, k)
            assert t["c"].shape == (m, k)
            assert t["delta"].shape == (m, k, e)
            assert t["a_bar"].shape == (m, k, e)
            assert t["b_bar"].shape == (m, k, e)

    def test_zero_output_projections_pure_residual(self):
        x, h0, points, boxes, w, table = self.micro(1)
        w.out_y = LinearWeights(np.zeros_like(w.out_y.weight), np.zeros(4))
        w.out_h = LinearWeights(np.zeros_like(w.out_h.weight), np.zeros(4))
        y, h = ibs_forward(x, h0, *conditioning(points, boxes, w, table), w)
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(h, h0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_transcription(self, seed):
        x, h0, points, boxes, w, table = self.micro(100 + seed)
        y, h = ibs_forward(x, h0, *conditioning(points, boxes, w, table), w)
        y_ref, h_ref = transcribe_block(x, h0, points, boxes, w, table)
        assert np.abs(y - y_ref).max() < 1e-12
        assert np.abs(h - h_ref).max() < 1e-12

    def test_deterministic(self):
        x, h0, points, boxes, w, table = self.micro(2)
        y1, h1 = ibs_forward(x, h0, *conditioning(points, boxes, w, table), w)
        y2, h2 = ibs_forward(x, h0, *conditioning(points, boxes, w, table), w)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(h1, h2)

    def test_bidirectional_symmetry(self):
        self.check_bidirectional_symmetry(m=9)

    def test_bidirectional_symmetry_across_chunks(self):
        # the backward scan runs on reversed views and crosses chunk edges
        # (micro's K=2, E=8)
        self.check_bidirectional_symmetry(m=2 * _chunk_rows(2, 8) + 3)

    def check_bidirectional_symmetry(self, m):
        # reversing the sequence and swapping direction weights reverses y
        # and leaves the state output unchanged
        x, h0, points, boxes, w, table = self.micro(3, m=m, k=2)
        y, h = ibs_forward(x, h0, *conditioning(points, boxes, w, table), w)
        swapped = IbsWeights(
            norm_x_gamma=w.norm_x_gamma, norm_x_beta=w.norm_x_beta,
            norm_h_gamma=w.norm_h_gamma, norm_h_beta=w.norm_h_beta,
            in_x=w.in_x, in_z=w.in_z, in_h=w.in_h,
            out_y=w.out_y, out_h=w.out_h,
            forward=w.backward, backward=w.forward, alpha_raw=w.alpha_raw)
        y_rev, h_rev = ibs_forward(x[::-1].copy(), h0,
                                   *conditioning(points[::-1].copy(), boxes, swapped, table),
                                   swapped)
        assert np.abs(h_rev - h).max() < 1e-12
        assert np.abs(y_rev - y[::-1]).max() < 1e-12

    def test_far_point_update_suppression(self):
        x, h0, pts, boxes, w, table = far_point_case(9)
        _, _, trace = traced_block(x, h0, *conditioning(pts, boxes, w, table), w)
        disabled = IbsWeights(**{**w.__dict__, "alpha_raw": -80.0})
        _, _, trace0 = traced_block(x, h0, *conditioning(pts, boxes, disabled, table),
                                    disabled)
        # step update magnitude ||b_bar * x_t|| at the far step, per direction
        for direction in ("forward", "backward"):
            upd = np.abs(trace[direction]["b_bar"][1] * trace[direction]["x_conv"][1])
            upd0 = np.abs(trace0[direction]["b_bar"][1] * trace0[direction]["x_conv"][1])
            assert upd.max() < 1e-4 * max(upd0.max(), 1e-300)

    @pytest.mark.parametrize("seed", range(9, 19))
    def test_far_point_suppressed_in_state_output(self, seed):
        # The far point's features reach the states only through its own,
        # damped scan step when the conv kernel has one tap. With 8 taps the
        # backward direction, which runs [far, near], carries them into the
        # undamped near point's x_conv (|dh| ratios of 0.11-0.86 over these
        # seeds, against at most 9e-8 with one tap).
        x, h0, pts, boxes, w, table = far_point_case(seed, kernel_size=1)
        moved = x.copy()
        moved[1] = PrngStream(seed + 100).normal((4,))

        def state_change(w):
            cond = conditioning(pts, boxes, w, table)
            return np.linalg.norm(ibs_forward(moved, h0, *cond, w)[1]
                                  - ibs_forward(x, h0, *cond, w)[1])

        disabled = IbsWeights(**{**w.__dict__, "alpha_raw": -80.0})
        assert state_change(w) < 1e-4 * state_change(disabled)

    def test_empty_sequence_rejected(self):
        _, h0, _, boxes, w, table = self.micro(4)
        with pytest.raises(ValueError):
            ibs_forward(np.zeros((0, 4)), h0,
                        *conditioning(np.zeros((0, 3)), boxes, w, table), w)

    def test_box_count_mismatch(self):
        # s and delay must be (M, K, D) and (M, K) for the M rows of x and
        # the K states of h0
        x, h0, points, boxes, w, table = self.micro(5)
        s, delay = conditioning(points, boxes, w, table)
        s_short, delay_short = conditioning(points, boxes[:-1], w, table)
        for bad in ((s_short, delay), (s, delay_short), (s[:-1], delay),
                    (s, delay[:-1]), (s[..., 0], delay)):
            with pytest.raises(ValueError):
                ibs_forward(x, h0, *bad, w)

    def test_mlp_mode_runs(self):
        x, h0, points, boxes, w, table = self.micro(6)
        mlp = correlation_mlp_init(PrngStream(7), 3)
        y, h = ibs_forward(x, h0, *conditioning(points, boxes, w, mlp), w)
        assert np.isfinite(y).all() and np.isfinite(h).all()


class TestDeltaInvariants:
    def test_delta_nonnegative_and_delay_bounded(self):
        rng = PrngStream(10)
        scene = synth_scene(num_boxes=2, points_per_box=20, noise_points=20,
                            seed=11, feature_dim=4)
        boxes = scene.gt_boxes
        w = ibs_weights_init(rng, channels=4, state_dim=6, corr_dim=3)
        table = correlation_table_init(rng, 3)
        h0 = rng.normal((2, 4))
        s, delay = conditioning(scene.positions, boxes, w, table)
        _, _, trace = traced_block(scene.features, h0, s, delay, w)
        assert (delay <= 1.0).all() and (delay > 0.0).all()
        for direction in ("forward", "backward"):
            assert (trace[direction]["delta"] >= 0).all()


def unchunked_block(x, h0, s, delay, w: IbsWeights):
    """ibs_forward with every (M, K, E) parameter array built at full size."""
    xn = layer_norm(x, w.norm_x_gamma, w.norm_x_beta)
    hn = layer_norm(h0, w.norm_h_gamma, w.norm_h_beta)
    x_hat, z, h_hat0 = linear(xn, w.in_x), linear(xn, w.in_z), linear(hn, w.in_h)
    ys, hs, params = [], [], {}
    for direction, dw in (("forward", w.forward), ("backward", w.backward)):
        step = -1 if direction == "backward" else 1
        x_conv = silu(depthwise_conv1d(x_hat[::step], dw.conv_kernel)[::step])
        b = linear(x_conv, dw.b_from_x) + linear(s, dw.b_from_s)[..., 0]
        c = linear(x_conv, dw.c_from_x) + linear(s, dw.c_from_s)[..., 0]
        delta_logits = linear(x_conv, dw.delta_from_x)[:, None, :] + linear(s, dw.delta_from_s)
        delta = np.logaddexp(0.0, delta_logits) * delay[:, :, None]
        a_bar, b_bar = discretize_zoh(delta, dw.a_vec, b)
        out = scan_sequential(ScanInputs(a_bar=a_bar[::step], b_bar=b_bar[::step],
                                         c=c[::step], x=x_conv[::step], h0=h_hat0))
        ys.append(out.y[::step])
        hs.append(out.h_final)
        params[direction] = {"b": b, "c": c, "delta": delta, "a_bar": a_bar, "b_bar": b_bar}
    y = linear((ys[0] + ys[1]) * silu(z), w.out_y) + x
    h = linear(hs[0] + hs[1], w.out_h) + h0
    return y, h, params


def traced_block(x, h0, s, delay, w: IbsWeights):
    """ibs_forward's (y, h) and the per-direction parameters its scans read.

    Wraps the dest3d.issm lookups of gen_params and scan_sequential, and at
    each scan call copies the chunk's x_conv, c, a_bar and b_bar, and the
    delta and b views gen_params returned (softplus and the delay have acted
    on delta in place by then): the next chunk reuses the buffers. The first
    half of the chunks is the forward direction, the second the backward
    one, which is flipped back to serialized order. Each trace array is
    (M, ...) per direction.
    """
    real_gen, real_scan = issm.gen_params, issm.scan_sequential
    pending, chunks = [], []

    def gen_params(*args):
        out = real_gen(*args)
        pending.append(out)
        return out

    def scan_sequential(inputs):
        delta, b, _ = pending.pop()
        views = {"x_conv": inputs.x, "b": b, "c": inputs.c, "delta": delta,
                 "a_bar": inputs.a_bar, "b_bar": inputs.b_bar}
        chunks.append({name: v.copy() for name, v in views.items()})
        return real_scan(inputs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(issm, "gen_params", gen_params)
        mp.setattr(issm, "scan_sequential", scan_sequential)
        y, h = ibs_forward(x, h0, s, delay, w)
    half = len(chunks) // 2
    trace = {direction: {name: np.concatenate([c[name] for c in part])[::step]
                         for name in part[0]}
             for direction, part, step in (("forward", chunks[:half], 1),
                                           ("backward", chunks[half:], -1))}
    return y, h, trace


def max_rel_err(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


class TestChunkedPipeline:
    """ibs_forward streams parameters _chunk_rows(K, E) points at a time; the
    chunk edges must not show in its outputs."""

    @staticmethod
    def check_against_unchunked(seed, m, k, c, e, d, corr_mode="table", metric="center"):
        rng = PrngStream(seed)
        w = ibs_weights_init(rng, channels=c, state_dim=e, corr_dim=d)
        table = correlation_table_init(rng, d)
        mlp = correlation_mlp_init(rng, d)
        x, h0 = rng.normal((m, c)), rng.normal((k, c))
        points = rng.normal((m, 3), 0.0, 2.0)
        boxes = make_boxes(rng, k)
        s, delay = conditioning(points, boxes, w, table if corr_mode == "table" else mlp,
                                metric)
        # the parameters are read from the min(M, _chunk_rows(K, E)) buffer
        # rows the block reuses across chunks
        y, h, trace = traced_block(x, h0, s, delay, w)
        y_ref, h_ref, params = unchunked_block(x, h0, s, delay, w)
        assert max_rel_err(y, y_ref) <= 1e-12
        assert max_rel_err(h, h_ref) <= 1e-12
        for direction in ("forward", "backward"):
            for name, ref in params[direction].items():
                assert max_rel_err(trace[direction][name], ref) <= 1e-12, (direction, name)

    # one partial chunk, the edge after two full chunks, and a partial tail,
    # at K=16, E=32 (32 rows per chunk)
    ROWS = _chunk_rows(16, 32)

    @pytest.mark.parametrize("m", [1, 2 * ROWS - 1, 2 * ROWS, 2 * ROWS + 1, 4 * ROWS + 3])
    @pytest.mark.parametrize("corr_mode", ["table", "mlp"])
    @pytest.mark.parametrize("metric", ["center", "vertex", "surface"])
    def test_matches_unchunked_reference(self, m, corr_mode, metric):
        self.check_against_unchunked(5000 + m, m, k=16, c=4, e=32, d=3,
                                     corr_mode=corr_mode, metric=metric)

    def test_matches_unchunked_reference_at_states_heavy_shape(self):
        # the chunk buffers are (_chunk_rows(K, E), K, E): check them at the
        # K, E and D of the benchmark's states_heavy workload, across one
        # chunk edge
        self.check_against_unchunked(5100, _chunk_rows(64, 32) + 1, k=64, c=32, e=32, d=16)

    def test_matches_unchunked_reference_at_points_heavy_shape(self):
        # points_heavy's K=4, E=32 gets more rows per chunk than 32: check
        # three chunk edges and a partial tail there
        self.check_against_unchunked(5200, 3 * _chunk_rows(4, 32) + 5, k=4, c=32, e=32, d=16)

    def test_peak_memory_below_two_mke_arrays(self):
        m, k, c, e, d = 1024, 32, 32, 32, 16
        rng = PrngStream(77)
        w = ibs_weights_init(rng, channels=c, state_dim=e, corr_dim=d)
        table = correlation_table_init(rng, d)
        x, h0 = rng.normal((m, c)), rng.normal((k, c))
        points = rng.normal((m, 3), 0.0, 2.0)
        boxes = make_boxes(rng, k)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ibs_forward(x, h0, *conditioning(points, boxes, w, table), w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        mke_bytes = m * k * e * 8
        assert peak < 2 * mke_bytes, peak / mke_bytes

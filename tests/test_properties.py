"""Property-based tests: each draws its inputs with hypothesis.

hypothesis is an optional test dependency, so these tests live in one module
that is skipped where it is not installed; every other test module collects
and runs without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dest3d.decoder import decoder_stack, decoder_weights_init
from dest3d.geometry import Box3D, BoxSet, Scene
from dest3d.issm import (
    CorrelationMlp,
    _chunk_rows,
    correlation_mlp_init,
    correlation_table_init,
    delay_kernel,
    spatial_correlation,
)
from dest3d.numerics import LinearWeights, PrngStream, layer_norm, silu, softplus
from dest3d.serialization import SerializationOrder, bounds_from_points, serialize
from dest3d.ssm import ScanInputs, scan_sequential

from test_decoder import small_cfg
from test_issm import make_boxes, max_rel_err, probe_points, rotz
from test_ssm import random_inputs


class TestLayerNorm:
    @given(scale=st.floats(0.01, 100.0), shift=st.floats(-50.0, 50.0),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_shift_scale_invariance(self, scale, shift, seed):
        # eps must be far below scale^2 * var for the invariance to be exact
        x = PrngStream(seed).normal((8,))
        base = layer_norm(x, np.ones(8), np.zeros(8), eps=1e-14)
        moved = layer_norm(scale * x + shift, np.ones(8), np.zeros(8), eps=1e-14)
        np.testing.assert_allclose(moved, base, atol=1e-9)


class TestActivation:
    @given(st.floats(-700.0, 700.0))
    def test_softplus_positive(self, v):
        assert softplus(np.array(v)) > 0.0

    @given(st.floats(-700.0, 700.0))
    def test_silu_lower_bound(self, v):
        assert silu(np.array(v)) >= -0.2785


class TestSerialize:
    @given(seed=st.integers(0, 500), scale=st.floats(0.1, 100.0),
           shift=st.floats(-50.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_translation_scale_invariance(self, seed, scale, shift):
        pts = np.random.default_rng(seed).normal(size=(40, 3))
        base = serialize(pts, SerializationOrder("xzy", 8))
        moved = serialize(pts * scale + shift, SerializationOrder("xzy", 8))
        np.testing.assert_array_equal(base, moved)


class TestScanSequential:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_affine_superposition(self, seed):
        # the scan is affine in (x, h0) jointly
        base = random_inputs(seed, 8, 2, 3)
        rng = PrngStream(seed + 10_000)
        x2, h2 = rng.normal((8, 3)), rng.normal((2, 3))
        al, be = 0.6, -1.7

        def run(x, h0):
            return scan_sequential(ScanInputs(a_bar=base.a_bar, b_bar=base.b_bar,
                                              c=base.c, x=x, h0=h0))

        ra = run(base.x, base.h0)
        rb = run(x2, h2)
        rc = run(al * base.x + be * x2, al * base.h0 + be * h2)
        np.testing.assert_allclose(rc.y, al * ra.y + be * rb.y, atol=1e-12)
        np.testing.assert_allclose(rc.h_final, al * ra.h_final + be * rb.h_final,
                                   atol=1e-12)


class TestRigidMotion:
    """Points and boxes moved together by one yaw rotation about z and a
    translation. The table path and the delay read points in the box frame
    and stay unchanged; the MLP path reads world-frame offsets, so only a
    translation leaves it unchanged, and a rotation turns its hidden layer."""

    @staticmethod
    def moved(points, boxes, theta, t):
        rot = rotz(theta)
        return points @ rot.T + t, BoxSet([Box3D(center=rot @ b.center + t, size=b.size,
                                                 yaw=b.yaw + theta) for b in boxes])

    @given(seed=st.integers(0, 2**16), theta=st.floats(-math.pi, math.pi),
           t=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_table_and_delay_invariant(self, seed, theta, t):
        rng = PrngStream(seed)
        table = correlation_table_init(rng, 4)
        boxes = make_boxes(rng, 3)
        pts = probe_points(rng, boxes)
        pts2, boxes2 = self.moved(pts, boxes, theta, np.array(t))
        boxes = BoxSet(boxes)
        assert max_rel_err(spatial_correlation(pts2, boxes2, table),
                           spatial_correlation(pts, boxes, table)) < 1e-12
        for metric in ("center", "vertex", "surface"):
            np.testing.assert_allclose(delay_kernel(boxes2, pts2, 0.7, metric),
                                       delay_kernel(boxes, pts, 0.7, metric),
                                       rtol=0, atol=1e-12)

    @given(seed=st.integers(0, 2**16),
           t=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_mlp_invariant_under_translation(self, seed, t):
        rng = PrngStream(seed)
        mlp = correlation_mlp_init(rng, 4)
        boxes = make_boxes(rng, 3)
        pts = probe_points(rng, boxes)
        pts2, boxes2 = self.moved(pts, boxes, 0.0, np.array(t))
        boxes = BoxSet(boxes)
        assert max_rel_err(spatial_correlation(pts2, boxes2, mlp),
                           spatial_correlation(pts, boxes, mlp)) < 1e-12

    @given(seed=st.integers(0, 2**16), theta=st.floats(-math.pi, math.pi),
           t=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_mlp_rotation_turns_hidden_weight(self, seed, theta, t):
        # offsets rotate with the scene, p' - v' = R (p - v), so moving the
        # scene is the same as hidden weight W R on the unmoved scene
        rng = PrngStream(seed)
        mlp = correlation_mlp_init(rng, 4)
        turned = CorrelationMlp(hidden=LinearWeights(mlp.hidden.weight @ rotz(theta),
                                                     mlp.hidden.bias), out=mlp.out)
        boxes = make_boxes(rng, 3)
        pts = probe_points(rng, boxes)
        pts2, boxes2 = self.moved(pts, boxes, theta, np.array(t))
        boxes = BoxSet(boxes)
        assert max_rel_err(spatial_correlation(pts2, boxes2, mlp),
                           spatial_correlation(pts, boxes, turned)) < 1e-12


class TestDecoderStack:
    @given(seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_point_permutation_equivariance(self, seed, data):
        # the stack sees the points as a set: permuting them permutes
        # final_x's rows and leaves every detection unchanged. Point 0 stays
        # first (farthest-point sampling starts there) and no two points
        # share a Hilbert cell (points in one cell keep their input order).
        cfg = small_cfg()
        m = 2 * _chunk_rows(cfg.num_states, cfg.state_dim) + 2
        rng = PrngStream(seed)
        scene = Scene(positions=rng.uniform((m, 3), -3.0, 3.0),
                      features=rng.normal((m, cfg.channels)))
        lo, hi = bounds_from_points(scene.positions)
        n_cells = 1 << cfg.serialization_bits
        cells = np.clip(np.floor((scene.positions - lo) / (hi - lo) * n_cells), 0, n_cells - 1)
        assume(len(np.unique(cells, axis=0)) == m)
        perm = np.array([0] + data.draw(st.permutations(range(1, m))))
        weights = decoder_weights_init(PrngStream(seed + 1), cfg)
        ref = decoder_stack(scene, cfg, weights)
        got = decoder_stack(Scene(positions=scene.positions[perm],
                                  features=scene.features[perm]), cfg, weights)

        def assert_close(a, b):
            a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-300)

        assert_close(got.final_x, ref.final_x[perm])
        for layer_got, layer_ref in zip(got.layers, ref.layers):
            for d_got, d_ref in zip(layer_got.detections, layer_ref.detections):
                for a, b in ((d_got.box.center, d_ref.box.center),
                             (d_got.box.size, d_ref.box.size),
                             (d_got.box.yaw, d_ref.box.yaw),
                             (d_got.class_logits, d_ref.class_logits),
                             (d_got.objectness, d_ref.objectness)):
                    assert_close(a, b)

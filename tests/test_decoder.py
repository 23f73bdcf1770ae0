import dataclasses
import math

import numpy as np
import pytest

import dest3d.decoder as decoder_mod
from dest3d.decoder import (
    DecoderConfig,
    binary_focal_loss,
    decoder_layer,
    decoder_stack,
    decoder_weights_init,
    detection_head,
    gffn,
    inter_state_attention,
    objectness_labels,
    point_objectness,
    positional_embedding,
)
from dest3d.geometry import Box3D, Scene, box_local_coords, farthest_point_sampling, synth_scene
from dest3d.issm import (
    CorrelationMlp,
    CorrelationTable,
    _chunk_rows,
    delay_kernel,
    ibs_forward,
    spatial_correlation,
)
from dest3d.numerics import LinearWeights, PrngStream, layer_norm, linear, softmax_attention
from dest3d.serialization import SerializationOrder, order_for_layer, serialize
from dest3d.weights_io import flatten_weights


def small_cfg(**kw):
    base = dict(num_layers=2, channels=16, state_dim=16, corr_dim=8, ffn_dim=32,
                heads=2, num_states=4, num_classes=5)
    base.update(kw)
    return DecoderConfig(**base)


def layer_features(scene, cfg, weights):
    """The scene features after each of cfg's layers: layer n's are the
    final_x of the same stack run with num_layers=n."""
    return [decoder_stack(scene, dataclasses.replace(cfg, num_layers=n), weights).final_x
            for n in range(1, cfg.num_layers + 1)]


def zero_linear(like: LinearWeights) -> LinearWeights:
    bias = None if like.bias is None else np.zeros_like(like.bias)
    return LinearWeights(np.zeros_like(like.weight), bias)


def zero_residual_branches(weights):
    for lw in weights.layers:
        lw.ibs.out_y = zero_linear(lw.ibs.out_y)
        lw.ibs.out_h = zero_linear(lw.ibs.out_h)
        lw.attn.out = zero_linear(lw.attn.out)
        lw.gffn_x.out = zero_linear(lw.gffn_x.out)
        lw.gffn_h.out = zero_linear(lw.gffn_h.out)


class TestWeightsInit:
    def test_one_correlation_form_per_layer(self):
        # both modes draw both forms in the same order and keep the one they
        # run, so every other weight and the rest of the stream agree
        bundles, next_draws = {}, {}
        for mode in ("table", "mlp"):
            stream = PrngStream(21)
            bundles[mode] = decoder_weights_init(stream, small_cfg(correlation_mode=mode))
            next_draws[mode] = stream.uniform((4,))
        np.testing.assert_array_equal(next_draws["table"], next_draws["mlp"])
        flat = {mode: flatten_weights(w) for mode, w in bundles.items()}
        for mode, form in (("table", CorrelationTable), ("mlp", CorrelationMlp)):
            assert all(type(layer.corr) is form for layer in bundles[mode].layers)
            assert not [n for n in flat[mode]
                        if "table." in n or "corr_mlp." in n or "extent" in n]
        shared = {n for n in flat["table"] if ".corr." not in n}
        assert shared == {n for n in flat["mlp"] if ".corr." not in n}
        for name in shared:
            np.testing.assert_array_equal(flat["table"][name], flat["mlp"][name],
                                          err_msg=name)


class TestInterStateAttention:
    def test_zero_out_projection_is_identity(self):
        cfg = small_cfg()
        w = decoder_weights_init(PrngStream(0), cfg).layers[0].attn
        w.out = zero_linear(w.out)
        h = PrngStream(1).normal((6, 16))
        np.testing.assert_array_equal(inter_state_attention(h, w, cfg.heads), h)

    def test_single_state_degenerate_softmax(self):
        cfg = small_cfg()
        w = decoder_weights_init(PrngStream(2), cfg).layers[0].attn
        h = PrngStream(3).normal((1, 16))
        hn = layer_norm(h, w.norm_gamma, w.norm_beta)
        expected = h + linear(linear(hn, w.v), w.out)
        np.testing.assert_allclose(inter_state_attention(h, w, cfg.heads), expected, rtol=1e-12)

    def test_composition_oracle(self):
        cfg = small_cfg(channels=8, heads=2)
        w = decoder_weights_init(PrngStream(4), cfg).layers[0].attn
        h = PrngStream(5).normal((4, 8))
        hn = layer_norm(h, w.norm_gamma, w.norm_beta)
        attended = softmax_attention(linear(hn, w.q), linear(hn, w.k),
                                     linear(hn, w.v), heads=2)
        np.testing.assert_allclose(inter_state_attention(h, w, cfg.heads),
                                   h + linear(attended, w.out), rtol=1e-12)


class TestGffn:
    def test_zero_out_projection_is_identity(self):
        w = decoder_weights_init(PrngStream(6), small_cfg()).layers[0].gffn_h
        w.out = zero_linear(w.out)
        t = PrngStream(7).normal((5, 16))
        np.testing.assert_array_equal(gffn(t, w), t)

    def test_closed_gate_is_identity(self):
        w = decoder_weights_init(PrngStream(8), small_cfg()).layers[0].gffn_h
        w.gate = zero_linear(w.gate)
        t = PrngStream(9).normal((5, 16))
        np.testing.assert_allclose(gffn(t, w), t, atol=1e-15)

    def test_scalar_transcription(self):
        w = decoder_weights_init(PrngStream(10), small_cfg()).layers[0].gffn_x
        t = PrngStream(11).normal((6, 16))
        out = gffn(t, w)
        # loop transcription
        tn = layer_norm(t, w.norm_gamma, w.norm_beta)
        gate_lin = linear(tn, w.gate)
        gate = gate_lin / (1.0 + np.exp(-gate_lin)) * 1.0  # silu
        val = linear(tn, w.value)
        conv = np.zeros_like(val)
        ks = w.conv_kernel.shape[1]
        for i in range(val.shape[0]):
            for ch in range(val.shape[1]):
                acc = 0.0
                for j in range(ks):
                    if i - j >= 0:
                        acc += w.conv_kernel[ch, j] * val[i - j, ch]
                conv[i, ch] = acc
        expected = t + linear(gate * conv, w.out)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestDecoderLayer:
    def setup_case(self, seed=0, m=24, cfg=None):
        cfg = cfg or small_cfg()
        scene = synth_scene(num_boxes=2, points_per_box=m // 3, noise_points=m // 3,
                            seed=seed, feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(seed + 50), cfg)
        rng = PrngStream(seed + 99)
        h = rng.normal((cfg.num_states, cfg.channels))
        boxes = [Box3D(center=rng.normal((3,)), size=rng.uniform((3,), 0.3, 1.0),
                       yaw=float(rng.uniform((), -3, 3)))
                 for _ in range(cfg.num_states)]
        return scene, weights, h, boxes, cfg

    def test_residual_zero_is_identity(self):
        scene, weights, h, boxes, cfg = self.setup_case()
        zero_residual_branches(weights)
        x = scene.features
        x2, h2 = decoder_layer(x, h, scene.positions, boxes, 0, weights.layers[0], cfg)
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(h2, h)

    def test_permutation_round_trip_with_identity_ibs(self, monkeypatch):
        scene, weights, h, boxes, cfg = self.setup_case(seed=1)
        zero_residual_branches(weights)

        def fake_ibs(x, h0, s, delay, w, **kw):
            return x.copy(), h0.copy()

        monkeypatch.setattr(decoder_mod, "ibs_forward", fake_ibs)
        x = scene.features
        x2, _ = decoder_layer(x, h, scene.positions, boxes, 3, weights.layers[0], cfg)
        np.testing.assert_array_equal(x2, x)

    def test_composition_oracle(self):
        from dest3d.decoder import gffn as gffn_fn
        from dest3d.decoder import inter_state_attention as attn_fn

        scene, weights, h, boxes, cfg = self.setup_case(seed=2, m=16)
        lw = weights.layers[1]
        x = scene.features
        x2, h2 = decoder_layer(x, h, scene.positions, boxes, 1, lw, cfg)
        # replay by hand
        order = SerializationOrder(order_for_layer(1), cfg.serialization_bits)
        perm = serialize(scene.positions, order)
        pp = scene.positions[perm]
        s = spatial_correlation(pp, boxes, lw.corr)
        delay = delay_kernel(boxes, pp, lw.ibs.alpha_raw, metric=cfg.delay_metric)
        x1, h1 = ibs_forward(x[perm], h, s, delay, lw.ibs)
        hh = gffn_fn(attn_fn(h1, lw.attn, cfg.heads), lw.gffn_h)
        xs = gffn_fn(x1, lw.gffn_x)
        x_exp = np.empty_like(xs)
        x_exp[perm] = xs
        np.testing.assert_allclose(x2, x_exp, atol=1e-13)
        np.testing.assert_allclose(h2, hh, atol=1e-13)


class TestDetectionHead:
    def test_zero_weight_conventions(self):
        cfg = small_cfg()
        head = decoder_weights_init(PrngStream(15), cfg).head
        for name in ("offset", "size", "yaw_sin", "yaw_cos", "cls", "obj"):
            setattr(head, name, zero_linear(getattr(head, name)))
        refs = PrngStream(16).normal((3, 3))
        dets = detection_head(PrngStream(17).normal((3, 16)), refs, head)
        for det, ref in zip(dets, refs):
            np.testing.assert_array_equal(det.box.center, ref)
            np.testing.assert_allclose(det.box.size, np.log(2.0) + 0.05, rtol=1e-12)
            assert det.box.yaw == 0.0
            assert det.objectness == 0.5

    def test_sizes_always_positive(self):
        cfg = small_cfg()
        head = decoder_weights_init(PrngStream(18), cfg).head
        h = PrngStream(19).normal((1000, 16)) * 20.0
        dets = detection_head(h, np.zeros((1000, 3)), head)
        for det in dets:
            assert (det.box.size > 0).all()

    def test_boxes_satisfy_invariants(self):
        cfg = small_cfg()
        head = decoder_weights_init(PrngStream(20), cfg).head
        h = PrngStream(21).normal((1000, 16)) * 5.0
        for det in detection_head(h, np.zeros((1000, 3)), head):
            assert -np.pi < det.box.yaw <= np.pi
            assert np.isfinite(det.class_logits).all()
            assert 0.0 <= det.objectness <= 1.0


class TestFocalLoss:
    def test_perfect_predictions_vanish(self):
        p = np.array([1.0, 1.0, 0.0])
        t = np.array([1, 1, 0])
        assert binary_focal_loss(p, t) < 1e-5

    def test_reduces_to_half_bce(self):
        rng = PrngStream(22)
        p = rng.uniform((50,), 0.01, 0.99)
        t = (rng.uniform((50,)) > 0.5).astype(int)
        loss = binary_focal_loss(p, t, gamma=0.0, alpha_bal=0.5)
        bce = float(np.mean(-(t * np.log(p) + (1 - t) * np.log(1 - p))))
        np.testing.assert_allclose(loss, 0.5 * bce, rtol=1e-12)

    def test_closed_form_single_point(self):
        loss = binary_focal_loss(np.array([0.3]), np.array([1]), gamma=2.0,
                                 alpha_bal=0.25)
        np.testing.assert_allclose(loss, 0.25 * 0.49 * -np.log(0.3), rtol=1e-12)
        np.testing.assert_allclose(loss, 0.14749, atol=1e-5)

    def test_monotone_in_confidence(self):
        ps = np.linspace(0.05, 0.95, 30)
        losses = [binary_focal_loss(np.array([p]), np.array([1])) for p in ps]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert all(v >= 0 for v in losses)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            binary_focal_loss(np.array([0.5]), np.array([1]), gamma=-1.0)
        with pytest.raises(ValueError):
            binary_focal_loss(np.array([0.5]), np.array([1]), alpha_bal=1.5)


class TestObjectnessLabels:
    def test_empty_gt_all_zero(self):
        scene = synth_scene(num_boxes=0, noise_points=50, seed=23, feature_dim=4)
        np.testing.assert_array_equal(objectness_labels(scene), 0)

    def test_surface_points_are_foreground(self):
        scene = synth_scene(num_boxes=2, points_per_box=30, noise_points=0, seed=24,
                            feature_dim=4)
        np.testing.assert_array_equal(objectness_labels(scene), 1)

    def test_matches_per_point_check(self):
        rng = PrngStream(25)
        box = Box3D(center=rng.normal((3,)), size=rng.uniform((3,), 0.5, 1.5),
                    yaw=0.4)
        positions = rng.normal((200, 3))
        scene = Scene(positions=positions, features=rng.normal((200, 4)),
                      gt_boxes=[box])
        labels = objectness_labels(scene)
        for i in range(200):
            assert labels[i] == int((np.abs(box_local_coords(positions[i:i + 1], box)) <= 1).all())


class TestDecoderStack:
    def test_conditioning_looked_up_in_issm_once_per_layer(self, monkeypatch):
        # perfbench's tracer wraps these two names at dest3d.issm's globals
        # only; a layer that bypassed them would leave its stage split at 0
        import dest3d.issm as issm_mod

        calls = {"spatial_correlation": 0, "delay_kernel": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(issm_mod, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(issm_mod, name, counted)
        cfg = small_cfg(num_layers=3)
        scene = synth_scene(num_boxes=2, points_per_box=10, noise_points=12, seed=26,
                            feature_dim=cfg.channels)
        decoder_stack(scene, cfg, decoder_weights_init(PrngStream(27), cfg))
        assert calls == {"spatial_correlation": 3, "delay_kernel": 3}

    def test_param_step_looked_up_in_issm(self, monkeypatch):
        # perfbench's tracer wraps the chunk's parameter step and softplus at
        # dest3d.issm's globals: one call each per chunk, per direction and
        # layer. delay_kernel adds one scalar softplus (its alpha) per layer.
        import dest3d.issm as issm_mod

        calls = {"gen_params": 0, "softplus": 0, "softplus_chunk": 0}
        for name in ("gen_params", "softplus"):
            def counted(*args, _name=name, _fn=getattr(issm_mod, name), **kw):
                calls[_name] += 1
                if _name == "softplus" and np.ndim(args[0]) == 3:
                    calls["softplus_chunk"] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(issm_mod, name, counted)
        layers = 3
        cfg = small_cfg(num_layers=layers)
        rows = _chunk_rows(cfg.num_states, cfg.state_dim)
        m = 2 * rows + 5
        rng = PrngStream(30)
        scene = Scene(positions=rng.uniform((m, 3), -3.0, 3.0),
                      features=rng.normal((m, cfg.channels)))
        decoder_stack(scene, cfg, decoder_weights_init(PrngStream(31), cfg))
        chunks = 2 * layers * math.ceil(m / rows)
        assert calls == {"gen_params": chunks, "softplus": chunks + layers,
                         "softplus_chunk": chunks}

    def test_single_layer_equals_layer_call(self):
        cfg = small_cfg(num_layers=1)
        scene = synth_scene(num_boxes=2, points_per_box=10, noise_points=12, seed=26,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(27), cfg)
        result = decoder_stack(scene, cfg, weights)
        assert len(result.layers) == 1
        # replay
        x0 = scene.features + positional_embedding(scene.positions, weights)
        idx = farthest_point_sampling(scene.positions, cfg.num_states)
        h0 = x0[idx]
        boxes = [d.box for d in detection_head(h0, scene.positions[idx], weights.head)]
        x1, h1 = decoder_layer(x0, h0, scene.positions, boxes, 0, weights.layers[0], cfg)
        np.testing.assert_allclose(result.final_x, x1, atol=1e-13)
        np.testing.assert_allclose(result.layers[0].h, h1, atol=1e-13)

    def test_per_layer_detection_count(self):
        cfg = small_cfg(num_layers=3)
        scene = synth_scene(num_boxes=2, points_per_box=12, noise_points=12, seed=28,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(29), cfg)
        result = decoder_stack(scene, cfg, weights)
        assert len(result.layers) == 3
        for layer in result.layers:
            assert len(layer.detections) == cfg.num_states

    def test_invariant_sweep_on_synthetic_scene(self):
        cfg = small_cfg(num_layers=2)
        scene = synth_scene(num_boxes=3, points_per_box=16, noise_points=16, seed=30,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(31), cfg)
        result = decoder_stack(scene, cfg, weights)
        for x, layer in zip(layer_features(scene, cfg, weights), result.layers):
            assert np.isfinite(x).all() and np.isfinite(layer.h).all()
            for det in layer.detections:
                assert (det.box.size > 0).all()
                assert -np.pi < det.box.yaw <= np.pi

    def test_too_few_points_rejected(self):
        cfg = small_cfg(num_states=64)
        scene = synth_scene(num_boxes=0, noise_points=10, seed=32,
                            feature_dim=cfg.channels)
        weights_cfg = small_cfg(num_states=64)
        weights = decoder_weights_init(PrngStream(33), weights_cfg)
        with pytest.raises(ValueError):
            decoder_stack(scene, cfg, weights)

    def test_memory_budget_refuses_before_any_work(self, monkeypatch):
        cfg = small_cfg()
        scene = synth_scene(num_boxes=1, points_per_box=10, noise_points=10, seed=35,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(36), cfg)
        m, k, e = scene.num_points, cfg.num_states, cfg.state_dim
        rows = min(m, _chunk_rows(k, e))
        need = 8 * (m * k * cfg.corr_dim + m * k + 3 * rows * k * e + rows * k * 2)
        assert decoder_mod._mk_bytes(m, cfg) == need

        def no_work(*args):
            raise AssertionError("the stack started before the budget check")

        monkeypatch.setattr(decoder_mod, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(decoder_mod, "positional_embedding", no_work)
        with pytest.raises(MemoryError, match=f"M={m} points x K={k} states"):
            decoder_stack(scene, cfg, weights)
        monkeypatch.undo()
        monkeypatch.setattr(decoder_mod, "_physical_memory", lambda: need)
        reference = decoder_stack(scene, cfg, weights)
        monkeypatch.setattr(decoder_mod, "_physical_memory", lambda: None)
        unknown = decoder_stack(scene, cfg, weights)
        np.testing.assert_array_equal(unknown.final_x, reference.final_x)

    def test_physical_memory_from_sysconf(self, monkeypatch):
        have = decoder_mod._physical_memory()
        assert have is None or (isinstance(have, int) and have > 0)

        def unsupported(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(decoder_mod.os, "sysconf", unsupported)
        assert decoder_mod._physical_memory() is None

    def test_feature_width_mismatch_rejected(self):
        cfg = small_cfg()
        scene = synth_scene(num_boxes=1, points_per_box=10, noise_points=10, seed=34,
                            feature_dim=cfg.channels + 1)
        weights = decoder_weights_init(PrngStream(35), cfg)
        with pytest.raises(ValueError):
            decoder_stack(scene, cfg, weights)

    def test_residual_zero_stack_is_identity(self):
        cfg = small_cfg(num_layers=3)
        scene = synth_scene(num_boxes=2, points_per_box=12, noise_points=12, seed=36,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(37), cfg)
        zero_residual_branches(weights)
        result = decoder_stack(scene, cfg, weights)
        x0 = scene.features + positional_embedding(scene.positions, weights)
        idx = farthest_point_sampling(scene.positions, cfg.num_states)
        for x, layer in zip(layer_features(scene, cfg, weights), result.layers):
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(layer.h, x0[idx])

    def test_simultaneous_update(self):
        cfg = small_cfg(num_layers=3)
        scene = synth_scene(num_boxes=2, points_per_box=16, noise_points=16, seed=38,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(39), cfg)
        result = decoder_stack(scene, cfg, weights)
        prev_x = scene.features + positional_embedding(scene.positions, weights)
        idx = farthest_point_sampling(scene.positions, cfg.num_states)
        prev_h = prev_x[idx]
        for x, layer in zip(layer_features(scene, cfg, weights), result.layers):
            assert np.linalg.norm(x - prev_x) > 0
            assert np.linalg.norm(layer.h - prev_h) > 0
            prev_x, prev_h = x, layer.h

    def test_truncated_stack_is_prefix_of_full_stack(self, monkeypatch):
        # layer_features reads layer n's x as the final_x of an n-layer run:
        # that run must reproduce the full stack's first n layers bit for bit
        cfg = small_cfg(num_layers=3)
        scene = synth_scene(num_boxes=2, points_per_box=16, noise_points=16, seed=44,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(45), cfg)
        layer_call, full_x = decoder_mod.decoder_layer, []

        def recorded(*args):
            x, h = layer_call(*args)
            full_x.append(x)
            return x, h

        monkeypatch.setattr(decoder_mod, "decoder_layer", recorded)
        full = decoder_stack(scene, cfg, weights)
        monkeypatch.undo()
        assert len(full_x) == cfg.num_layers
        np.testing.assert_array_equal(full_x[-1], full.final_x)

        def fields(layer):
            return [layer.h] + [np.hstack([d.box.center, d.box.size, d.box.yaw,
                                           d.class_logits, d.objectness])
                                for d in layer.detections]

        for n in range(1, cfg.num_layers + 1):
            run = decoder_stack(scene, dataclasses.replace(cfg, num_layers=n), weights)
            assert len(run.layers) == n
            np.testing.assert_array_equal(run.final_x, full_x[n - 1])
            for got, want in zip(fields(run.layers[-1]), fields(full.layers[n - 1]),
                                 strict=True):
                np.testing.assert_array_equal(got, want)

    def test_scene_stream_index_stability(self):
        # tag each row with a distinctive burned-in value and confirm rows
        # come back in the original index order under zero residuals
        cfg = small_cfg(num_layers=1)
        scene = synth_scene(num_boxes=1, points_per_box=12, noise_points=12, seed=40,
                            feature_dim=cfg.channels)
        tags = np.arange(scene.num_points, dtype=np.float64)[:, None]
        scene = Scene(positions=scene.positions,
                      features=np.repeat(tags, cfg.channels, axis=1),
                      gt_boxes=scene.gt_boxes)
        weights = decoder_weights_init(PrngStream(41), cfg)
        zero_residual_branches(weights)
        # zero the positional embedding so features stay exactly the tags
        weights.pos_embed_out = zero_linear(weights.pos_embed_out)
        result = decoder_stack(scene, cfg, weights)
        np.testing.assert_array_equal(result.final_x, scene.features)

    def test_point_objectness_shape(self):
        cfg = small_cfg()
        scene = synth_scene(num_boxes=1, points_per_box=10, noise_points=10, seed=42,
                            feature_dim=cfg.channels)
        weights = decoder_weights_init(PrngStream(43), cfg)
        result = decoder_stack(scene, cfg, weights)
        probs = point_objectness(result.final_x, weights)
        assert probs.shape == (scene.num_points,)
        assert ((probs > 0) & (probs < 1)).all()

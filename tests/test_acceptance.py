"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. All
tolerances are pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from dest3d.decoder import (
    binary_focal_loss,
    decoder_stack,
    decoder_weights_init,
    positional_embedding,
)
from dest3d.geometry import Box3D, BoxSet, farthest_point_sampling, synth_scene
from dest3d.issm import IbsWeights, correlation_table_init, delay_kernel, ibs_weights_init
from dest3d.numerics import PrngStream, softplus
from dest3d.serialization import SerializationOrder, hilbert_indices, locality_score, serialize
from dest3d.ssm import ScanInputs, finite_diff_grad, lti_conv_form, scan_backward, scan_chunked, scan_sequential
from dest3d.verify import attention_direct, attention_recurrence, complexity_bench

from test_decoder import layer_features, small_cfg, zero_linear, zero_residual_branches
from test_issm import conditioning, make_boxes, traced_block, transcribe_block


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def test_acc_01_attention_recurrence_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = PrngStream(seed)
        m = int(rng.integers(4, 65))
        k = int(rng.integers(1, 9))
        c = int(rng.integers(2, 9))
        q0, keys, values = rng.normal((k, c)), rng.normal((m, c)), rng.normal((m, c))
        for sim in ("exp_dot", "rbf"):
            rec = attention_recurrence(q0, keys, values, sim)
            ref = attention_direct(q0, keys, values, sim)  # every prefix, (m, k, c)
            worst = max(worst, float(np.abs(rec - ref).max()))
    assert worst <= 1e-12, worst
    report("ACC-01 attention/recurrence equivalence",
           f"20 seeds, both kernels, all prefixes, max abs err {worst:.3e} <= 1e-12")


def test_acc_02_conv_form_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = PrngStream(100 + seed)
        m = int(rng.integers(2, 65))
        k = int(rng.integers(1, 9))
        e = int(rng.integers(1, 9))
        delta = rng.uniform((k, e), 0.0, 1.0)
        a_bar0 = np.exp(-delta * rng.uniform((e,), 0.2, 1.5))
        b_bar0 = delta * rng.normal((k,))[:, None]
        c0, x = rng.normal((k,)), rng.normal((m, e))
        y_conv = lti_conv_form(a_bar0, b_bar0, c0, x)
        y_scan = scan_sequential(ScanInputs(
            a_bar=np.broadcast_to(a_bar0, (m, k, e)).copy(),
            b_bar=np.broadcast_to(b_bar0, (m, k, e)).copy(),
            c=np.broadcast_to(c0, (m, k)).copy(), x=x, h0=np.zeros((k, e)))).y
        worst = max(worst, float(np.abs(y_conv - y_scan).max()))
    assert worst <= 1e-12, worst
    report("ACC-02 convolutional-form equivalence",
           f"20 seeds, M<=64, max abs err {worst:.3e} <= 1e-12")


def random_scan(seed, m, k, e):
    rng = PrngStream(seed)
    delta = rng.uniform((m, k, e), 0.0, 1.0)
    a = -rng.uniform((e,), 0.2, 1.5)
    return ScanInputs(a_bar=np.exp(delta * a),
                      b_bar=delta * rng.normal((m, k))[:, :, None],
                      c=rng.normal((m, k)), x=rng.normal((m, e)),
                      h0=rng.normal((k, e)))


def test_acc_03_chunked_scan_consistency():
    worst = 0.0
    for seed in range(20):
        m = 257
        inputs = random_scan(200 + seed, m, 8, 16)
        ref = scan_sequential(inputs)
        for chunk in (1, 7, 64, m):
            out = scan_chunked(inputs, chunk)
            worst = max(worst, float(np.abs(out.y - ref.y).max()),
                        float(np.abs(out.h_final - ref.h_final).max()))
    assert worst <= 1e-12, worst
    report("ACC-03 chunked scan consistency",
           f"20 seeds, chunks {{1,7,64,M}}, max abs err {worst:.3e} <= 1e-12")


def test_acc_04_gradient_correctness():
    m, k, e = 6, 3, 4
    checked = 0
    for seed in range(20):
        inputs = random_scan(300 + seed, m, k, e)
        rng = PrngStream(900 + seed)
        wy, wh = rng.normal((m, e)), rng.normal((k, e))
        grads = scan_backward(inputs, dy=wy, dh_final=wh)
        for name in ("a_bar", "b_bar", "c", "x", "h0"):
            def f(arr, _n=name):
                kw = {n: getattr(inputs, n) for n in ("a_bar", "b_bar", "c", "x", "h0")}
                kw[_n] = arr
                out = scan_sequential(ScanInputs(**kw))
                return float((out.y * wy).sum() + (out.h_final * wh).sum())

            numeric = finite_diff_grad(lambda stack: np.array([f(v) for v in stack]),
                                       getattr(inputs, name).copy(), step=1e-5)
            analytic = getattr(grads, name)
            diff = np.abs(analytic - numeric)
            ok = (diff <= 1e-8) | (diff <= 1e-5 * np.abs(numeric))
            assert ok.all(), f"seed {seed} {name}: worst {diff.max():.3e}"
            checked += diff.size
    report("ACC-04 gradient correctness",
           f"20 seeds, {checked} coordinates within 1e-5 rel or 1e-8 abs")


def test_acc_05_hilbert_contract():
    for bits in (1, 2, 3, 4):
        n = 1 << bits
        cells = np.array(list(itertools.product(range(n), repeat=3)), dtype=np.int64)
        codes = hilbert_indices(cells, bits)
        assert sorted(codes.tolist()) == list(range(n ** 3)), f"bijection bits={bits}"
        path = cells[np.argsort(codes)]
        l1 = np.abs(np.diff(path, axis=0)).sum(axis=1)
        assert (l1 == 1).all(), f"adjacency bits={bits}"
    # frozen locality fixture: 16^3 lattice, knn=1, row-major enumeration
    pts = np.array(list(itertools.product(range(16), repeat=3)), dtype=np.float64)
    row_major = locality_score(np.arange(len(pts)), pts, knn=1)
    hilbert = locality_score(
        serialize(pts, SerializationOrder("xyz", 4)),
        pts, knn=1)
    assert hilbert < row_major
    np.testing.assert_allclose(row_major - hilbert, 90.066895, atol=1e-4)
    report("ACC-05 Hilbert contract",
           f"bijection+adjacency exhaustive bits<=4; locality margin "
           f"{row_major - hilbert:.6f} (frozen 90.066895)")


def test_acc_06_delay_kernel_contract():
    rng = PrngStream(42)
    box = Box3D(center=rng.normal((3,)), size=rng.uniform((3,), 0.5, 1.2), yaw=0.7)
    radius = 0.5 * float(np.linalg.norm(box.size))
    alpha_raw = 1.1
    alpha = float(softplus(np.float64(alpha_raw)))
    direction = np.array([1.0, 0.0, 0.0])
    inside_d = np.linspace(0.0, radius, 64)
    pts = box.center + inside_d[:, None] * direction
    f_in = delay_kernel(BoxSet([box]), pts, alpha_raw)[:, 0]
    assert (f_in == 1.0).all()
    beyond_d = radius + np.linspace(1e-4, 6.0, 400)
    f_out = delay_kernel(BoxSet([box]), box.center + beyond_d[:, None] * direction,
                         alpha_raw)[:, 0]
    assert (np.diff(f_out) < 0).all(), "strictly decreasing beyond radius"
    anchor = box.center + (radius + 1.0 / alpha) * direction
    f_anchor = delay_kernel(BoxSet([box]), anchor[None, :], alpha_raw)[0, 0]
    assert abs(f_anchor - np.exp(-1.0)) <= 1e-12
    # far-point update suppression below 1e-4 relative, on a random block
    k, e = 2, 6
    boxes = make_boxes(rng, k)
    r_max = max(0.5 * np.linalg.norm(b.size) for b in boxes)
    far = np.mean([b.center for b in boxes], axis=0) \
        + np.array([r_max + 12.0 / alpha + 5.0, 0.0, 0.0])
    w = ibs_weights_init(rng, channels=4, state_dim=e, corr_dim=3)
    w.alpha_raw = alpha_raw
    table = correlation_table_init(rng, 3)
    x, h0 = rng.normal((2, 4)), rng.normal((k, 4))
    pts2 = np.vstack([boxes[0].center, far])
    _, _, tr = traced_block(x, h0, *conditioning(pts2, boxes, w, table), w)
    # identical weights except the kernel disabled
    w_off = IbsWeights(**{**w.__dict__, "alpha_raw": -80.0})
    _, _, tr0 = traced_block(x, h0, *conditioning(pts2, boxes, w_off, table), w_off)
    ratios = []
    for direction_name in ("forward", "backward"):
        upd = np.abs(tr[direction_name]["b_bar"][1] * tr[direction_name]["x_conv"][1]).max()
        upd0 = np.abs(tr0[direction_name]["b_bar"][1] * tr0[direction_name]["x_conv"][1]).max()
        ratios.append(upd / upd0)
    assert max(ratios) < 1e-4
    report("ACC-06 delay-kernel contract",
           f"unit inside, strictly decreasing outside, |f(R+1/a)-e^-1| <= 1e-12, "
           f"far-point update ratio {max(ratios):.2e} < 1e-4")


def test_acc_07_block_fidelity():
    m, k, c, e, d = 4, 2, 4, 8, 3
    worst = 0.0
    for seed in range(10):
        rng = PrngStream(700 + seed)
        w = ibs_weights_init(rng, channels=c, state_dim=e, corr_dim=d, kernel_size=8)
        table = correlation_table_init(rng, d)
        x, h0 = rng.normal((m, c)), rng.normal((k, c))
        points = rng.normal((m, 3))
        boxes = make_boxes(rng, k)
        y, h, trace = traced_block(x, h0, *conditioning(points, boxes, w, table), w)
        # the shapes of the parameters each direction's scan reads
        for direction in ("forward", "backward"):
            t = trace[direction]
            assert t["x_conv"].shape == (m, e)
            assert t["b"].shape == (m, k) and t["c"].shape == (m, k)
            assert t["delta"].shape == (m, k, e)
            assert t["a_bar"].shape == (m, k, e) and t["b_bar"].shape == (m, k, e)
        y_ref, h_ref = transcribe_block(x, h0, points, boxes, w, table)
        worst = max(worst, float(np.abs(y - y_ref).max()),
                    float(np.abs(h - h_ref).max()))
    assert worst <= 1e-12, worst
    report("ACC-07 block fidelity",
           f"10 seeds vs scalar transcription, max abs err {worst:.3e} <= 1e-12; "
           f"all scan-parameter shapes verified")


def test_acc_08_simultaneous_update():
    cfg = small_cfg(num_layers=3)
    scene = synth_scene(num_boxes=2, points_per_box=16, noise_points=16, seed=8,
                        feature_dim=cfg.channels)
    weights = decoder_weights_init(PrngStream(88), cfg)
    result = decoder_stack(scene, cfg, weights)
    prev_x = scene.features + positional_embedding(scene.positions, weights)
    idx = farthest_point_sampling(scene.positions, cfg.num_states)
    prev_h = prev_x[idx]
    norms = []
    for x, layer in zip(layer_features(scene, cfg, weights), result.layers):
        dx = float(np.linalg.norm(x - prev_x))
        dh = float(np.linalg.norm(layer.h - prev_h))
        assert dx > 0 and dh > 0
        norms.append((dx, dh))
        prev_x, prev_h = x, layer.h
    # residual-zero configuration is the exact identity
    zero_residual_branches(weights)
    result0 = decoder_stack(scene, cfg, weights)
    x0 = scene.features + positional_embedding(scene.positions, weights)
    for x, layer in zip(layer_features(scene, cfg, weights), result0.layers):
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(layer.h, x0[idx])
    report("ACC-08 simultaneous update",
           f"3 layers, per-layer (|dx|, |dh|) = "
           f"{[(round(a, 2), round(b, 2)) for a, b in norms]}; "
           f"residual-zero stack is the bit-exact identity")


def test_acc_12_frozen_scene_ablation():
    # DETR decoders keep the scene features fixed. Zeroing the two residual
    # branches that write x (the block's out_y and the scene FFN's out) is
    # that setting on this stack: x stays bit for bit while h still moves.
    # Counts of changed entries, not norms: a norm of differences can
    # underflow to 0.
    cfg = small_cfg(num_layers=3)
    scene = synth_scene(num_boxes=2, points_per_box=16, noise_points=16, seed=8,
                        feature_dim=cfg.channels)
    counts = {}
    for name in ("seeded", "frozen"):
        weights = decoder_weights_init(PrngStream(88), cfg)
        if name == "frozen":
            for lw in weights.layers:
                lw.ibs.out_y = zero_linear(lw.ibs.out_y)
                lw.gffn_x.out = zero_linear(lw.gffn_x.out)
        prev_x = scene.features + positional_embedding(scene.positions, weights)
        prev_h = prev_x[farthest_point_sampling(scene.positions, cfg.num_states)]
        counts[name] = []
        layers = decoder_stack(scene, cfg, weights).layers
        for x, layer in zip(layer_features(scene, cfg, weights), layers):
            counts[name].append((int(np.count_nonzero(x != prev_x)),
                                 int(np.count_nonzero(layer.h != prev_h))))
            prev_x, prev_h = x, layer.h
    assert len(counts["frozen"]) == cfg.num_layers
    assert all(dx == 0 and dh > 0 for dx, dh in counts["frozen"]), counts
    assert all(dx > 0 and dh > 0 for dx, dh in counts["seeded"]), counts
    size = scene.features.size
    report("ACC-12 frozen-scene ablation",
           f"changed x entries per layer of {size}: seeded "
           f"{[dx for dx, _ in counts['seeded']]}, out_y and gffn_x.out zeroed "
           f"{[dx for dx, _ in counts['frozen']]}; h moves at every layer in both")


def test_acc_09_complexity_scaling():
    result = complexity_bench([1024, 2048, 4096, 8192], repeats=7)
    layer_slope = result["layer_slope"]
    attn_slope = result["attention_slope"]
    assert 0.9 <= layer_slope <= 1.3, f"decoder layer slope {layer_slope}"
    assert 1.7 <= attn_slope <= 2.3, f"attention slope {attn_slope}"
    report("ACC-09 complexity scaling",
           f"decoder layer slope {layer_slope:.3f} in [0.9, 1.3]; "
           f"attention slope {attn_slope:.3f} in [1.7, 2.3]")


def test_acc_10_focal_loss_sanity():
    rng = PrngStream(10)
    p = rng.uniform((64,), 0.01, 0.99)
    t = (rng.uniform((64,)) > 0.4).astype(int)
    loss = binary_focal_loss(p, t, gamma=0.0, alpha_bal=0.5)
    bce = float(np.mean(-(t * np.log(p) + (1 - t) * np.log(1 - p))))
    assert abs(loss - 0.5 * bce) <= 1e-12
    single = binary_focal_loss(np.array([0.3]), np.array([1]), gamma=2.0,
                               alpha_bal=0.25)
    assert abs(single - 0.14749) <= 1e-5
    report("ACC-10 focal loss sanity",
           f"gamma=0 reduces to 0.5*BCE within 1e-12; "
           f"single-point value {single:.6f} within 1e-5 of 0.14749")


def test_acc_11_end_to_end_smoke(tmp_path):
    scene_path = str(tmp_path / "scene.npz")
    gen = subprocess.run([sys.executable, "-m", "dest3d.cli", "gen-scene",
                          "--boxes", "3", "--points-per-box", "64",
                          "--noise", "64", "--seed", "11", "-o", scene_path],
                         capture_output=True, text=True)
    assert gen.returncode == 0, gen.stderr
    args = [sys.executable, "-m", "dest3d.cli", "demo", scene_path,
            "--layers", "6", "--states", "8", "--seed", "11"]
    run1 = subprocess.run(args, capture_output=True, text=True)
    run2 = subprocess.run(args, capture_output=True, text=True)
    assert run1.returncode == 0, run1.stderr
    assert run1.stdout == run2.stdout, "stdout must be byte-identical across runs"
    lines = run1.stdout.strip().splitlines()
    dets = [json.loads(line) for line in lines[:-1]]
    assert len(dets) == 6 * 8
    for layer in range(6):
        assert sum(1 for d in dets if d["layer"] == layer) == 8
    for d in dets:
        assert all(s > 0 for s in d["size"])
        assert -np.pi < d["yaw"] <= np.pi
        assert np.isfinite(d["center"]).all()
    summary = json.loads(lines[-1])["summary"]
    assert summary["objectness_focal_loss"] >= 0
    assert np.isfinite(summary["objectness_focal_loss"])
    report("ACC-11 end-to-end smoke",
           f"6 layers x 8 detections, all boxes valid, loss "
           f"{summary['objectness_focal_loss']:.6f}, byte-identical reruns")

"""Golden reference: the f64 decoder_stack outputs, frozen from earlier code.

Each case runs the full 6-layer stack on a seeded ~500-point scene with K=8
states and compares final_x, every layer's state features h, and every
layer's box centers/sizes/yaw/objectness with tests/data/golden_stack.npz.
A refactor that changes numerics beyond rounding fails here even when the
reruns of the new code agree with each other.

Regenerate the data only when a change moves the seeded outputs on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from dest3d.decoder import DecoderConfig, decoder_stack, decoder_weights_init
from dest3d.geometry import synth_scene
from dest3d.numerics import PrngStream

DATA = Path(__file__).resolve().parent / "data" / "golden_stack.npz"
SEEDS = (0, 1)
CONFIGS = (("table", "center"), ("mlp", "vertex"), ("table", "surface"))
# relative to each array's largest magnitude; rounding-level changes move
# the outputs by about 1e-15
RTOL = 1e-10


def run_case(seed: int, corr_mode: str, delay_metric: str) -> dict[str, np.ndarray]:
    scene = synth_scene(num_boxes=3, points_per_box=96, noise_points=212,
                        seed=seed, feature_dim=32)
    cfg = DecoderConfig(num_states=8, correlation_mode=corr_mode,
                        delay_metric=delay_metric)
    weights = decoder_weights_init(PrngStream(1000 + seed), cfg)
    result = decoder_stack(scene, cfg, weights)
    dets = [layer.detections for layer in result.layers]
    return {
        "final_x": result.final_x,
        "h": np.stack([layer.h for layer in result.layers]),
        "centers": np.array([[d.box.center for d in ds] for ds in dets]),
        "sizes": np.array([[d.box.size for d in ds] for ds in dets]),
        "yaw": np.array([[d.box.yaw for d in ds] for ds in dets]),
        "objectness": np.array([[d.objectness for d in ds] for ds in dets]),
    }


def case_key(seed: int, corr_mode: str, delay_metric: str) -> str:
    return f"s{seed}_{corr_mode}_{delay_metric}"


CASES = [(seed, mode, metric) for seed in SEEDS for mode, metric in CONFIGS]


@pytest.mark.parametrize("seed,corr_mode,delay_metric", CASES,
                         ids=[case_key(*c) for c in CASES])
def test_decoder_stack_matches_golden(seed, corr_mode, delay_metric):
    golden = np.load(DATA)
    key = case_key(seed, corr_mode, delay_metric)
    for name, value in run_case(seed, corr_mode, delay_metric).items():
        ref = golden[f"{key}/{name}"]
        assert value.shape == ref.shape, name
        scale = float(np.abs(ref).max())
        err = float(np.abs(value - ref).max())
        assert err <= RTOL * scale, f"{key}/{name}: max error {err:.3e}, scale {scale:.3e}"


if __name__ == "__main__":
    arrays = {}
    for case in CASES:
        for name, value in run_case(*case).items():
            arrays[f"{case_key(*case)}/{name}"] = value
    DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(DATA, **arrays)
    print(f"wrote {len(arrays)} arrays to {DATA}")

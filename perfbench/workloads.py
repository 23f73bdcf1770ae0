"""Workload definitions: inputs from a seed, one operation, and its check.

A decoder workload's operation is one `decoder_stack(scene, cfg, weights)`
call; the `oracles` operation is one pass of the five equivalence suites.
Every operation's output is reduced to a compact digest and compared with a
reference frozen from the seed commit's code (see freeze.py).

Importing this module imports dest3d from this checkout's `src/`, never an
installed copy; without it the import fails.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_SRC))

from dest3d import decoder, verify  # noqa: E402
from dest3d.geometry import synth_scene  # noqa: E402
from dest3d.numerics import PrngStream  # noqa: E402

if Path(decoder.__file__).resolve().parent != (_SRC / "dest3d").resolve():
    raise ImportError(f"dest3d imported from {decoder.__file__}, not from {_SRC}")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Number of frozen reference cases per decoder workload; --seed n runs case
# n mod CASES, so any seed the caller passes maps onto a frozen reference.
CASES = 4
# Per-array tolerance, relative to the largest reference magnitude. A reordered
# floating-point reduction moves the outputs by about 1e-14; a 1e-6 change to
# one scan-parameter weight moves them by only 4e-10 at M=8192, so 1e-9 would
# miss it.
RTOL = 1e-10
NUM_BOXES = 6
EXTENT = 6.0
WEIGHT_SEED_OFFSET = 10_000
SUITES = ("attn_recurrence", "scan_conv", "scan_chunked", "grad_check",
          "delay_monotone")
SUITE_SEEDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points: int = 0          # M; 0 for the oracles workload
    states: int = 0          # K
    correlation_mode: str = "table"
    delay_metric: str = "center"
    boxes: int = NUM_BOXES
    noise_points: int | None = None  # None: half of the points are noise

    @property
    def is_decoder(self) -> bool:
        return self.points > 0

    def shape(self) -> str:
        if not self.is_decoder:
            return f"{len(SUITES)} equivalence suites x {SUITE_SEEDS} seeds"
        return (f"M={self.points} K={self.states} "
                f"{self.correlation_mode} correlation, {self.delay_metric} delay")

    def noise(self) -> int:
        if self.noise_points is not None:
            return self.noise_points
        return self.points - self.boxes * (self.points // (2 * self.boxes))


WORKLOADS = {w.name: w for w in (
    Workload("demo",
             "M=640 K=16 table/center, the scene and config `dest3d demo` runs by "
             "default (about 0.5 s per op): per-call overhead that a large-M or "
             "large-K speed-up adds shows here",
             points=640, states=16, boxes=3, noise_points=256),
    Workload("states_heavy",
             "M=2048 K=64 table/center: the (M,K,E) parameter pipeline "
             "(softplus, discretize_zoh, gen_params) dominates; fusion and "
             "boxes-as-arrays must show here",
             points=2048, states=64),
    Workload("points_heavy",
             "M=8192 K=4 table/center: per-point work (the M-step scan loop, "
             "gffn depthwise conv, serialization) gains share; K-scaled "
             "savings move it less",
             points=8192, states=4),
    Workload("mlp_vertex",
             "M=2048 K=16 mlp/vertex: the issm layer's other path, exact "
             "8-vertex MLP correlation and vertex delay; a table-only "
             "speed-up must not cost it",
             points=2048, states=16, correlation_mode="mlp",
             delay_metric="vertex"),
    Workload("oracles",
             "5 equivalence suites x 20 seeds: scan_chunked, scan_backward, "
             "lti_conv_form, attention recurrence; bypasses the decoder, and of "
             "issm runs only delay_kernel"),
)}


class MissingReference(Exception):
    """No frozen reference matches the requested workload and case."""


@dataclass
class DecoderInputs:
    scene: object
    cfg: decoder.DecoderConfig
    weights: decoder.DecoderWeights


@dataclass
class OracleInputs:
    perturb: float = 0.0  # added to each suite's checked side


def case_for_seed(seed: int) -> int:
    return seed % CASES


def config_for(w: Workload) -> decoder.DecoderConfig:
    return decoder.DecoderConfig(num_states=w.states,
                                 correlation_mode=w.correlation_mode,
                                 delay_metric=w.delay_metric)


def build_inputs(w: Workload, case: int, perturb: float = 0.0):
    """Scene and weights for one case; the points not noise lie on box surfaces.

    perturb is a negative control for the output check: it is added to one
    weight on the decoder's hot path, or to each oracle suite's checked side.
    """
    if not w.is_decoder:
        return OracleInputs(perturb)
    scene = synth_scene(num_boxes=w.boxes, points_per_box=(w.points - w.noise()) // w.boxes,
                        noise_points=w.noise(), extent=EXTENT, seed=case)
    cfg = config_for(w)
    weights = decoder.decoder_weights_init(PrngStream(WEIGHT_SEED_OFFSET + case), cfg)
    if perturb:
        weights.layers[0].ibs.forward.delta_from_x.weight[0, 0] += perturb
    return DecoderInputs(scene=scene, cfg=cfg, weights=weights)


def run_op(w: Workload, inputs):
    """One operation. Names are looked up on the module at call time, so a
    traced run sees its wrappers."""
    if w.is_decoder:
        return decoder.decoder_stack(inputs.scene, inputs.cfg, inputs.weights)
    return [verify.run_equivalence_suite(kind, seeds=SUITE_SEEDS, perturb=inputs.perturb)
            for kind in SUITES]


def _projection(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed dense projections (rows, 4) and (cols, 4), independent of any PRNG."""
    u = np.cos(np.outer(np.arange(1, rows + 1), [0.61, 1.37, 2.11, 2.93]))
    v = np.sin(np.outer(np.arange(1, cols + 1), [0.53, 1.19, 1.87, 2.71]) + 0.3)
    return u, v


def digest(w: Workload, out) -> dict[str, np.ndarray]:
    """Compact, comparable summary of one operation's output."""
    if not w.is_decoder:
        return {"passed": np.array([r.passed for r in out])}
    dets = [layer.detections for layer in out.layers]
    u, v = _projection(*out.final_x.shape)
    return {
        "h": np.asarray(out.layers[-1].h, dtype=np.float64),
        "centers": np.array([[d.box.center for d in ds] for ds in dets]),
        "sizes": np.array([[d.box.size for d in ds] for ds in dets]),
        "yaw": np.array([[d.box.yaw for d in ds] for ds in dets]),
        "objectness": np.array([[d.objectness for d in ds] for ds in dets]),
        "x_proj": u.T @ out.final_x @ v,
    }


def mismatch(w: Workload, got: dict[str, np.ndarray],
             ref: dict[str, np.ndarray] | None) -> str | None:
    """None when the digest matches, else a one-line reason."""
    if not w.is_decoder:
        failed = [s for s, ok in zip(SUITES, got["passed"]) if not ok]
        return f"suites failed: {', '.join(failed)}" if failed else None
    for key, expect in ref.items():
        have = got.get(key)
        if have is None or have.shape != expect.shape:
            return f"{key}: shape {None if have is None else have.shape} != {expect.shape}"
        if not np.isfinite(have).all():
            return f"{key}: non-finite values"
        err = float(np.abs(have - expect).max())
        scale = max(float(np.abs(expect).max()), np.finfo(np.float64).tiny)
        if err > RTOL * scale:
            return f"{key}: max error {err:.3e} exceeds {RTOL:g} x {scale:.3e}"
    return None


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.npz"


def _fingerprint(w: Workload) -> str:
    noise = "" if w.noise_points is None else f" noise={w.noise_points}"
    return f"{w.shape()} boxes={w.boxes}{noise} extent={EXTENT} weights+{WEIGHT_SEED_OFFSET}"


def load_reference(w: Workload, case: int) -> dict[str, np.ndarray] | None:
    """The frozen digest for one case; raises MissingReference if there is none."""
    if not w.is_decoder:
        return None
    path = reference_path(w)
    if not path.is_file():
        raise MissingReference(f"no frozen reference file {path.name} for workload {w.name}")
    with np.load(path) as data:
        if str(data["fingerprint"]) != _fingerprint(w):
            raise MissingReference(
                f"{path.name} was frozen for '{data['fingerprint']}', "
                f"workload is now '{_fingerprint(w)}'")
        prefix = f"case{case}/"
        ref = {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}
    if not ref:
        raise MissingReference(f"{path.name} holds no frozen reference for case {case}")
    return ref


def save_reference(w: Workload, digests: dict[int, dict[str, np.ndarray]]) -> Path:
    arrays = {f"case{case}/{k}": v for case, d in digests.items() for k, v in d.items()}
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference_path(w)
    np.savez_compressed(path, fingerprint=np.array(_fingerprint(w)), **arrays)
    return path

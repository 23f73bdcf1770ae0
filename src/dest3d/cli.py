"""Command-line surface: scene generation, serialization, a forward demo,
the verification suites, and the complexity benchmark.

Exit codes: 0 success, 1 verification failure, 2 usage/config error. Every
subcommand is deterministic for a fixed --seed (benchmark timings aside).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .decoder import (
    DecoderConfig,
    binary_focal_loss,
    decoder_stack,
    decoder_weights_init,
    objectness_labels,
    point_objectness,
)
from .geometry import Scene, synth_scene
from .numerics import PrngStream, require_finite
from .sceneio import (
    boxes_sidecar_path,
    read_boxes_json,
    read_points,
    write_boxes_json,
    write_destpc,
    write_text_points,
)
from .serialization import AXIS_ORDERS, SerializationOrder, locality_score, serialize
from .verify import SUITE_NAMES, complexity_bench, run_equivalence_suite
from .weights_io import flatten_weights, load_weights, save_weights, unflatten_weights

__all__ = ["main"]

# RunConfig keys that map straight onto DecoderConfig fields.
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(DecoderConfig)}
_EXTRA_CONFIG_KEYS = {"seed"}


class UsageError(Exception):
    pass


def load_run_config(path: str | None, overrides: dict) -> tuple[DecoderConfig, int]:
    """JSON config document; CLI flags override config keys; unknown keys rejected."""
    doc: dict = {}
    if path:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(doc) - _CONFIG_FIELDS - _EXTRA_CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    seed = doc.pop("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise UsageError(f"seed must be an int, got {seed!r}")
    try:
        cfg = DecoderConfig(**{k: v for k, v in doc.items() if k in _CONFIG_FIELDS})
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return cfg, seed


def cmd_gen_scene(args) -> int:
    scene = synth_scene(num_boxes=args.boxes, points_per_box=args.points_per_box,
                        noise_points=args.noise, extent=args.extent,
                        seed=args.seed, feature_dim=args.feature_dim)
    out = Path(args.output)
    if args.format == "binary":
        write_destpc(out, scene.positions, scene.colors)
    else:
        write_text_points(out, scene.positions, scene.colors)
    write_boxes_json(boxes_sidecar_path(out), scene.gt_boxes)
    print(f"wrote {scene.num_points} points to {out} "
          f"({len(scene.gt_boxes)} boxes in {boxes_sidecar_path(out).name})")
    return 0


def cmd_serialize(args) -> int:
    if args.score and args.knn < 1:
        raise UsageError(f"--knn must be >= 1, got {args.knn}")
    positions, _ = read_points(args.input)
    order = SerializationOrder(args.order, args.bits)
    perm = serialize(positions, order)
    for idx in perm:
        print(int(idx))
    if args.score:
        knn = min(args.knn, positions.shape[0] - 1)
        if knn >= 1:
            print(f"# locality_score knn={knn}: "
                  f"{locality_score(perm, positions, knn):.6f}")
    return 0


def _scene_from_file(path: str, cfg: DecoderConfig, seed: int) -> Scene:
    positions, colors = read_points(path)
    sidecar = boxes_sidecar_path(path)
    boxes = read_boxes_json(sidecar) if sidecar.exists() else []
    # no encoder at this scale: features are a seeded stand-in, position
    # information enters through the decoder's positional embedding
    feats = PrngStream(seed ^ 0x5CE17E).normal((positions.shape[0], cfg.channels), 0.0, 1.0)
    return Scene(positions=positions, features=feats, colors=colors, gt_boxes=boxes)


@contextlib.contextmanager
def _warnings_as_lines():
    """Print each distinct warning raised in the block once, as one stderr line
    "warning: <message>" (no source-line echo), also when the block raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def cmd_demo(args) -> int:
    with _warnings_as_lines():
        lines = _demo_lines(args)
    for line in lines:
        print(json.dumps(line, sort_keys=True, allow_nan=False))
    return 0


def _demo_lines(args) -> list[dict]:
    overrides = {"num_layers": args.layers, "num_states": args.states,
                 "channels": args.channels, "serialization_bits": args.bits,
                 "seed": args.seed}
    cfg, seed = load_run_config(args.config, overrides)
    scene = _scene_from_file(args.input, cfg, seed)
    weights = decoder_weights_init(PrngStream(seed), cfg)
    if args.weights:
        unflatten_weights(weights, load_weights(args.weights))
    if args.save_weights:
        save_weights(args.save_weights, flatten_weights(weights))
    result = decoder_stack(scene, cfg, weights)
    probs = point_objectness(result.final_x, weights)
    loss = binary_focal_loss(probs, objectness_labels(scene))
    # finite weights can still overflow; refuse by name rather than print NaN
    # (decoder_stack already refuses non-finite boxes)
    lines = []
    for layer_idx, layer in enumerate(result.layers):
        for det in layer.detections:
            for name, value in (("class_logits", det.class_logits),
                                ("score", det.objectness)):
                require_finite(f"layer {layer_idx} detection {name}", value)
            lines.append({
                "layer": layer_idx,
                "center": [round(float(v), 6) for v in det.box.center],
                "size": [round(float(v), 6) for v in det.box.size],
                "yaw": round(float(det.box.yaw), 6),
                "class": int(np.argmax(det.class_logits)),
                "score": round(float(det.objectness), 6),
            })
    require_finite("point objectness", probs)
    lines.append({"summary": {"layers": cfg.num_layers, "states": cfg.num_states,
                              "points": scene.num_points,
                              "objectness_focal_loss": round(loss, 9)}})
    return lines


def cmd_verify(args) -> int:
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    perturb = 1e-3 if args.inject_error else 0.0
    reports = [run_equivalence_suite(s, seeds=args.seeds, tol=args.tol,
                                     perturb=perturb) for s in suites]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        print(f"{'suite':<16}{'cases':>6}{'max_abs_err':>14}{'tol':>10}  status")
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.suite:<16}{r.cases:>6}{r.max_abs_err:>14.3e}"
                  f"{r.tolerance:>10.0e}  {status}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_bench(args) -> int:
    m_values = [int(v) for v in args.m_list.split(",")]
    result = complexity_bench(m_values, k=args.k, e=args.e, repeats=args.repeats,
                              threads=args.threads)
    print(f"{'M':>8}{'scan_time_s':>14}{'attention_time_s':>18}")
    for row in result["rows"]:
        print(f"{row['M']:>8}{row['scan_time']:>14.6f}{row['attention_time']:>18.6f}")
    print(f"scan log-log slope: {result['scan_slope']:.3f}")
    print(f"attention log-log slope: {result['attention_slope']:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dest3d",
        description="State-space decoder toolkit: scene generation, Hilbert "
                    "serialization, forward demo, verification, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write a synthetic point cloud + box sidecar")
    p.add_argument("--boxes", type=int, default=3)
    p.add_argument("--points-per-box", type=int, default=128)
    p.add_argument("--noise", type=int, default=256)
    p.add_argument("--extent", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-dim", type=int, default=32)
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("serialize", help="print the Hilbert permutation of a cloud")
    p.add_argument("input")
    p.add_argument("--order", choices=AXIS_ORDERS, default="xyz")
    p.add_argument("--bits", type=int, default=9)
    p.add_argument("--score", action="store_true", help="also print locality score")
    p.add_argument("--knn", type=int, default=8)
    p.set_defaults(func=cmd_serialize)

    p = sub.add_parser("demo", help="run the decoder stack, print detections as JSON lines")
    p.add_argument("input")
    p.add_argument("--config", help="JSON run config; flags override its keys")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--states", type=int, default=None)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--weights", help="load weights from this container")
    p.add_argument("--save-weights", help="save the (possibly loaded) weights here")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("verify", help="run equivalence suites; exit 0 iff all pass")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--inject-error", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="scan vs attention wall-time scaling")
    p.add_argument("--m-list", default="1024,2048,4096,8192")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--e", type=int, default=32)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS worker cap for timing stability (default 1), set in "
                        "the environment of the process that times")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}; the scene or config is too large for "
              "this machine", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

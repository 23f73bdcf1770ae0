"""Decoder layers that update scene features and object-candidate states
together.

Each layer: serialize the scene points along that layer's Hilbert variant,
run the bidirectional interactive scan, let the states attend to each other,
push both streams through gated feed-forward blocks (the scene stream with a
depthwise conv over the serialized order), then restore the original point
order. After every layer the detection head re-predicts a box per state, and
those boxes drive the next layer's spatial correlation and delay kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box3D, Scene, farthest_point_sampling, points_in_box
from .issm import (
    CorrelationMlp,
    CorrelationTable,
    IbsWeights,
    correlation_mlp_init,
    correlation_table_init,
    ibs_forward,
    ibs_weights_init,
)
from .numerics import (
    LinearWeights,
    PrngStream,
    depthwise_conv1d,
    layer_norm,
    linear,
    linear_init,
    require_finite,
    sigmoid,
    silu,
    softmax_attention,
    softplus,
)
from .serialization import SerializationOrder, order_for_layer, serialize

__all__ = [
    "DecoderConfig",
    "Detection",
    "AttentionWeights",
    "GffnWeights",
    "DetectionHeadWeights",
    "DecoderLayerWeights",
    "DecoderWeights",
    "LayerOutput",
    "inter_state_attention",
    "gffn",
    "decoder_layer",
    "decoder_stack",
    "detection_head",
    "binary_focal_loss",
    "objectness_labels",
    "decoder_weights_init",
]

SIZE_FLOOR = 0.05  # meters; keeps predicted boxes non-degenerate
_SIZE_FIELDS = ("num_layers", "channels", "state_dim", "corr_dim", "ffn_dim", "heads",
                "kernel_size", "num_states", "serialization_bits", "num_classes")


@dataclass
class DecoderConfig:
    """Shape and behavior knobs for the decoder stack."""

    num_layers: int = 6
    channels: int = 32        # C, feature width of both streams
    state_dim: int = 32       # E, inner scan width
    corr_dim: int = 16        # D, spatial correlation feature width
    ffn_dim: int = 64         # gated FFN hidden width
    heads: int = 4
    kernel_size: int = 8
    num_states: int = 16      # K, object candidates
    serialization_bits: int = 9
    correlation_mode: str = "table"      # "table" or "mlp"
    delay_metric: str = "center"         # "center", "vertex" or "surface"
    glu_x: bool = True
    glu_h: bool = True
    num_classes: int = 10

    def __post_init__(self):
        for name in _SIZE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.serialization_bits > 16:
            raise ValueError(
                f"serialization_bits must be in [1, 16], got {self.serialization_bits}")
        for name in ("glu_x", "glu_h"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.channels % self.heads != 0:
            raise ValueError("channels must be divisible by heads")
        if self.correlation_mode not in ("table", "mlp"):
            raise ValueError(f"unknown correlation_mode {self.correlation_mode!r}")
        if self.delay_metric not in ("center", "vertex", "surface"):
            raise ValueError(f"unknown delay_metric {self.delay_metric!r}")


@dataclass
class Detection:
    box: Box3D
    class_logits: np.ndarray
    objectness: float


@dataclass
class AttentionWeights:
    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    q: LinearWeights
    k: LinearWeights
    v: LinearWeights
    out: LinearWeights
    heads: int


@dataclass
class GffnWeights:
    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    gate: LinearWeights   # C -> ffn_dim
    value: LinearWeights  # C -> ffn_dim
    out: LinearWeights    # ffn_dim -> C
    conv_kernel: np.ndarray | None = None  # (ffn_dim, ksize), scene stream only


@dataclass
class DetectionHeadWeights:
    offset: LinearWeights     # C -> 3
    size: LinearWeights       # C -> 3
    yaw_sin: LinearWeights    # C -> 1
    yaw_cos: LinearWeights    # C -> 1
    cls: LinearWeights        # C -> num_classes
    obj: LinearWeights        # C -> 1


@dataclass
class DecoderLayerWeights:
    ibs: IbsWeights
    table: CorrelationTable
    attn: AttentionWeights
    gffn_x: GffnWeights
    gffn_h: GffnWeights
    corr_mlp: CorrelationMlp | None = None


@dataclass
class DecoderWeights:
    """Whole-stack weights: positional embed, per-layer blocks, shared heads."""

    pos_embed_hidden: LinearWeights  # 3 -> C
    pos_embed_out: LinearWeights     # C -> C
    layers: list[DecoderLayerWeights] = field(default_factory=list)
    head: DetectionHeadWeights | None = None
    point_obj_hidden: LinearWeights | None = None  # C -> C
    point_obj_out: LinearWeights | None = None     # C -> 1


@dataclass
class LayerOutput:
    """Per-layer snapshot: updated streams plus that layer's detections."""

    x: np.ndarray
    h: np.ndarray
    detections: list[Detection]


def inter_state_attention(h: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """Pre-norm multi-head self-attention across states, with residual."""
    hn = layer_norm(h, w.norm_gamma, w.norm_beta)
    attended = softmax_attention(linear(hn, w.q), linear(hn, w.k),
                                 linear(hn, w.v), w.heads)
    return h + linear(attended, w.out)


def gffn(t: np.ndarray, w: GffnWeights, gated: bool = True) -> np.ndarray:
    """Gated feed-forward block with residual.

    t + out(SiLU(gate(norm(t))) * value-path); when w carries a conv kernel
    (the scene stream's), the value path runs through a causal depthwise conv
    over the serialized order. gated=False drops the multiplicative value
    path (plain FFN), matching the ablation switch.
    """
    tn = layer_norm(t, w.norm_gamma, w.norm_beta)
    g = silu(linear(tn, w.gate))
    if not gated:
        return t + linear(g, w.out)
    v = linear(tn, w.value)
    if w.conv_kernel is not None:
        v = depthwise_conv1d(v, w.conv_kernel)
    return t + linear(g * v, w.out)


def decoder_layer(x: np.ndarray, h: np.ndarray, positions: np.ndarray,
                  boxes: list[Box3D], layer: int, w: DecoderLayerWeights,
                  cfg: DecoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """One decoder layer; returns (x', h') with x' in the input point order."""
    order = SerializationOrder(order_for_layer(layer), cfg.serialization_bits)
    perm = serialize(positions, order)
    xp = x[perm]
    pp = positions[perm]
    x1, h1 = ibs_forward(xp, h, pp, boxes, w.ibs, table=w.table,
                         corr_mode=cfg.correlation_mode, corr_mlp=w.corr_mlp,
                         delay_metric=cfg.delay_metric)
    h2 = inter_state_attention(h1, w.attn)
    x2 = gffn(x1, w.gffn_x, gated=cfg.glu_x)
    h3 = gffn(h2, w.gffn_h, gated=cfg.glu_h)
    x_out = np.empty_like(x2)
    x_out[perm] = x2
    return x_out, h3


def detection_head(h: np.ndarray, ref_positions: np.ndarray,
                   w: DetectionHeadWeights, label: str = "detection") -> list[Detection]:
    """Boxes, class logits and objectness from state features.

    Centers are offsets from the reference positions; sizes go through
    softplus plus a floor so they stay positive; yaw comes from a sin/cos
    pair via atan2 (zero weights give yaw 0). A non-finite center, size or
    yaw is refused by name, e.g. "<label> yaw contains non-finite values".
    """
    centers = require_finite(f"{label} center", ref_positions + linear(h, w.offset))
    sizes = require_finite(f"{label} size", softplus(linear(h, w.size)) + SIZE_FLOOR)
    yaw = require_finite(f"{label} yaw", np.arctan2(linear(h, w.yaw_sin)[:, 0],
                                                    linear(h, w.yaw_cos)[:, 0]))
    logits = linear(h, w.cls)
    obj = sigmoid(linear(h, w.obj))[:, 0]
    return [
        Detection(box=Box3D(center=centers[i], size=sizes[i], yaw=float(yaw[i])),
                  class_logits=logits[i], objectness=float(obj[i]))
        for i in range(h.shape[0])
    ]


def binary_focal_loss(pred_prob: np.ndarray, target: np.ndarray,
                      gamma: float = 2.0, alpha_bal: float = 0.25) -> float:
    """Mean focal loss over points; probabilities clamped away from {0, 1}."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if not 0.0 < alpha_bal < 1.0:
        raise ValueError("alpha_bal must lie in (0, 1)")
    p = np.clip(np.asarray(pred_prob, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    t = np.asarray(target)
    p_t = np.where(t == 1, p, 1.0 - p)
    alpha_t = np.where(t == 1, alpha_bal, 1.0 - alpha_bal)
    return float(np.mean(-alpha_t * (1.0 - p_t) ** gamma * np.log(p_t)))


def objectness_labels(scene: Scene) -> np.ndarray:
    """1 for points inside any ground-truth box (boundary counts), else 0."""
    labels = np.zeros(scene.num_points, dtype=np.int64)
    for box in scene.gt_boxes:
        labels |= points_in_box(scene.positions, box, tol=1e-9).astype(np.int64)
    return labels


def positional_embedding(positions: np.ndarray, w: DecoderWeights) -> np.ndarray:
    return linear(silu(linear(positions, w.pos_embed_hidden)), w.pos_embed_out)


def point_objectness(x: np.ndarray, w: DecoderWeights) -> np.ndarray:
    """Per-scene-point foreground probability from final scene features."""
    hidden = silu(linear(x, w.point_obj_hidden))
    return sigmoid(linear(hidden, w.point_obj_out))[:, 0]


@dataclass
class StackResult:
    layers: list[LayerOutput]
    final_x: np.ndarray


def decoder_stack(scene: Scene, cfg: DecoderConfig,
                  weights: DecoderWeights) -> StackResult:
    """Run the full stack on one scene.

    States start as the farthest-point-sampled scene points (after the single
    positional-feature injection); their boxes are predicted from the initial
    state features and refreshed after every layer.
    """
    if scene.num_points < cfg.num_states:
        raise ValueError(
            f"scene has {scene.num_points} points, fewer than {cfg.num_states} states"
        )
    if scene.features.shape[1] != cfg.channels:
        raise ValueError(
            f"scene features width {scene.features.shape[1]} != config channels {cfg.channels}"
        )
    x = scene.features + positional_embedding(scene.positions, weights)
    idx = farthest_point_sampling(scene.positions, cfg.num_states, start=0)
    state_pos = scene.positions[idx]
    h = x[idx].copy()
    boxes = [d.box for d in detection_head(h, state_pos, weights.head, "initial detection")]
    outputs = []
    for layer in range(cfg.num_layers):
        x, h = decoder_layer(x, h, scene.positions, boxes, layer,
                             weights.layers[layer], cfg)
        dets = detection_head(h, state_pos, weights.head, f"layer {layer} detection")
        boxes = [d.box for d in dets]
        outputs.append(LayerOutput(x=x, h=h, detections=dets))
    return StackResult(layers=outputs, final_x=x)


def _attention_init(stream: PrngStream, channels: int, heads: int) -> AttentionWeights:
    return AttentionWeights(
        norm_gamma=np.ones(channels), norm_beta=np.zeros(channels),
        q=linear_init(stream, channels, channels),
        k=linear_init(stream, channels, channels),
        v=linear_init(stream, channels, channels),
        out=linear_init(stream, channels, channels, bias=False),
        heads=heads,
    )


def _gffn_init(stream: PrngStream, channels: int, ffn_dim: int,
               kernel_size: int | None) -> GffnWeights:
    kernel = None
    if kernel_size is not None:
        bound = 1.0 / np.sqrt(kernel_size)
        kernel = stream.uniform((ffn_dim, kernel_size), -bound, bound)
    return GffnWeights(
        norm_gamma=np.ones(channels), norm_beta=np.zeros(channels),
        gate=linear_init(stream, ffn_dim, channels),
        value=linear_init(stream, ffn_dim, channels),
        out=linear_init(stream, channels, ffn_dim, bias=False),
        conv_kernel=kernel,
    )


def _head_init(stream: PrngStream, channels: int, num_classes: int) -> DetectionHeadWeights:
    return DetectionHeadWeights(
        offset=linear_init(stream, 3, channels),
        size=linear_init(stream, 3, channels),
        yaw_sin=linear_init(stream, 1, channels),
        yaw_cos=linear_init(stream, 1, channels),
        cls=linear_init(stream, num_classes, channels),
        obj=linear_init(stream, 1, channels),
    )


def decoder_weights_init(stream: PrngStream, cfg: DecoderConfig) -> DecoderWeights:
    """Seeded weights for the whole stack, deterministic per stream seed."""
    w = DecoderWeights(
        pos_embed_hidden=linear_init(stream, cfg.channels, 3),
        pos_embed_out=linear_init(stream, cfg.channels, cfg.channels),
    )
    for _ in range(cfg.num_layers):
        layer = DecoderLayerWeights(
            ibs=ibs_weights_init(stream, cfg.channels, cfg.state_dim,
                                 cfg.corr_dim, cfg.kernel_size),
            table=correlation_table_init(stream, cfg.corr_dim),
            attn=_attention_init(stream, cfg.channels, cfg.heads),
            gffn_x=_gffn_init(stream, cfg.channels, cfg.ffn_dim, cfg.kernel_size),
            gffn_h=_gffn_init(stream, cfg.channels, cfg.ffn_dim, None),
            corr_mlp=correlation_mlp_init(stream, cfg.corr_dim),
        )
        w.layers.append(layer)
    w.head = _head_init(stream, cfg.channels, cfg.num_classes)
    w.point_obj_hidden = linear_init(stream, cfg.channels, cfg.channels)
    w.point_obj_out = linear_init(stream, 1, cfg.channels)
    return w

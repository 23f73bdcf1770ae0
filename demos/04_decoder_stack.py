"""The full decoder stack on a synthetic room.

Each layer serializes the scene along its own Hilbert variant, runs the
bidirectional interactive scan, lets the object candidates attend to each
other, pushes both streams through gated feed-forward blocks, and re-predicts
a box per candidate. Because the scene features update too, later layers see
progressively refined context rather than the frozen encoder output.

The stack's result keeps the scene features after the last layer only;
layer n's are the final features of the same stack cut to n layers.
"""

from dataclasses import replace

import numpy as np

from dest3d import DecoderConfig, PrngStream, decoder_stack, decoder_weights_init, synth_scene
from dest3d.decoder import binary_focal_loss, objectness_labels, point_objectness
from dest3d.serialization import order_for_layer

cfg = DecoderConfig(num_layers=6, channels=32, state_dim=32, corr_dim=16,
                    ffn_dim=64, heads=4, num_states=8)
scene = synth_scene(num_boxes=3, points_per_box=80, noise_points=96, seed=4,
                    feature_dim=cfg.channels)
weights = decoder_weights_init(PrngStream(7), cfg)
print(f"scene: {scene.num_points} points, {len(scene.gt_boxes)} ground-truth boxes")
print(f"stack: {cfg.num_layers} layers, {cfg.num_states} object candidates\n")

result = decoder_stack(scene, cfg, weights)
layer_x = [decoder_stack(scene, replace(cfg, num_layers=n), weights).final_x
           for n in range(1, cfg.num_layers + 1)]

prev_x = prev_h = None
print("layer  order  |dx|      |dh|      mean objectness")
for i, (x, layer) in enumerate(zip(layer_x, result.layers)):
    dx = "" if prev_x is None else f"{np.linalg.norm(x - prev_x):8.3f}"
    dh = "" if prev_h is None else f"{np.linalg.norm(layer.h - prev_h):8.3f}"
    obj = np.mean([d.objectness for d in layer.detections])
    print(f"  {i}    {order_for_layer(i)}   {dx:>8}  {dh:>8}  {obj:.3f}")
    prev_x, prev_h = x, layer.h

best = max(result.layers[-1].detections, key=lambda d: d.objectness)
print(f"\nmost confident final detection:")
print(f"  center {np.round(best.box.center, 3).tolist()}")
print(f"  size   {np.round(best.box.size, 3).tolist()}")
print(f"  yaw    {best.box.yaw:.3f} rad, objectness {best.objectness:.3f}")

# scene-point foreground supervision signal (untrained weights, so the loss
# just demonstrates the plumbing)
probs = point_objectness(result.final_x, weights)
labels = objectness_labels(scene)
loss = binary_focal_loss(probs, labels)
print(f"\nforeground points: {labels.sum()}/{scene.num_points}, "
      f"objectness focal loss {loss:.4f}")

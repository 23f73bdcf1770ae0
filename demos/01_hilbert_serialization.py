"""Hilbert serialization walkthrough.

An unordered point cloud has to become a 1D sequence before any scan can run
over it. This script quantizes a small room-scale cloud onto a grid, orders
the cells along the 3D Hilbert curve, and shows how the six axis-priority
variants give six genuinely different sequence views of the same points.
"""

import numpy as np

from dest3d import (AXIS_ORDERS, SerializationOrder, hilbert_indices, locality_score,
                    serialize, synth_scene)

# The curve itself: cell -> position along the curve. Consecutive positions
# are always grid neighbors, which is the locality property everything else
# rides on.
print("order-2 curve, first 8 cells:")
grid = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
cells = sorted(zip(hilbert_indices(np.array(grid), 2).tolist(), grid))
for code, cell in cells[:8]:
    print(f"  code {code:2d} -> cell {cell}")

scene = synth_scene(num_boxes=3, points_per_box=60, noise_points=80, seed=3)
print(f"\nscene: {scene.num_points} points, {len(scene.gt_boxes)} boxes")

# Six serializations of the same cloud. The first few indices differ because
# each variant walks the room along different axis priorities.
print("\nfirst 10 sequence positions per axis order:")
for order in AXIS_ORDERS:
    perm = serialize(scene.positions, SerializationOrder(order, bits=6))
    print(f"  {order}: {perm[:10].tolist()}")

# Locality: mean |rank difference| to each point's nearest spatial neighbor.
# Lower means spatial neighbors stay adjacent in the sequence. Compare the
# Hilbert orders against a random shuffle of the same points.
rng = np.random.default_rng(0)
shuffled = rng.permutation(scene.num_points)
print("\nlocality score (knn=1, lower is better):")
for order in AXIS_ORDERS[:3]:
    perm = serialize(scene.positions, SerializationOrder(order, bits=6))
    print(f"  hilbert {order}: {locality_score(perm, scene.positions, 1):8.2f}")
print(f"  random order: {locality_score(shuffled, scene.positions, 1):8.2f}")

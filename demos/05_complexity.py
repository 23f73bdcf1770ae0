"""Why a scan instead of attention between decoder layers.

Updating M scene points with self-attention costs O(M^2); a decoder layer,
built around the interactive scan block, costs O(M). This script times both
at increasing M, the layer as a one-layer decoder_stack on a synthetic scene
at the default config, and fits log-log slopes: the layer should come out
near 1, dense attention near 2. Absolute times are machine-dependent, the
exponents are not.
"""

from dest3d import complexity_bench

result = complexity_bench([1024, 2048, 4096, 8192], repeats=5)

print(f"{'M':>8} {'layer (s)':>12} {'attention (s)':>15} {'ratio':>8}")
for row in result["rows"]:
    print(f"{row['M']:>8} {row['layer_time']:>12.5f} "
          f"{row['attention_time']:>15.5f} "
          f"{row['attention_time'] / row['layer_time']:>8.1f}x")

print(f"\nfitted log-log slopes:")
print(f"  layer     {result['layer_slope']:.3f}  (linear would be 1.0)")
print(f"  attention {result['attention_slope']:.3f}  (quadratic would be 2.0)")
print("\ndoubling the cloud roughly doubles the layer but quadruples attention;")
print("that gap is what makes per-layer scene updates affordable")

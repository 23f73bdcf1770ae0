"""The scan core, three ways.

One linear recurrence drives everything here:

    h_t = a_bar[t] * h_{t-1} + b_bar[t] * x_t,   y_t = c[t] @ h_t

with K state rows listening to one input sequence. This script discretizes a
continuous system, runs the recurrence sequentially, reproduces it with the
chunked (parallelizable) formulation, cross-checks the time-invariant special
case against its convolution-kernel form, and verifies the analytic backward
pass against finite differences.
"""

import numpy as np

from dest3d import (
    PrngStream,
    ScanInputs,
    discretize_zoh,
    finite_diff_grad,
    lti_conv_form,
    scan_backward,
    scan_chunked,
    scan_sequential,
)

rng = PrngStream(0)
m, k, e = 64, 4, 8

# Discretization: timescales delta >= 0 and transition coefficients a <= 0
# give a_bar = exp(delta * a) in (0, 1], so states decay instead of blowing up.
delta = rng.uniform((m, k, e), 0.0, 1.0)
a = -rng.uniform((e,), 0.2, 1.5)
b = rng.normal((m, k))
a_bar, b_bar = discretize_zoh(delta, a, b)
print(f"a_bar range: [{a_bar.min():.4f}, {a_bar.max():.4f}] (inside (0, 1])")

inputs = ScanInputs(a_bar=a_bar, b_bar=b_bar, c=rng.normal((m, k)),
                    x=rng.normal((m, e)), h0=rng.normal((k, e)))
seq = scan_sequential(inputs)
print(f"sequential: y {seq.y.shape}, final states {seq.h_final.shape}")

# The chunked scan summarizes each chunk as the affine map it applies to the
# incoming state, combines summaries, then replays chunks independently.
for chunk in (1, 8, 64):
    out = scan_chunked(inputs, chunk)
    print(f"chunk={chunk:3d}: max |y diff| vs sequential = "
          f"{np.abs(out.y - seq.y).max():.2e}")

# Time-invariant parameters admit a precomputed convolution kernel.
delta0 = rng.uniform((k, e), 0.0, 1.0)
a_bar0 = np.exp(-delta0 * rng.uniform((e,), 0.2, 1.5))
b_bar0 = delta0 * rng.normal((k,))[:, None]
c0, x = rng.normal((k,)), rng.normal((m, e))
y_conv = lti_conv_form(a_bar0, b_bar0, c0, x)
y_scan = scan_sequential(ScanInputs(
    a_bar=np.broadcast_to(a_bar0, (m, k, e)).copy(),
    b_bar=np.broadcast_to(b_bar0, (m, k, e)).copy(),
    c=np.broadcast_to(c0, (m, k)).copy(), x=x, h0=np.zeros((k, e)))).y
print(f"conv form vs scan (LTI case): max diff = {np.abs(y_conv - y_scan).max():.2e}")

# Backward pass: exact reverse-mode derivatives, spot-checked per coordinate.
small = ScanInputs(a_bar=a_bar[:6, :3, :4], b_bar=b_bar[:6, :3, :4],
                   c=inputs.c[:6, :3], x=inputs.x[:6, :4], h0=inputs.h0[:3, :4])
wy, wh = rng.normal((6, 4)), rng.normal((3, 4))
grads = scan_backward(small, dy=wy, dh_final=wh)


def loss(x_arr):
    out = scan_sequential(ScanInputs(a_bar=small.a_bar, b_bar=small.b_bar,
                                     c=small.c, x=x_arr, h0=small.h0))
    return float((out.y * wy).sum() + (out.h_final * wh).sum())


# finite_diff_grad evaluates every probe in one call, as a stack of x arrays
numeric = finite_diff_grad(lambda stack: np.array([loss(v) for v in stack]),
                           small.x.copy(), step=1e-5)
print(f"analytic vs finite-difference d/dx: max diff = "
      f"{np.abs(grads.x - numeric).max():.2e}")

"""Composite proximal steps under the entropic geometry.

Two workhorses: the elastic-net prox (sparsity via a log-scale threshold,
curvature via the Lambert function) and the sorted projection onto the l1
ball.  Both accept dual-side inputs directly, which is what lets the online
learners survive dual points far beyond the floating-point range.
"""

import numpy as np

from expopt import (
    BallConstraint,
    CompositeRegularizer,
    EntropyParams,
    elastic_net_prox,
    elastic_net_prox_from_log,
    l1_ball_project,
    lambert_w0_from_log,
)

p = EntropyParams(alpha=1.0, beta=0.25)

print("elastic-net prox thresholds small inputs to exact zeros:")
y = np.array([4.0, -1.5, 0.3, -0.05, 0.8])
for l1, l2 in ((0.5, 0.0), (0.5, 1.0), (2.0, 1.0)):
    out = elastic_net_prox(y, CompositeRegularizer(l1=l1, l2=l2), p)
    print(f"  l1={l1}, l2={l2}: {np.round(out, 4)}")

print("\nthe Lambert solve works directly in the log domain:")
r = lambert_w0_from_log(800.0)
print(f"  w + ln(w) = 800  ->  w = {r.w:.6f} ({r.iterations} iterations, residual {r.residual:.1e})")
huge = elastic_net_prox_from_log(
    np.array([900.0, 2.0]), np.array([1.0, -1.0]), CompositeRegularizer(l1=0.5, l2=0.4), p
)
print(f"  prox at dual scale 900 (|y| ~ beta*e^900, unrepresentable): {np.round(huge, 4)}")

print("\nsorted projection onto the l1 ball:")
y = np.array([5.0, -2.0, 0.5, -0.1])
for radius in (4.0, 2.0, 0.5):
    out = l1_ball_project(y, BallConstraint(radius), p)
    print(f"  radius {radius}: {np.round(out, 4)}  (l1 norm {np.abs(out).sum():.10f})")

print("\nsmall magnitudes drop out first; survivors share one rescaling:")
big = np.linspace(-3, 3, 1001)
out = l1_ball_project(big, BallConstraint(10.0), p)
print(f"  d=1001 projection: {np.count_nonzero(out)} nonzeros, l1 norm {np.abs(out).sum():.10f}")

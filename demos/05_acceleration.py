"""Online-to-batch acceleration: from regret to convergence rates.

Wrapping an optimistic learner with weighted averaging (weights a_t = t)
turns the adaptive regret bound into stochastic convergence: the gradient
is queried at the running average, the learner sees the scaled gradient
a_t*g and the hint a_{t+1}*g.  Smooth objectives with vanishing noise get
the fast rate; nonsmooth ones still converge at the 1/sqrt(T) rate.
"""

import numpy as np

from expopt import Accelerator, BallConstraint, ExpFtrl, ScheduleParams

d, radius = 10, 5.0


def run(grad_fn, objective, horizon):
    learner = ExpFtrl(
        ScheduleParams(d, radius), mode=BallConstraint(radius), x1=0.3 * np.ones(d)
    )
    acc = Accelerator(learner)
    errs = []
    for _ in range(horizon):
        z = acc.x
        errs.append(objective(z))
        acc.step(grad_fn(z))
    return np.array(errs)


print("smooth quadratic  f(x) = 0.5||x||^2 (minimum 0 inside the ball):")
errs = run(lambda v: v, lambda z: 0.5 * float(z @ z), 2000)
for t in (10, 100, 500, 2000):
    print(f"  t={t:5d}: error {errs[t - 1]:.3e}")

print("\nnonsmooth  f(x) = ||x||_1:")
errs = run(lambda v: np.sign(v), lambda z: float(np.abs(z).sum()), 2000)
for t in (10, 100, 500, 2000):
    print(f"  t={t:5d}: error {errs[t - 1]:.3e}")
print("  quadrupling the horizon here roughly halves the error (1/sqrt(T))")

print("\nnoisy gradients (zero-mean, sigma = 0.5) on the quadratic:")
rng = np.random.default_rng(3)
errs = run(lambda v: v + 0.5 * rng.standard_normal(d), lambda z: 0.5 * float(z @ z), 4000)
for t in (100, 1000, 4000):
    print(f"  t={t:5d}: error {errs[t - 1]:.3e}")

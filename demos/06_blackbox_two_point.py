"""Black-box composite optimization with two-point gradient estimates.

When only function values are available, the gradient of the smooth part is
estimated from randomized forward differences: Rademacher directions with
delta=1 for the exponentiated learners (max-norm geometry), unit-sphere
directions with delta=d for the diagonal family.  The elastic-net term is
handled in closed form by the learner, never by the oracle.
"""

import numpy as np

from expopt import rademacher_config, sphere_config, two_point_grad
from expopt.harness import ExperimentSpec, final_values, run_experiment

print("estimator sanity on a linear function f(x) = <c, x>:")
c = np.array([1.0, -2.0, 0.5, 1.5])
rng = np.random.default_rng(0)
for name, cfg in (
    ("rademacher, b=1   ", rademacher_config(mu=0.01, batch=1)),
    ("rademacher, b=4096", rademacher_config(mu=0.01, batch=4096)),
    ("sphere,     b=4096", sphere_config(4, mu=0.01, batch=4096)),
):
    est = two_point_grad(lambda x: float(np.dot(c, x)), np.zeros(4), cfg, rng)
    print(f"  {name}: estimate {np.round(est, 3)}  (truth {c})")

print("\naccelerated black-box runs on a hinge-of-quadratics + elastic net:")
spec = ExperimentSpec(
    kind="blackbox",
    dim=12,
    horizon=200,
    trials=3,
    sparsity=0.0,
    radius_mode="known",
    algorithms=("acc_exp_md", "acc_exp_ftrl", "acc_adagrad", "acc_adaftrl"),
    seed=7,
)
records, _ = run_experiment(spec)
finals = final_values(records)
print("  final objective values (lower is better; b=1 is the high-variance run):")
for algo in sorted(finals, key=lambda a: np.mean(list(finals[a].values()))):
    vals = np.array(list(finals[algo].values()))
    print(f"  {algo:22s} {vals.mean():8.4f} +- {vals.std():6.4f}")

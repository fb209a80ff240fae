"""Sparse online logistic regression: exponentiated vs diagonal updates.

A scaled-down version of the benchmark: a 99%-sparse ground truth on an l1
ball, cumulative regret against it, and three radius regimes (the true
l1 norm, half of it, and double).  The exponentiated learners sit below
the diagonal-preconditioner family in each regime.
"""

import numpy as np

from expopt.harness import ExperimentSpec, aggregate_mean_std, final_values, run_experiment

ALGOS = ("exp_md", "exp_ftrl", "adagrad", "adaftrl", "eg_pm")

for radius_mode in ("known", "half", "double"):
    spec = ExperimentSpec(
        kind="logistic",
        dim=200,
        horizon=800,
        trials=10,
        sparsity=0.99,
        radius_mode=radius_mode,
        algorithms=ALGOS,
        seed=7,
    )
    records, failures = run_experiment(spec)
    finals = final_values(records)
    print(f"\nradius mode: {radius_mode} (d={spec.dim}, T={spec.horizon}, {spec.trials} trials)")
    for algo in sorted(finals, key=lambda a: np.mean(list(finals[a].values()))):
        vals = np.array(list(finals[algo].values()))
        print(f"  {algo:10s} final regret {vals.mean():8.2f} +- {vals.std():6.2f}")

print("\nregret curves flatten (mean over trials, known radius):")
spec = ExperimentSpec(
    kind="logistic", dim=200, horizon=800, trials=10, sparsity=0.99,
    radius_mode="known", algorithms=("exp_ftrl",), seed=7,
)
records, _ = run_experiment(spec)
_, mean, std = aggregate_mean_std(records)["exp_ftrl"]
for t in (50, 200, 400, 800):
    print(f"  t={t:4d}: regret {mean[t - 1]:7.2f} +- {std[t - 1]:5.2f}")

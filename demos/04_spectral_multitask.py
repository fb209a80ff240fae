"""Matrix learners on the nuclear ball: online multitask logistic regression.

Several correlated prediction tasks share a low-rank parameter matrix.
The spectral learners apply the entropic mirror maps to singular values
(one decomposition per step), which buys a regret dependence on
ln(min(m, n)) instead of the ambient dimension.
"""

import numpy as np

from expopt import BallConstraint, SpectralExpMd, SpectralSchedule, nuclear_norm, spectral_prox
from expopt import CompositeRegularizer, EntropyParams
from expopt.harness import ExperimentSpec, final_values, run_experiment

print("nuclear/Frobenius prox shrinks the spectrum coordinatewise:")
rng = np.random.default_rng(1)
p = EntropyParams(alpha=1.0, beta=0.2)
y = rng.standard_normal((5, 4))
out = spectral_prox(y, CompositeRegularizer(l1=0.8, l2=0.3), p)
print("  input spectrum :", np.round(np.linalg.svd(y, compute_uv=False), 3))
print("  output spectrum:", np.round(np.linalg.svd(out, compute_uv=False), 3))

print("\na spectral learner stays on the nuclear ball:")
sched = SpectralSchedule(6, 4, radius=2.0)
learner = SpectralExpMd(sched, mode=BallConstraint(2.0))
for _ in range(100):
    x = learner.step(rng.standard_normal((6, 4)))
print(f"  nuclear norm after 100 adversarial steps: {nuclear_norm(x):.12f}")

print("\nmultitask benchmark (rank-2 truth, 5 tasks, nuclear-ball decisions):")
spec = ExperimentSpec(
    kind="multitask",
    dim=20,
    tasks=5,
    rank=2,
    horizon=400,
    trials=10,
    sparsity=0.0,
    radius_mode="known",
    algorithms=("spectral_exp_md", "spectral_exp_ftrl", "adagrad", "adaftrl"),
    seed=7,
)
records, _ = run_experiment(spec)
finals = final_values(records)
for algo in sorted(finals, key=lambda a: np.mean(list(finals[a].values()))):
    vals = np.array(list(finals[algo].values()))
    print(f"  {algo:18s} final regret {vals.mean():8.2f} +- {vals.std():6.2f}")
print("  (the diagonal baselines run on the vectorized matrix)")

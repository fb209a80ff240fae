"""Workload definitions: the experiment spec each workload hands the CLI.

A workload fixes every spec field except ``seed``, which the benchmark
takes from its ``--seed`` argument.  ``TINY`` shrinks each workload to a
few hundred rounds for the smoke tests; the per-round code paths are the
same.
"""

import math

# Seeds with a committed output reference under ``refs/``: the CLI default
# seed and one held-out seed that no workload was tuned on.
REF_SEEDS = (7, 4099)

WORKLOADS = {
    "logistic-d500": {
        "kind": "logistic",
        "dim": 500,
        "horizon": 2000,
        "trials": 2,
        "sparsity": 0.99,
        "radius_mode": "known",
        "algorithms": ["exp_md", "exp_ftrl", "adagrad", "adaftrl"],
    },
    "logistic-d20k": {
        "kind": "logistic",
        "dim": 20000,
        "horizon": 200,
        "trials": 2,
        "sparsity": 0.99,
        "radius_mode": "half",
        "algorithms": ["exp_md", "exp_ftrl", "adagrad", "adaftrl", "eg_pm"],
    },
    "multitask-spectral": {
        "kind": "multitask",
        "dim": 20,
        "tasks": 5,
        "rank": 2,
        "horizon": 1000,
        "trials": 2,
        "sparsity": 0.0,
        "radius_mode": "known",
        "algorithms": ["spectral_exp_md", "spectral_exp_ftrl", "adagrad", "adaftrl"],
    },
    "blackbox-accel": {
        "kind": "blackbox",
        "dim": 20,
        "horizon": 300,
        "trials": 2,
        "sparsity": 0.0,
        "radius_mode": "known",
        "algorithms": ["acc_exp_md", "acc_exp_ftrl", "acc_adagrad", "acc_adaftrl"],
    },
}

TINY = {
    "logistic-d500": {"dim": 40, "horizon": 30},
    "logistic-d20k": {"dim": 300, "horizon": 12},
    "multitask-spectral": {"dim": 6, "tasks": 3, "horizon": 20},
    "blackbox-accel": {"dim": 6, "horizon": 16, "trials": 2},
}

EXP_LEARNERS = ("exp_md", "exp_ftrl", "acc_exp_md", "acc_exp_ftrl")
SPECTRAL_LEARNERS = ("spectral_exp_md", "spectral_exp_ftrl")


def make_spec(workload: str, seed: int, tiny: bool = False) -> dict:
    """The JSON config for one run of ``workload`` at ``seed``."""
    spec = dict(WORKLOADS[workload])
    if tiny:
        spec.update(TINY[workload])
    spec["algorithms"] = list(spec["algorithms"])
    spec["seed"] = int(seed)
    return spec


def batch_sizes(spec: dict) -> tuple:
    """Estimator batch sizes the black-box experiment runs per algorithm."""
    return (1, max(math.isqrt(max(spec["horizon"], 1)), 1))


def units(spec: dict) -> int:
    """(algorithm, trial[, batch]) units one run attempts."""
    per_trial = len(spec["algorithms"])
    if spec["kind"] == "blackbox":
        per_trial *= len(batch_sizes(spec))
    return per_trial * spec["trials"]


def expected_rows(spec: dict) -> int:
    """CSV data rows of a run in which no unit fails: one per round."""
    return units(spec) * spec["horizon"]


def rounds_of(spec: dict, names) -> int:
    """Rounds played by the algorithms in ``names`` over the whole run."""
    per_unit = spec["trials"] * spec["horizon"]
    if spec["kind"] == "blackbox":
        per_unit *= len(batch_sizes(spec))
    return per_unit * sum(1 for a in spec["algorithms"] if a in names)


def learners_built(spec: dict, names) -> int:
    """Learner objects built for the algorithms in ``names``."""
    per_algo = spec["trials"] * (len(batch_sizes(spec)) if spec["kind"] == "blackbox" else 1)
    return per_algo * sum(1 for a in spec["algorithms"] if a in names)


def oracle_evals(spec: dict) -> int:
    """Oracle calls of the two-point estimates: sum of (batch + 1) per estimate."""
    if spec["kind"] != "blackbox":
        return 0
    per_batch = spec["trials"] * spec["horizon"] * len(spec["algorithms"])
    return sum(per_batch * (b + 1) for b in batch_sizes(spec))

"""Experiment orchestration, regret accounting, and CSV/metadata output.

Every trial draws its own child of ``SeedSequence(seed)``, generates the
data once, and runs every requested algorithm over the identical arrays;
records therefore only depend on the spec.  Rows are emitted sorted by
(algorithm, trial, round) and floats are written with their shortest
round-trip representation, so equal configurations produce byte-identical
CSV files.  A numeric error, or a non-finite loss, regret or objective,
ends that algorithm's trial with a :class:`TrialFailure` at the round,
which writes no row.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from ..accelerate import Accelerator
from ..entropy import NumericRangeError
from ..zeroth_order import default_smoothing, two_point_grad
from . import registry, streams

__all__ = [
    "ExperimentSpec",
    "RegretRecord",
    "TrialFailure",
    "run_experiment",
    "write_csv",
    "write_metadata",
    "final_values",
    "aggregate_mean_std",
    "RNG_IDENTIFIER",
]

RNG_IDENTIFIER = "numpy-PCG64/SeedSequence(seed).spawn(trial)"

# each experiment kind and the registry names of its algorithms
KINDS = {
    "logistic": registry.VECTOR_ALGORITHMS,
    "multitask": registry.MATRIX_ALGORITHMS,
    "blackbox": registry.ACCELERATED_ALGORITHMS,
}
RADIUS_FACTORS = {"known": 1.0, "half": 0.5, "double": 2.0}

_NUMERIC_ERRORS = (NumericRangeError, FloatingPointError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one benchmark run; mirrors the JSON config."""

    kind: str
    dim: int
    horizon: int
    trials: int
    algorithms: tuple
    seed: int
    tasks: int = 1
    rank: int = 0
    sparsity: float = 0.99
    radius_mode: str = "known"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        if self.dim < 1 or self.horizon < 0 or self.trials < 1:
            raise ValueError("dim and trials must be >= 1, horizon >= 0")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in [0, 1]")
        if self.radius_mode not in RADIUS_FACTORS:
            raise ValueError(f"radius_mode must be one of {tuple(RADIUS_FACTORS)}")
        if self.kind == "multitask" and self.rank > min(self.dim, self.tasks):
            raise ValueError("rank cannot exceed min(dim, tasks)")
        if not self.algorithms:
            raise ValueError("algorithms list must not be empty")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Strict constructor: unknown keys are a hard error."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "algorithms": list(self.algorithms)
        }


@dataclass(frozen=True)
class RegretRecord:
    """One accounting row: cumulative regret or objective value at a round."""

    experiment: str
    algorithm: str
    trial: int
    round: int
    value: float


@dataclass(frozen=True)
class TrialFailure:
    """A numeric abort: the trial's rows stop at the recorded round."""

    algorithm: str
    trial: int
    round: int
    error: str


def _run_online_algorithm(name, spec, stream, comp_losses, radius, trial):
    """Shared loop for the regret experiments; returns (records, failure)."""
    if spec.kind == "logistic":
        learner = registry.build_vector_learner(name, spec.dim, radius)
        oracle = streams.logistic_loss_grad
    else:
        learner = registry.build_matrix_learner(name, spec.dim, spec.tasks, radius)
        oracle = streams.multitask_loss_grad

    records = []
    cum = 0.0
    for t in range(spec.horizon):
        x = learner.x
        try:
            loss, grad = oracle(x, stream.features[t], stream.labels[t])
            cum += loss - comp_losses[t]
            if not math.isfinite(cum):
                raise NumericRangeError(f"cumulative regret is not finite ({cum})")
            learner.step(grad)
        except _NUMERIC_ERRORS as exc:
            return records, TrialFailure(name, trial, t + 1, str(exc))
        records.append(RegretRecord(spec.kind, name, trial, t + 1, float(cum)))
    return records, None


def _run_blackbox_algorithm(label, name, batch, spec, problem, seed_seq, trial):
    rng = np.random.default_rng(seed_seq)
    mu = default_smoothing(spec.dim, max(spec.horizon, 1))
    learner, recipe = registry.accelerated_family(name, spec.dim, problem.reg)
    cfg = recipe(mu, batch)
    acc = Accelerator(learner)
    records = []
    for t in range(spec.horizon):
        try:
            z = acc.step(lambda v: two_point_grad(problem.smooth, v, cfg, rng))
            value = problem.objective(z)
            if not math.isfinite(value):
                raise NumericRangeError(f"objective value is not finite ({value})")
        except _NUMERIC_ERRORS as exc:
            return records, TrialFailure(label, trial, t + 1, str(exc))
        records.append(RegretRecord(spec.kind, label, trial, t + 1, float(value)))
    return records, None


def _run_trial(spec: ExperimentSpec, trial: int, seed_seq) -> tuple[list, list]:
    rng = np.random.default_rng(seed_seq)
    if spec.kind == "logistic":
        stream = streams.gen_logistic_stream(spec.dim, spec.horizon, spec.sparsity, rng)
        radius = RADIUS_FACTORS[spec.radius_mode] * float(np.sum(np.abs(stream.w_star)))
        margins = stream.labels * (stream.features @ stream.w_star)
        comp_losses = np.logaddexp(0.0, -margins)
    elif spec.kind == "multitask":
        stream = streams.gen_multitask_stream(
            spec.dim, spec.tasks, spec.rank, spec.horizon, rng
        )
        radius = RADIUS_FACTORS[spec.radius_mode] * float(np.sum(stream.singular_values))
        margins = stream.labels * np.einsum("tkd,dk->tk", stream.features, stream.w_star)
        comp_losses = np.sum(np.logaddexp(0.0, -margins), axis=1)
    if spec.kind == "blackbox":
        problem = streams.gen_blackbox_problem(spec.dim, rng)
        sqrt_batch = max(int(math.isqrt(max(spec.horizon, 1))), 1)
        variants = [(f"{name}@b1", name, 1) for name in spec.algorithms]
        variants += [(f"{name}@bsqrtT", name, sqrt_batch) for name in spec.algorithms]
        children = seed_seq.spawn(len(variants))
        results = [
            _run_blackbox_algorithm(label, name, batch, spec, problem, child, trial)
            for (label, name, batch), child in zip(variants, children)
        ]
    else:
        radius = radius if radius > 0 else 1.0  # degenerate all-zero truth
        results = [
            _run_online_algorithm(name, spec, stream, comp_losses, radius, trial)
            for name in spec.algorithms
        ]
    return [r for recs, _ in results for r in recs], [f for _, f in results if f]


def run_experiment(spec: ExperimentSpec, threads: int = 1):
    """Run all trials in turn; returns (records, failures) in canonical order.

    An algorithm name the kind does not know raises ``KeyError`` up front.
    ``threads`` has no effect; the interpreter-bound trials ran slower on a
    thread pool.
    """
    for name in spec.algorithms:
        if name not in KINDS[spec.kind]:
            raise KeyError(f"unknown {spec.kind} algorithm {name!r}")
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.trials)
    results = [_run_trial(spec, i, seeds[i]) for i in range(spec.trials)]
    records = [r for recs, _ in results for r in recs]
    failures = [f for _, fails in results for f in fails]
    records.sort(key=lambda r: (r.algorithm, r.trial, r.round))
    failures.sort(key=lambda f: (f.algorithm, f.trial))
    return records, failures


def write_csv(records, path) -> None:
    """Canonical CSV: shortest round-trip float formatting, sorted rows."""
    with open(path, "w", newline="") as fh:
        fh.write("experiment,algorithm,trial,round,value\n")
        for r in records:
            fh.write(f"{r.experiment},{r.algorithm},{r.trial},{r.round},{float(r.value)!r}\n")


def write_metadata(
    spec: ExperimentSpec, csv_path, failures, version: str, blas: dict | None = None
) -> str:
    """Sidecar JSON next to the CSV; returns its path.

    ``blas`` records the BLAS thread pin of the run as
    ``{"library", "threads_before", "threads"}``; without one every field is
    null (nothing was pinned).
    """
    meta_path = f"{csv_path}.meta.json"
    payload = {
        "spec": spec.to_dict(),
        "library_version": version,
        "rng": RNG_IDENTIFIER,
        "blas": blas or {"library": None, "threads_before": None, "threads": None},
        "failures": [
            {"algorithm": f.algorithm, "trial": f.trial, "round": f.round, "error": f.error}
            for f in failures
        ],
    }
    with open(meta_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta_path


def final_values(records) -> dict:
    """Last recorded value per (algorithm, trial): {algorithm: {trial: value}}."""
    out: dict = {}
    for r in records:
        out.setdefault(r.algorithm, {})[r.trial] = r.value
    return out


def aggregate_mean_std(records):
    """Per-round mean and standard deviation across trials.

    Returns {algorithm: (rounds, mean, std)} with population std.
    """
    grouped: dict = {}
    for r in records:
        grouped.setdefault(r.algorithm, {}).setdefault(r.trial, []).append((r.round, r.value))
    out = {}
    for algo, trials in grouped.items():
        curves = []
        for trial in sorted(trials):
            rows = sorted(trials[trial])
            curves.append([v for _, v in rows])
        length = min(len(c) for c in curves)
        arr = np.array([c[:length] for c in curves])
        rounds = np.arange(1, length + 1)
        out[algo] = (rounds, arr.mean(axis=0), arr.std(axis=0))
    return out

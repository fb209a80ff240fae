"""Experiment orchestration, regret accounting, and CSV/metadata output.

Every trial draws its own child of ``SeedSequence(seed)``, generates the
data once, and runs every requested algorithm over the identical arrays;
records therefore only depend on the spec.  Rows are emitted sorted by
(algorithm, trial, round) and floats are written with their shortest
round-trip representation, so equal configurations produce byte-identical
CSV files.  Each run yields its per-round values to one loop that records
them; a numeric error, or a non-finite loss, regret or objective, ends
that algorithm's trial with a :class:`TrialFailure` at the round, which
writes no row.
"""

import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from ..accelerate import Accelerator
from ..entropy import NumericRangeError
from ..zeroth_order import default_smoothing, two_point_grad_rows
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
_INTEGER_FIELDS = ("dim", "horizon", "trials", "tasks", "rank", "seed")


def _integer(name: str, value) -> int:
    """``value`` as an int: integers and numpy integers pass, bools do not."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


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
        for name in _INTEGER_FIELDS:
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if min(self.dim, self.trials, self.tasks) < 1:
            raise ValueError("dim, trials and tasks must be >= 1")
        if min(self.horizon, self.rank, self.seed) < 0:
            raise ValueError("horizon, rank and seed must be >= 0")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in [0, 1]")
        if self.radius_mode not in RADIUS_FACTORS:
            raise ValueError(f"radius_mode must be one of {tuple(RADIUS_FACTORS)}")
        if self.kind == "multitask" and self.rank > min(self.dim, self.tasks):
            raise ValueError("rank cannot exceed min(dim, tasks)")
        if not isinstance(self.algorithms, (list, tuple)) or not all(
            isinstance(name, str) for name in self.algorithms
        ):
            raise TypeError(f"algorithms must be a list of names, got {self.algorithms!r}")
        if not self.algorithms:
            raise ValueError("algorithms list must not be empty")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms must not repeat, got {self.algorithms!r}")
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


def _regrets(learner, oracle, stream, comp_losses, horizon):
    """Cumulative regret after each round, checked before the learner steps."""
    cum = 0.0
    for t in range(horizon):
        loss, grad = oracle(learner.x, stream.features[t], stream.labels[t])
        cum += loss - comp_losses[t]
        if not math.isfinite(cum):
            raise NumericRangeError(f"cumulative regret is not finite ({cum})")
        learner.step(grad)
        yield cum


def _objectives(name, batch, spec, problem, seed_seq):
    """Objective value at the accelerated learner's averaged point, each round."""
    rng = np.random.default_rng(seed_seq)
    mu = default_smoothing(spec.dim, max(spec.horizon, 1))
    learner, recipe = registry.accelerated_family(name, spec.dim, problem.reg)
    cfg = recipe(mu, batch)
    acc = Accelerator(learner)
    for _ in range(spec.horizon):
        z = acc.step(lambda v: two_point_grad_rows(problem.smooth, v, cfg, rng))
        value = problem.objective(z)
        if not math.isfinite(value):
            raise NumericRangeError(f"objective value is not finite ({value})")
        yield value


def _collect(kind, label, trial, values):
    """One run's ``(label, trial, records, failure)``: its rows, or where it broke."""
    records = []
    try:
        for value in values:
            records.append(RegretRecord(kind, label, trial, len(records) + 1, float(value)))
    except _NUMERIC_ERRORS as exc:
        return label, trial, records, TrialFailure(label, trial, len(records) + 1, str(exc))
    return label, trial, records, None


def _run_trial(spec: ExperimentSpec, trial: int, seed_seq) -> list:
    """The trial's blocks; its algorithms are built and run one at a time, in spec order."""
    rng = np.random.default_rng(seed_seq)
    if spec.kind == "blackbox":
        problem = streams.gen_blackbox_problem(spec.dim, rng)
        sqrt_batch = max(int(math.isqrt(max(spec.horizon, 1))), 1)
        variants = [(f"{name}@b1", name, 1) for name in spec.algorithms]
        variants += [(f"{name}@bsqrtT", name, sqrt_batch) for name in spec.algorithms]
        children = seed_seq.spawn(len(variants))
        runs = (
            (label, _objectives(name, batch, spec, problem, child))
            for (label, name, batch), child in zip(variants, children)
        )
    else:
        if spec.kind == "logistic":
            shape = (spec.dim,)
            stream = streams.gen_logistic_stream(spec.dim, spec.horizon, spec.sparsity, rng)
            radius = RADIUS_FACTORS[spec.radius_mode] * float(np.sum(np.abs(stream.w_star)))
            margins = stream.labels * (stream.features @ stream.w_star)
            comp_losses = np.logaddexp(0.0, -margins)
            build, oracle = registry.build_vector_learner, streams.logistic_loss_grad
        else:
            shape = (spec.dim, spec.tasks)
            stream = streams.gen_multitask_stream(*shape, spec.rank, spec.horizon, rng)
            radius = RADIUS_FACTORS[spec.radius_mode] * float(np.sum(stream.singular_values))
            margins = stream.labels * np.einsum("tkd,dk->tk", stream.features, stream.w_star)
            comp_losses = np.sum(np.logaddexp(0.0, -margins), axis=1)
            build, oracle = registry.build_matrix_learner, streams.multitask_loss_grad
        radius = radius if radius > 0 else 1.0  # degenerate all-zero truth
        runs = (
            (name, _regrets(build(name, *shape, radius), oracle, stream, comp_losses, spec.horizon))
            for name in spec.algorithms
        )
    return [_collect(spec.kind, label, trial, values) for label, values in runs]


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
    blocks = [block for i in range(spec.trials) for block in _run_trial(spec, i, seeds[i])]
    # each block's rows run in round order, so sorting the blocks sorts the rows
    blocks.sort(key=lambda block: block[:2])
    records = [r for _, _, recs, _ in blocks for r in recs]
    return records, [failure for *_, failure in blocks if failure]


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

"""Experiment orchestration, regret accounting, and CSV/metadata output.

Every trial draws its own child of ``SeedSequence(seed)`` and generates its
data block by block.  A run is a learner and its score, which gives the run's
value and gradient at its decision each round: the cumulative regret of a
logistic or multitask run, or the objective at an accelerated black-box run's
query point with a two-point gradient estimate.  All runs of all trials of a
spec advance together, a block of rounds at a time, through one round loop;
the trials share ``streams.BLOCK_BYTES`` of features.  The harness groups the
runs by :func:`~expopt.learners.stack_key` and plays each group with one play;
the learner layer stacks and splits a group's runs, each row bit for bit as
alone.  A stack whose loss has a stacked form (``multitask_loss_grad.rows``)
is scored by one call of it a round, each row's regret kept as alone; every
other run, and a row whose stacked call raised, is scored by its own call.
A blackbox trial is one block, and each of its runs steps alone.  A
side-effecting oracle sees the runs interleaved by block and a stack's rows
by round, a multitask stack's rows all in one call.
Runs keep floats; :func:`run_experiment` makes rows, sorted by (algorithm, trial,
round), floats written in their shortest round-trip form, so equal configurations
give byte-identical CSV files.  A numeric error of an oracle, step or objective,
or a non-finite loss, regret or objective, ends only its own run, stacked or
alone, with a :class:`TrialFailure` at the round, no row.
"""

import itertools
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from ..accelerate import Accelerator
from ..entropy import NumericRangeError
from ..learners import row_of, stack, stack_key
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
# bytes of one array of a stacked state: 8 rows at d=500, 1 from d=2001 up, 40 at 20x5
_STACK_BYTES = 32_000
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
        if isinstance(self.sparsity, (bool, np.bool_)):
            raise TypeError(f"sparsity must be a number, got {self.sparsity!r}")
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


def _detached(exc):
    """``exc`` without its traceback or the errors it was raised from: their frames would hold
    the play that raised it, its learners and its round's block, in a cycle through ``exc``."""
    exc.__cause__ = exc.__context__ = None
    return exc.with_traceback(None)


def _regret(oracle):
    """A run's score: its cumulative regret and the loss gradient at each round
    ``(x, y, comparator loss)``.  ``score.rows`` is the oracle's stacked form, or ``None``, and
    ``score.add(loss, comparator loss)`` adds a round's loss that a stacked call scored."""
    cum = 0.0

    def add(loss, comp_loss):
        nonlocal cum
        cum += loss - comp_loss
        if not math.isfinite(cum):
            raise NumericRangeError(f"cumulative regret is not finite ({cum})")
        return cum

    def score(w, round_):
        x, y, comp_loss = round_
        loss, grad = oracle(w, x, y)
        return add(loss, comp_loss), grad

    score.add, score.rows = add, getattr(oracle, "rows", None)
    return score


def _objective(problem, cfg, rng):
    """A black-box run's score: the objective at the query point and the two-point gradient
    of its smooth part, estimated first: the oracle sees a round's estimator points before its
    objective point."""

    def score(z, _):
        grad = two_point_grad_rows(problem.smooth, z, cfg, rng)
        value = problem.objective(z)
        if not math.isfinite(value):
            raise NumericRangeError(f"objective value is not finite ({value})")
        return value, grad

    return score


def _play(learners, scores, *rounds):
    """Each run's value per round, or the numeric error (score or step) that ends it: a run's
    ``score(x, round)`` gives its value and gradient at its decision ``x``, and then it steps.
    Two or more learners step as one :func:`~expopt.learners.stack`; at a round where that
    fails, each row is replayed through its learner's own ``step``, as the row alone.  A stack
    whose oracle has a stacked form ``score.rows`` is scored by one call of it a round, each
    row's value through its ``score.add``; at a round where that call fails, each row is scored
    alone, through its own score."""
    live = list(range(len(learners)))
    stacked = stack(learners) if len(learners) > 1 else None
    # the runs of a group share their spec's oracle
    rows = getattr(scores[0], "rows", None) if stacked is not None else None

    # each run's value and gradient, or its error and None (row j of a stack), on its next
    # round or on the rounds already ``played``
    def each(played=None):
        values, grads = [], []
        for j, i in enumerate(live):
            # the decision lives in this call only: held across a yield, it would outlive its
            # round while the other groups play
            x = learners[i].x if stacked is None else stacked.x[j]
            try:
                value, grad = scores[i](x, next(rounds[i]) if played is None else played[j])
            except _NUMERIC_ERRORS as exc:
                value, grad = _detached(exc), None
            values.append(value)
            grads.append(grad)
        return values, grads

    def together():  # the stack's rows in one oracle call; where it fails, each row alone
        played = [next(rounds[i]) for i in live]
        features, labels, comp_losses = zip(*played)
        try:
            losses, grads = rows(stacked.x, np.array(features), np.array(labels))
        except _NUMERIC_ERRORS:
            return each(played)
        values = []
        for i, loss, comp_loss in zip(live, losses.tolist(), comp_losses):
            try:
                values.append(scores[i].add(loss, comp_loss))
            except NumericRangeError as exc:
                values.append(_detached(exc))
        if any(isinstance(value, Exception) for value in values):  # an ended row has no gradient
            grads = [None if isinstance(v, Exception) else g for v, g in zip(values, grads)]
        return values, grads

    scored = each if rows is None else together
    while live:
        values, grads = scored()
        stepped = stacked is not None and all(grad is not None for grad in grads)
        if stepped:
            try:
                stacked.step(np.asarray(grads))
            except _NUMERIC_ERRORS:
                stepped = False
        if not stepped:  # each row alone, through its learner; the rows that step play on
            kept = []
            for j, i in enumerate(live):
                grad = grads[j]
                if stacked is not None:
                    learners[i].state = row_of(stacked.state, j)
                try:
                    if grad is not None:
                        learners[i].step(grad)
                        kept.append(i)
                except _NUMERIC_ERRORS as exc:
                    values[j] = _detached(exc)
            live = kept
            if stacked is not None and live:
                stacked = stack([learners[i] for i in live])
        yield values


def _collect(groups, blocks):
    """Each run's ``[label, trial, values, failure]``, the groups advancing block by block.

    A group is a list of runs ``(label, trial, learner, score)`` played as one by :func:`_play`,
    which yields each live run's value per round, or once the numeric error that ends it, and
    raises none.  ``blocks`` maps each trial to its equal-sized blocks, each drawn by the first
    group reading it.
    """
    held, results, going = {}, [], []

    def rounds_of(trial):  # a run reads each block when it reaches it
        while True:
            yield from zip(*held[trial])

    for runs in groups:
        rows = [[label, trial, [], None] for label, trial, *_ in runs]
        results += rows
        learners, scores = [run[2] for run in runs], [run[3] for run in runs]
        outcomes = _play(learners, scores, *[rounds_of(run[1]) for run in runs])
        going.append((rows, {run[1] for run in runs}, outcomes))
    while True:
        drawn = set()
        for rows, trials, outcomes in going:  # a run that ended has no more values
            # drawn for one group at a time: until a group plays on, its rounds_of holds the
            # trial's previous block, so blocks drawn ahead would sit beside it over the budget
            for trial in trials - drawn:
                held[trial] = next(blocks[trial], None)
            drawn |= trials
            block = held[min(trials)]
            if block is None:
                return results
            for outcome in itertools.islice(outcomes, len(block[0])):
                for row, value in zip(list(rows), outcome):
                    if isinstance(value, Exception):
                        row[3] = TrialFailure(row[0], row[1], len(row[2]) + 1, str(value))
                        rows.remove(row)
                    else:
                        row[2].append(float(value))


def _run_trials(spec: ExperimentSpec, seeds: dict) -> list:
    """The results of the trials ``{trial: seed sequence}``, advancing together block by block.

    The trials share ``streams.BLOCK_BYTES`` of data, multitask ones at most a quarter of one
    trial's stream.  The runs that share a :func:`~expopt.learners.stack_key`, in order, form
    groups of up to ``_STACK_BYTES`` an array; every other run is a group of one.
    """
    runs, blocks = [], {}
    budget = streams.BLOCK_BYTES // len(seeds)
    for trial, seed_seq in seeds.items():
        rng = np.random.default_rng(seed_seq)
        if spec.kind == "blackbox":
            problem = streams.gen_blackbox_problem(spec.dim, rng)
            sqrt_batch = max(int(math.isqrt(max(spec.horizon, 1))), 1)
            variants = [(f"{name}@b1", name, 1) for name in spec.algorithms]
            variants += [(f"{name}@bsqrtT", name, sqrt_batch) for name in spec.algorithms]
            mu = default_smoothing(spec.dim, max(spec.horizon, 1))
            for (label, name, batch), seq in zip(variants, seed_seq.spawn(len(variants))):
                learner, recipe = registry.accelerated_family(name, spec.dim, problem.reg)
                score = _objective(problem, recipe(mu, batch), np.random.default_rng(seq))
                runs.append((label, trial, Accelerator(learner), score))
            blocks[trial] = iter([(range(spec.horizon),)])
            continue
        if spec.kind == "logistic":
            w_star, blocks[trial] = streams.logistic_blocks(
                spec.dim, spec.horizon, spec.sparsity, rng, budget
            )
            radius, shape = float(np.sum(np.abs(w_star))), (spec.dim,)
            build, oracle = registry.build_vector_learner, streams.logistic_loss_grad
        else:
            shape = (spec.dim, spec.tasks)
            # a quarter of one trial's 8*T*d*k bytes: the trials, each holding two blocks as
            # it draws the next, stay within half of one whole stream
            quarter = 2 * spec.horizon * spec.dim * spec.tasks // len(seeds)
            _, sigma, blocks[trial] = streams.multitask_blocks(
                *shape, spec.rank, spec.horizon, rng, min(budget, quarter)
            )
            radius = float(np.sum(sigma))
            build, oracle = registry.build_matrix_learner, streams.multitask_loss_grad
        radius *= RADIUS_FACTORS[spec.radius_mode]  # 0 for an all-zero truth
        runs += [(name, trial, build(name, *shape, radius or 1.0), _regret(oracle))
                 for name in spec.algorithms]
    same, chunks = {}, {}  # each stacking key's runs, in order; a lone run is its own key
    for run in runs:
        same.setdefault(stack_key(run[2]) or run[:2], []).append(run)
    for rs in same.values():  # a row is one decision of the key's shape
        size = max(1, _STACK_BYTES // (8 * np.size(rs[0][2].x)))
        chunks |= {rs[k][:2]: rs[k : k + size] for k in range(0, len(rs), size)}
    # a chunk plays where its first run would
    return _collect([chunks[run[:2]] for run in runs if run[:2] in chunks], blocks)


def run_experiment(spec: ExperimentSpec, threads: int = 1):
    """Run all trials; returns (records, failures) in canonical order.

    The trials advance together, block by block (:func:`_run_trials`).
    An algorithm name the kind does not know raises ``KeyError`` up front.
    ``threads`` has no effect; the interpreter-bound trials ran slower on a
    thread pool.
    """
    for name in spec.algorithms:
        if name not in KINDS[spec.kind]:
            raise KeyError(f"unknown {spec.kind} algorithm {name!r}")
    seeds = dict(enumerate(np.random.SeedSequence(spec.seed).spawn(spec.trials)))
    runs = _run_trials(spec, seeds)
    # each run's values are in round order, so sorting the runs sorts the rows
    runs.sort(key=lambda run: run[:2])
    records = [
        RegretRecord(spec.kind, label, trial, t, value)
        for label, trial, values, _ in runs
        for t, value in enumerate(values, 1)
    ]
    return records, [failure for *_, failure in runs if failure]


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
        curves = [[v for _, v in sorted(trials[trial])] for trial in sorted(trials)]
        length = min(len(c) for c in curves)
        arr = np.array([c[:length] for c in curves])
        rounds = np.arange(1, length + 1)
        out[algo] = (rounds, arr.mean(axis=0), arr.std(axis=0))
    return out

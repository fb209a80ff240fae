"""AdaGrad and AdaFtrl runs stepped as the rows of one stacked state.

The harness steps the diagonal runs of all trials of a logistic spec
together, as the rows of one ``(rows, d)`` state, and the matrix ones of a
multitask spec as the rows of one ``(rows, m*n)`` state with one stacked
nuclear projection, while each other run steps alone.  Each row's records
are those of its run stepped alone, byte for byte, and a row that fails ends
alone, at its own round, with its own error.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from expopt import AdaFtrl, AdaGrad, BallConstraint, DiagProxState, ExpMd, NumericRangeError
from expopt import ScheduleParams, SpectralExpMd, SpectralSchedule
from expopt.baselines import _diag_step, _RowBalls, adaftrl_step, adagrad_step, diag_init
from expopt.baselines import euclidean_nuclear_ball_project
from expopt.harness import ExperimentSpec, RegretRecord, TrialFailure, run_experiment
from expopt.harness import experiments, registry, streams
from expopt.harness.streams import gen_logistic_stream, gen_multitask_stream, logistic_loss_grad
from expopt.harness.streams import multitask_loss_grad

FACTORS = {"known": 1.0, "half": 0.5, "double": 2.0}
LEARNERS = {
    "exp_md": lambda dim, radius: ExpMd(ScheduleParams(dim, radius), mode=BallConstraint(radius)),
    "adagrad": lambda dim, radius: AdaGrad(dim, mode=BallConstraint(radius)),
    "adaftrl": lambda dim, radius: AdaFtrl(dim, mode=BallConstraint(radius)),
}


def each_alone(spec):
    """The records of ``spec``, each ``(algorithm, trial)`` stepped alone on its whole stream."""
    records = []
    for trial, seed in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.trials)):
        stream = gen_logistic_stream(spec.dim, spec.horizon, spec.sparsity,
                                     np.random.default_rng(seed))
        radius = FACTORS[spec.radius_mode] * float(np.sum(np.abs(stream.w_star))) or 1.0
        comp_losses = np.logaddexp(0.0, -(stream.labels * (stream.features @ stream.w_star)))
        for name in spec.algorithms:
            learner, cum = LEARNERS[name](spec.dim, radius), 0.0
            for t, (x, y, comp) in enumerate(zip(stream.features, stream.labels, comp_losses)):
                loss, grad = logistic_loss_grad(learner.x, x, y)
                cum += loss - comp
                learner.step(grad)
                records.append(RegretRecord("logistic", name, trial, t + 1, float(cum)))
    return sorted(records, key=lambda r: (r.algorithm, r.trial, r.round))


def stacked_steps(monkeypatch):
    """The number of rows of each stacked diagonal step the harness takes."""
    rows, step = [], experiments._diag_step

    def spy(state, g, *args):
        rows.append(len(g))
        return step(state, g, *args)

    monkeypatch.setattr(experiments, "_diag_step", spy)
    return rows


# horizons of two or more blocks each at 500 and 1500, where a stack holds 8
# and 2 rows; at 1500 the projection filters its breakpoints
@pytest.mark.parametrize("dim,horizon,trials,stack",
                         [(5, 300, 3, 6), (500, 450, 3, 6), (1500, 150, 3, 2), (500, 450, 5, 8)])
@pytest.mark.parametrize("radius_mode", sorted(FACTORS))
def test_stacked_runs_give_the_records_of_each_run_alone(
    pin_blas, monkeypatch, dim, horizon, trials, stack, radius_mode
):
    pin_blas(1)  # the reference's one product over the whole stream
    spec = ExperimentSpec(kind="logistic", dim=dim, horizon=horizon, trials=trials,
                          algorithms=("exp_md", "adagrad", "adaftrl"), seed=dim + trials,
                          radius_mode=radius_mode)
    rows = stacked_steps(monkeypatch)
    records, failures = run_experiment(spec)
    assert not failures
    assert [repr(r) for r in records] == [repr(r) for r in each_alone(spec)]
    assert max(rows) == stack


@pytest.mark.parametrize("inject,error", [
    ("gradient", "gradient g or hint h_next is not finite"),
    ("loss", "cumulative regret is not finite (inf)"),
])
def test_a_failure_inside_a_stack_ends_only_its_row(monkeypatch, inject, error):
    k = 7
    spec = ExperimentSpec(kind="logistic", dim=20, horizon=40, trials=3,
                          algorithms=("adagrad", "adaftrl", "exp_md"), seed=11)
    clean, no_failures = run_experiment(spec)
    assert not no_failures
    seed = np.random.SeedSequence(spec.seed).spawn(spec.trials)[1]
    features = gen_logistic_stream(20, 40, spec.sparsity, np.random.default_rng(seed)).features
    oracle, hits = streams.logistic_loss_grad, itertools.count(1)

    def injecting(w, x, y):  # trial 1's round k, first seen by its adagrad run
        loss, grad = oracle(w, x, y)
        if np.array_equal(x, features[k - 1]) and next(hits) == 1:
            if inject == "gradient":
                grad[0] = np.nan
            else:
                loss = math.inf
        return loss, grad

    monkeypatch.setattr(streams, "logistic_loss_grad", injecting)
    rows = stacked_steps(monkeypatch)
    records, failures = run_experiment(spec)
    assert failures == [TrialFailure("adagrad", 1, k, error)]
    # six rows step together until the failure, five after it
    assert set(rows[: k - 1]) == {6} and set(rows[k:]) == {5}

    def run(recs, name, trial):
        return [repr(r) for r in recs if (r.algorithm, r.trial) == (name, trial)]

    assert run(records, "adagrad", 1) == run(clean, "adagrad", 1)[: k - 1]
    for name, trial in itertools.product(spec.algorithms, range(spec.trials)):
        if (name, trial) != ("adagrad", 1):
            assert run(records, name, trial) == run(clean, name, trial)


@pytest.mark.parametrize("dim", [5, 500, 1500])
def test_a_stacked_step_gives_each_row_the_state_of_its_step_alone(dim):
    rng = np.random.default_rng(dim)
    leader = np.array([[False], [True], [False], [True]])
    # the last two balls are wide: their rows stay inside and pass through
    radii = np.array([[0.5], [0.5], [1e6], [1e6]])
    alone = [diag_init(dim) for _ in leader]
    stack = DiagProxState(*[np.stack([getattr(st, f) for st in alone])
                            for f in ("h_diag", "g_accum", "x", "h_prev")], 1, 1.0)
    for _ in range(6):
        g = rng.standard_normal((len(leader), dim)) * rng.choice([0.0, 1.0], (len(leader), dim))
        stack, _ = _diag_step(stack, g, _RowBalls(radii), None, 1.0, leader)
        for j, (lead, radius) in enumerate(zip(leader[:, 0], radii[:, 0])):
            step = adaftrl_step if lead else adagrad_step
            alone[j], _ = step(alone[j], g[j], BallConstraint(radius))
            for field in ("h_diag", "g_accum", "x", "h_prev"):
                assert getattr(stack, field)[j].tobytes() == getattr(alone[j], field).tobytes()
    assert (stack.round, stack.reg_rounds) == (alone[0].round, alone[0].reg_rounds)


def test_a_leader_keeps_the_sign_of_a_zero_target():
    # -(g_accum + h_next) / h_sqrt is -0.0 where g_accum + h_next is +0.0
    g = np.array([0.0, 1.0])
    _, x = adaftrl_step(diag_init(2), g)
    zeros = np.zeros((2, 2))
    stack = DiagProxState(np.full((2, 2), 1e-6), zeros, zeros, zeros, 1, 1.0)
    _, xs = _diag_step(stack, np.stack([g, g]), None, None, 1.0, np.array([[True], [False]]))
    assert np.signbit(x[0]) and xs[0].tobytes() == x.tobytes()


def each_matrix_run_alone(spec):
    """The records of a multitask ``spec``, each ``(algorithm, trial)`` stepped alone: the
    diagonal runs by ``adagrad_step``/``adaftrl_step`` on the flattening, then
    ``euclidean_nuclear_ball_project``."""
    m, n, records = spec.dim, spec.tasks, []
    for trial, seed in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.trials)):
        stream = gen_multitask_stream(m, n, spec.rank, spec.horizon, np.random.default_rng(seed))
        radius = FACTORS[spec.radius_mode] * float(np.sum(stream.singular_values)) or 1.0
        margins = stream.labels * np.einsum("tkd,dk->tk", stream.features, stream.w_star)
        comp_losses = np.sum(np.logaddexp(0.0, -margins), axis=1)
        for name in spec.algorithms:
            spectral = SpectralExpMd(SpectralSchedule(m, n, radius), mode=BallConstraint(radius))
            step = adaftrl_step if name == "adaftrl" else adagrad_step
            state, x, cum = diag_init(m * n), np.zeros((m, n)), 0.0
            for t, (f, y, comp) in enumerate(zip(stream.features, stream.labels, comp_losses)):
                if name == "spectral_exp_md":
                    x = spectral.x
                loss, grad = multitask_loss_grad(x, f, y)
                cum += loss - comp
                if name == "spectral_exp_md":
                    spectral.step(grad)
                else:
                    state, target = step(state, grad.ravel())
                    x = euclidean_nuclear_ball_project(target.reshape(m, n), radius)
                    state = dataclasses.replace(state, x=x.ravel())
                records.append(RegretRecord("multitask", name, trial, t + 1, float(cum)))
    return sorted(records, key=lambda r: (r.algorithm, r.trial, r.round))


def stacked_projections(monkeypatch):
    """The number of matrices of each nuclear projection the harness's diagonal runs take."""
    rows, project = [], registry.euclidean_nuclear_ball_project

    def spy(y, radius):
        rows.append(len(y) if y.ndim == 3 else 1)
        return project(y, radius)

    monkeypatch.setattr(registry, "euclidean_nuclear_ball_project", spy)
    return rows


# a stack holds 32 kB of each state array: every diagonal row at 6x3 and 20x5, 4 at 50x20
@pytest.mark.parametrize("dim,tasks,rank,stacks", [
    (6, 3, 2, {2: 4, 5: 10}), (20, 5, 2, {2: 4, 5: 10}), (50, 20, 3, {2: 4, 5: 4})
])
@pytest.mark.parametrize("trials", [2, 5])
@pytest.mark.parametrize("radius_mode", sorted(FACTORS))
def test_stacked_matrix_runs_give_the_records_of_each_run_alone(
    monkeypatch, dim, tasks, rank, stacks, trials, radius_mode
):
    spec = ExperimentSpec(kind="multitask", dim=dim, tasks=tasks, rank=rank, horizon=60,
                          trials=trials, algorithms=("spectral_exp_md", "adagrad", "adaftrl"),
                          sparsity=0.0, seed=dim + trials, radius_mode=radius_mode)
    rows = stacked_projections(monkeypatch)
    records, failures = run_experiment(spec)
    assert not failures
    assert [repr(r) for r in records] == [repr(r) for r in each_matrix_run_alone(spec)]
    assert max(rows) == stacks[trials]
    # one stacked projection per stack and round
    assert len(rows) == -(-2 * trials // stacks[trials]) * spec.horizon


@pytest.mark.parametrize("inject,error", [
    ("gradient", "gradient g or hint h_next is not finite"),
    ("loss", "cumulative regret is not finite (inf)"),
])
def test_a_failure_inside_a_matrix_stack_ends_only_its_row(monkeypatch, inject, error):
    k, horizon = 7, 40
    spec = ExperimentSpec(kind="multitask", dim=6, tasks=3, rank=2, horizon=horizon, trials=3,
                          algorithms=("adagrad", "adaftrl", "spectral_exp_md"), sparsity=0.0,
                          seed=11)
    clean, no_failures = run_experiment(spec)
    assert not no_failures
    seed = np.random.SeedSequence(spec.seed).spawn(spec.trials)[1]
    features = gen_multitask_stream(6, 3, 2, horizon, np.random.default_rng(seed)).features
    oracle, hits = streams.multitask_loss_grad, itertools.count(1)

    def injecting(w, f, y):  # trial 1's round k, first seen by its adagrad row
        loss, grad = oracle(w, f, y)
        if np.array_equal(f, features[k - 1]) and next(hits) == 1:
            if inject == "gradient":
                grad[0, 0] = np.nan
            else:
                loss = math.inf
        return loss, grad

    monkeypatch.setattr(streams, "multitask_loss_grad", injecting)
    rows = stacked_projections(monkeypatch)
    records, failures = run_experiment(spec)
    assert failures == [TrialFailure("adagrad", 1, k, error)]
    # six rows step together until the failure, the five others alone at it, five after it
    assert rows == [6] * (k - 1) + [1] * 5 + [5] * (horizon - k)

    def run(recs, name, trial):
        return [repr(r) for r in recs if (r.algorithm, r.trial) == (name, trial)]

    assert run(records, "adagrad", 1) == run(clean, "adagrad", 1)[: k - 1]
    for name, trial in itertools.product(spec.algorithms, range(spec.trials)):
        if (name, trial) != ("adagrad", 1):
            assert run(records, name, trial) == run(clean, name, trial)


@pytest.mark.parametrize("shape", [(20, 5), (6, 3), (4, 4), (3, 7)])
def test_a_stacked_nuclear_projection_is_each_matrix_projected_alone(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(50):
        rows = int(rng.integers(1, 12))
        y = rng.standard_normal((rows, *shape)) * rng.uniform(0.05, 5.0, (rows, 1, 1))
        radius = rng.uniform(0.5, 8.0, (rows, 1))
        inside = np.linalg.svd(y, compute_uv=False).sum(axis=1) <= radius[:, 0]
        stack = euclidean_nuclear_ball_project(y, radius)
        for j in range(rows):
            alone = euclidean_nuclear_ball_project(y[j], float(radius[j, 0]))
            assert stack[j].tobytes() == alone.tobytes()
            if inside[j]:
                assert alone.tobytes() == y[j].tobytes()
        # one float radius for every row
        stack = euclidean_nuclear_ball_project(y, 2.0)
        for j in range(rows):
            assert stack[j].tobytes() == euclidean_nuclear_ball_project(y[j], 2.0).tobytes()


def test_stacks_mix_rows_inside_and_outside_their_balls():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((6, 5, 3))
    norms = np.linalg.svd(y, compute_uv=False).sum(axis=1)
    radius = (norms * np.array([0.5, 2.0, 0.5, 2.0, 2.0, 0.1]))[:, None]
    stack = euclidean_nuclear_ball_project(y, radius)
    for j, outside in enumerate([True, False, True, False, False, True]):
        assert stack[j].tobytes() == euclidean_nuclear_ball_project(y[j], radius[j, 0]).tobytes()
        assert (stack[j].tobytes() != y[j].tobytes()) == outside


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_row_fails_the_stack_before_the_svd(monkeypatch, bad):
    y = np.random.default_rng(6).standard_normal((4, 5, 4))
    y[2, 1, 3] = bad
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    with pytest.raises(NumericRangeError, match="non-finite"):
        euclidean_nuclear_ball_project(y, np.ones((4, 1)))
    assert calls == []

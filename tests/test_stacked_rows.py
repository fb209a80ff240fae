"""Runs of all trials stepped as the rows of one stacked state.

The harness steps the diagonal runs of all trials of a logistic spec
together, as the rows of one ``(rows, d)`` state, and the matrix ones of a
multitask spec as the rows of one ``(rows, m*n)`` state with one stacked
nuclear projection.  The exponentiated runs stack by class: the ``exp_md``
runs as the rows of one ``OmdState``, the ``exp_ftrl`` ones of one
``FtrlState``, vector ``(rows, d)`` or matrix ``(rows, m, n)``.  Each row's
records are those of its run stepped alone, byte for byte, and a row that
fails ends alone, at its own round, with its own error.
"""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from expopt import AdaFtrl, AdaGrad, BallConstraint, DiagProxState, ExpFtrl, ExpMd
from expopt import NumericRangeError, ScheduleParams, SpectralExpFtrl, SpectralExpMd
from expopt import SpectralSchedule, baselines, learners, spectral
from expopt.baselines import _diag_step, adaftrl_step, adagrad_step, diag_init
from expopt.baselines import euclidean_nuclear_ball_project
from expopt.harness import ExperimentSpec, RegretRecord, TrialFailure, run_experiment
from expopt.harness import registry, streams
from expopt.harness.streams import gen_logistic_stream, gen_multitask_stream, logistic_loss_grad
from expopt.harness.streams import multitask_loss_grad

FACTORS = {"known": 1.0, "half": 0.5, "double": 2.0}
LEARNERS = {
    "exp_md": lambda dim, radius: ExpMd(ScheduleParams(dim, radius), mode=BallConstraint(radius)),
    "exp_ftrl": lambda dim, radius: ExpFtrl(ScheduleParams(dim, radius),
                                            mode=BallConstraint(radius)),
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
    rows, step = [], baselines._diag_step

    def spy(state, g, *args, **kwargs):
        if np.ndim(g) > 1:  # a lone run's step takes one row
            rows.append(len(g))
        return step(state, g, *args, **kwargs)

    monkeypatch.setattr(baselines, "_diag_step", spy)
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
        stack, _ = _diag_step(stack, g, BallConstraint(radii), None, 1.0, leader)
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


SPECTRAL = {"spectral_exp_md": SpectralExpMd, "spectral_exp_ftrl": SpectralExpFtrl}


def each_matrix_run_alone(spec):
    """The records of a multitask ``spec``, each ``(algorithm, trial)`` stepped alone: the
    spectral runs by ``SpectralExpMd``/``SpectralExpFtrl``, the diagonal ones by
    ``adagrad_step``/``adaftrl_step`` on the flattening, then
    ``euclidean_nuclear_ball_project``."""
    m, n, records = spec.dim, spec.tasks, []
    for trial, seed in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.trials)):
        stream = gen_multitask_stream(m, n, spec.rank, spec.horizon, np.random.default_rng(seed))
        radius = FACTORS[spec.radius_mode] * float(np.sum(stream.singular_values)) or 1.0
        margins = stream.labels * np.einsum("tkd,dk->tk", stream.features, stream.w_star)
        comp_losses = np.sum(np.logaddexp(0.0, -margins), axis=1)
        for name in spec.algorithms:
            ball = BallConstraint(radius)
            learner = SPECTRAL.get(name, SpectralExpMd)(SpectralSchedule(m, n, radius), ball)
            step = adaftrl_step if name == "adaftrl" else adagrad_step
            state, x, cum = diag_init(m * n), np.zeros((m, n)), 0.0
            for t, (f, y, comp) in enumerate(zip(stream.features, stream.labels, comp_losses)):
                if name in SPECTRAL:
                    x = learner.x
                loss, grad = multitask_loss_grad(x, f, y)
                cum += loss - comp
                if name in SPECTRAL:
                    learner.step(grad)
                else:
                    state, target = step(state, grad.ravel())
                    x = euclidean_nuclear_ball_project(target.reshape(m, n), radius)
                    state = dataclasses.replace(state, x=x.ravel())
                records.append(RegretRecord("multitask", name, trial, t + 1, float(cum)))
    return sorted(records, key=lambda r: (r.algorithm, r.trial, r.round))


def stacked_projections(monkeypatch):
    """The number of matrices of each nuclear projection the harness's diagonal runs take."""
    rows, project = [], baselines.euclidean_nuclear_ball_project

    def spy(y, radius):
        rows.append(len(y) if y.ndim == 3 else 1)
        return project(y, radius)

    monkeypatch.setattr(baselines, "euclidean_nuclear_ball_project", spy)
    return rows


# a stack holds 32 kB of each state array: every diagonal row at 6x3, 20x5 and 3x7, 4 at 50x20
@pytest.mark.parametrize("dim,tasks,rank,stacks", [
    (6, 3, 2, {2: 4, 5: 10}), (20, 5, 2, {2: 4, 5: 10}), (50, 20, 3, {2: 4, 5: 4}),
    (3, 7, 3, {2: 4, 5: 10}),
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


def exponentiated_steps(monkeypatch):
    """The number of rows of each step of the exponentiated learners, by step function: a
    stack's row count (a stack holds one ``sum_sq`` per row), 1 for a run stepped alone."""
    rows = collections.defaultdict(list)

    def spying(module, name):
        step = getattr(module, name)

        def spy(state, *args):
            rows[name].append(np.size(state.sum_sq))
            return step(state, *args)

        monkeypatch.setattr(module, name, spy)

    for module, name in [(learners, "omd_step"), (learners, "ftrl_step"),
                         (spectral, "spectral_omd_step"), (spectral, "spectral_ftrl_step")]:
        spying(module, name)
    return rows


# a stack holds 32 kB of each state array, every row at d=5 and 8 at d=500: each algorithm's
# runs are one stack; the spy's counts are read before the reference steps runs alone
@pytest.mark.parametrize("dim,horizon", [(5, 300), (500, 450)])
@pytest.mark.parametrize("trials", [2, 5])
@pytest.mark.parametrize("radius_mode", sorted(FACTORS))
def test_stacked_exponentiated_runs_give_the_records_of_each_run_alone(
    pin_blas, monkeypatch, dim, horizon, trials, radius_mode
):
    pin_blas(1)  # the reference's one product over the whole stream
    spec = ExperimentSpec(kind="logistic", dim=dim, horizon=horizon, trials=trials,
                          algorithms=("exp_md", "exp_ftrl"), seed=dim + trials,
                          radius_mode=radius_mode)
    rows = exponentiated_steps(monkeypatch)
    records, failures = run_experiment(spec)
    assert not failures
    # each algorithm's runs step as one stack, once a round
    assert rows == {"omd_step": [trials] * horizon, "ftrl_step": [trials] * horizon}
    assert [repr(r) for r in records] == [repr(r) for r in each_alone(spec)]


@pytest.mark.parametrize("dim,tasks", [(6, 3), (20, 5)])
@pytest.mark.parametrize("trials", [2, 5])
@pytest.mark.parametrize("radius_mode", sorted(FACTORS))
def test_stacked_spectral_runs_give_the_records_of_each_run_alone(
    monkeypatch, dim, tasks, trials, radius_mode
):
    spec = ExperimentSpec(kind="multitask", dim=dim, tasks=tasks, rank=2, horizon=60,
                          trials=trials, algorithms=("spectral_exp_md", "spectral_exp_ftrl"),
                          sparsity=0.0, seed=dim + trials, radius_mode=radius_mode)
    rows = exponentiated_steps(monkeypatch)
    records, failures = run_experiment(spec)
    assert not failures
    steps = [trials] * spec.horizon
    assert rows == {"spectral_omd_step": steps, "spectral_ftrl_step": steps}
    assert [repr(r) for r in records] == [repr(r) for r in each_matrix_run_alone(spec)]


def test_a_stack_is_capped_by_its_bytes_and_a_run_that_steps_alone_stays_alone(monkeypatch):
    # 20 trials at d=500: stacks of 8, 8 and 4 rows for each algorithm; d=4000 holds one row
    spec = ExperimentSpec(kind="logistic", dim=500, horizon=3, trials=20,
                          algorithms=("exp_md", "exp_ftrl"), seed=3)
    rows = exponentiated_steps(monkeypatch)
    run_experiment(spec)
    assert rows == {"omd_step": [8, 8, 8, 8, 8, 8, 4, 4, 4], "ftrl_step": [8] * 6 + [4] * 3}
    rows.clear()
    run_experiment(dataclasses.replace(spec, dim=4000, trials=2))
    assert rows == {"omd_step": [1] * 6, "ftrl_step": [1] * 6}


@pytest.mark.parametrize("inject", ["gradient", "loss"])
@pytest.mark.parametrize("kind", ["logistic", "multitask"])
def test_a_failure_inside_an_exponentiated_stack_ends_only_its_row(monkeypatch, kind, inject):
    k, horizon = 7, 40
    if kind == "logistic":
        spec = ExperimentSpec(kind="logistic", dim=20, horizon=horizon, trials=3,
                              algorithms=("exp_md", "exp_ftrl", "adagrad"), seed=11)
        first, step = "exp_md", "omd_step"
    else:
        spec = ExperimentSpec(kind="multitask", dim=6, tasks=3, rank=2, horizon=horizon,
                              trials=3, algorithms=("spectral_exp_md", "spectral_exp_ftrl",
                                                    "adagrad"), sparsity=0.0, seed=11)
        first, step = "spectral_exp_md", "spectral_omd_step"
    clean, no_failures = run_experiment(spec)
    assert not no_failures
    seed = np.random.SeedSequence(spec.seed).spawn(spec.trials)[1]
    if kind == "logistic":
        data = gen_logistic_stream(20, horizon, spec.sparsity, np.random.default_rng(seed))
        name, oracle = "logistic_loss_grad", streams.logistic_loss_grad
    else:
        data = gen_multitask_stream(6, 3, 2, horizon, np.random.default_rng(seed))
        name, oracle = "multitask_loss_grad", streams.multitask_loss_grad
    hits = itertools.count(1)

    def injecting(w, f, y):  # trial 1's round k, first seen by its row of the first stack
        loss, grad = oracle(w, f, y)
        if np.array_equal(f, data.features[k - 1]) and next(hits) == 1:
            if inject == "gradient":
                grad.flat[0] = np.nan
            else:
                loss = math.inf
        return loss, grad

    monkeypatch.setattr(streams, name, injecting)
    rows = exponentiated_steps(monkeypatch)
    records, failures = run_experiment(spec)
    error = ("gradient g or hint h_next is not finite" if inject == "gradient"
             else "cumulative regret is not finite (inf)")
    assert failures == [TrialFailure(first, 1, k, error)]
    # the first stack: three rows until the failure; at it the stacked step that raises and
    # each row alone, or the two live rows alone; then two rows as one stack
    at_failure = [3, 1, 1, 1] if inject == "gradient" else [1, 1]
    assert rows[step] == [3] * (k - 1) + at_failure + [2] * (horizon - k)
    assert [n for name, n in rows.items() if name != step] == [[3] * horizon]

    def run(recs, name, trial):
        return [repr(r) for r in recs if (r.algorithm, r.trial) == (name, trial)]

    assert run(records, first, 1) == run(clean, first, 1)[: k - 1]
    for name, trial in itertools.product(spec.algorithms, range(spec.trials)):
        if (name, trial) != (first, 1):
            assert run(records, name, trial) == run(clean, name, trial)


def bits(value):
    """A state field's exact value: its arrays' bytes, a float's repr."""
    if isinstance(value, spectral.SvdFactors):
        return value.u.tobytes(), value.s.tobytes(), value.vt.tobytes()
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def stacked_state(states):
    """Lone learner states as the rows of one state, as :func:`learners.stack` stacks them."""
    return learners._fieldwise(states, np.stack)


@pytest.mark.parametrize("shape", [(5,), (500,), (6, 3), (20, 5)])
@pytest.mark.parametrize("omd", [True, False])
def test_a_stacked_exponentiated_step_gives_each_row_the_state_of_its_step_alone(shape, omd):
    rng = np.random.default_rng(sum(shape) + omd)
    # the last two balls are wide: their rows stay inside and pass through
    radii = [0.5, 2.0, 1e6, 1e6]
    if len(shape) == 1:
        scheds = [ScheduleParams(shape[0], r) for r in radii]
    else:
        scheds = [SpectralSchedule(*shape, r) for r in radii]
    init, step = (learners.omd_init, learners.omd_step) if omd else (
        learners.ftrl_init, learners.ftrl_step)
    alone = [init(sched) for sched in scheds]
    stack = stacked_state(alone)
    rows = learners._RowSchedule(scheds[0].geometry, np.array([[s.eta] for s in scheds]),
                                 scheds[0].beta, scheds[0].epsilon0)
    balls = BallConstraint(np.array([[r] for r in radii]))
    for _ in range(6):
        g = rng.standard_normal((len(radii), *shape)) * rng.uniform(0.1, 20.0)
        stack, xs = step(stack, g, rows, balls)
        for j, (sched, radius) in enumerate(zip(scheds, radii)):
            alone[j], x = step(alone[j], g[j], sched, BallConstraint(radius))
            assert xs[j].tobytes() == x.tobytes()
        for f in (field.name for field in dataclasses.fields(stack)):
            for j in range(len(radii)):
                got = getattr(learners.row_of(stack, j), f)
                assert bits(got) == bits(getattr(alone[j], f)), f
    assert stack.round == alone[0].round


def test_a_stack_squares_each_norm_by_the_float_power_as_alone():
    # the float power and an array's n*n differ on this norm
    n = 1.5873500225580646
    assert np.float64(n) ** 2 != (np.array([n]) ** 2)[0]
    sched = ScheduleParams(3, 2.0)
    alone = [learners.omd_init(sched) for _ in range(2)]
    stack = stacked_state(alone)
    rows = learners._RowSchedule(sched.geometry, np.full((2, 1), sched.eta), sched.beta,
                                 sched.epsilon0)
    g = np.array([[n, 0.25, -0.5], [0.125, -n, 1.0]])
    stack, _ = learners.omd_step(stack, g, rows)
    for j in range(2):
        st, _ = learners.omd_step(alone[j], g[j], sched)
        assert np.float64(st.sum_sq).tobytes() == stack.sum_sq[j].tobytes()
        assert st.sum_sq == np.float64(n) ** 2


# a failing oracle ends each run of its trial at its round, whether the run is a row of a
# stack (the exponentiated, spectral and diagonal runs) or steps alone (``eg_pm``)
@pytest.mark.parametrize("error", [NumericRangeError, np.linalg.LinAlgError])
@pytest.mark.parametrize("kind", ["logistic", "multitask"])
def test_an_oracle_error_ends_only_the_runs_of_its_trial(monkeypatch, kind, error):
    k, horizon = 7, 40
    seed = np.random.SeedSequence(11).spawn(3)[1]
    if kind == "logistic":
        spec = ExperimentSpec(kind="logistic", dim=20, horizon=horizon, trials=3, seed=11,
                              algorithms=("exp_md", "exp_ftrl", "adagrad", "adaftrl", "eg_pm"))
        data = gen_logistic_stream(20, horizon, spec.sparsity, np.random.default_rng(seed))
        name, steps = "logistic_loss_grad", ("omd_step", "ftrl_step")
    else:
        spec = ExperimentSpec(kind="multitask", dim=6, tasks=3, rank=2, horizon=horizon,
                              trials=3, sparsity=0.0, seed=11,
                              algorithms=("spectral_exp_md", "spectral_exp_ftrl", "adagrad",
                                          "adaftrl"))
        data = gen_multitask_stream(6, 3, 2, horizon, np.random.default_rng(seed))
        name, steps = "multitask_loss_grad", ("spectral_omd_step", "spectral_ftrl_step")
    clean, no_failures = run_experiment(spec)
    assert not no_failures
    oracle = getattr(streams, name)

    def raising(w, f, y):  # trial 1's round k, for every run
        if np.array_equal(f, data.features[k - 1]):
            raise error(f"oracle failed at round {k}")
        return oracle(w, f, y)

    monkeypatch.setattr(streams, name, raising)
    rows = exponentiated_steps(monkeypatch)
    records, failures = run_experiment(spec)
    assert failures == [TrialFailure(algorithm, 1, k, f"oracle failed at round {k}")
                        for algorithm in sorted(spec.algorithms)]
    # three rows until the failure, the two live rows alone at it, then two rows as one stack
    assert rows == {step: [3] * (k - 1) + [1, 1] + [2] * (horizon - k) for step in steps}

    def run(recs, algorithm, trial):
        return [repr(r) for r in recs if (r.algorithm, r.trial) == (algorithm, trial)]

    for algorithm in spec.algorithms:
        assert run(records, algorithm, 1) == run(clean, algorithm, 1)[: k - 1]
        for trial in (0, 2):
            assert run(records, algorithm, trial) == run(clean, algorithm, trial)


# A learner family declared outside the library: its own state, step and stacking.
@dataclasses.dataclass(frozen=True)
class ClipState:
    x: np.ndarray
    round: int


def clip_step(state, g, radius, h_next, reg_weight):
    """Move ``x`` against the gradient and clip it elementwise to ``[-radius, radius]``: a row
    of a stack, with one radius per row, has the bits it has alone."""
    x = np.clip(state.x - 0.5 * np.asarray(g), -radius, radius)
    return ClipState(x, state.round + 1), x


class Clipped(learners.Learner):
    """A learner on the ball of ``radius``, stepped by :func:`clip_step`, alone or stacked."""

    _step = staticmethod(lambda *a: clip_step(*a))
    _stacking = learners._Stacking(  # every run stacks: one radius per row
        lambda learner: (),
        lambda rows, balls: lambda s, g, h, w: clip_step(s, g, balls.radius, h, w))

    def __init__(self, dim, radius):
        self.mode, step = BallConstraint(radius), self._step
        super().__init__(ClipState(np.zeros(dim), 1), np.zeros(dim),
                         lambda s, g, h, w: step(s, g, radius, h, w))


def test_a_family_that_declares_its_stacking_steps_its_runs_as_one_stack(pin_blas, monkeypatch):
    pin_blas(1)  # the reference's one product over the whole stream
    # the ``eg_pm`` slot of the registry builds the family's learner
    spec = ExperimentSpec(kind="logistic", dim=20, horizon=30, trials=3, algorithms=("eg_pm",),
                          seed=13, radius_mode="half")
    build = registry.build_vector_learner
    monkeypatch.setattr(registry, "build_vector_learner",
                        lambda name, dim, radius: Clipped(dim, radius) if name == "eg_pm"
                        else build(name, dim, radius))
    shapes, step = [], clip_step

    def spy(state, g, *args):
        shapes.append(np.shape(g))
        return step(state, g, *args)

    monkeypatch.setitem(globals(), "clip_step", spy)
    records, failures = run_experiment(spec)
    assert not failures
    # one 3-row stack per round, read before the reference steps each run alone
    assert shapes == [(3, 20)] * spec.horizon
    monkeypatch.setitem(LEARNERS, "eg_pm", Clipped)
    assert [repr(r) for r in records] == [repr(r) for r in each_alone(spec)]


# a user subclass that declares its own step, and how to build it from its base's learner:
# the exponentiated family stacks it only with its own class, the diagonal one not at all
OWN_STEPS = {
    "exp_md": (ExpMd, lambda *a: learners.omd_step(*a), lambda base, dim: (base.sched, base.mode)),
    "adagrad": (AdaGrad, lambda *a: adagrad_step(*a), lambda base, dim: (dim, base.mode)),
}


@pytest.mark.parametrize("name", sorted(OWN_STEPS))
def test_a_subclass_with_its_own_step_stacks_apart_from_its_base(monkeypatch, name):
    spec = ExperimentSpec(kind="logistic", dim=20, horizon=10, trials=3, algorithms=(name,),
                          seed=5)
    expected, _ = run_experiment(spec)
    base_class, base_step, args = OWN_STEPS[name]
    own = []  # the gradient shape of each call of the subclass's step

    class OwnStep(base_class):
        @staticmethod
        def _step(state, g, *rest):
            own.append(np.shape(g))
            return base_step(state, g, *rest)

    build, built = registry.build_vector_learner, itertools.count()

    def first_subclassed(name, dim, radius):  # trial 0's run is the subclass's
        base = build(name, dim, radius)
        return OwnStep(*args(base, dim)) if next(built) == 0 else base

    monkeypatch.setattr(registry, "build_vector_learner", first_subclassed)
    steps, step = [], learners.Learner.step

    def spy(learner, g, *rest):  # every learner's step, alone or stacked
        steps.append(np.shape(g))
        return step(learner, g, *rest)

    monkeypatch.setattr(learners.Learner, "step", spy)
    records, failures = run_experiment(spec)
    assert not failures and records == expected
    # each round: the subclass's run alone, through its own step, and the other two as one stack
    assert own == [(spec.dim,)] * spec.horizon
    assert collections.Counter(steps) == {(spec.dim,): spec.horizon, (2, spec.dim): spec.horizon}


def counted_oracle(monkeypatch, name):
    """Patch ``streams.<name>`` with a spy that keeps its stacked form, if it has one; returns
    the calls, ``"lone"`` for a lone call and a stacked call's row count for a stacked one."""
    lone, rows, calls = getattr(streams, name), getattr(getattr(streams, name), "rows", None), []

    def lone_spy(w, f, y):
        calls.append("lone")
        return lone(w, f, y)

    def rows_spy(w, f, y):
        calls.append(len(w))
        return rows(w, f, y)

    if rows is not None:
        lone_spy.rows = rows_spy
    monkeypatch.setattr(streams, name, lone_spy)
    return calls


# three trials of 6x3: one 6-row diagonal stack and a 3-row stack for each spectral learner
MULTITASK = ExperimentSpec(kind="multitask", dim=6, tasks=3, rank=2, horizon=40, trials=3,
                           algorithms=("adagrad", "adaftrl", "spectral_exp_md",
                                       "spectral_exp_ftrl"), sparsity=0.0, seed=11)


def test_a_multitask_stack_is_scored_by_one_oracle_call_a_round(monkeypatch):
    expected = run_experiment(MULTITASK)
    calls = counted_oracle(monkeypatch, "multitask_loss_grad")
    assert run_experiment(MULTITASK) == expected
    assert collections.Counter(calls) == {6: MULTITASK.horizon, 3: 2 * MULTITASK.horizon}
    # one trial: each run alone, one lone call a round
    calls.clear()
    run_experiment(dataclasses.replace(MULTITASK, trials=1, algorithms=("adagrad",
                                                                        "spectral_exp_md")))
    assert calls == ["lone"] * 2 * MULTITASK.horizon


def test_logistic_runs_are_scored_one_lone_call_a_run_and_round(monkeypatch):
    spec = ExperimentSpec(kind="logistic", dim=20, horizon=30, trials=3, seed=11,
                          algorithms=("exp_md", "exp_ftrl", "adagrad", "adaftrl", "eg_pm"))
    calls = counted_oracle(monkeypatch, "logistic_loss_grad")
    run_experiment(spec)
    assert calls == ["lone"] * 5 * spec.trials * spec.horizon


FAULTS = {
    "gradient": "gradient g or hint h_next is not finite",
    "loss": "cumulative regret is not finite (inf)",
    "raise": None,  # the oracle's own message, for every run of the trial
}


def injected(fault, features, error):
    """A lone oracle and a stacked one that inject ``fault`` at the round whose features are
    ``features``: into the first row that round is scored for (a NaN gradient entry or an
    infinite loss), or as an ``error`` raised by every call that scores it."""
    lone, rows, hits = multitask_loss_grad, multitask_loss_grad.rows, itertools.count()

    def faulty(w, f, y):
        if fault == "raise" and np.array_equal(f, features):
            raise error
        loss, grad = lone(w, f, y)
        if np.array_equal(f, features) and next(hits) == 0:
            if fault == "gradient":
                grad[0, 0] = np.nan
            else:
                loss = math.inf
        return loss, grad

    def faulty_rows(w, f, y):
        hit = [j for j in range(len(f)) if np.array_equal(f[j], features)]
        if fault == "raise" and hit:
            raise error
        losses, grads = rows(w, f, y)
        if hit and next(hits) == 0:
            if fault == "gradient":
                grads[hit[0], 0, 0] = np.nan
            else:
                losses[hit[0]] = math.inf
        return losses, grads

    return faulty, faulty_rows


@pytest.mark.parametrize("fault", sorted(FAULTS))
@settings(derandomize=True, max_examples=6, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(trial=st.integers(0, MULTITASK.trials - 1), k=st.integers(1, MULTITASK.horizon),
       error=st.sampled_from([NumericRangeError, np.linalg.LinAlgError, FloatingPointError]))
def test_a_fault_in_a_stacked_oracle_call_ends_the_runs_the_lone_oracle_ends(
    fault, trial, k, error
):
    # the first run to score a round is trial's adagrad row of the diagonal stack
    clean, no_failures = run_experiment(MULTITASK)
    assert not no_failures
    seed = np.random.SeedSequence(MULTITASK.seed).spawn(MULTITASK.trials)[trial]
    features = gen_multitask_stream(6, 3, 2, MULTITASK.horizon,
                                    np.random.default_rng(seed)).features[k - 1]
    message = FAULTS[fault] or f"oracle failed at round {k}"
    with pytest.MonkeyPatch.context() as patch:  # each row alone, through the lone oracle
        patch.setattr(streams, "multitask_loss_grad",
                      injected(fault, features, error(message))[0])
        per_row = run_experiment(MULTITASK)
    lone, stacked = injected(fault, features, error(message))
    lone.rows = stacked
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "multitask_loss_grad", lone)
        calls = counted_oracle(patch, "multitask_loss_grad")
        records, failures = run_experiment(MULTITASK)
    ended = ["adagrad"] if fault != "raise" else sorted(MULTITASK.algorithms)
    assert failures == per_row[1] == [TrialFailure(name, trial, k, message) for name in ended]
    assert [repr(r) for r in records] == [repr(r) for r in per_row[0]]
    # one stacked call a stack and round; one that raises is replayed row by row, alone
    runs = len(MULTITASK.algorithms) * MULTITASK.trials
    assert calls.count("lone") == (runs if fault == "raise" else 0)
    assert len(calls) - calls.count("lone") == 3 * MULTITASK.horizon

    def run(recs, name, t):
        return [repr(r) for r in recs if (r.algorithm, r.trial) == (name, t)]

    for name, t in itertools.product(MULTITASK.algorithms, range(MULTITASK.trials)):
        if t == trial and name in ended:
            assert run(records, name, t) == run(clean, name, t)[: k - 1]
        else:
            assert run(records, name, t) == run(clean, name, t)

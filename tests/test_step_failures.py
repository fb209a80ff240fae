"""One typed failure at the step boundary, and a harness that never writes a non-finite row."""

import math

import numpy as np
import pytest

from expopt import (
    AdaFtrl,
    AdaGrad,
    BallConstraint,
    CompositeRegularizer,
    ExpFtrl,
    ExpMd,
    NumericRangeError,
    ScheduleParams,
    SpectralExpFtrl,
    SpectralExpMd,
    SpectralSchedule,
)
from expopt.harness import ExperimentSpec, registry, run_experiment, streams

# |g| = 1e200 is finite, but its square is not
BAD_VALUES = [np.nan, np.inf, -np.inf, 1e200]
MODES = {
    "free": None,
    "ball": BallConstraint(2.0),
    "enet": CompositeRegularizer(l1=0.1, l2=0.1),
}


def vector_learners(mode):
    return [ExpMd(ScheduleParams(4, 2.0), mode=mode), ExpFtrl(ScheduleParams(4, 2.0), mode=mode)]


def matrix_learners(mode):
    sched = SpectralSchedule(3, 2, 2.0)
    return [SpectralExpMd(sched, mode=mode), SpectralExpFtrl(sched, mode=mode)]


def assert_rejected_and_unchanged(learner, bad_g):
    learner.step(0.1 * np.ones_like(learner.x))
    state, x = learner.state, learner.x.copy()
    # an infinite entry may warn on its way to the check (inf / inf)
    with pytest.raises(NumericRangeError), np.errstate(invalid="ignore"):
        learner.step(bad_g)
    assert learner.state is state
    assert np.array_equal(learner.x, x)


@pytest.mark.parametrize("mode_name", list(MODES))
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("make", [vector_learners, matrix_learners])
def test_exponentiated_learners_raise_numeric_range_error(make, bad, mode_name):
    for learner in make(MODES[mode_name]):
        g = 0.5 * np.ones_like(learner.x)
        g.flat[1] = bad
        assert_rejected_and_unchanged(learner, g)


@pytest.mark.parametrize("mode_name", ["free", "enet"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls", [AdaGrad, AdaFtrl])
def test_diagonal_learners_raise_outside_ball_mode(cls, bad, mode_name):
    learner = cls(4, mode=MODES[mode_name])
    assert_rejected_and_unchanged(learner, np.array([0.5, bad, 0.5, 0.5]))


@pytest.mark.parametrize("cls", [AdaGrad, AdaFtrl])
def test_diagonal_learners_raise_in_ball_mode(cls):
    learner = cls(4, mode=MODES["ball"])
    assert_rejected_and_unchanged(learner, np.array([0.5, np.nan, 0.5, 0.5]))


class TestHarnessNonFiniteValues:
    def test_nan_loss_is_a_failure_without_a_nan_row(self, monkeypatch):
        clean = streams.logistic_loss_grad
        calls = [0]

        def oracle(w, x, y):
            # finite for the first 4 rounds of the first algorithm, then a NaN loss
            calls[0] += 1
            loss, grad = clean(w, x, y)
            return (loss if calls[0] <= 4 else float("nan")), grad

        monkeypatch.setattr(streams, "logistic_loss_grad", oracle)
        spec = ExperimentSpec(
            kind="logistic", dim=8, horizon=7, trials=1, sparsity=0.5,
            algorithms=("exp_md", "adagrad"), seed=21,
        )
        records, failures = run_experiment(spec)
        assert sorted((f.algorithm, f.round) for f in failures) == [("adagrad", 1), ("exp_md", 5)]
        assert all("not finite" in f.error for f in failures)
        assert [(r.algorithm, r.round) for r in records] == [("exp_md", t) for t in range(1, 5)]
        assert all(math.isfinite(r.value) for r in records)

    def test_infinite_multitask_loss_is_a_failure(self, monkeypatch):
        clean = streams.multitask_loss_grad

        def oracle(w, features_t, labels_t):
            loss, grad = clean(w, features_t, labels_t)
            return math.inf, grad

        monkeypatch.setattr(streams, "multitask_loss_grad", oracle)
        spec = ExperimentSpec(
            kind="multitask", dim=4, tasks=3, rank=1, horizon=3, trials=2, sparsity=0.0,
            algorithms=("spectral_exp_md", "adaftrl"), seed=5,
        )
        records, failures = run_experiment(spec)
        assert records == []
        assert len(failures) == 4 and {f.round for f in failures} == {1}

    def test_nan_objective_is_a_failure(self, monkeypatch):
        clean = streams.BlackboxComposite.objective

        def objective(self, x):
            return float("nan") if x[0] < 0 else clean(self, x)

        monkeypatch.setattr(streams.BlackboxComposite, "objective", objective)
        spec = ExperimentSpec(
            kind="blackbox", dim=4, horizon=30, trials=1, sparsity=0.0,
            algorithms=("acc_exp_md", "acc_adagrad"), seed=3,
        )
        records, failures = run_experiment(spec)
        assert all(math.isfinite(r.value) for r in records)
        assert failures and all("not finite" in f.error for f in failures)
        for f in failures:
            rows = [r.round for r in records if r.algorithm == f.algorithm]
            assert rows == list(range(1, f.round))


@pytest.mark.parametrize("mode_name", list(MODES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [vector_learners, matrix_learners])
def test_non_finite_hint_is_rejected_at_the_step_boundary(make, bad, mode_name):
    for learner in make(MODES[mode_name]):
        learner.step(0.1 * np.ones_like(learner.x))
        state, x = learner.state, learner.x.copy()
        h = np.zeros_like(learner.x)
        h.flat[0] = bad
        with pytest.raises(NumericRangeError):
            learner.step(0.5 * np.ones_like(learner.x), h_next=h)
        assert learner.state is state
        assert np.array_equal(learner.x, x)


@pytest.mark.parametrize("cls", [AdaGrad, AdaFtrl])
@pytest.mark.parametrize("hint", [0.5, np.ones(2), np.ones((3, 1))])
def test_diagonal_learners_reject_a_misshapen_hint(cls, hint):
    learner = cls(3, mode=MODES["ball"])
    learner.step(0.1 * np.ones(3))
    state, x = learner.state, learner.x.copy()
    with pytest.raises(ValueError, match="h_next"):
        learner.step(np.ones(3), h_next=hint)
    assert learner.state is state
    assert np.array_equal(learner.x, x)


@pytest.mark.parametrize("name", ["adagrad", "adaftrl"])
def test_matrix_diagonal_learners_reject_a_transposed_input(name):
    from expopt.harness import registry

    learner = registry.build_matrix_learner(name, 3, 2, 2.0)
    learner.step(0.1 * np.ones((3, 2)))
    state, x = learner.state, learner.x.copy()
    with pytest.raises(ValueError, match="h_next"):
        learner.step(np.ones((3, 2)), h_next=np.ones((2, 3)))
    with pytest.raises(ValueError, match="g has shape"):
        learner.step(np.ones((2, 3)))
    assert learner.state is state
    assert np.array_equal(learner.x, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eg_pm_rejects_a_non_finite_hint(bad):
    from expopt import EgPm

    learner = EgPm(3, 2.0)
    learner.step(0.1 * np.ones(3))
    state, x = learner.state, learner.x.copy()
    with pytest.raises(NumericRangeError):
        learner.step(0.5 * np.ones(3), h_next=np.array([0.0, bad, 0.0]))
    assert learner.state is state
    assert np.array_equal(learner.x, x)


@pytest.mark.parametrize("hint", [0.5, np.ones(2), np.ones((3, 1))])
def test_eg_pm_rejects_a_misshapen_hint(hint):
    from expopt import EgPm

    learner = EgPm(3, 2.0)
    learner.step(0.1 * np.ones(3))
    state, x = learner.state, learner.x.copy()
    with pytest.raises(ValueError, match="h_next"):
        learner.step(np.ones(3), h_next=hint)
    assert learner.state is state
    assert np.array_equal(learner.x, x)


def test_eg_pm_ignores_the_value_of_a_finite_hint():
    from expopt import EgPm

    plain, hinted = EgPm(3, 2.0), EgPm(3, 2.0)
    for g in ([0.3, -0.1, 0.2], [-0.5, 0.4, 0.0]):
        assert np.array_equal(plain.step(np.array(g)), hinted.step(np.array(g), h_next=np.ones(3)))


def test_elastic_net_ftrl_raises_instead_of_returning_nan():
    # the hint is finite, but ln(|z|/beta + 1) = |z|/alpha overflows to inf
    learner = ExpFtrl(ScheduleParams(3, 1.0), mode=CompositeRegularizer(0.1, 0.1))
    huge = np.full(3, 1e308)
    steps = [(np.zeros(3), huge)] + [(huge, huge)] * 3
    raised = 0
    for g, h in steps:
        state, x = learner.state, learner.x.copy()
        try:
            with np.errstate(over="ignore"):
                out = learner.step(g, h_next=h)
        except NumericRangeError:
            raised += 1
            assert learner.state is state
            assert np.array_equal(learner.x, x)
        else:
            assert np.isfinite(out).all()
    assert raised > 0


@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_elastic_net_prox_from_log_rejects_a_non_finite_active_entry(l2, bad):
    from expopt import EntropyParams, elastic_net_prox_from_log

    p = EntropyParams(alpha=1.0, beta=0.5)
    log_scale = np.array([0.0, 2.0, bad])
    with pytest.raises(NumericRangeError):
        elastic_net_prox_from_log(log_scale, np.ones(3), CompositeRegularizer(0.1, l2), p)


# gradient entries whose last round leaves the float range in h_diag: the
# square itself, or the sum of two finite squares
OVERFLOWS = {"square": [1e308], "sum": [1e154, 1e154]}
DIAGONAL = [f"{cls}-{mode}" for cls in ("AdaGrad", "AdaFtrl") for mode in MODES] + [
    "matrix-adagrad",
    "matrix-adaftrl",
]


def diagonal_learner(name):
    kind, arg = name.split("-")
    if kind == "matrix":
        return registry.build_matrix_learner(arg, 3, 2, 2.0)
    return {"AdaGrad": AdaGrad, "AdaFtrl": AdaFtrl}[kind](4, mode=MODES[arg])


@pytest.mark.parametrize("overflow", list(OVERFLOWS))
@pytest.mark.parametrize("name", DIAGONAL)
def test_diagonal_learners_raise_when_h_diag_overflows(name, overflow):
    learner, fresh = diagonal_learner(name), diagonal_learner(name)
    *finite, last = OVERFLOWS[overflow]
    for value in finite:
        learner.step(np.full_like(learner.x, value))
    state, x = learner.state, learner.x.copy()
    with pytest.raises(NumericRangeError):
        learner.step(np.full_like(learner.x, last))
    assert learner.state is state
    assert learner.x.tobytes() == x.tobytes()
    if not finite:
        # the rejected round left no trace: the learner continues as a fresh one
        g = np.resize([1.0, -1.0, 0.5], learner.x.shape)
        assert learner.step(g).tobytes() == fresh.step(g).tobytes()
        assert learner.state.h_diag.tobytes() == fresh.state.h_diag.tobytes()

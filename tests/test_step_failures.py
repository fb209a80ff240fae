"""One typed failure at the step boundary, and a harness that never writes a non-finite row."""

import math
import warnings

import numpy as np
import pytest

from expopt import (
    AdaFtrl,
    AdaGrad,
    BallConstraint,
    CompositeRegularizer,
    EntropyParams,
    ExpFtrl,
    ExpMd,
    NumericRangeError,
    ScheduleParams,
    SpectralExpFtrl,
    SpectralExpMd,
    SpectralSchedule,
    mirror_map_inv,
)
from expopt.accelerate import Accelerator
from expopt.harness import ExperimentSpec, registry, run_experiment, streams
from expopt.zeroth_order import rademacher_config, two_point_grad_rows

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
    with pytest.raises(NumericRangeError):
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


@pytest.mark.parametrize("g", [np.ones(1), np.ones(4), np.ones((3, 1))])
def test_eg_pm_rejects_a_misshapen_gradient(g):
    from expopt import EgPm, eg_pm_init, eg_pm_step

    learner = EgPm(3, 1.0)
    learner.step(0.1 * np.ones(3))
    state, x = learner.state, learner.x.copy()
    with pytest.raises(ValueError, match="g has shape"):
        learner.step(g)
    assert learner.state is state
    assert np.array_equal(learner.x, x)
    fresh = eg_pm_init(3)
    with pytest.raises(ValueError, match="g has shape"):
        eg_pm_step(fresh, g, 1.0)
    assert np.array_equal(fresh.log_weights, np.zeros(6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", DIAGONAL)
def test_diagonal_learners_reject_a_non_finite_hint(name, bad):
    learner = diagonal_learner(name)
    learner.step(0.1 * np.ones_like(learner.x))
    state, x = learner.state, learner.x.copy()
    h = np.zeros_like(learner.x)
    h.flat[1] = bad
    with pytest.raises(NumericRangeError, match="hint"):
        learner.step(0.5 * np.ones_like(learner.x), h_next=h)
    assert learner.state is state
    assert np.array_equal(learner.x, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_anchor_is_rejected_at_construction(bad):
    anchor = np.array([bad, 0.0, 0.0])
    for make in (
        lambda: ExpMd(ScheduleParams(3, 1.0), mode=BallConstraint(1.0), x1=anchor),
        lambda: ExpFtrl(ScheduleParams(3, 1.0), x1=anchor),
        lambda: AdaGrad(3, x1=anchor),
        lambda: AdaFtrl(3, mode=BallConstraint(1.0), x1=anchor),
        lambda: SpectralExpMd(SpectralSchedule(3, 1, 1.0), x1=anchor.reshape(3, 1)),
        lambda: SpectralExpFtrl(SpectralSchedule(1, 3, 1.0), x1=anchor.reshape(1, 3)),
    ):
        with pytest.raises(ValueError, match="x1"):
            make()


def test_baselines_reject_an_empty_dimension():
    from expopt import EgPm, diag_init, eg_pm_init

    for make in (
        lambda: diag_init(0),
        lambda: eg_pm_init(0),
        lambda: AdaGrad(0),
        lambda: AdaFtrl(-1),
        lambda: EgPm(0, 1.0),
    ):
        with pytest.raises(ValueError, match="dim"):
            make()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_parameter_objects_reject_non_finite_values(bad):
    from expopt import EgPm

    for make in (
        lambda: ScheduleParams(3, 1.0, eta=bad),
        lambda: ScheduleParams(3, 1.0, beta=bad),
        lambda: ScheduleParams(3, 1.0, epsilon0=bad),
        lambda: SpectralSchedule(3, 2, 1.0, eta=bad),
        lambda: SpectralSchedule(3, 2, 1.0, beta=bad),
        lambda: SpectralSchedule(3, 2, 1.0, epsilon0=bad),
        lambda: CompositeRegularizer(l1=bad),
        lambda: CompositeRegularizer(l2=bad),
        lambda: BallConstraint(bad),
        lambda: EgPm(3, bad),
        lambda: EgPm(3, 1.0, stepsize=bad),
    ):
        with pytest.raises(ValueError):
            make()


def test_eg_pm_rejects_a_nonpositive_radius_or_stepsize():
    from expopt import EgPm

    for kwargs in ({"radius": -1.0}, {"radius": 0.0}, {"stepsize": -1.0}, {"stepsize": 0.0}):
        with pytest.raises(ValueError):
            EgPm(3, **{"radius": 1.0, **kwargs})
    assert ScheduleParams(3, 1.0, epsilon0=0.0).epsilon0 == 0.0


def scale_learners(sched, mode):
    if isinstance(sched, SpectralSchedule):
        return [SpectralExpMd(sched, mode=mode), SpectralExpFtrl(sched, mode=mode)]
    return [ExpMd(sched, mode=mode), ExpFtrl(sched, mode=mode)]


# an adaptive scale of 0 (no hint error yet, epsilon0 = 0) or inf (eta * 1e10)
SCALE_CASES = {
    "zero-vector": (lambda: ScheduleParams(3, 1.0, epsilon0=0.0), 0.0),
    "zero-matrix": (lambda: SpectralSchedule(3, 2, 1.0, epsilon0=0.0), 0.0),
    "inf-vector": (lambda: ScheduleParams(3, 1.0, eta=1e300), 1e10),
    "inf-matrix": (lambda: SpectralSchedule(3, 2, 1.0, eta=1e300), 1e10),
}


@pytest.mark.parametrize("mode_name", list(MODES))
@pytest.mark.parametrize("case", list(SCALE_CASES))
def test_an_adaptive_scale_outside_the_positive_reals_is_a_numeric_error(case, mode_name):
    make_sched, value = SCALE_CASES[case]
    sched = make_sched()
    for learner, fresh in zip(
        scale_learners(sched, MODES[mode_name]), scale_learners(sched, MODES[mode_name])
    ):
        state, x = learner.state, learner.x.copy()
        with pytest.raises(NumericRangeError, match="alpha"):
            learner.step(np.full_like(learner.x, value))
        assert learner.state is state
        assert np.array_equal(learner.x, x)
        # the rejected round left no trace: a later gradient steps as on a fresh learner
        g = np.resize([0.5, -0.25, 0.125], learner.x.shape)
        assert learner.step(g).tobytes() == fresh.step(g).tobytes()


def test_adaftrl_raises_without_a_warning_when_its_target_overflows():
    learner = AdaFtrl(3)
    learner.step(np.full(3, 1e150), h_next=np.full(3, 1e308))
    state, x = learner.state, learner.x.copy()
    with pytest.raises(NumericRangeError):
        learner.step(np.full(3, 1e308), h_next=np.full(3, 1e308))
    assert learner.state is state
    assert np.array_equal(learner.x, x)


def test_adagrad_raises_without_a_warning_when_its_step_overflows():
    learner = AdaGrad(3)
    with pytest.raises(NumericRangeError):
        learner.step(np.zeros(3), h_next=np.full(3, 1e306))
    assert learner.state.round == 1
    assert np.array_equal(learner.x, np.zeros(3))


def test_elastic_net_adagrad_raises_without_a_warning_when_its_scaled_target_overflows():
    learner = AdaGrad(3, mode=CompositeRegularizer(0.1, 0.1))
    learner.step(np.array([0.0, 1.0, 0.0]), h_next=np.full(3, 1e154))
    state, x = learner.state, learner.x.copy()
    # target * sqrt(h_diag) leaves the float range for the hint-shifted point
    with pytest.raises(NumericRangeError):
        learner.step(np.zeros(3), h_next=np.zeros(3))
    assert learner.state is state
    assert np.array_equal(learner.x, x)


def _accelerator_hint():
    # the gradient is finite, but the hint a_next * g = 2e308 is not
    acc = Accelerator(ExpMd(ScheduleParams(3, 1.0), mode=CompositeRegularizer(0.1, 0.1)))
    acc.step(lambda z: np.ones(3))
    return (
        lambda: acc.step(lambda z: np.full(3, 1e308)),
        lambda: (acc.state, acc.learner.state, acc.learner.x.tobytes()),
    )


def _adagrad_ball_sequence():
    # a finite target whose l1 sum overflows inside the weighted projection
    learner = AdaGrad(3, mode=BallConstraint(2.0))
    learner.step(np.array([0.0, 1.0, 0.0]))
    return (
        lambda: learner.step(np.ones(3), h_next=np.full(3, -1e308)),
        lambda: (learner.state, learner.x.tobytes()),
    )


def _mirror_map_inv_tiny_alpha():
    theta = np.array([1e10])
    return lambda: mirror_map_inv(theta, EntropyParams(1e-300, 1.0)), lambda: (theta.tobytes(),)


# each case: the call that overflows, and what it must leave as it was
ESCAPES = {
    "accelerator-hint": _accelerator_hint,
    "adagrad-ball-sequence": _adagrad_ball_sequence,
    "mirror-map-inv-tiny-alpha": _mirror_map_inv_tiny_alpha,
}


@pytest.mark.parametrize("case", list(ESCAPES))
def test_an_overflow_inside_the_library_raises_without_a_warning(case):
    act, observe = ESCAPES[case]()
    before = observe()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError):
            act()
    for was, now in zip(before, observe()):
        assert was == now if isinstance(was, bytes) else was is now


def _overflowing_but_harmless(values):
    # exp(1000) overflows to inf, so the term is exactly 0; under the
    # library's guard the overflow would raise instead
    return values + 1.0 / (1.0 + np.exp(np.full_like(values, 1000.0)))


def test_a_user_oracle_runs_outside_the_guard():
    cfg = rademacher_config(mu=0.01, batch=3)
    clean = two_point_grad_rows(
        lambda rows: rows.sum(axis=1), np.ones(4), cfg, np.random.default_rng(9)
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        noisy = two_point_grad_rows(
            lambda rows: _overflowing_but_harmless(rows.sum(axis=1)),
            np.ones(4), cfg, np.random.default_rng(9),
        )
    assert noisy.tobytes() == clean.tobytes()


def test_a_grad_fn_runs_outside_the_guard():
    def run(grad_fn):
        acc = Accelerator(ExpMd(ScheduleParams(3, 1.0), mode=CompositeRegularizer(0.1, 0.1)))
        return [acc.step(grad_fn).tobytes() for _ in range(3)]

    clean = run(lambda z: z - 0.5)
    with pytest.warns(RuntimeWarning, match="overflow"):
        noisy = run(lambda z: _overflowing_but_harmless(z - 0.5))
    assert noisy == clean


def test_a_callers_underflow_setting_does_not_reach_a_step():
    # the hint puts one log scale ~1e4 above the rest, so exp(L - max L)
    # underflows to 0 inside the projection: harmless, and not an error
    learner, plain = (ExpMd(ScheduleParams(5, 1.0), mode=BallConstraint(1.0)) for _ in range(2))
    h = np.array([1e4, 0.0, 0.0, 0.0, 0.0])
    expected = plain.step(np.full(5, 0.1), h_next=h)
    with np.errstate(under="raise"):
        got = learner.step(np.full(5, 0.1), h_next=h)
    assert got.tobytes() == expected.tobytes()

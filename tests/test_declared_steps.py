"""Where the learner classes' steps are looked up, and which runs may stack.

Each of ``ExpMd``, ``ExpFtrl``, ``SpectralExpMd``, ``SpectralExpFtrl``,
``AdaGrad`` and ``AdaFtrl`` looks its step up at its module attribute on
every call, so a wrapper installed there after the learner is built sees
its steps; the harness looks an exponentiated stack's step up when it
builds the stack.  Only these classes stack: a subclass that overrides
``step`` steps alone, through its own ``step``.
"""

import numpy as np
import pytest

from expopt import AdaFtrl, AdaGrad, BallConstraint, ExpFtrl, ExpMd, ScheduleParams
from expopt import SpectralExpFtrl, SpectralExpMd, SpectralSchedule, baselines, learners
from expopt import spectral
from expopt.harness import ExperimentSpec, run_experiment
from expopt.harness import registry

BALL = BallConstraint(2.0)
CLASSES = {
    "ExpMd": (lambda: ExpMd(ScheduleParams(6, 2.0), mode=BALL), (6,), learners, "omd_step"),
    "ExpFtrl": (lambda: ExpFtrl(ScheduleParams(6, 2.0), mode=BALL), (6,), learners,
                "ftrl_step"),
    "SpectralExpMd": (lambda: SpectralExpMd(SpectralSchedule(4, 3, 2.0), mode=BALL), (4, 3),
                      spectral, "spectral_omd_step"),
    "SpectralExpFtrl": (lambda: SpectralExpFtrl(SpectralSchedule(4, 3, 2.0), mode=BALL), (4, 3),
                        spectral, "spectral_ftrl_step"),
    "AdaGrad": (lambda: AdaGrad(6, mode=BALL), (6,), baselines, "adagrad_step"),
    "AdaFtrl": (lambda: AdaFtrl(6, mode=BALL), (6,), baselines, "adaftrl_step"),
    "AdaGrad-4x3": (lambda: AdaGrad((4, 3), mode=BALL), (4, 3), baselines, "adagrad_step"),
    "AdaFtrl-4x3": (lambda: AdaFtrl((4, 3), mode=BALL), (4, 3), baselines, "adaftrl_step"),
}


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` with a spy; returns the list of each call's gradient shape."""
    step, shapes = getattr(module, name), []

    def spy(state, g, *args):
        shapes.append(np.shape(g))
        return step(state, g, *args)

    monkeypatch.setattr(module, name, spy)
    return shapes


@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_a_lone_step_calls_a_wrapper_installed_after_the_learner_was_built(monkeypatch, cls):
    build, shape, module, name = CLASSES[cls]
    grads = np.random.default_rng(3).standard_normal((5, *shape))
    reference, learner = build(), build()
    shapes = counting(monkeypatch, module, name)
    for g in grads:
        assert learner.step(g).tobytes() == reference.step(g).tobytes()
    assert shapes == [shape] * 10  # the reference's steps and the learner's


@pytest.mark.parametrize("kind,shape,algorithms", [
    ("logistic", (20,), {"exp_md": (learners, "omd_step"), "exp_ftrl": (learners, "ftrl_step")}),
    ("multitask", (6, 3), {"spectral_exp_md": (spectral, "spectral_omd_step"),
                           "spectral_exp_ftrl": (spectral, "spectral_ftrl_step")}),
])
def test_every_exponentiated_stack_steps_through_a_wrapper_installed_before_the_run(
    monkeypatch, kind, shape, algorithms
):
    spec = ExperimentSpec(kind=kind, dim=shape[0], tasks=shape[-1] if kind == "multitask" else 1,
                          rank=1, horizon=12, trials=3, algorithms=tuple(algorithms), seed=11)
    shapes = {name: counting(monkeypatch, *at) for name, at in algorithms.items()}
    records, failures = run_experiment(spec)
    assert not failures and len(records) == 2 * 3 * 12
    # each algorithm's runs step as one stack of all trials, once a round
    assert shapes == {name: [(3, *shape)] * 12 for name in algorithms}


class CountingExpMd(ExpMd):
    calls = 0  # over all instances: the harness builds one per trial

    def step(self, g, h_next=None, reg_weight=1.0):
        type(self).calls += 1
        return super().step(g, h_next, reg_weight)


class CountingAdaGrad(AdaGrad):
    calls = 0

    def step(self, g, h_next=None, reg_weight=1.0):
        type(self).calls += 1
        return super().step(g, h_next, reg_weight)


def test_a_subclass_that_overrides_step_steps_alone_through_its_step(monkeypatch):
    spec = ExperimentSpec(kind="logistic", dim=20, horizon=10, trials=3,
                          algorithms=("exp_md", "adagrad"), seed=5)
    expected, _ = run_experiment(spec)
    build = registry.build_vector_learner

    def subclassed(name, dim, radius):
        base = build(name, dim, radius)
        if name == "exp_md":
            return CountingExpMd(base.sched, base.mode)
        return CountingAdaGrad(dim, base.mode)

    monkeypatch.setattr(registry, "build_vector_learner", subclassed)
    for cls in (CountingExpMd, CountingAdaGrad):
        monkeypatch.setattr(cls, "calls", 0)
    shapes = [counting(monkeypatch, learners, "omd_step"),
              counting(monkeypatch, baselines, "adagrad_step")]
    records, failures = run_experiment(spec)
    assert not failures
    assert (CountingExpMd.calls, CountingAdaGrad.calls) == (30, 30)
    # every step of either class is one run's, through the subclass's own step
    assert shapes == [[(20,)] * 30, [(20,)] * 30]
    assert records == expected

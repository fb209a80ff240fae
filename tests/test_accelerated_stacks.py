"""Accelerated black-box runs stepped and scored as stacks, each row bit for bit alone.

The accelerated runs of a black-box spec stack as their inner learners do, across trials and
batch sizes, on the trials' one shared elastic-net regularizer.  A stack's state holds each
row's averaging and inner state, and a round scores the stack with one call of each trial's
smooth part on the points of all its rows.  Records and failures are those of every run
played alone.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from expopt import CompositeRegularizer, NumericRangeError, learners
from expopt.accelerate import AccelState, Accelerator
from expopt.harness import ExperimentSpec, experiments, registry, run_experiment, streams


def same(a, b) -> bool:
    """Equal bit for bit, through dataclasses and arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (np.ndarray, float, np.floating)):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


def blackbox_accel_spec():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    return ExperimentSpec.from_dict(workloads.make_spec("blackbox-accel", 7))


def test_blackbox_accel_plays_three_stacks_with_one_smooth_call_per_trial_and_round(
    monkeypatch,
):
    spec = blackbox_accel_spec()
    expected = run_experiment(spec)
    stacks, calls, lone_steps = [], [], []
    stack, smooth, step = experiments.stack, streams.BlackboxComposite.smooth, Accelerator.step

    def stack_spy(runs):
        stacks.append([type(run.learner).__name__ for run in runs])
        return stack(runs)

    def smooth_spy(problem, x):
        calls.append(np.shape(x))
        return smooth(problem, x)

    monkeypatch.setattr(experiments, "stack", stack_spy)
    monkeypatch.setattr(streams.BlackboxComposite, "smooth", smooth_spy)
    monkeypatch.setattr(Accelerator, "step", lambda *a: lone_steps.append(1) or step(*a))
    assert run_experiment(spec) == expected
    # each exponentiated family's 4 runs (2 trials, batch 1 and sqrt(T)) and the diagonal 8
    assert sorted(map(len, stacks)) == [4, 4, 8]
    assert sorted(map(sorted, stacks)) == [["AdaFtrl"] * 4 + ["AdaGrad"] * 4,
                                           ["ExpFtrl"] * 4, ["ExpMd"] * 4]
    assert not lone_steps
    # 3 stacks x 2 trials x 300 rounds, each on 2 rows of 1 + 1 points and 2 of 1 + 17 per
    # family: where every run alone made 2 calls a round, 16 x 2 x 300 = 9 600
    assert len(calls) == 3 * spec.trials * spec.horizon == 1800
    assert sorted(set(calls)) == [(2 + 18, spec.dim), (2 * (2 + 18), spec.dim)]


# each family's 4 rows alone, and the diagonal 8 as blackbox-accel stacks them
@pytest.mark.parametrize("names", [(name,) * 4 for name in registry.ACCELERATED_ALGORITHMS]
                         + [("acc_adagrad", "acc_adaftrl") * 4])
def test_a_stack_of_accelerators_steps_each_row_as_alone(names):
    # rows from gradients of very different sizes: some with no active prox entry at all
    dim, scales = 20, np.resize([1e-4, 1e-2, 1.0, 30.0], len(names))

    def build(name):
        return Accelerator(registry.accelerated_family(name, dim, CompositeRegularizer(0.5, 0.5))[0])

    alone, rows = [build(name) for name in names], [build(name) for name in names]
    stacked = learners.stack(rows)
    keys = {learners.stack_key(row) for row in rows}
    assert len(keys) == 1 and None not in keys
    assert isinstance(stacked.state, AccelState)
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = rng.standard_normal((len(names), dim)) * scales[:, None]
        stacked.step(g)
        for j, acc in enumerate(alone):
            acc.step(g[j])
            row = learners.row_of(stacked.state, j)
            assert same(row, acc.state)
            assert same(row.inner, acc.learner.state)
            assert stacked.x[j].tobytes() == acc.x.tobytes()
    # a row set back on its run steps on alone as the run alone does
    for j, acc in enumerate(alone):
        rows[j].state = learners.row_of(stacked.state, j)
        assert rows[j].learner.state is rows[j].state.inner
        g = rng.standard_normal(dim)
        assert rows[j].step(g).tobytes() == acc.step(g).tobytes()
        assert same(rows[j].learner.state, acc.learner.state)


def test_an_accelerator_around_an_unstackable_learner_steps_alone():
    class Duck:  # only ``x`` and ``step``
        x = np.zeros(3)

        def step(self, g, h_next=None, reg_weight=1.0):
            self.x = self.x - 0.1 * g

    inner = registry.accelerated_family("acc_exp_md", 3, CompositeRegularizer(0.5, 0.5))[0]
    inner.step = inner.step  # a patched step
    assert learners.stack_key(Accelerator(Duck())) is None
    assert learners.stack_key(Accelerator(inner)) is None


ALGORITHMS = registry.ACCELERATED_ALGORITHMS


def hit(x, share):
    """Whether each point of ``x`` is faulted: its coordinates' sum hashes below ``share`` (the
    origin, every run's first query point, does not).  Keyed on the points, so that a run sees
    the same faults whether it is scored alone or as a row of a stack."""
    return np.modf(np.abs(np.sum(np.atleast_2d(x), axis=1)) * 1e4 + 0.5)[0] < share


def faulty_smooth(clean, fault, share):
    """The smooth part, faulted at the points :func:`hit` picks: NaN there, a value so large
    that the inner step's square of the estimate overflows, or a raise from any call that holds
    one."""

    def smooth(problem, x):
        x = np.asarray(x, dtype=float)
        values, faulted = clean(problem, x), hit(x, share)
        if fault == "raise" and faulted.any():
            raise np.linalg.LinAlgError("smooth part failed")
        if fault in ("nan", "huge") and faulted.any():
            bad = np.nan if fault == "nan" else 1e300
            return bad if x.ndim == 1 else np.where(faulted, bad, values)
        return values

    return smooth


def faulty_draw(clean, share):
    """The estimator's draw, raising at the query points :func:`hit` picks, as a draw whose
    points overflow does."""

    def draw(z, cfg, rng):
        if hit(z, share).any():
            raise NumericRangeError("two-point points overflow")
        return clean(z, cfg, rng)

    return draw


# no shrink phase, as in test_nonfinite_properties.py: a failing case is reported as drawn
@settings(derandomize=True, max_examples=200, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(dim=st.integers(1, 8), horizon=st.integers(0, 12), trials=st.integers(1, 4),
       algorithms=st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2**16), fault=st.sampled_from([None, "nan", "huge", "raise", "draw"]),
       share=st.sampled_from([0.002, 0.02, 0.1]))
def test_the_blackbox_play_is_lone_play(dim, horizon, trials, algorithms, seed, fault, share):
    spec = ExperimentSpec(kind="blackbox", dim=dim, horizon=horizon, trials=trials,
                          algorithms=tuple(algorithms), seed=seed, sparsity=0.0)
    clean = streams.BlackboxComposite.smooth
    with pytest.MonkeyPatch.context() as patch:
        if fault == "draw":
            patch.setattr(experiments, "two_point_draw", faulty_draw(experiments.two_point_draw,
                                                                     share))
        elif fault:
            patch.setattr(streams.BlackboxComposite, "smooth", faulty_smooth(clean, fault, share))
        records, failures = run_experiment(spec)
        patch.setattr(experiments, "stack_key", lambda learner: None)
        alone = run_experiment(spec)
    assert [repr(r) for r in records] == [repr(r) for r in alone[0]]
    assert [repr(f) for f in failures] == [repr(f) for f in alone[1]]

"""Property: a step on non-finite or extreme input is rejected whole, or it is finite.

Every registered learner is fed gradients and hints drawn from NaN, ±inf,
±1e308, ±1e-308 and ordinary floats, and a regularizer weight that is mostly
finite and nonnegative but sometimes NaN, ±inf or negative.  Each step must
either raise :class:`NumericRangeError` (``ValueError`` for a negative
weight) and leave ``learner.state`` and ``learner.x`` as they were, or
return a finite point.  No step runs under a test's own
``np.errstate``, so a floating-point warning raised inside ``expopt`` fails
the test (the project's pytest settings make it an error).
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from expopt import CompositeRegularizer, NumericRangeError
from expopt.harness import registry

EXTREMES = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1e-308, -1e-308, 0.0]
DIM = 3
SHAPE = (3, 2)


def build(family, name):
    if family == "vector":
        return registry.build_vector_learner(name, DIM, 2.0)
    if family == "matrix":
        return registry.build_matrix_learner(name, *SHAPE, 2.0)
    return registry.accelerated_family(name, DIM, CompositeRegularizer(l1=0.5, l2=0.5))[0]


CASES = (
    [("vector", n) for n in registry.VECTOR_ALGORITHMS]
    + [("matrix", n) for n in registry.MATRIX_ALGORITHMS]
    + [("accelerated", n) for n in registry.ACCELERATED_ALGORITHMS]
)

entries = st.one_of(st.sampled_from(EXTREMES), st.floats(-10.0, 10.0))


def arrays(size):
    return st.lists(entries, min_size=size, max_size=size)


# a finite nonnegative weight three times in four
weights = st.one_of(
    *[st.floats(0.0, 1e308)] * 3, st.sampled_from([np.nan, np.inf, -np.inf, -1e-308, -1.0])
)


def rounds(size):
    """Up to four (g, h_next, reg_weight) rounds; a hint is absent a quarter of the time."""
    hint = st.one_of(st.none(), arrays(size), arrays(size), arrays(size))
    return st.lists(st.tuples(arrays(size), hint, weights), min_size=1, max_size=4)


def same(a, b) -> bool:
    """Equal bit for bit, through dataclasses, tuples and arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, (np.ndarray, float, np.floating)):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("family,name", CASES)
# no shrink phase: a failing case is reported as drawn, within seconds, where
# shrinking it took minutes
@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(data=st.data())
def test_step_rejects_whole_or_returns_finite(family, name, data):
    learner = build(family, name)
    shape = learner.x.shape
    for g, h, weight in data.draw(rounds(int(np.prod(shape)))):
        g = np.reshape(g, shape)
        h = None if h is None else np.reshape(h, shape)
        state, x = copy.deepcopy(learner.state), learner.x.copy()
        bad_weight = (
            NumericRangeError if not math.isfinite(weight) else ValueError if weight < 0 else None
        )
        try:
            out = learner.step(g, h_next=h, reg_weight=weight)
        except (NumericRangeError, ValueError) as err:
            assert type(err) is (bad_weight or NumericRangeError)
            assert same(learner.state, state)
            assert same(learner.x, x)
        else:
            assert bad_weight is None
            assert np.isfinite(out).all()
            assert out is learner.x or np.array_equal(out, learner.x)

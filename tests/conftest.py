"""Shared fixtures."""

import inspect
import os
import sys

import numpy as np
import pytest

from expopt import BallConstraint, cli, prox

_NUMPY_DIR = os.path.dirname(np.__file__)
_L1_PROJECTION = inspect.unwrap(prox.l1_ball_project).__code__


def _numpy_calls(run) -> int:
    """Calls into numpy made from the frame of ``l1_ball_project`` while ``run()`` runs.

    A C function shows as a ``c_call`` event in that frame (its module is
    noted), a Python function as a ``call`` event of a frame one below it
    (its file is noted).  Ufuncs and operators make no event.
    """
    callees = []

    def hook(frame, event, arg):
        if event == "c_call" and frame.f_code is _L1_PROJECTION:
            callees.append(str(getattr(arg, "__module__", "")))
        elif event == "call" and frame.f_back and frame.f_back.f_code is _L1_PROJECTION:
            callees.append(frame.f_code.co_filename)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return sum(callee.startswith(("numpy", _NUMPY_DIR)) for callee in callees)


@pytest.fixture
def l1_ops(monkeypatch):
    """``ops(y, radius, p)``: the ``(sorts, numpy calls)`` of one ``l1_ball_project``.

    Sorts are counted by a spy on ``np.sort``; numpy calls by a profile hook
    on the projection's own frame, so a Python loop over the coordinates
    that calls numpy shows as a count that grows with ``d``.
    """
    sort = np.sort

    def ops(y, radius, p):
        ball = BallConstraint(radius)
        sorts = []

        def spy(*args, **kwargs):
            sorts.append(args)
            return sort(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "sort", spy)
            prox.l1_ball_project(y, ball, p)
        return len(sorts), _numpy_calls(lambda: prox.l1_ball_project(y, ball, p))

    return ops


@pytest.fixture
def pin_blas():
    """``set_(threads)`` pins OpenBLAS's thread count; the count is restored afterwards."""
    blas = cli._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    _, get, set_ = blas
    before = get()
    yield set_
    set_(before)


@pytest.fixture
def index():
    """A type whose values are integers to ``operator.index`` and nothing else, as the
    ``ExperimentSpec`` fields and ``EstimatorConfig.batch`` take them."""

    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    return Index

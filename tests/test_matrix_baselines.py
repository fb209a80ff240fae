"""AdaGrad/AdaFtrl on an ``(m, n)`` shape, built directly or by the registry's matrix
``adagrad``/``adaftrl``: each decision has the bits of the vector step on the flattening,
then a Frobenius-metric nuclear projection."""

import numpy as np
import pytest

from expopt import AdaFtrl, AdaGrad, BallConstraint, adaftrl_step, adagrad_step, diag_init
from expopt import euclidean_nuclear_ball_project
from expopt.harness import registry

M, N, RADIUS = 4, 3, 1.5
BUILD = {
    "adagrad": lambda: registry.build_matrix_learner("adagrad", M, N, RADIUS),
    "adaftrl": lambda: registry.build_matrix_learner("adaftrl", M, N, RADIUS),
    "AdaGrad": lambda: AdaGrad((M, N), mode=BallConstraint(RADIUS)),
    "AdaFtrl": lambda: AdaFtrl((M, N), mode=BallConstraint(RADIUS)),
}


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference(step, gs, hs, weights):
    """Decisions of ``step`` on the flattened gradients, each projected onto the nuclear ball."""
    state = diag_init(M * N)
    out = []
    for g, h, w in zip(gs, hs, weights):
        h_flat = None if h is None else h.ravel()
        state, target = step(state, g.ravel(), None, h_flat, w)
        x = euclidean_nuclear_ball_project(target.reshape(M, N), RADIUS)
        state = type(state)(
            state.h_diag, state.g_accum, x.ravel(), state.h_prev, state.round, state.reg_rounds
        )
        out.append(x)
    return out


@pytest.mark.parametrize("name, step", [
    ("adagrad", adagrad_step), ("adaftrl", adaftrl_step),
    ("AdaGrad", adagrad_step), ("AdaFtrl", adaftrl_step),
])
@pytest.mark.parametrize("with_hints", [False, True])
def test_matches_flattened_step_then_nuclear_projection(name, step, with_hints):
    rng = np.random.default_rng(3)
    rounds = 40
    gs = rng.normal(0.0, 1.0, (rounds, M, N))
    hs = [0.7 * g + rng.normal(0.0, 0.2, (M, N)) for g in gs[1:]] + [np.zeros((M, N))]
    if not with_hints:
        hs = [None] * rounds
    weights = rng.uniform(0.5, 2.0, rounds)
    learner = BUILD[name]()
    assert same_bytes(learner.x, np.zeros((M, N)))
    expected = reference(step, gs, hs, weights)
    projected = 0
    for g, h, w, want in zip(gs, hs, weights, expected):
        got = learner.step(g, h_next=h, reg_weight=w)
        assert same_bytes(got, want)
        assert same_bytes(learner.x, want)
        assert np.sum(np.linalg.svd(got, compute_uv=False)) <= RADIUS * (1 + 1e-12)
        projected += np.isclose(np.sum(np.linalg.svd(got, compute_uv=False)), RADIUS)
    assert projected > 0  # the projection was active on some rounds
    if with_hints:
        assert same_bytes(learner.state.h_prev, hs[-1])
        assert learner.state.reg_rounds == pytest.approx(1.0 + weights.sum())


def test_hints_change_the_decisions():
    rng = np.random.default_rng(4)
    g = rng.normal(0.0, 1.0, (M, N))
    h = rng.normal(0.0, 1.0, (M, N))
    plain = registry.build_matrix_learner("adagrad", M, N, RADIUS)
    hinted = registry.build_matrix_learner("adagrad", M, N, RADIUS)
    assert not np.array_equal(plain.step(g), hinted.step(g, h_next=h))

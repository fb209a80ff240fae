"""One contract for every ball projection, and the dual-point resolver built on it.

Inside the ball the input passes through (the log-domain projection returns
its primal image ``beta*expm1(L)*signs``), on the boundary too; outside it
lands on the sphere; a non-finite input raises ``NumericRangeError``.
"""

import math

import numpy as np
import pytest

from expopt import (
    BallConstraint,
    EntropyParams,
    NumericRangeError,
    euclidean_nuclear_ball_project,
    l1_ball_project,
    l1_ball_project_from_log,
    nuclear_ball_project,
    nuclear_norm,
    nuclear_project_or_pass,
    resolve_dual_point,
    weighted_l1_ball_project,
)
from expopt.entropy import EXP_ARG_LIMIT

P = EntropyParams(1.0, 0.25)


def from_log(y, radius):
    L = np.log1p(np.abs(y) / P.beta)
    return l1_ball_project_from_log(L, np.sign(y), BallConstraint(radius), P)


def l1_norm(y):
    return float(np.sum(np.abs(y)))


# name: (projection(y, radius), norm of the ball, whether it acts on matrices)
PROJECTIONS = {
    "l1_ball_project": (lambda y, r: l1_ball_project(y, BallConstraint(r), P), l1_norm, False),
    "l1_ball_project_from_log": (from_log, l1_norm, False),
    "weighted_l1_ball_project": (
        lambda y, r: weighted_l1_ball_project(y, np.linspace(0.5, 2.0, y.size), r),
        l1_norm,
        False,
    ),
    "nuclear_ball_project": (
        lambda y, r: nuclear_ball_project(y, BallConstraint(r), P),
        nuclear_norm,
        True,
    ),
    "euclidean_nuclear_ball_project": (euclidean_nuclear_ball_project, nuclear_norm, True),
}


def point(a, b, matrix):
    """``[a, b]``, or for the nuclear projections the 3x2 matrix with diagonal ``(a, b)``."""
    if not matrix:
        return np.array([a, b])
    return np.array([[a, 0.0], [0.0, b], [0.0, 0.0]])


def passed_through(name, y):
    if name == "l1_ball_project_from_log":
        return P.beta * np.expm1(np.log1p(np.abs(y) / P.beta)) * np.sign(y)
    return y


@pytest.mark.parametrize("name", PROJECTIONS)
class TestBallContract:
    def test_inside_passes_through(self, name):
        project, _, matrix = PROJECTIONS[name]
        y = point(0.375, -0.125, matrix)
        out = project(y, 1.0)
        assert out is not y
        assert out.tobytes() == passed_through(name, y).tobytes()

    def test_exact_boundary_passes_through(self, name):
        # |0.25| + |-0.25| == 0.5 exactly, and with beta = 0.25 the log-domain
        # test compares ln 2 + ln 2 with ln 4, also exactly equal
        project, norm, matrix = PROJECTIONS[name]
        y = point(0.25, -0.25, matrix)
        assert norm(y) == 0.5
        out = project(y, 0.5)
        assert out.tobytes() == passed_through(name, y).tobytes()

    @pytest.mark.parametrize("shrink", [0.999, 0.5, 0.01])
    def test_outside_lands_on_the_sphere(self, name, shrink):
        project, norm, matrix = PROJECTIONS[name]
        y = point(3.0, -1.5, matrix)
        radius = shrink * norm(y)
        assert norm(project(y, radius)) == pytest.approx(radius, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises(self, name, bad):
        project, _, matrix = PROJECTIONS[name]
        y = point(1.0, 2.0, matrix)
        y.flat[0] = bad
        with pytest.raises(NumericRangeError):
            project(y, 10.0)


def test_l1_ops_count_the_pass_through(l1_ops):
    assert l1_ops(np.array([0.25, -0.5]), 1.0, P)[0] == 0
    assert l1_ops(np.array([2.5, -0.5]), 1.0, P)[0] == 1
    calls = set()
    for d in (200, 20_000):
        y = np.random.default_rng(d).uniform(-5, 5, d)
        inside, outside = l1_ops(y, 2 * l1_norm(y), P), l1_ops(y, 1.0, P)
        assert inside[0] == 0 and outside[0] == 1
        calls.add((inside[1], outside[1]))
    assert len(calls) == 1  # the same numpy calls at both sizes


@pytest.mark.parametrize("radius", [10.0, 0.5])
def test_nuclear_projection_factors_once(monkeypatch, radius):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    y = np.arange(6.0).reshape(3, 2)
    nuclear_project_or_pass(y, BallConstraint(radius), P)
    assert len(calls) == 1


# The resolver's bodies before the projection decided feasibility itself:
# a log-sum-exp ball test ahead of the pivot projection, and its own copy
# of the inverse mirror map in free mode.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def reference_logsumexp(values):
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def reference_pivot(L, signs, ball, p):
    radius = ball.radius
    beta = p.beta
    ratios = np.exp(L - np.max(L))
    active = ratios
    for _ in range(L.size):
        k = active.size
        total = float(np.sum(active))
        cut = min(total * beta / (radius + k * beta), _BELOW_ONE)
        kept = active[active > cut]
        if kept.size == k:
            break
        active = kept
    out = np.maximum((radius + k * beta) / total * ratios - beta, 0.0)
    return out * signs


def reference_resolve(z, p, mode):
    scale = np.abs(z) / p.alpha
    signs = np.sign(z)
    if mode is None:
        if float(np.max(scale)) > EXP_ARG_LIMIT:
            raise NumericRangeError("free-mode iterate exceeds the floating-point range")
        return p.beta * np.expm1(scale) * signs
    if reference_logsumexp(scale) <= math.log(mode.radius / p.beta + scale.size):
        return p.beta * np.expm1(scale) * signs
    return reference_pivot(scale, signs, mode, p)


def reference_inside(scale, radius, beta):
    return reference_logsumexp(scale) <= math.log(radius / beta + scale.size)


def boundary_radius(scale, beta):
    """The smallest radius the reference ball test still calls feasible."""
    r = beta * (math.exp(reference_logsumexp(scale)) - scale.size)
    while not reference_inside(scale, r, beta):
        r = math.nextafter(r, math.inf)
    while reference_inside(scale, math.nextafter(r, 0.0), beta):
        r = math.nextafter(r, 0.0)
    return r


@pytest.mark.parametrize("d", [1, 5, 500, 20_000])
class TestResolveDualPointMatchesReference:
    def dual_point(self, d):
        rng = np.random.default_rng(d)
        p = EntropyParams(0.7, 1.0 / d)
        z = rng.standard_normal(d) * rng.exponential(3.0, d)
        return z, p

    def test_ball_mode(self, d):
        z, p = self.dual_point(d)
        scale = np.abs(z) / p.alpha
        mass = float(np.sum(p.beta * np.expm1(scale)))
        edge = boundary_radius(scale, p.beta)
        radii = {
            "feasible": 2.0 * mass,
            "infeasible": 0.1 * mass,
            "boundary": edge,
            "just outside": math.nextafter(edge, 0.0),
        }
        for label, radius in radii.items():
            ball = BallConstraint(radius)
            want = reference_resolve(z, p, ball)
            got = resolve_dual_point(z, p, ball)
            assert got.tobytes() == want.tobytes(), label

    def test_free_mode(self, d):
        z, p = self.dual_point(d)
        assert resolve_dual_point(z, p, None).tobytes() == reference_resolve(z, p, None).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_free_mode_rejects_a_non_finite_dual_point(bad):
    z = np.array([bad, 0.5, -0.5])
    with pytest.raises(NumericRangeError):
        resolve_dual_point(z, EntropyParams(1.0, 0.5), None)


@pytest.mark.parametrize("name", ["nuclear_ball_project", "euclidean_nuclear_ball_project"])
def test_nuclear_projections_reject_infinity_before_factoring(name):
    # on this input LAPACK's SVD with singular vectors did not return within 20 s
    project = PROJECTIONS[name][0]
    y = np.random.default_rng(1).standard_normal((5, 4))
    y[0, 0] = math.inf
    with pytest.raises(NumericRangeError):
        project(y, 1.0)

"""Elastic-net prox and sorted l1-ball Bregman projection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expopt import (
    BallConstraint,
    CompositeRegularizer,
    EntropyParams,
    NumericRangeError,
    bregman_div,
    elastic_net_prox,
    elastic_net_prox_from_log,
    l1_ball_project,
    l1_ball_project_from_log,
    project_or_pass,
)

UNIT = EntropyParams(1.0, 1.0)


def bisect_stationarity(abs_y, reg, p, tol=1e-12):
    """Oracle: coordinatewise bisection on the prox optimality equation.

    Solves ln(|y|/beta + 1) = ln(m/beta + 1) + l1/alpha + (l2/alpha) m
    for m >= 0, or returns 0 when the threshold branch applies.
    """
    target = math.log1p(abs_y / p.beta)
    if target <= reg.l1 / p.alpha:
        return 0.0
    lo, hi = 0.0, abs_y  # m <= |y| since the rhs is increasing in m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = math.log1p(mid / p.beta) + reg.l1 / p.alpha + reg.l2 * mid / p.alpha
        if val < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def euclidean_l1_project(v, radius):
    """In-test Euclidean projection onto the l1 ball (sorting method)."""
    if np.sum(np.abs(v)) <= radius:
        return v.copy()
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.max(np.where(u - (css - radius) / ks > 0)[0])
    theta = (css[rho] - radius) / (rho + 1)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


class TestElasticNetProx:
    def test_threshold_branch(self):
        # ln(2) <= 1 sends the coordinate to zero
        reg = CompositeRegularizer(l1=1.0, l2=0.0)
        assert elastic_net_prox(np.array([1.0]), reg, UNIT)[0] == 0.0

    def test_l1_only_closed_form(self):
        # exp(ln 4 - ln 2) - 1 = 1
        reg = CompositeRegularizer(l1=math.log(2.0), l2=0.0)
        out = elastic_net_prox(np.array([3.0]), reg, UNIT)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_without_regularizer(self):
        y = np.array([3.0, -0.2, 0.0, 11.0])
        out = elastic_net_prox(y, CompositeRegularizer(), UNIT)
        assert np.array_equal(out, y)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(12)
        p = EntropyParams(0.8, 0.1)
        reg = CompositeRegularizer(l1=0.4, l2=0.5)
        y = rng.uniform(-10, 10, 20)
        out = elastic_net_prox(y, reg, p)
        for yi, xi in zip(y, out):
            m = bisect_stationarity(abs(yi), reg, p)
            assert xi == pytest.approx(math.copysign(m, yi) if m else 0.0, abs=1e-9)

    def test_sign_preservation(self):
        rng = np.random.default_rng(13)
        y = rng.uniform(-5, 5, 50)
        out = elastic_net_prox(y, CompositeRegularizer(0.1, 0.2), EntropyParams(0.5, 0.2))
        assert np.all((out == 0) | (np.sign(out) == np.sign(y)))

    def test_subgradient_optimality_certificate(self):
        # interior coordinates satisfy stationarity; zeros satisfy the threshold
        rng = np.random.default_rng(14)
        p = EntropyParams(1.3, 0.25)
        for l2 in (0.0, 0.1, 10.0):
            reg = CompositeRegularizer(l1=0.6, l2=l2)
            y = rng.uniform(-8, 8, 30)
            x = elastic_net_prox(y, reg, p)
            for yi, xi in zip(y, x):
                lhs = math.log1p(abs(yi) / p.beta)
                if xi == 0.0:
                    assert lhs <= reg.l1 / p.alpha + 1e-12
                else:
                    rhs = math.log1p(abs(xi) / p.beta) + reg.l1 / p.alpha + reg.l2 * abs(xi) / p.alpha
                    assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_log_domain_agrees_with_primal(self):
        rng = np.random.default_rng(15)
        p = EntropyParams(0.7, 0.05)
        reg = CompositeRegularizer(0.2, 0.8)
        y = rng.uniform(-20, 20, 40)
        a = elastic_net_prox(y, reg, p)
        b = elastic_net_prox_from_log(np.log1p(np.abs(y) / p.beta), np.sign(y), reg, p)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_log_domain_survives_huge_duals(self):
        # scales equivalent to |y| ~ beta * e^900: the naive route overflows
        p = EntropyParams(1.0, 0.5)
        reg = CompositeRegularizer(l1=1.0, l2=0.3)
        log_scale = np.array([900.0, 5.0, 0.1])
        out = elastic_net_prox_from_log(log_scale, np.array([1.0, -1.0, 1.0]), reg, p)
        assert np.all(np.isfinite(out))
        m = out[0]
        resid = math.log1p(m / p.beta) + reg.l1 / p.alpha + reg.l2 * m / p.alpha - 900.0
        assert abs(resid) <= 1e-9 * 900.0


class TestL1BallProjection:
    def test_pass_through_when_feasible(self):
        y = np.array([0.5, -0.25, 0.0])
        out = project_or_pass(y, BallConstraint(2.0), UNIT)
        assert np.array_equal(out, y)
        zero = project_or_pass(np.zeros(3), BallConstraint(1.0), UNIT)
        assert np.array_equal(zero, np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises(self, bad):
        y = np.array([1.0, bad, 2.0])
        with pytest.raises(NumericRangeError):
            l1_ball_project(y, BallConstraint(1.0), UNIT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_checked_projection_raises_on_non_finite_input(self, bad):
        with pytest.raises(NumericRangeError):
            project_or_pass(np.array([1.0, bad, 2.0]), BallConstraint(1.0), UNIT)

    def test_overflowing_l1_norm_raises(self):
        y = np.array([1e308, -1e308, 1.0])
        with pytest.raises(NumericRangeError):
            project_or_pass(y, BallConstraint(1.0), UNIT)

    def test_constant_vector_projects_to_uniform(self):
        d, c, radius = 6, 2.0, 3.0
        out = l1_ball_project(np.full(d, c), BallConstraint(radius), EntropyParams(1.0, 0.2))
        assert np.allclose(out, radius / d)

    def test_worked_instance(self):
        p = EntropyParams(1.0, 0.25)
        y = np.array([5.0, -2.0, 0.5, -0.1])
        out = l1_ball_project(y, BallConstraint(2.0), p)
        assert np.allclose(out, [1.5, -0.5, 0.0, 0.0], atol=1e-12)

    def test_matches_projected_gradient_oracle(self):
        # generic constrained-minimization oracle on min B(x, y) s.t. ||x||_1 <= D
        rng = np.random.default_rng(16)
        p = EntropyParams(1.0, 0.25)
        y = np.array([5.0, -2.0, 0.5, -0.1])
        radius = 2.0

        x = euclidean_l1_project(y, radius)
        grad_y = p.alpha * np.log1p(np.abs(y) / p.beta) * np.sign(y)
        for _ in range(100_000):
            grad = p.alpha * np.log1p(np.abs(x) / p.beta) * np.sign(x) - grad_y
            x = euclidean_l1_project(x - 2e-3 * grad, radius)
        ours = l1_ball_project(y, BallConstraint(radius), p)
        assert np.allclose(ours, x, atol=1e-6)

    def test_feasibility_random(self):
        rng = np.random.default_rng(17)
        p = EntropyParams(0.5, 0.1)
        for _ in range(300):
            d = rng.integers(1, 40)
            y = rng.uniform(-10, 10, d)
            total = np.sum(np.abs(y))
            if total == 0:
                continue
            radius = float(total * rng.uniform(0.05, 0.95))
            out = l1_ball_project(y, BallConstraint(radius), p)
            assert abs(np.sum(np.abs(out)) - radius) <= 1e-10 * max(radius, 1.0)
            assert np.all((out == 0) | (np.sign(out) == np.sign(y)))

    def test_support_monotone_in_magnitude(self):
        rng = np.random.default_rng(18)
        p = EntropyParams(1.0, 0.2)
        y = rng.uniform(-4, 4, 12)
        out = np.abs(l1_ball_project(y, BallConstraint(1.5), p))
        order = np.argsort(np.abs(y))
        assert np.all(np.diff(out[order]) >= -1e-12)

    def test_optimality_against_random_feasible_points(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            y = rng.uniform(-6, 6, d)
            radius = float(np.sum(np.abs(y)) * rng.uniform(0.2, 0.9))
            if radius <= 0:
                continue
            beta = float(rng.uniform(0.05, 1.0))
            p = EntropyParams(1.0, beta)
            ours = l1_ball_project(y, BallConstraint(radius), p)
            val = bregman_div(ours, y, p)
            # random feasible candidates never beat the projection
            cand = rng.uniform(-1, 1, (100, d))
            cand *= (radius * rng.uniform(0, 1, (100, 1))) / np.maximum(
                np.sum(np.abs(cand), axis=1, keepdims=True), 1e-12
            )
            for c in cand:
                assert val <= bregman_div(c, y, p) + 1e-8

    def test_log_domain_agrees(self):
        rng = np.random.default_rng(20)
        p = EntropyParams(1.0, 0.3)
        y = rng.uniform(-9, 9, 25)
        radius = 0.4 * np.sum(np.abs(y))
        a = l1_ball_project(y, BallConstraint(radius), p)
        b = l1_ball_project_from_log(
            np.log1p(np.abs(y) / p.beta), np.sign(y), BallConstraint(radius), p
        )
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_log_domain_handles_huge_scales(self):
        p = EntropyParams(1.0, 0.5)
        L = np.array([900.0, 850.0, 2.0])
        out = l1_ball_project_from_log(L, np.array([1.0, -1.0, 1.0]), BallConstraint(3.0), p)
        assert np.all(np.isfinite(out))
        assert np.sum(np.abs(out)) == pytest.approx(3.0, abs=1e-10)

    def test_operation_count(self):
        # one sort plus a d-independent number of linear passes
        p = EntropyParams(1.0, 0.1)
        counts = []
        for d in (100, 10_000):
            y = np.random.default_rng(d).uniform(-5, 5, d)
            ops = {}
            l1_ball_project(y, BallConstraint(1.0), p, ops=ops)
            counts.append(ops)
        assert counts[0]["sorts"] == counts[1]["sorts"] == 1
        assert counts[0]["passes"] == counts[1]["passes"]


def sorted_log_projection(L, signs, radius, beta):
    """Reference: the sort-based log-domain projection the pivot replaced.

    Sorts ``L``, takes suffix log-sum-exps and finds the support breakpoint
    by a linear scan, as :func:`l1_ball_project` does on the primal side.
    """
    d = L.size
    Ls = np.sort(L)
    S = np.logaddexp.accumulate(Ls[::-1])[::-1]
    counts = np.arange(d, 0, -1, dtype=float)
    crit = Ls + np.log(radius + counts * beta) - np.log(beta) - S
    rho = int(np.argmax(crit > 0))
    k = d - rho
    return np.maximum((radius + k * beta) * np.exp(L - S[rho]) - beta, 0.0) * signs


def pivot_cases():
    """(log_scale, signs, radius, beta) cases across sizes and support shapes."""
    rng = np.random.default_rng(21)
    cases = []
    for d in (1, 2, 3, 17, 500, 4096, 20_000):
        beta = 1.0 / d
        L = rng.exponential(2.0, d)
        signs = rng.choice([-1.0, 1.0], d)
        mass = float(np.sum(beta * np.expm1(L)))
        for share in (0.999, 0.5, 0.05, 1e-4):  # support from about d down to 1
            cases.append((L, signs, share * mass, beta))
        # ties: a handful of distinct magnitudes
        Lt = rng.choice(rng.exponential(2.0, 4), d)
        cases.append((Lt, signs, 0.3 * float(np.sum(beta * np.expm1(Lt))), beta))
        # all magnitudes equal, and a single dominant coordinate
        cases.append((np.full(d, 3.0), signs, 0.4 * d * beta * math.expm1(3.0), beta))
        spike = np.full(d, 0.5)
        spike[d // 2] = 40.0
        cases.append((spike, signs, 1.0, beta))
    return cases


class TestL1BallPivot:
    """The sort-free log-domain projection against sorted references."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_scale_raises(self, bad):
        L = np.array([1.0, bad, 2.0])
        with pytest.raises(NumericRangeError):
            l1_ball_project_from_log(L, np.ones(3), BallConstraint(1.0), EntropyParams(1.0, 0.5))

    def test_largest_coordinate_stays_active_under_rounding(self):
        # radius + k*beta rounds to k*beta, so the drop threshold computes
        # to the largest coordinate's own ratio; it must still stay active
        L = np.full(4, 2.0)
        out = l1_ball_project_from_log(L, np.ones(4), BallConstraint(1e-20), EntropyParams(1.0, 1.0))
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.0)
        assert np.sum(out) <= 1e-15

    def test_matches_sorted_primal(self):
        for L, signs, radius, beta in pivot_cases():
            p = EntropyParams(1.0, beta)
            y = beta * np.expm1(L) * signs
            if np.sum(np.abs(y)) <= radius:
                continue
            want = l1_ball_project(y, BallConstraint(radius), p)
            got = l1_ball_project_from_log(L, signs, BallConstraint(radius), p)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-10 * radius)
            assert np.sum(np.abs(got)) == pytest.approx(radius, rel=1e-9)

    def test_supports_of_size_one_and_d(self):
        p = EntropyParams(1.0, 0.01)
        d = 20_000
        L = np.random.default_rng(22).uniform(1.0, 2.0, d)
        L[7] = 30.0
        one = l1_ball_project_from_log(L, np.ones(d), BallConstraint(0.5), p)
        assert np.flatnonzero(one).tolist() == [7]
        assert one[7] == pytest.approx(0.5, rel=1e-12)
        L[7] = 1.5
        total = float(np.sum(p.beta * np.expm1(L)))
        full = l1_ball_project_from_log(L, np.ones(d), BallConstraint(0.99 * total), p)
        assert np.count_nonzero(full) == d

    def test_huge_log_scales_match_sorted_reference(self):
        rng = np.random.default_rng(23)
        for d in (1, 5, 300, 20_000):
            p = EntropyParams(1.0, 1.0 / d)
            L = 900.0 - rng.exponential(3.0, d)
            signs = rng.choice([-1.0, 1.0], d)
            for radius in (1e-3, 1.0, 50.0):
                got = l1_ball_project_from_log(L, signs, BallConstraint(radius), p)
                want = sorted_log_projection(L, signs, radius, p.beta)
                assert np.all(np.isfinite(got))
                assert np.allclose(got, want, rtol=1e-9, atol=1e-10 * radius)
                assert np.sum(np.abs(got)) == pytest.approx(radius, rel=1e-9)

    def test_optimality_conditions_in_log_domain(self):
        # the projection's KKT conditions: L_i - ln(|x_i|/beta + 1) is one
        # constant on the support, and no L_j off the support exceeds it
        for L, signs, radius, beta in pivot_cases():
            p = EntropyParams(1.0, beta)
            if float(np.sum(beta * np.expm1(L))) <= radius:
                continue
            x = l1_ball_project_from_log(L + 300.0, signs, BallConstraint(radius), p)
            on = x != 0
            gap = (L + 300.0)[on] - np.log1p(np.abs(x[on]) / beta)
            assert np.ptp(gap) <= 1e-9 * np.max(np.abs(gap))
            if not np.all(on):
                assert np.max((L + 300.0)[~on]) <= np.min(gap) + 1e-9 * np.max(np.abs(gap))
            assert np.all(np.sign(x[on]) == signs[on])

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=200),
        share=st.floats(1e-6, 0.999),
        beta=st.floats(1e-3, 10.0),
        shift=st.sampled_from([0.0, 880.0]),
    )
    def test_property_matches_sorted_reference(self, values, share, beta, shift):
        L = np.array(values) + shift
        signs = np.where(np.arange(L.size) % 2 == 0, 1.0, -1.0)
        radius = share * float(np.sum(beta * np.expm1(np.array(values))))
        assume(radius > 0)
        got = l1_ball_project_from_log(L, signs, BallConstraint(radius), EntropyParams(1.0, beta))
        want = sorted_log_projection(L, signs, radius, beta)
        # the output formula cancels terms of size radius + k*beta
        assert np.allclose(got, want, rtol=1e-8, atol=1e-9 * (radius + L.size * beta))

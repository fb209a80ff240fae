"""Scalar potential, mirror maps, and Bregman divergence."""

import math

import numpy as np
import pytest

from expopt import (
    EntropyParams,
    NumericRangeError,
    bregman_div,
    entropy,
    entropy_conj,
    entropy_conj_grad,
    entropy_conj_hess,
    entropy_grad,
    entropy_hess,
    mirror_map,
    mirror_map_inv,
    reg_value,
)

E = math.e
UNIT = EntropyParams(alpha=1.0, beta=1.0)


class TestScalarPotential:
    def test_zero_at_origin(self):
        assert entropy(0.0, UNIT) == 0.0

    def test_analytic_point(self):
        # (e)ln(e) - (e - 1) = 1
        assert entropy(E - 1.0, UNIT) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.3, 2.7, 10.0])
    def test_even(self, x):
        assert entropy(-x, UNIT) == entropy(x, UNIT)

    def test_nonnegative_everywhere(self):
        xs = np.linspace(-50, 50, 1001)
        assert np.all(entropy(xs, EntropyParams(0.3, 0.02)) >= 0.0)

    def test_strict_convexity_sampled(self):
        rng = np.random.default_rng(0)
        p = EntropyParams(0.8, 0.25)
        for _ in range(1000):
            x, y = rng.uniform(-10, 10, 2)
            if x == y:
                continue
            lam = rng.uniform(0.01, 0.99)
            mid = entropy(lam * x + (1 - lam) * y, p)
            chord = lam * entropy(x, p) + (1 - lam) * entropy(y, p)
            assert mid < chord + 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            EntropyParams(0.0, 1.0)
        with pytest.raises(ValueError):
            EntropyParams(1.0, -2.0)


class TestDerivatives:
    def test_grad_at_origin(self):
        assert entropy_grad(0.0, UNIT) == 0.0

    def test_grad_analytic_point(self):
        assert entropy_grad(E - 1.0, UNIT) == pytest.approx(1.0, abs=1e-14)

    def test_grad_matches_finite_difference(self):
        # central difference with step 1e-5, frozen oracle value at x = 0.7
        p = UNIT
        h = 1e-5
        fd = (entropy(0.7 + h, p) - entropy(0.7 - h, p)) / (2 * h)
        assert fd == pytest.approx(math.log(1.7), abs=1e-9)
        assert entropy_grad(0.7, p) == pytest.approx(fd, abs=1e-6)

    def test_grad_odd(self):
        xs = np.array([0.1, 1.3, 7.0])
        p = EntropyParams(2.0, 0.5)
        assert np.allclose(entropy_grad(-xs, p), -entropy_grad(xs, p))

    def test_hess_matches_second_difference(self):
        p = EntropyParams(1.4, 0.3)
        h = 1e-4
        for x in np.linspace(0.2, 6.0, 25):
            fd2 = (entropy(x + h, p) - 2 * entropy(x, p) + entropy(x - h, p)) / h**2
            assert fd2 == pytest.approx(entropy_hess(x, p), abs=1e-5)


class TestConjugate:
    def test_zero_at_origin(self):
        assert entropy_conj(0.0, UNIT) == 0.0

    def test_analytic_point(self):
        assert entropy_conj(1.0, UNIT) == pytest.approx(E - 2.0, abs=1e-12)

    def test_conj_grad_analytic(self):
        assert entropy_conj_grad(0.0, UNIT) == 0.0
        assert entropy_conj_grad(1.0, UNIT) == pytest.approx(E - 1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.5, 3.0])
    def test_fenchel_young_equality(self, x):
        lhs = entropy(x, UNIT) + entropy_conj(entropy_grad(x, UNIT), UNIT)
        assert lhs == pytest.approx(x * entropy_grad(x, UNIT), abs=1e-12)

    @pytest.mark.parametrize("x", [-4.2, 0.0, 0.01, 17.0])
    def test_inverse_map_identity(self, x):
        back = entropy_conj_grad(entropy_grad(x, UNIT), UNIT)
        assert back == pytest.approx(x, rel=1e-12, abs=1e-300)

    def test_mutually_inverse_on_log_grid(self):
        p = EntropyParams(0.6, 0.04)
        grid = np.logspace(-8, 4, 100)
        for sign in (1.0, -1.0):
            xs = sign * grid
            assert np.allclose(entropy_conj_grad(entropy_grad(xs, p), p), xs, rtol=1e-10)
            thetas = sign * np.logspace(-8, 1, 100)
            assert np.allclose(entropy_grad(entropy_conj_grad(thetas, p), p), thetas, rtol=1e-10)

    def test_precision_near_zero(self):
        # expm1-based evaluation keeps digits where exp(u) - 1 would lose all
        p = EntropyParams(1.0, 1.0)
        theta = 1e-10
        assert entropy_conj_grad(theta, p) == pytest.approx(theta + theta**2 / 2, rel=1e-6)

    def test_range_error(self):
        with pytest.raises(NumericRangeError):
            entropy_conj(701.0, UNIT)
        with pytest.raises(NumericRangeError):
            entropy_conj_grad(800.0, UNIT)
        with pytest.raises(NumericRangeError):
            entropy_conj_grad(7.5, EntropyParams(0.01, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_conj_hess_overflow_past_the_range_check_raises_without_a_warning(self):
        # |theta|/alpha = 690 passes the range check; beta/alpha * exp(690) overflows
        with pytest.raises(NumericRangeError):
            entropy_conj_hess([0.69], EntropyParams(1e-3, 1e10))


class TestVectorRegularizer:
    def test_zero_vector(self):
        assert reg_value(np.zeros(7), UNIT) == 0.0

    def test_sum_of_scalar_cases(self):
        x = np.array([E - 1.0, 0.0, -(E - 1.0)])
        assert reg_value(x, UNIT) == pytest.approx(2.0, abs=1e-12)

    def test_mirror_roundtrip_random(self):
        rng = np.random.default_rng(42)
        p = EntropyParams(0.9, 0.1)
        x = rng.uniform(-5, 5, 10)
        assert np.allclose(mirror_map_inv(mirror_map(x, p), p), x, atol=1e-10)


class TestBregman:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        p = EntropyParams(1.2, 0.2)
        x = rng.uniform(-3, 3, 6)
        assert bregman_div(x, x, p) == 0.0
        y = x + 0.5
        assert bregman_div(x, y, p) > 0.0

    def test_strong_convexity_lower_bound(self):
        # sampled l1 strong convexity on the D-ball: D = 2, d = 5.  The
        # Hessian bound alpha/(D + d*beta) integrates to half that
        # coefficient on the Bregman divergence, and the half is tight.
        rng = np.random.default_rng(7)
        d, radius = 5, 2.0
        p = EntropyParams(0.7, 1.0 / d)
        for _ in range(1000):
            x = rng.uniform(-1, 1, d)
            y = rng.uniform(-1, 1, d)
            x *= radius * rng.uniform(0, 1) / max(np.sum(np.abs(x)), 1e-12)
            y *= radius * rng.uniform(0, 1) / max(np.sum(np.abs(y)), 1e-12)
            lhs = bregman_div(x, y, p)
            rhs = p.alpha / (2 * (radius + d * p.beta)) * np.sum(np.abs(x - y)) ** 2
            assert lhs >= rhs - 1e-9

    def test_upper_bound_on_ball(self):
        # B(x, y) <= 4 D (ln(D+1) + ln d) for beta = 1/d on the D-ball
        rng = np.random.default_rng(8)
        d, radius = 6, 3.0
        p = EntropyParams(1.0, 1.0 / d)
        cap = 4 * radius * (math.log(radius + 1) + math.log(d))
        for _ in range(500):
            x = rng.uniform(-1, 1, d)
            y = rng.uniform(-1, 1, d)
            x *= radius * rng.uniform(0, 1) / max(np.sum(np.abs(x)), 1e-12)
            y *= radius * rng.uniform(0, 1) / max(np.sum(np.abs(y)), 1e-12)
            assert bregman_div(x, y, p) <= cap


class TestLogSumInequalities:
    """Scalar sequence bounds used by the adaptive stepsize analysis."""

    def test_ratio_sum_bounded_by_log(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            a = rng.uniform(1e-3, 4.0, rng.integers(1, 51))
            lhs = float(np.sum(a / (np.cumsum(a) + 1.0)))
            assert lhs <= math.log(np.sum(a) + 1.0) + 1e-12

    def test_sqrt_sandwich(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            a = rng.uniform(1e-3, 4.0, rng.integers(1, 51))
            mid = float(np.sum(a / np.sqrt(np.cumsum(a))))
            total = math.sqrt(np.sum(a))
            assert total <= mid + 1e-12
            assert mid <= 2.0 * total + 1e-12

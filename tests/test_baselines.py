"""Diagonal-preconditioner baselines and signed multiplicative weights."""

import numpy as np
import pytest

from expopt import (
    AdaFtrl,
    AdaGrad,
    BallConstraint,
    CompositeRegularizer,
    EgPm,
    NumericRangeError,
    adaftrl_step,
    adagrad_step,
    diag_init,
    eg_pm_init,
    eg_pm_step,
    euclidean_nuclear_ball_project,
    weighted_l1_ball_project,
)


def sorted_scan_project(y, w, radius):
    """Reference: the weighted projection by one full sort of the breakpoints."""
    abs_y = np.abs(y)
    breaks = w * abs_y
    order = np.argsort(breaks)
    ts = breaks[order]
    suf_ay = np.cumsum(abs_y[order][::-1])[::-1]
    suf_iw = np.cumsum((1.0 / w[order])[::-1])[::-1]
    mass_at = np.append(suf_ay[1:] - ts[:-1] * suf_iw[1:], 0.0)
    j = int(np.argmax(mass_at <= radius))
    tau = (suf_ay[j] - radius) / suf_iw[j]
    return np.sign(y) * np.maximum(abs_y - tau / w, 0.0)


def bisection_project(y, w, radius, iters=200):
    """Reference: bisection on the threshold tau of ``max(|y_i| - tau/w_i, 0)``."""
    abs_y = np.abs(y)
    lo, hi = 0.0, float(np.max(w * abs_y))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(abs_y - mid / w, 0.0)) > radius:
            lo = mid
        else:
            hi = mid
    return np.sign(y) * np.maximum(abs_y - hi / w, 0.0)


class TestWeightedProjection:
    def test_pass_through_inside(self):
        y = np.array([0.2, -0.3])
        out = weighted_l1_ball_project(y, np.ones(2), 1.0)
        assert np.array_equal(out, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [3, 2048])  # the plain scan and the filtered one
    def test_non_finite_input_raises(self, bad, dim):
        y = np.linspace(-2.0, 2.0, dim)
        y[dim // 2] = bad
        with pytest.raises(NumericRangeError):
            weighted_l1_ball_project(y, np.ones(dim), 1.0)

    def test_overflowing_l1_norm_raises(self):
        y = np.array([1e308, -1e308, 1.0])
        with pytest.raises(NumericRangeError):
            weighted_l1_ball_project(y, np.ones(3), 1.0)

    def test_feasible_and_sign_preserving(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            d = int(rng.integers(1, 30))
            y = rng.uniform(-5, 5, d)
            w = rng.uniform(0.01, 10.0, d)
            total = np.sum(np.abs(y))
            if total == 0:
                continue
            radius = float(total * rng.uniform(0.1, 0.9))
            out = weighted_l1_ball_project(y, w, radius)
            assert np.sum(np.abs(out)) == pytest.approx(radius, abs=1e-10)
            assert np.all((out == 0) | (np.sign(out) == np.sign(y)))

    def test_matches_generic_solver(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(61)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            y = rng.uniform(-3, 3, d)
            w = rng.uniform(0.1, 5.0, d)
            radius = float(np.sum(np.abs(y)) * 0.6)
            if radius <= 0:
                continue

            def obj(uv):
                x = uv[:d] - uv[d:]
                return float(np.sum(w * (x - y) ** 2))

            def jac(uv):
                g = 2.0 * w * (uv[:d] - uv[d:] - y)
                return np.concatenate([g, -g])

            # exact gradients: with finite differences SLSQP can stop on
            # "Inequality constraints incompatible" at an infeasible point
            cons = [
                {
                    "type": "ineq",
                    "fun": lambda uv: radius - np.sum(uv),
                    "jac": lambda uv: -np.ones_like(uv),
                }
            ]
            res = scipy_opt.minimize(
                obj,
                np.full(2 * d, radius / (4 * d)),
                jac=jac,
                bounds=[(0, None)] * (2 * d),
                constraints=cons,
                method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-14},
            )
            # a failed or infeasible oracle is not evidence against the library
            assert res.success, f"oracle failed: status {res.status}, {res.message}"
            assert np.sum(res.x) <= radius + 1e-9, "oracle returned an infeasible point"
            want = res.x[:d] - res.x[d:]
            got = weighted_l1_ball_project(y, w, radius)
            assert np.allclose(got, want, atol=1e-6)

    def test_large_d_matches_unfiltered_scan_and_bisection(self):
        rng = np.random.default_rng(68)
        for d in (1, 2, 17, 500, 1023, 1024, 1025, 4096, 20_000):
            y = rng.standard_normal(d) * rng.exponential(1.0, d)
            w = 10.0 ** rng.uniform(-3, 3, d)  # weights spanning 1e-3..1e3
            total = float(np.sum(np.abs(y)))
            for share in (0.999, 0.5, 0.05, 1e-5):  # support from about d down to 1
                radius = share * total
                got = weighted_l1_ball_project(y, w, radius)
                assert np.array_equal(got, sorted_scan_project(y, w, radius))
                want = bisection_project(y, w, radius)
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * total)
                assert np.sum(np.abs(got)) == pytest.approx(radius, rel=1e-9, abs=1e-12 * total)

    def test_large_d_ties_and_extreme_supports(self):
        rng = np.random.default_rng(69)
        d = 20_000
        signs = rng.choice([-1.0, 1.0], d)
        few = rng.choice([0.5, 1.0, 2.0], d) * signs  # ties in |y| and in w*|y|
        equal = np.full(d, 1.5) * signs
        spike = rng.uniform(0.0, 1e-3, d) * signs
        spike[123] = 50.0
        cases = [
            (few, rng.choice([1.0, 4.0], d), 0.2 * np.sum(np.abs(few))),
            (equal, np.ones(d), 0.7 * d * 1.5),  # uniform shrink: every output 0.7 * 1.5
            (spike, np.ones(d), 1.0),  # support of size 1
            (equal, 10.0 ** rng.uniform(-3, 3, d), (d - 0.5) * 1.5),  # support of size d
        ]
        for y, w, radius in cases:
            got = weighted_l1_ball_project(y, w, radius)
            want = bisection_project(y, w, radius)
            total = float(np.sum(np.abs(y)))
            assert np.allclose(got, sorted_scan_project(y, w, radius), rtol=1e-12, atol=1e-14 * total)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * total)
        assert np.allclose(weighted_l1_ball_project(*cases[1]), 0.7 * equal)
        assert np.flatnonzero(weighted_l1_ball_project(*cases[2])).tolist() == [123]
        assert np.count_nonzero(weighted_l1_ball_project(*cases[3])) == d

    def test_filter_bound_equal_to_threshold(self):
        # the top d/16 breakpoints are exactly the support, so the lower
        # bound they give is the threshold itself, just below the smallest
        # active breakpoint
        rng = np.random.default_rng(70)
        d = 16_000
        m = d // 16
        y = rng.uniform(0.0, 0.5, d)
        y[:m] = np.linspace(1.0, 2.0, m)
        tau = 1.0 - 1e-6
        radius = float(np.sum(y[:m] - tau))
        got = weighted_l1_ball_project(y, np.ones(d), radius)
        assert np.count_nonzero(got) == m
        assert np.allclose(got[:m], y[:m] - tau, rtol=0.0, atol=1e-9)
        assert np.array_equal(got, sorted_scan_project(y, np.ones(d), radius))

    def test_filter_bound_rounding_above_every_breakpoint(self):
        # equal breakpoints and a tiny radius: the lower bound computes an
        # ulp above the largest breakpoint, which must still be kept
        d = 2048
        y = -np.ones(d)
        w = np.full(d, 7.0)
        got = weighted_l1_ball_project(y, w, 1e-20)
        assert np.array_equal(got, sorted_scan_project(y, w, 1e-20))
        # every coordinate is |y_i| - tau/w_i with both terms near 1
        assert np.all(got <= 0.0) and np.all(np.abs(got) <= 1e-14)

    def test_nuclear_variant(self):
        rng = np.random.default_rng(62)
        y = rng.standard_normal((5, 4))
        radius = 1.2
        out = euclidean_nuclear_ball_project(y, radius)
        s = np.linalg.svd(out, compute_uv=False)
        assert np.sum(s) == pytest.approx(radius, abs=1e-10)


# a radius that is not positive and finite is no ball: each projection says so, as
# ``BallConstraint`` does, instead of returning a point for it
@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("project", [
    lambda radius: weighted_l1_ball_project(np.array([3.0, 1.0]), np.ones(2), radius),
    lambda radius: euclidean_nuclear_ball_project(np.diag([3.0, 1.0]), radius),
    lambda radius: weighted_l1_ball_project(np.ones((2, 3)), np.ones((2, 3)),
                                            np.array([[1.0], [radius]])),
    lambda radius: euclidean_nuclear_ball_project(np.ones((2, 3, 2)), np.array([[radius], [1.0]])),
], ids=["weighted_l1", "nuclear", "weighted_l1_rows", "nuclear_rows"])
def test_a_projection_rejects_a_radius_that_is_not_positive_and_finite(project, radius):
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        project(radius)
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        BallConstraint(radius)


# a weight that is not positive and finite is no metric: [1, -1, 1] returned [1, 3, 0], off
# the ball, and a NaN weight a NaN row, or an IndexError on the filtered scan
@pytest.mark.parametrize("bad,error", [(-1.0, ValueError), (0.0, ValueError),
                                       (np.nan, NumericRangeError), (np.inf, NumericRangeError),
                                       (-np.inf, NumericRangeError)])
@pytest.mark.parametrize("where", ["alone", "row", "filtered"])
def test_a_projection_rejects_a_weight_that_is_not_positive_and_finite(bad, error, where):
    y, w = np.array([3.0, 1.0, 2.0]), np.array([1.0, bad, 1.0])
    if where == "row":  # the second row of a stack, whose first row lies inside its ball
        y, w = np.stack([0.1 * y, y]), np.stack([np.ones(3), w])
    elif where == "filtered":
        y, w = np.linspace(-2.0, 2.0, 2000), np.ones(2000)
        w[1234] = bad
    with pytest.raises(error, match="weights"):
        weighted_l1_ball_project(y, w, 1.0)


def test_a_point_inside_its_ball_passes_whatever_its_weights():
    y = np.array([0.2, -0.3, 0.1])
    assert np.array_equal(weighted_l1_ball_project(y, np.array([1.0, np.nan, -1.0]), 1.0), y)


class TestAdaGrad:
    def test_zero_gradient_keeps_state(self):
        st = diag_init(3)
        st2, x = adagrad_step(st, np.zeros(3))
        assert np.array_equal(x, np.zeros(3))
        assert np.array_equal(st2.h_diag, st.h_diag)

    def test_worked_scalar_update(self):
        # h = 1e-6 + 4 after absorbing g = 2; step is -2 / sqrt(4.000001)
        st = diag_init(1)
        _, x = adagrad_step(st, np.array([2.0]))
        assert x[0] == pytest.approx(-2.0 / np.sqrt(4.000001), rel=1e-12)

    def test_effective_stepsize_monotone(self):
        rng = np.random.default_rng(63)
        st = diag_init(4)
        prev = 1.0 / np.sqrt(st.h_diag)
        for _ in range(50):
            st, _ = adagrad_step(st, rng.uniform(-1, 1, 4), mode=BallConstraint(1.0))
            cur = 1.0 / np.sqrt(st.h_diag)
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_ball_feasibility(self):
        rng = np.random.default_rng(64)
        learner = AdaGrad(6, mode=BallConstraint(1.0))
        for _ in range(300):
            x = learner.step(rng.uniform(-2, 2, 6))
            assert np.sum(np.abs(x)) <= 1.0 + 1e-10

    def test_composite_soft_threshold(self):
        st = diag_init(2)
        reg = CompositeRegularizer(l1=0.5, l2=0.25)
        st, x = adagrad_step(st, np.array([2.0, 0.1]), mode=reg)
        h = np.sqrt(1e-6 + np.array([4.0, 0.01]))
        q = -np.array([2.0, 0.1])  # target * h for x started at zero
        want = np.sign(q) * np.maximum(np.abs(q) - 0.5, 0.0) / (h + 0.25)
        assert np.allclose(x, want, atol=1e-12)


class TestAdaFtrl:
    def test_before_any_gradient(self):
        assert np.array_equal(AdaFtrl(3).x, np.zeros(3))

    def test_single_round_matches_adagrad_from_zero(self):
        g = np.array([0.8, -0.4, 0.2])
        _, a = adagrad_step(diag_init(3), g, mode=BallConstraint(1.0))
        _, b = adaftrl_step(diag_init(3), g, mode=BallConstraint(1.0))
        assert np.allclose(a, b, atol=1e-14)

    def test_ball_feasibility(self):
        rng = np.random.default_rng(65)
        learner = AdaFtrl(5, mode=BallConstraint(0.7))
        for _ in range(300):
            x = learner.step(rng.uniform(-2, 2, 5))
            assert np.sum(np.abs(x)) <= 0.7 + 1e-10


class TestEgPm:
    def test_zero_gradient_keeps_weights(self):
        st = eg_pm_init(3)
        st2, x = eg_pm_step(st, np.zeros(3), radius=2.0)
        assert np.allclose(x, 0.0)
        st3, x3 = eg_pm_step(st2, np.zeros(3), radius=2.0)
        assert np.allclose(x3, x)

    def test_moves_opposite_to_gradient_sign(self):
        for g in (1.5, -0.3, 0.01):
            st = eg_pm_init(1)
            _, x = eg_pm_step(st, np.array([g]), radius=2.0)
            assert np.sign(x[0]) == -np.sign(g)

    def test_feasibility_sweep(self):
        rng = np.random.default_rng(66)
        learner = EgPm(4, radius=1.5)
        for _ in range(1000):
            x = learner.step(rng.uniform(-3, 3, 4))
            assert np.sum(np.abs(x)) <= 1.5 + 1e-10

    def test_cancelling_gradients_return_to_origin(self):
        # the cumulative gradient is zero again, so the weights are uniform;
        # flooring the weights at 1e-300 in the first step used to lose the
        # mass of the positive half for good
        learner = EgPm(2, 1.0, stepsize=1.0)
        learner.step(np.array([2000.0, 0.0]))
        x = learner.step(np.array([-2000.0, 0.0]))
        assert np.allclose(x, [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises(self, bad):
        learner = EgPm(2, 1.0)
        with pytest.raises(NumericRangeError):
            learner.step(np.array([bad, 0.0]))
        with pytest.raises(NumericRangeError):
            eg_pm_step(eg_pm_init(2), np.array([0.0, bad]), radius=1.0)

    def test_weights_mass_conserved(self):
        rng = np.random.default_rng(67)
        st = eg_pm_init(3)
        for _ in range(50):
            st, x = eg_pm_step(st, rng.uniform(-1, 1, 3), radius=2.0)
            assert np.sum(np.exp(st.log_weights)) * 2.0 == pytest.approx(2.0, rel=1e-9)


def reference_eg_pm_step(state, g, radius, stepsize=None):
    """The eg_pm step as it was written with the doubled gradient concatenated, kept verbatim."""
    import math

    from expopt import EgPmState

    g = np.asarray(g, dtype=float)
    d = g.size
    gmax = float(np.max(np.abs(g))) if d else 0.0
    sum_sq = state.sum_sq + gmax**2
    if stepsize is None:
        stepsize = 1.0 / math.sqrt(1e-12 + sum_sq)
    doubled = 0.5 * radius * np.concatenate([g, -g])
    logits = state.log_weights - stepsize * doubled
    logits = logits - np.max(logits)
    mass = np.exp(logits)
    total = float(np.sum(mass))
    weights = radius * mass / total
    x = weights[:d] - weights[d:]
    new_state = EgPmState(
        log_weights=logits - math.log(total), sum_sq=sum_sq, round=state.round + 1
    )
    return new_state, x


@pytest.mark.parametrize("d", [5, 500, 20_000])
@pytest.mark.parametrize("stepsize", [None, 0.7])
def test_eg_pm_step_matches_the_concatenating_reference_bit_for_bit(d, stepsize):
    rng = np.random.default_rng(d)
    st = ref = eg_pm_init(d)
    for t in range(200):
        # sparse logistic-like gradients, with occasional large ones
        g = rng.uniform(-1, 1, d) * (50.0 if t % 37 == 0 else 1.0)
        st, x = eg_pm_step(st, g, radius=0.5 * d**0.5, stepsize=stepsize)
        ref, x_ref = reference_eg_pm_step(ref, g, radius=0.5 * d**0.5, stepsize=stepsize)
        assert x.tobytes() == x_ref.tobytes()
        assert st.log_weights.tobytes() == ref.log_weights.tobytes()
        assert st.sum_sq == ref.sum_sq and st.round == ref.round

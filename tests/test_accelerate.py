"""Online-to-batch acceleration wrapper."""

import numpy as np
import pytest

from expopt import (
    Accelerator,
    AdaFtrl,
    AdaGrad,
    BallConstraint,
    CompositeRegularizer,
    ExpFtrl,
    ExpMd,
    NumericRangeError,
    ScheduleParams,
)


def make_ftrl(dim, radius, x1=None, reg=None):
    mode = reg if reg is not None else BallConstraint(radius)
    return ExpFtrl(ScheduleParams(dim, radius), mode=mode, x1=x1)


class TestAveraging:
    def test_first_round_ignores_initial_average(self):
        learner = make_ftrl(3, 1.0, x1=np.array([0.2, -0.1, 0.3]))
        acc = Accelerator(learner)
        assert np.allclose(acc.x, [0.2, -0.1, 0.3])

    def test_average_is_weighted_combination_of_queries(self):
        # recursive z equals sum_t a_t x_t / a_{1:T} reconstructed directly
        rng = np.random.default_rng(50)
        learner = make_ftrl(4, 2.0)
        acc = Accelerator(learner)
        xs = []
        for t in range(1, 31):
            xs.append(learner.x.copy())
            z, weight_sum = acc.x, acc.state.weight_sum
            acc.step(rng.uniform(-1, 1, 4))
        weights = np.arange(1, 31, dtype=float)
        direct = (weights[:, None] * np.array(xs)).sum(axis=0) / weights.sum()
        assert np.allclose(z, direct, atol=1e-12)
        assert weight_sum == pytest.approx(31 * 30 / 2)

    def test_deterministic_and_reproducible(self):
        outs = []
        for _ in range(2):
            learner = make_ftrl(3, 1.0)
            acc = Accelerator(learner)
            for t in range(20):
                z = acc.x
                acc.step(z + 1.0)
            outs.append(z.copy())
        assert np.array_equal(outs[0], outs[1])


class TestRates:
    def test_smooth_quadratic_fast_rate(self):
        # noiseless f(x) = 0.5||x||^2 on the ball: error collapses far below
        # the 1e-3 bar and the log-log slope is well under -1.7
        d, radius, horizon = 5, 10.0, 2000
        learner = make_ftrl(d, radius, x1=np.ones(d))
        acc = Accelerator(learner)
        errs = []
        for t in range(horizon):
            z = acc.x
            acc.step(z)
            errs.append(0.5 * float(np.dot(z, z)))
        errs = np.array(errs)
        assert errs[-1] <= 1e-3
        ts = np.arange(1, horizon + 1)
        window = (ts >= 200) & (ts <= 2000)
        slope = np.polyfit(np.log(ts[window]), np.log(np.maximum(errs[window], 1e-300)), 1)[0]
        assert slope <= -1.7

    def test_nonsmooth_l1_halving(self):
        # f(x) = ||x||_1: quadrupling the horizon more than halves the error
        d, radius = 6, 4.0
        learner = make_ftrl(d, radius, x1=0.5 * np.ones(d))
        acc = Accelerator(learner)
        errs = []
        for t in range(2000):
            z = acc.x
            acc.step(np.sign(z))
            errs.append(float(np.sum(np.abs(z))))
        for t in (200, 400, 500):
            assert errs[4 * t - 1] / errs[t - 1] <= 0.6

    def test_noisy_linear_loss_within_plugin_bound(self):
        # zero-mean noise on a linear objective over the ball; the final
        # error must sit within 5x the regret-to-batch bound evaluated with
        # the measured per-round noise (M = 0 for a linear loss, L and the
        # noise second moments plugged in from the run)
        rng = np.random.default_rng(51)
        d, radius, horizon = 5, 2.0, 5000
        c = np.array([0.5, -0.3, 0.2, 0.1, -0.4])
        best = -radius * np.max(np.abs(c))  # minimum of <c, x> over the ball
        learner = make_ftrl(d, radius)
        acc = Accelerator(learner)
        noise_term = 0.0
        for t in range(1, horizon + 1):
            noise = 0.5 * rng.standard_normal(d)
            z = acc.x
            acc.step(c + noise)
            noise_term += t**2 * float(np.max(np.abs(noise))) ** 2
        final_err = float(np.dot(c, z)) - best
        weight_total = horizon * (horizon + 1) / 2
        c2 = 9.0 * radius * np.sqrt(np.log(radius + 1.0) + np.log(d))
        bound = (
            c2 * np.sqrt(8.0 * noise_term) + np.sqrt(2.0) * c2 * np.max(np.abs(c))
        ) / weight_total
        assert final_err <= 5.0 * bound
        assert final_err <= 0.05  # and it has genuinely converged

    def test_regularized_mode_scales_weights(self):
        # the wrapper feeds round weights into the composite prox
        reg = CompositeRegularizer(l1=0.01, l2=0.02)
        learner = make_ftrl(3, 1.0, reg=reg)
        acc = Accelerator(learner)
        for t in range(4):
            acc.step(np.array([0.3, -0.1, 0.2]))
        # r_{1:t+1} accumulated with a_s = s: 1 + 2 + 3 + 4 + 5
        assert learner.state.reg_rounds == pytest.approx(15.0)


# a -0.0 in the anchor: the first query point, tau = 1, holds it as 0.0
ANCHOR = np.array([-0.0, 0.1, -0.2, 0.0, 0.05])
INNER = {
    "exp_md": lambda reg: ExpMd(ScheduleParams(5, 1.0), mode=reg, x1=ANCHOR),
    "exp_ftrl": lambda reg: ExpFtrl(ScheduleParams(5, 1.0), mode=reg, x1=ANCHOR),
    "adagrad": lambda reg: AdaGrad(5, mode=reg, x1=ANCHOR),
    "adaftrl": lambda reg: AdaFtrl(5, mode=reg, x1=ANCHOR),
}
# each raises at the step boundary: a NaN, an infinity, a scaling a_{t+1} g that overflows,
# a square that overflows inside the inner step, and a misshapen gradient
BAD_STEPS = [
    (np.full(5, np.nan), NumericRangeError),
    (np.full(5, np.inf), NumericRangeError),
    (np.full(5, 1e308), NumericRangeError),
    (np.full(5, 1e200), NumericRangeError),
    (np.zeros(4), ValueError),
]


def gradient(z, rng):
    return z - 0.3 + 0.5 * rng.standard_normal(z.size)


@pytest.mark.parametrize("name", list(INNER))
def test_the_query_points_are_those_of_the_averaging_recursion(name):
    # the recursion inline: round t queries z_t = tau x_t + (1 - tau) z_{t-1}, tau = a_t / a_{1:t},
    # and feeds the inner learner a_t g, the hint a_{t+1} g and the weight a_{t+1}
    reg = CompositeRegularizer(l1=0.2, l2=0.1)
    learner, rng = INNER[name](reg), np.random.default_rng(8)
    z, weight_sum, expected = np.zeros(5), 0.0, []
    for t in range(1, 51):
        a_t, a_next = float(t), float(t + 1)
        weight_sum += a_t
        tau = a_t / weight_sum
        z = tau * learner.x + (1.0 - tau) * z
        expected.append(z.tobytes())
        g = gradient(z, rng)
        learner.step(a_t * g, h_next=a_next * g, reg_weight=a_next)

    acc, rng, got = Accelerator(INNER[name](reg)), np.random.default_rng(8), []
    for t in range(1, 51):
        got.append(acc.x.tobytes())
        if t == 25:  # a step that raises leaves the accelerator and its inner learner as they were
            for bad, error in BAD_STEPS:
                before = acc.state, acc.learner.state, acc.x.tobytes(), acc.learner.x.tobytes()
                with pytest.raises(error):
                    acc.step(bad)
                after = acc.state, acc.learner.state, acc.x.tobytes(), acc.learner.x.tobytes()
                assert after[0] is before[0] and after[1] is before[1] and after[2:] == before[2:]
        returned = acc.step(gradient(acc.x, rng))
        assert returned is acc.x
    assert got == expected
    assert acc.learner.x.tobytes() == learner.x.tobytes()

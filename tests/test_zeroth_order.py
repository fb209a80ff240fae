"""Two-point gradient estimation."""

import numpy as np
import pytest

from expopt import (
    EstimatorConfig,
    NumericRangeError,
    default_smoothing,
    rademacher_config,
    sphere_config,
    two_point_grad,
    two_point_grad_rows,
)

from expopt.harness.streams import BlackboxComposite, gen_blackbox_problem
from expopt.zeroth_order import _directions


def two_point_grad_reference(f, x, cfg, rng):
    """The estimator as a loop over the directions, one point at a time;
    the library's estimate must equal it bit for bit."""
    x = np.asarray(x, dtype=float)
    fx = float(f(x))
    dirs = _directions(cfg.direction_law, cfg.batch, x.size, rng)
    acc = np.zeros_like(x)
    for v in dirs:
        acc += (float(f(x + cfg.mu * v)) - fx) * v
    return (cfg.delta / (cfg.mu * cfg.batch)) * acc


class CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(delta=1.0, mu=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(delta=1.0, mu=0.1, batch=0)
        with pytest.raises(ValueError):
            EstimatorConfig(delta=1.0, mu=0.1, direction_law="cauchy")

    @pytest.mark.parametrize("batch", [2.5, 1.0, True, "3"])
    def test_batch_must_be_an_integer(self, batch):
        with pytest.raises(TypeError):
            EstimatorConfig(delta=1.0, mu=0.1, batch=batch)

    def test_numpy_integer_batch_becomes_int(self):
        cfg = EstimatorConfig(delta=1.0, mu=0.1, batch=np.int64(4))
        assert cfg.batch == 4 and type(cfg.batch) is int

    @pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -1.0])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match="delta"):
            EstimatorConfig(delta=delta, mu=0.1)

    @pytest.mark.parametrize("mu", [np.nan, np.inf])
    def test_mu_must_be_finite(self, mu):
        with pytest.raises(ValueError, match="mu"):
            EstimatorConfig(delta=1.0, mu=mu)

    def test_default_smoothing(self):
        assert default_smoothing(100, 400) == pytest.approx(1.0 / 200.0)

    def test_family_presets(self):
        assert sphere_config(7, 0.1).delta == 7.0
        assert rademacher_config(0.1).delta == 1.0


class TestEstimator:
    def test_constant_function_gives_zero(self):
        rng = np.random.default_rng(70)
        cfg = rademacher_config(mu=0.01, batch=8)
        out = two_point_grad(lambda x: 3.5, np.zeros(5), cfg, rng)
        assert np.array_equal(out, np.zeros(5))

    def test_evaluation_count_exact(self):
        rng = np.random.default_rng(71)
        for batch in (1, 7, 32):
            oracle = CountingOracle(lambda x: float(np.sum(x**2)))
            cfg = sphere_config(4, mu=0.05, batch=batch)
            two_point_grad(oracle, np.ones(4), cfg, rng)
            assert oracle.calls == batch + 1

    def test_deterministic_given_seed(self):
        cfg = rademacher_config(mu=0.02, batch=5)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(72)
            outs.append(two_point_grad(lambda x: float(np.sum(np.abs(x))), np.ones(3), cfg, rng))
        assert np.array_equal(outs[0], outs[1])

    def test_direction_laws(self):
        rng = np.random.default_rng(73)
        from expopt.zeroth_order import _directions

        rad = _directions("rademacher", 100, 6, rng)
        assert set(np.unique(rad)) == {-1.0, 1.0}
        sph = _directions("sphere", 100, 6, rng)
        assert np.allclose(np.linalg.norm(sph, axis=1), 1.0, atol=1e-12)

    def test_linear_function_single_sample_form(self):
        # for f = <c, x> with Rademacher v: estimate equals (c.v) v exactly
        rng = np.random.default_rng(74)
        c = np.array([0.5, -1.0, 2.0])
        cfg = rademacher_config(mu=0.1, batch=1)
        state = rng.bit_generator.state
        est = two_point_grad(lambda x: float(np.dot(c, x)), np.zeros(3), cfg, rng)
        rng.bit_generator.state = state
        v = rng.integers(0, 2, size=(1, 3)).astype(float)[0] * 2 - 1
        assert np.allclose(est, np.dot(c, v) * v, atol=1e-10)

    def test_linear_function_monte_carlo_mean(self):
        # batch mean over 1e5 Rademacher draws is within 2% coordinatewise
        rng = np.random.default_rng(42)
        c = np.array([2.0, -2.0, 2.0, 2.0, -2.0])
        cfg = rademacher_config(mu=0.05, batch=100_000)
        est = two_point_grad(lambda x: float(np.dot(c, x)), np.zeros(5), cfg, rng)
        assert np.all(np.abs(est - c) <= 0.02 * np.abs(c))

    def test_bias_vanishes_with_smoothing(self):
        # common random directions across mu isolate the mu-dependent bias,
        # which shrinks as the smoothing radius does
        a = np.diag([1.0, 3.0, 0.5])
        x0 = np.array([0.4, -0.2, 1.0])
        grad_true = a @ x0

        biases = []
        for mu in (1e-2, 1e-3, 1e-4):
            rng = np.random.default_rng(76)
            cfg = sphere_config(3, mu=mu, batch=50_000)
            est = two_point_grad(lambda x: 0.5 * float(x @ a @ x), x0, cfg, rng)
            biases.append(np.max(np.abs(est - grad_true)))
        assert biases[0] >= biases[1] >= biases[2]
        assert biases[2] <= 0.05


class TestLoopReference:
    @pytest.mark.parametrize("law", ["rademacher", "sphere"])
    @pytest.mark.parametrize("batch", [1, 7, 17])
    @pytest.mark.parametrize("dim", [1, 2, 20])
    def test_matches_loop_bit_for_bit(self, law, batch, dim):
        rng = np.random.default_rng(1000 * dim + batch)
        problem = gen_blackbox_problem(dim, rng)
        # all offsets below -kappa: near the centers every value is the hinge,
        # so many differences are exactly zero and their products are -0.0
        flat = BlackboxComposite(
            problem.mats, problem.centers, np.full(3, -2.0), problem.kappa, problem.reg
        )
        delta = 1.0 if law == "rademacher" else float(dim)
        for oracle in (problem.smooth, flat.smooth):
            for k in range(20):
                x = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.integers(-4, 1)
                cfg = EstimatorConfig(delta, 10.0 ** rng.integers(-4, 0), batch, law)
                seed = int(rng.integers(2**32))
                ref = two_point_grad_reference(oracle, x, cfg, np.random.default_rng(seed))
                # the scalar form, one call a point, and the rows form, one
                # call on the stack of all b + 1 points
                for estimate in (two_point_grad, two_point_grad_rows):
                    out = estimate(oracle, x, cfg, np.random.default_rng(seed))
                    assert np.array_equal(out, ref)
                    assert out.tobytes() == ref.tobytes()  # signed zeros too

    def test_oracle_called_at_x_then_points_in_direction_order(self):
        calls = []

        def oracle(x):
            calls.append(np.array(x, copy=True))
            return float(np.sum(x * x))

        x = np.linspace(-1.0, 1.0, 5)
        cfg = sphere_config(5, mu=0.1, batch=9)
        two_point_grad(oracle, x, cfg, np.random.default_rng(77))
        dirs = _directions("sphere", 9, 5, np.random.default_rng(77))
        assert len(calls) == 10
        assert np.array_equal(calls[0], x)
        for point, v in zip(calls[1:], dirs):
            assert np.array_equal(point, x + 0.1 * v)


class TestRowsOracle:
    def test_one_call_on_the_stack_of_x_then_points(self):
        calls = []

        def oracle(rows):
            calls.append(np.array(rows, copy=True))
            return np.sum(rows * rows, axis=1)

        x = np.linspace(-1.0, 1.0, 5)
        cfg = sphere_config(5, mu=0.1, batch=9)
        two_point_grad_rows(oracle, x, cfg, np.random.default_rng(77))
        dirs = _directions("sphere", 9, 5, np.random.default_rng(77))
        assert len(calls) == 1
        assert calls[0].shape == (10, 5)
        assert np.array_equal(calls[0][0], x)
        assert np.array_equal(calls[0][1:], x + 0.1 * dirs)

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
    def test_one_value_per_row_or_value_error(self, shape):
        cfg = rademacher_config(mu=0.01, batch=4)
        with pytest.raises(ValueError, match="shape"):
            two_point_grad_rows(lambda rows: np.zeros(shape), np.zeros(3), cfg,
                                np.random.default_rng(8))

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_non_finite_row_raises(self, row):
        def oracle(rows):
            values = np.sum(rows, axis=1)
            values[row] = np.nan
            return values

        cfg = rademacher_config(mu=0.01, batch=4)
        with pytest.raises(NumericRangeError):
            two_point_grad_rows(oracle, np.zeros(3), cfg, np.random.default_rng(9))


class TestNonFiniteOracle:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at_call", [0, 1, 4])
    def test_raises_on_non_finite_value(self, bad, at_call):
        seen = []

        def oracle(x):
            seen.append(x)
            return bad if len(seen) == at_call + 1 else float(np.sum(x))

        cfg = rademacher_config(mu=0.01, batch=4)
        with pytest.raises(NumericRangeError):
            two_point_grad(oracle, np.zeros(3), cfg, np.random.default_rng(5))
        assert len(seen) == 5  # the batch is evaluated, then checked once

    def test_raises_when_a_difference_overflows(self):
        values = iter([-1e308, 1e308])
        cfg = rademacher_config(mu=0.01, batch=1)
        with pytest.raises(NumericRangeError), np.errstate(over="ignore"):
            two_point_grad(lambda x: next(values), np.zeros(2), cfg, np.random.default_rng(6))

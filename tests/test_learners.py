"""Vector learners: dual-point updates, schedules, feasibility, regret."""

import math

import numpy as np
import pytest

from expopt import (
    BallConstraint,
    CompositeRegularizer,
    EntropyParams,
    ExpFtrl,
    ExpMd,
    NumericRangeError,
    ScheduleParams,
    ftrl_init,
    ftrl_step,
    omd_init,
    omd_step,
    regret,
)

E = math.e


class TestSchedule:
    def test_defaults(self):
        s = ScheduleParams(dim=10, radius=3.0)
        assert s.beta == pytest.approx(0.1)
        assert s.eta == pytest.approx(math.sqrt(1.0 / (math.log(4.0) + math.log(10))))

    def test_overrides(self):
        s = ScheduleParams(dim=4, radius=1.0, eta=0.5, beta=0.3, epsilon0=0.0)
        assert (s.eta, s.beta, s.epsilon0) == (0.5, 0.3, 0.0)

    def test_validation(self, index):
        with pytest.raises(ValueError):
            ScheduleParams(dim=0, radius=1.0)
        with pytest.raises(ValueError):
            ScheduleParams(dim=3, radius=-1.0)
        for dim in (True, np.True_, 2.5, 3.0, "3"):  # a bool or a non-integer is no dimension
            with pytest.raises(TypeError, match="integers"):
                ScheduleParams(dim, 1.0)
        assert omd_init(ScheduleParams(np.int64(4), 1.0)).x.shape == (4,)
        assert ExpMd(ScheduleParams(index(4), 1.0)).step(np.ones(4)).shape == (4,)


class TestOmdStep:
    def test_perfect_hint_fixed_point(self):
        # g equals the previous hint and the next hint is zero: no movement
        sched = ScheduleParams(dim=3, radius=2.0)
        st = omd_init(sched, x1=np.array([0.4, -0.2, 0.1]))
        g = np.array([0.5, 0.3, -0.7])
        st, x = omd_step(st, g, sched, h_next=g)
        st2, x2 = omd_step(st, g, sched)
        assert np.array_equal(x2, x)
        assert st2.sum_sq == st.sum_sq

    def test_analytic_step_from_origin(self):
        # alpha_2 = 1 via eta = 1 and unit gradient max-norm
        sched = ScheduleParams(dim=2, radius=1.0, eta=1.0, beta=1.0, epsilon0=0.0)
        st = omd_init(sched)
        _, x = omd_step(st, np.array([1.0, -1.0]), sched)
        assert np.allclose(x, [-(E - 1.0), E - 1.0], atol=1e-12)

    def test_ball_feasibility_sweep(self):
        rng = np.random.default_rng(21)
        sched = ScheduleParams(dim=8, radius=1.0)
        mode = BallConstraint(1.0)
        st = omd_init(sched)
        for _ in range(1000):
            st, x = omd_step(st, rng.uniform(-2, 2, 8), sched, mode=mode)
            assert np.sum(np.abs(x)) <= 1.0 + 1e-10

    def test_dimension_mismatch(self):
        sched = ScheduleParams(dim=3, radius=1.0)
        with pytest.raises(ValueError):
            omd_step(omd_init(sched), np.ones(4), sched)

    def test_free_mode_overflow_raises(self):
        # matched g/h keep alpha at eta*sqrt(eps0) while the hint drives the
        # dual far past the exponent range
        sched = ScheduleParams(dim=2, radius=1.0, eta=0.001, beta=1.0, epsilon0=0.0)
        st = omd_init(sched)
        with pytest.raises(NumericRangeError):
            omd_step(st, np.array([1.0, 0.0]), sched)

    def test_ball_mode_survives_huge_duals(self):
        # the constraint clamps, in the log domain, coordinates the free map
        # could not even represent
        sched = ScheduleParams(dim=3, radius=1.0)
        st = omd_init(sched)
        mode = BallConstraint(1.0)
        st, x = omd_step(st, np.zeros(3), sched, mode=mode, h_next=np.array([1e9, -3.0, 0.1]))
        assert st.sum_sq == 0.0  # gradient matched the (zero) hint
        assert np.all(np.isfinite(x))
        assert np.sum(np.abs(x)) == pytest.approx(1.0, abs=1e-10)

    def test_sum_sq_accumulates_hint_errors(self):
        sched = ScheduleParams(dim=2, radius=1.0)
        st = omd_init(sched)
        st, _ = omd_step(st, np.array([3.0, -1.0]), sched, h_next=np.array([1.0, 1.0]))
        assert st.sum_sq == pytest.approx(9.0)
        st, _ = omd_step(st, np.array([2.0, 1.0]), sched)
        assert st.sum_sq == pytest.approx(9.0 + 1.0)  # ||g - h||_inf^2 = 1


class TestFtrlStep:
    def test_anchor_before_any_gradient(self):
        sched = ScheduleParams(dim=4, radius=1.0)
        learner = ExpFtrl(sched)
        assert np.array_equal(learner.x, np.zeros(4))

    def test_first_round_coincides_with_omd(self):
        sched = ScheduleParams(dim=3, radius=2.0)
        g = np.array([0.7, -0.3, 0.2])
        _, x_omd = omd_step(omd_init(sched), g, sched)
        _, x_ftrl = ftrl_step(ftrl_init(sched), g, sched)
        assert np.allclose(x_omd, x_ftrl, atol=1e-15)

    def test_fixed_linear_loss_converges_to_vertex(self):
        # best fixed point for <g, x> on the ball is the signed best vertex
        g = np.array([0.3, -1.0, 0.4, 0.1])
        sched = ScheduleParams(dim=4, radius=1.0)
        learner = ExpFtrl(sched, mode=BallConstraint(1.0))
        total = 0.0
        T = 500
        for _ in range(T):
            total += float(np.dot(g, learner.x))
            learner.step(g)
        assert np.argmax(np.abs(learner.x)) == 1
        assert learner.x[1] == pytest.approx(1.0, abs=1e-6)
        best = -T * np.max(np.abs(g))
        assert total <= 0.95 * best  # within 5% of the best comparator loss

    def test_history_permutation_invariance(self):
        # final iterate depends on history through (sum, sum_sq, round) only
        rng = np.random.default_rng(22)
        sched = ScheduleParams(dim=5, radius=1.5)
        gs = rng.uniform(-1, 1, (40, 5))
        perm = rng.permutation(40)
        a = ExpFtrl(sched, mode=BallConstraint(1.5))
        b = ExpFtrl(sched, mode=BallConstraint(1.5))
        for g in gs:
            xa = a.step(g)
        for g in gs[perm]:
            xb = b.step(g)
        # equal g_accum and equal total sum_sq imply the same final decision
        assert np.allclose(a.state.g_accum, b.state.g_accum, atol=1e-12)
        assert a.state.sum_sq == pytest.approx(b.state.sum_sq, rel=1e-12)
        assert np.allclose(xa, xb, atol=1e-12)

    def test_cumulative_regularizer_weight(self):
        sched = ScheduleParams(dim=2, radius=1.0)
        reg = CompositeRegularizer(l1=0.05, l2=0.1)
        learner = ExpFtrl(sched, mode=reg)
        for _ in range(3):
            learner.step(np.array([0.4, -0.2]))
        assert learner.state.reg_rounds == pytest.approx(4.0)  # r_{1:t+1} with unit weights

    def test_nonzero_anchor_uses_anchor_dual(self):
        sched = ScheduleParams(dim=2, radius=3.0)
        x1 = np.array([1.0, -0.5])
        learner = ExpFtrl(sched, x1=x1)
        # zero gradient keeps the learner at the anchor
        x = learner.step(np.zeros(2))
        assert np.allclose(x, x1, atol=1e-9)


class TestStepsMatchDefiningArgmin:
    """Single steps against a generic solver of the defining minimization."""

    @staticmethod
    def _solve(total, d, rng, trials=8):
        minimize = pytest.importorskip("scipy.optimize").minimize
        best, bx = np.inf, None
        for _ in range(trials):
            res = minimize(
                total,
                rng.uniform(0, 0.2, 2 * d),
                bounds=[(0, None)] * (2 * d),
                constraints=[],
                method="SLSQP",
                options={"maxiter": 1000, "ftol": 1e-16},
            )
            # a restart that stopped early (e.g. at the iteration limit) is no reference
            if res.success and res.fun < best:
                best, bx = res.fun, res.x[:d] - res.x[d:]
        assert bx is not None, "no restart of the oracle succeeded"
        return bx, best

    def test_omd_ball_step_is_the_argmin(self):
        minimize = pytest.importorskip("scipy.optimize").minimize
        from expopt import EntropyParams, bregman_div

        rng = np.random.default_rng(26)
        d, radius = 5, 1.5
        sched = ScheduleParams(d, radius)
        x_t = rng.uniform(-0.3, 0.3, d)
        g = rng.uniform(-1, 1, d)
        h_next = rng.uniform(-0.5, 0.5, d)
        _, ours = omd_step(
            omd_init(sched, x1=x_t), g, sched, mode=BallConstraint(radius), h_next=h_next
        )
        alpha = sched.eta * math.sqrt(sched.epsilon0 + np.max(np.abs(g)) ** 2)
        p = EntropyParams(alpha, sched.beta)
        lin = g + h_next

        def total(uv):
            x = uv[:d] - uv[d:]
            return float(np.dot(lin, x)) + bregman_div(x, x_t, p)

        best, bx = np.inf, None
        for _ in range(8):
            res = minimize(
                total,
                rng.uniform(0, 0.2, 2 * d),
                bounds=[(0, None)] * (2 * d),
                constraints=[{"type": "ineq", "fun": lambda uv: radius - np.sum(uv)}],
                method="SLSQP",
                options={"maxiter": 1000, "ftol": 1e-16},
            )
            # a failed restart can end far outside the ball; only feasible successes count
            if res.success and np.sum(res.x) <= radius + 1e-9 and res.fun < best:
                best, bx = res.fun, res.x[:d] - res.x[d:]
        assert bx is not None, "no restart of the oracle succeeded"
        assert np.allclose(ours, bx, atol=1e-6)

    def test_regularized_steps_are_the_argmin(self):
        from expopt import EntropyParams, bregman_div, reg_value

        rng = np.random.default_rng(27)
        d, radius = 5, 1.5
        sched = ScheduleParams(d, radius)
        reg = CompositeRegularizer(l1=0.15, l2=0.3)
        x_t = rng.uniform(-0.3, 0.3, d)
        g = rng.uniform(-1, 1, d)
        h_next = rng.uniform(-0.5, 0.5, d)
        _, ours = omd_step(omd_init(sched, x1=x_t), g, sched, mode=reg, h_next=h_next)
        alpha = sched.eta * math.sqrt(sched.epsilon0 + np.max(np.abs(g)) ** 2)
        p = EntropyParams(alpha, sched.beta)
        lin = g + h_next

        def total_md(uv):
            x = uv[:d] - uv[d:]
            pen = reg.l1 * np.sum(np.abs(x)) + 0.5 * reg.l2 * np.dot(x, x)
            return float(np.dot(lin, x)) + pen + bregman_div(x, x_t, p)

        bx, best = self._solve(total_md, d, rng)
        # solver precision dominates; also check it did not find anything better
        assert np.allclose(ours, bx, atol=1e-4)
        mine = total_md(np.concatenate([np.maximum(ours, 0), np.maximum(-ours, 0)]))
        assert mine <= best + 1e-9

        # leader-following after three rounds: cumulative penalty weight t + 1
        fst = ftrl_init(sched)
        gs = [rng.uniform(-1, 1, d) for _ in range(3)]
        hs = [rng.uniform(-0.5, 0.5, d) for _ in range(3)]
        h_prev, sum_sq = np.zeros(d), 0.0
        for t in range(3):
            fst, ours_f = ftrl_step(fst, gs[t], sched, mode=reg, h_next=hs[t])
            sum_sq += float(np.max(np.abs(gs[t] - h_prev))) ** 2
            h_prev = hs[t]
        alpha = sched.eta * math.sqrt(sched.epsilon0 + sum_sq)
        pf = EntropyParams(alpha, sched.beta)
        lin_f = np.sum(gs, axis=0) + hs[-1]

        def total_ftrl(uv):
            x = uv[:d] - uv[d:]
            pen = 4.0 * (reg.l1 * np.sum(np.abs(x)) + 0.5 * reg.l2 * np.dot(x, x))
            return float(np.dot(lin_f, x)) + pen + reg_value(x, pf)

        bx, best = self._solve(total_ftrl, d, rng)
        assert np.allclose(ours_f, bx, atol=1e-4)
        mine = total_ftrl(np.concatenate([np.maximum(ours_f, 0), np.maximum(-ours_f, 0)]))
        assert mine <= best + 1e-9


class TestDeterminism:
    def test_bitwise_identical_trajectories(self):
        rng = np.random.default_rng(23)
        gs = rng.uniform(-1, 1, (50, 6))
        sched = ScheduleParams(dim=6, radius=2.0)
        runs = []
        for _ in range(2):
            learner = ExpMd(sched, mode=BallConstraint(2.0))
            runs.append(np.array([learner.step(g) for g in gs]))
        assert np.array_equal(runs[0], runs[1])


class TestRegret:
    def test_identical_sequences(self):
        assert np.array_equal(regret([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])

    def test_arithmetic(self):
        assert np.array_equal(regret([1.0, 1.0], [0.0, 0.0]), [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regret([1.0], [1.0, 2.0])

    def test_mean_regret_curve_concavity(self):
        # averaged over trials, the cumulative regret curve flattens
        from expopt.harness import aggregate_mean_std, ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            kind="logistic",
            dim=30,
            horizon=300,
            trials=20,
            sparsity=0.9,
            algorithms=("exp_ftrl",),
            seed=11,
        )
        records, _ = run_experiment(spec)
        _, mean, _ = aggregate_mean_std(records)["exp_ftrl"]
        second_diff = np.diff(mean, n=2)
        # smoothed second differences stay below a small positive slack
        window = 25
        smooth = np.convolve(second_diff, np.ones(window) / window, mode="valid")
        assert np.max(smooth) <= 0.02


class TestHintPolicies:
    def test_zero_hints_match_default(self):
        rng = np.random.default_rng(24)
        sched = ScheduleParams(dim=4, radius=1.0)
        gs = rng.uniform(-1, 1, (30, 4))
        a = ExpMd(sched, mode=BallConstraint(1.0))
        b = ExpMd(sched, mode=BallConstraint(1.0))
        for g in gs:
            xa = a.step(g)
            xb = b.step(g, h_next=np.zeros(4))
        assert np.array_equal(xa, xb)

    def test_oracle_hints_zero_sum_sq(self):
        # hints equal to the upcoming gradients keep sum_sq at zero increments
        rng = np.random.default_rng(25)
        sched = ScheduleParams(dim=3, radius=1.0)
        gs = rng.uniform(-1, 1, (20, 3))
        learner = ExpMd(sched, mode=BallConstraint(1.0))
        learner.state = learner.state.__class__(
            x=learner.state.x, sum_sq=0.0, h_prev=gs[0].copy(), round=1
        )
        for t in range(19):
            learner.step(gs[t], h_next=gs[t + 1])
        assert learner.state.sum_sq == 0.0

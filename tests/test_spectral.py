"""Spectral machinery: SVD adapter, matrix prox/projection, matrix learners."""

import math

import numpy as np
import pytest

from expopt import (
    BallConstraint,
    CompositeRegularizer,
    EntropyParams,
    ExpFtrl,
    ExpMd,
    ScheduleParams,
    SpectralExpFtrl,
    SpectralExpMd,
    SpectralSchedule,
    elastic_net_prox,
    entropy,
    l1_ball_project,
    nuclear_ball_project,
    nuclear_norm,
    nuclear_project_or_pass,
    spectral_bregman,
    spectral_grad,
    spectral_prox,
    spectral_reg_value,
    svd,
)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        assert np.allclose(f.s, 1.0)

    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.s, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(f.u), np.eye(3))
        assert np.allclose(np.abs(f.vt), np.eye(3))

    def test_reconstruction(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((5, 3))
        f = svd(x)
        assert np.linalg.norm(f.compose() - x) <= 1e-10
        assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestSpectralProx:
    def test_diagonal_reduction(self):
        p = EntropyParams(0.9, 0.2)
        reg = CompositeRegularizer(0.3, 0.4)
        vals = np.array([4.0, 1.2, 0.05])
        got = spectral_prox(np.diag(vals), reg, p)
        want = np.diag(elastic_net_prox(vals, reg, p))
        assert np.allclose(got, want, atol=1e-12)

    def test_large_l1_zeroes_everything(self):
        rng = np.random.default_rng(31)
        p = EntropyParams(1.0, 0.5)
        y = rng.standard_normal((4, 4))
        top = float(np.linalg.svd(y, compute_uv=False)[0])
        l1 = p.alpha * math.log1p(top / p.beta) + 1.0
        out = spectral_prox(y, CompositeRegularizer(l1=l1), p)
        assert np.allclose(out, 0.0)

    def test_stationarity_on_singular_values(self):
        rng = np.random.default_rng(32)
        p = EntropyParams(0.7, 0.25)
        reg = CompositeRegularizer(l1=0.2, l2=0.3)
        y = rng.standard_normal((4, 4))
        out = spectral_prox(y, reg, p)
        sy = np.linalg.svd(y, compute_uv=False)
        sx = np.linalg.svd(out, compute_uv=False)
        for a, b in zip(sy, sx):
            lhs = math.log1p(a / p.beta)
            if b <= 1e-12:
                assert lhs <= reg.l1 / p.alpha + 1e-9
            else:
                rhs = math.log1p(b / p.beta) + reg.l1 / p.alpha + reg.l2 * b / p.alpha
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(33)
        p = EntropyParams(1.1, 0.3)
        reg = CompositeRegularizer(0.15, 0.25)
        y = rng.standard_normal((5, 4))
        q1 = random_orthogonal(5, rng)
        q2 = random_orthogonal(4, rng)
        a = spectral_prox(q1 @ y @ q2, reg, p)
        b = q1 @ spectral_prox(y, reg, p) @ q2
        assert np.linalg.norm(a - b) <= 1e-8


class TestNuclearProjection:
    def test_pass_through(self):
        y = np.diag([0.5, 0.25])
        out = nuclear_project_or_pass(y, BallConstraint(2.0), EntropyParams(1.0, 0.5))
        assert np.array_equal(out, y)

    def test_rank_one_clamp(self):
        y = np.zeros((3, 3))
        y[0, 0] = 5.0
        out = nuclear_project_or_pass(y, BallConstraint(2.0), EntropyParams(1.0, 1 / 3))
        assert np.allclose(out, np.diag([2.0, 0.0, 0.0]), atol=1e-12)

    def test_consistent_with_vector_projection(self):
        rng = np.random.default_rng(34)
        p = EntropyParams(1.0, 0.25)
        for _ in range(25):
            y = rng.standard_normal((4, 3))
            radius = nuclear_norm(y) / 3.0
            out = nuclear_ball_project(y, BallConstraint(radius), p)
            sy = np.linalg.svd(y, compute_uv=False)
            want = l1_ball_project(sy, BallConstraint(radius), p)
            got = np.linalg.svd(out, compute_uv=False)
            assert np.allclose(np.sort(got), np.sort(want), atol=1e-8)
            assert nuclear_norm(out) == pytest.approx(radius, abs=1e-8)


class TestSpectralRegularizer:
    def test_symmetric_spectrum_identity(self):
        # on symmetric matrices the singular values are the absolute
        # eigenvalues, and the potential is even
        rng = np.random.default_rng(35)
        p = EntropyParams(0.8, 0.2)
        a = rng.standard_normal((5, 5))
        s = 0.5 * (a + a.T)
        eigs = np.linalg.eigvalsh(s)
        assert spectral_reg_value(s, p) == pytest.approx(
            float(np.sum(entropy(eigs, p))), rel=1e-10
        )

    def test_gradient_matches_directional_finite_difference(self):
        rng = np.random.default_rng(36)
        p = EntropyParams(1.0, 0.3)
        x = rng.standard_normal((4, 3))  # distinct singular values a.s.
        g = spectral_grad(x, p)
        h = 1e-5
        for _ in range(5):
            direction = rng.standard_normal((4, 3))
            fd = (
                spectral_reg_value(x + h * direction, p)
                - spectral_reg_value(x - h * direction, p)
            ) / (2 * h)
            assert fd == pytest.approx(float(np.sum(g * direction)), abs=1e-5)

    def test_strong_convexity_on_nuclear_ball(self):
        rng = np.random.default_rng(37)
        m, n, radius = 4, 3, 2.0
        k = min(m, n)
        p = EntropyParams(0.7, 1.0 / k)
        for _ in range(200):
            x = rng.standard_normal((m, n))
            y = rng.standard_normal((m, n))
            x *= radius * rng.uniform(0, 1) / nuclear_norm(x)
            y *= radius * rng.uniform(0, 1) / nuclear_norm(y)
            lhs = spectral_bregman(x, y, p)
            rhs = p.alpha / (2 * (radius + k * p.beta)) * nuclear_norm(x - y) ** 2
            assert lhs >= rhs - 1e-9


class TestSpectralLearners:
    def test_trajectory_matches_vector_on_diagonals(self):
        rng = np.random.default_rng(38)
        d = 4
        sv = ScheduleParams(dim=d, radius=2.0)
        sm = SpectralSchedule(d, d, radius=2.0)
        for vec_cls, mat_cls in ((ExpMd, SpectralExpMd), (ExpFtrl, SpectralExpFtrl)):
            lv = vec_cls(sv, mode=BallConstraint(2.0))
            lm = mat_cls(sm, mode=BallConstraint(2.0))
            for _ in range(25):
                g = rng.uniform(-1, 1, d)
                xv = lv.step(g)
                xm = lm.step(np.diag(g))
                assert np.allclose(np.diag(xv), xm, atol=1e-10)

    @pytest.mark.parametrize(
        "mode", [None, BallConstraint(1.0), CompositeRegularizer(l1=0.05, l2=0.2)]
    )
    def test_vector_classes_take_a_spectral_schedule(self, mode):
        rng = np.random.default_rng(41)
        sched = SpectralSchedule(4, 3, radius=1.0)
        for vec_cls, mat_cls in ((ExpMd, SpectralExpMd), (ExpFtrl, SpectralExpFtrl)):
            lv, lm = vec_cls(sched, mode=mode), mat_cls(sched, mode=mode)
            assert lv.x.tobytes() == lm.x.tobytes()
            for _ in range(50):
                g, h = 0.3 * rng.standard_normal((2, 4, 3))
                w = rng.uniform(0.5, 2.0)
                xv = lv.step(g, h_next=h, reg_weight=w)
                xm = lm.step(g, h_next=h, reg_weight=w)
                assert xv.shape == (4, 3)
                assert xv.tobytes() == xm.tobytes()
            assert repr(lv.state.sum_sq) == repr(lm.state.sum_sq)

    def test_perfect_hint_fixed_point(self):
        rng = np.random.default_rng(39)
        sched = SpectralSchedule(3, 3, radius=1.0)
        learner = SpectralExpMd(sched, mode=BallConstraint(1.0))
        g = rng.standard_normal((3, 3))
        x1 = learner.step(g, h_next=g)
        x2 = learner.step(g)  # g equals h_prev, next hint zero
        assert np.allclose(x1, x2, atol=1e-10)

    def test_nuclear_feasibility_sweep(self):
        rng = np.random.default_rng(40)
        sched = SpectralSchedule(5, 3, radius=1.5)
        learner = SpectralExpFtrl(sched, mode=BallConstraint(1.5))
        for _ in range(200):
            x = learner.step(rng.standard_normal((5, 3)))
            assert nuclear_norm(x) <= 1.5 + 1e-8

    def test_dimension_mismatch(self):
        sched = SpectralSchedule(3, 2, radius=1.0)
        learner = SpectralExpMd(sched)
        with pytest.raises(ValueError):
            learner.step(np.ones((2, 3)))

    def test_schedule_defaults(self):
        s = SpectralSchedule(7, 4, radius=3.0)
        assert s.beta == pytest.approx(0.25)
        assert s.eta == pytest.approx(math.sqrt(1.0 / (math.log(4.0) + math.log(4))))

    @pytest.mark.parametrize("m,n,error", [
        (0, 3, ValueError), (3, 0, ValueError),
        (True, 3, TypeError), (3, np.True_, TypeError), (2.5, 2, TypeError), (3, 2.0, TypeError),
    ])
    def test_schedule_rejects_an_empty_dimension(self, m, n, error):
        with pytest.raises(error, match="dimensions"):
            SpectralSchedule(m, n, 1.0)

    def test_schedule_takes_numpy_integer_dimensions(self):
        assert SpectralSchedule(np.int64(3), np.int32(2), 1.0).beta == 0.5

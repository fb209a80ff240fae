"""Lambert principal branch: direct and log-domain evaluation."""

import math

import numpy as np
import pytest

from expopt import lambert_w0, lambert_w0_from_log
from expopt.lambertw import _w0_log_array


def bisect_wexpw(z, lo=0.0, hi=800.0, tol=1e-14):
    """Independent bisection oracle for w * exp(w) = z on w >= 0."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(min(mid, 700.0)) < z:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def newton_log_form(s, tol=1e-14):
    """Independent Newton oracle for w + ln(w) = s, started at max(s, 1)."""
    w = max(s, 1.0)
    for _ in range(100):
        step = (w + math.log(w) - s) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) < tol * max(abs(w), 1.0):
            break
    return w


class TestDirect:
    def test_at_zero(self):
        r = lambert_w0(0.0)
        assert r.w == 0.0 and r.residual == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e).w == pytest.approx(1.0, abs=1e-15)

    def test_omega_constant(self):
        # bisection oracle on w*e^w = 1, frozen to the classical value
        oracle = bisect_wexpw(1.0)
        assert oracle == pytest.approx(0.5671432904097838, abs=1e-13)
        assert lambert_w0(1.0).w == pytest.approx(oracle, abs=1e-13)

    def test_residuals_small(self):
        for z in np.logspace(-12, 12, 200):
            r = lambert_w0(float(z))
            assert r.residual <= 1e-12
            assert r.iterations <= 40

    def test_monotone(self):
        zs = np.logspace(-10, 10, 500)
        ws = [lambert_w0(float(z)).w for z in zs]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0)
        with pytest.raises(ValueError):
            lambert_w0(float("nan"))
        with pytest.raises(ValueError):
            lambert_w0(float("inf"))


class TestLogDomain:
    def test_fixed_point_at_one(self):
        assert lambert_w0_from_log(1.0).w == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("z", [1e-6, 1.0, 1e3])
    def test_agrees_with_direct(self, z):
        direct = lambert_w0(z).w
        logged = lambert_w0_from_log(math.log(z)).w
        assert logged == pytest.approx(direct, rel=1e-12)

    def test_huge_argument(self):
        # Newton oracle on w + ln(w) - s at s = 800
        oracle = newton_log_form(800.0)
        assert oracle + math.log(oracle) == pytest.approx(800.0, abs=1e-10)
        r = lambert_w0_from_log(800.0)
        assert r.w == pytest.approx(oracle, rel=1e-13)
        assert r.w == pytest.approx(793.3237685784889, rel=1e-12)

    def test_roundtrip_over_full_float_range(self):
        # z from 1e-300 to 1e300 via s = ln(z)
        ss = np.linspace(math.log(1e-300), math.log(1e300), 10_000)
        for s in ss:
            r = lambert_w0_from_log(float(s))
            if r.w >= 1e-300:
                assert abs(r.w + math.log(r.w) - s) <= 1e-12 * max(abs(s), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lambert_w0_from_log(float("inf"))


def w0_log_array_reference(s, max_iter=40):
    """The vectorized log-domain Newton loop as first written, through the
    ``np.abs``/``np.all`` wrappers; the library's loop must match it bit for bit."""
    s = np.asarray(s, dtype=float)
    v = np.where(s > 1.0, np.log(np.maximum(s, 1.0)), s)
    its = 0
    for its in range(1, max_iter + 1):
        ev = np.exp(v)
        step = (ev + v - s) / (ev + 1.0)
        v = v - step
        if np.all(np.abs(step) <= 1e-16 * (2.0 + np.abs(v))):
            break
    return np.exp(v), its


class TestLogArrayLoop:
    def _assert_same(self, s):
        w, its = _w0_log_array(s)
        w_ref, its_ref = w0_log_array_reference(s)
        assert its == its_ref
        assert np.asarray(w).tobytes() == np.asarray(w_ref).tobytes()

    def test_scalars_match_reference(self):
        for s in np.linspace(-800.0, 800.0, 4001):
            self._assert_same(float(s))

    def test_arrays_match_reference(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(-800.0, 800.0, 4001)
        self._assert_same(grid)
        for size in (1, 2, 20, 500):
            for _ in range(50):
                scale = 10.0 ** rng.integers(-3, 3)
                self._assert_same(np.clip(rng.normal(0.0, scale, size), -800.0, 800.0))

    def test_iteration_cap_matches_reference(self):
        # around s = -5 the tolerance is below an ulp of v and some inputs
        # stop at the iteration cap, not at the tolerance
        capped = [s for s in np.linspace(-8.0, -4.0, 4001)
                  if w0_log_array_reference(float(s))[1] == 40]
        assert capped
        for s in capped:
            self._assert_same(float(s))
        self._assert_same(np.array(capped))

    def test_a_capped_call_stops_at_its_two_cycle_with_the_capped_bits(self, monkeypatch):
        # where Newton alternates between two floats the loop ends early, with the w and
        # the count of all 40 iterations
        rng = np.random.default_rng(43)
        capped = [s for s in rng.uniform(-8.0, -4.0, 4000)
                  if w0_log_array_reference(float(s))[1] == 40]
        assert len(capped) >= 5
        for s in capped:
            self._assert_same(float(s))
        self._assert_same(np.array(capped))
        self._assert_same(np.array(capped + [1.0, 5.0, -300.0]))
        exp, calls = np.exp, []
        monkeypatch.setattr(np, "exp", lambda v: calls.append(1) or exp(v))
        w, its = _w0_log_array(capped[0])
        assert its == 40 and len(calls) < 20  # one exp per Newton step, one for w

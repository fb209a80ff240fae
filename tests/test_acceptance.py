"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines.  The desk-scale ordering runs dominate the runtime (a couple of
minutes); everything else is seconds.
"""

import json
import math
import time

import numpy as np
import pytest

import expopt as xo
from expopt.cli import main as cli_main
from expopt.harness import ExperimentSpec, final_values, run_experiment


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_mirror_map_inversion(self):
        rng = np.random.default_rng(101)
        p = xo.EntropyParams(alpha=0.9, beta=0.05)
        start = time.monotonic()
        x = rng.uniform(-100.0, 100.0, size=(10_000, 50))
        back = xo.mirror_map_inv(xo.mirror_map(x, p), p)
        err = float(np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-12)))
        elapsed = time.monotonic() - start
        report(
            "mirror-map inversion (1e4 vectors, d=50)",
            err <= 1e-9 and elapsed < 1.0,
            f"max rel err {err:.2e}, {elapsed:.2f}s",
        )

    def test_02_derivative_checks(self):
        p = xo.EntropyParams(alpha=1.3, beta=0.4)
        pts = np.concatenate([np.logspace(-2, 1, 100), -np.logspace(-2, 1, 100)])
        h1, h2 = 1e-6, 1e-4
        worst = 0.0

        fd = (xo.entropy(pts + h1, p) - xo.entropy(pts - h1, p)) / (2 * h1)
        worst = max(worst, float(np.max(np.abs(fd - xo.entropy_grad(pts, p)))))
        fd2 = (xo.entropy(pts + h2, p) - 2 * xo.entropy(pts, p) + xo.entropy(pts - h2, p)) / h2**2
        worst = max(worst, float(np.max(np.abs(fd2 - xo.entropy_hess(pts, p)))))

        thetas = np.concatenate([np.logspace(-2, np.log10(5.0), 100), -np.logspace(-2, np.log10(5.0), 100)])
        fdc = (xo.entropy_conj(thetas + h1, p) - xo.entropy_conj(thetas - h1, p)) / (2 * h1)
        worst = max(worst, float(np.max(np.abs(fdc - xo.entropy_conj_grad(thetas, p)))))
        fdc2 = (
            xo.entropy_conj(thetas + h2, p)
            - 2 * xo.entropy_conj(thetas, p)
            + xo.entropy_conj(thetas - h2, p)
        ) / h2**2
        worst = max(worst, float(np.max(np.abs(fdc2 - xo.entropy_conj_hess(thetas, p)))))

        report(
            "derivative checks (potential and conjugate, 200 points each)",
            worst <= 1e-5,
            f"worst abs err {worst:.2e}",
        )

    def test_03_strong_convexity_sampled(self):
        # proof-backed constants: the Hessian bound alpha / (|x_i| + beta)
        # integrates to half the modulus alpha / (radius + d * beta), the
        # same constant that
        # test_entropy.py::TestBregman::test_strong_convexity_lower_bound samples
        start = time.monotonic()
        rng = np.random.default_rng(102)
        d, radius = 5, 2.0
        p = xo.EntropyParams(0.7, 1.0 / d)
        worst = np.inf
        for _ in range(1000):
            x = rng.uniform(-1, 1, d)
            y = rng.uniform(-1, 1, d)
            x *= radius * rng.uniform(0, 1) / max(np.sum(np.abs(x)), 1e-12)
            y *= radius * rng.uniform(0, 1) / max(np.sum(np.abs(y)), 1e-12)
            gap = xo.bregman_div(x, y, p) - p.alpha / (2 * (radius + d * p.beta)) * np.sum(
                np.abs(x - y)
            ) ** 2
            worst = min(worst, gap)

        m, n = 4, 3
        k = min(m, n)
        ps = xo.EntropyParams(0.7, 1.0 / k)
        worst_s = np.inf
        for _ in range(200):
            xm = rng.standard_normal((m, n))
            ym = rng.standard_normal((m, n))
            xm *= radius * rng.uniform(0, 1) / xo.nuclear_norm(xm)
            ym *= radius * rng.uniform(0, 1) / xo.nuclear_norm(ym)
            gap = xo.spectral_bregman(xm, ym, ps) - ps.alpha / (
                2 * (radius + k * ps.beta)
            ) * xo.nuclear_norm(xm - ym) ** 2
            worst_s = min(worst_s, gap)
        elapsed = time.monotonic() - start
        report(
            "strong convexity (vector 1000 pairs, spectral 200 pairs)",
            worst >= -1e-9 and worst_s >= -1e-9 and elapsed < 10.0,
            f"worst slacks {worst:.2e} / {worst_s:.2e}, {elapsed:.1f}s",
        )

    def test_04_elastic_net_prox_optimality(self):
        rng = np.random.default_rng(103)
        p = xo.EntropyParams(alpha=0.8, beta=0.1)
        worst = 0.0
        count = 0
        for l2 in (0.0, 0.1, 10.0):
            for _ in range(125):
                reg = xo.CompositeRegularizer(l1=float(rng.uniform(0.05, 1.0)), l2=l2)
                y = rng.uniform(-15, 15, 8)
                x = xo.elastic_net_prox(y, reg, p)
                lys = np.log1p(np.abs(y) / p.beta)
                for ly, xi in zip(lys, x):
                    if xi == 0.0:
                        worst = max(worst, max(ly - reg.l1 / p.alpha, 0.0))
                    else:
                        rhs = (
                            math.log1p(abs(xi) / p.beta)
                            + reg.l1 / p.alpha
                            + reg.l2 * abs(xi) / p.alpha
                        )
                        worst = max(worst, abs(ly - rhs))
                count += 1
        # overflow regime: dual scales beyond 800, only reachable in log form
        for l2 in (0.1, 10.0):
            for _ in range(63):
                reg = xo.CompositeRegularizer(l1=float(rng.uniform(0.05, 1.0)), l2=l2)
                scale = rng.uniform(800.0, 1000.0, 4)
                signs = np.sign(rng.standard_normal(4))
                x = xo.elastic_net_prox_from_log(scale, signs, reg, p)
                assert np.all(np.isfinite(x))
                for ly, xi in zip(scale, x):
                    rhs = (
                        math.log1p(abs(xi) / p.beta)
                        + reg.l1 / p.alpha
                        + reg.l2 * abs(xi) / p.alpha
                    )
                    worst = max(worst, abs(ly - rhs) / ly)
                count += 1
        report(
            "elastic-net prox stationarity (500+ instances incl. c < -800)",
            worst <= 1e-9 and count >= 500,
            f"worst residual {worst:.2e} over {count} instances",
        )

    def test_05_l1_projection_vs_generic_oracle(self, l1_ops):
        minimize = pytest.importorskip("scipy.optimize").minimize
        rng = np.random.default_rng(104)

        def oracle(y, radius, p):
            # generic constrained minimizer of the divergence over the ball,
            # on magnitudes (the minimizer keeps the signs of y)
            ay = np.abs(y)
            ly = np.log1p(ay / p.beta)

            def obj(s):
                return float(
                    p.alpha
                    * np.sum((s + p.beta) * np.log1p(s / p.beta) - s - (s + p.beta) * ly + ay)
                )

            def jac(s):
                return p.alpha * (np.log1p(s / p.beta) - ly)

            res = minimize(
                obj,
                np.minimum(ay, radius / y.size),
                jac=jac,
                bounds=[(0, None)] * y.size,
                constraints=[{"type": "ineq", "fun": lambda s: radius - np.sum(s)}],
                method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-14},
            )
            return np.sign(y) * res.x

        worst_coord, worst_feas = 0.0, 0.0
        for _ in range(200):
            d = int(rng.integers(2, 7))
            p = xo.EntropyParams(1.0, float(rng.uniform(0.05, 0.6)))
            y = rng.uniform(-6, 6, d)
            total = float(np.sum(np.abs(y)))
            if total <= 0.1:
                continue
            radius = total * float(rng.uniform(0.2, 0.9))
            ours = xo.l1_ball_project(y, xo.BallConstraint(radius), p)
            want = oracle(y, radius, p)
            worst_coord = max(worst_coord, float(np.max(np.abs(ours - want))))
            worst_feas = max(worst_feas, abs(float(np.sum(np.abs(ours))) - radius))

        p = xo.EntropyParams(1.0, 0.1)
        sorts_small, calls_small = l1_ops(rng.uniform(-5, 5, 200), 1.0, p)
        sorts_large, calls_large = l1_ops(rng.uniform(-5, 5, 20_000), 1.0, p)
        ops_ok = sorts_small == sorts_large == 1 and calls_small == calls_large
        report(
            "l1-ball projection vs generic oracle (200 instances, d<=6)",
            worst_coord <= 1e-6 and worst_feas <= 1e-10 and ops_ok,
            f"worst coord err {worst_coord:.2e}, feas gap {worst_feas:.2e}, "
            f"ops {sorts_small}/{sorts_large} sorts + {calls_small}/{calls_large} numpy calls "
            "at d=200/20000",
        )

    def test_06_nuclear_projection_consistency(self):
        rng = np.random.default_rng(105)
        p = xo.EntropyParams(1.0, 0.25)
        worst = 0.0
        for _ in range(100):
            y = rng.standard_normal((5, 4))
            radius = xo.nuclear_norm(y) * float(rng.uniform(0.2, 0.8))
            out = xo.nuclear_ball_project(y, xo.BallConstraint(radius), p)
            sy = np.linalg.svd(y, compute_uv=False)
            want = xo.l1_ball_project(sy, xo.BallConstraint(radius), p)
            got = np.linalg.svd(out, compute_uv=False)
            worst = max(worst, float(np.max(np.abs(np.sort(got) - np.sort(want)))))
        report(
            "nuclear projection matches vector projection of the spectrum (100 x 5x4)",
            worst <= 1e-8,
            f"worst singular-value err {worst:.2e}",
        )

    def test_07_log_sum_inequalities(self):
        rng = np.random.default_rng(106)
        worst = 0.0
        for _ in range(1000):
            a = rng.uniform(1e-4, 5.0, int(rng.integers(1, 51)))
            csum = np.cumsum(a)
            v1 = float(np.sum(a / (csum + 1.0))) - math.log(float(np.sum(a)) + 1.0)
            mid = float(np.sum(a / np.sqrt(csum)))
            total = math.sqrt(float(np.sum(a)))
            v2 = total - mid
            v3 = mid - 2.0 * total
            worst = max(worst, v1, v2, v3)
        report(
            "log-sum inequalities (1000 positive sequences, n<=50)",
            worst <= 1e-12,
            f"worst violation {worst:.2e}",
        )

    def test_08_regret_envelope(self):
        minimize = pytest.importorskip("scipy.optimize").minimize
        d, horizon, radius = 8, 250, 2.0

        def offline_best(feats, labels):
            def obj(uv):
                w = uv[:d] - uv[d:]
                return float(np.sum(np.logaddexp(0.0, -labels * (feats @ w))))

            def jac(uv):
                w = uv[:d] - uv[d:]
                m = labels * (feats @ w)
                coef = -labels / (1.0 + np.exp(m))
                gw = feats.T @ coef
                return np.concatenate([gw, -gw])

            res = minimize(
                obj,
                np.full(2 * d, radius / (4 * d)),
                jac=jac,
                bounds=[(0, None)] * (2 * d),
                constraints=[{"type": "ineq", "fun": lambda uv: radius - np.sum(uv)}],
                method="SLSQP",
                options={"maxiter": 300, "ftol": 1e-12},
            )
            return float(res.fun)

        worst_ratio = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            w_star = np.zeros(d)
            w_star[rng.choice(d, 4, replace=False)] = rng.uniform(-1, 1, 4)
            w_star *= radius / max(np.sum(np.abs(w_star)), 1e-12)
            feats = rng.uniform(-1, 1, (horizon, d))
            labels = np.where(
                rng.random(horizon) < 1.0 / (1.0 + np.exp(-(feats @ w_star))), 1.0, -1.0
            )
            best = offline_best(feats, labels)
            for cls in (xo.ExpMd, xo.ExpFtrl):
                learner = cls(xo.ScheduleParams(d, radius), mode=xo.BallConstraint(radius))
                total, sum_sq = 0.0, 0.0
                for t in range(horizon):
                    x = learner.x
                    m = labels[t] * float(feats[t] @ x)
                    total += float(np.logaddexp(0.0, -m))
                    g = -labels[t] * feats[t] / (1.0 + math.exp(m))
                    sum_sq += float(np.max(np.abs(g))) ** 2
                    learner.step(g)
                envelope = 9.0 * radius * math.sqrt(
                    (math.log(radius + 1.0) + math.log(d)) * sum_sq
                )
                worst_ratio = max(worst_ratio, (total - best) / envelope)
        report(
            "adaptive regret envelope (50 seeds, both learners)",
            worst_ratio <= 1.0,
            f"worst regret/envelope ratio {worst_ratio:.3f}",
        )

    def test_09_logistic_ordering_desk_scale(self):
        # NOTE: the double-radius clause (exp_ftrl strictly lowest) is known
        # not to hold at this pinned scale: at d=500 the true ordering puts
        # exp_md ~2% below exp_ftrl (it reverses decisively by d=2000,
        # matching the figure this criterion mirrors).  See the note under
        # "Install and test" in README.md and ROADMAP.md open item 2; the
        # clause is asserted as specified and expected red.
        start = time.monotonic()
        base = dict(
            kind="logistic", dim=500, horizon=2000, trials=20, sparsity=0.99,
            algorithms=("exp_md", "exp_ftrl", "adagrad", "adaftrl"), seed=7,
        )
        known, _ = run_experiment(ExperimentSpec(radius_mode="known", **base), threads=4)
        double, _ = run_experiment(ExperimentSpec(radius_mode="double", **base), threads=4)
        elapsed = time.monotonic() - start

        mk = {a: float(np.mean(list(v.values()))) for a, v in final_values(known).items()}
        md = {a: float(np.mean(list(v.values()))) for a, v in final_values(double).items()}
        known_ok = max(mk["exp_md"], mk["exp_ftrl"]) < min(mk["adagrad"], mk["adaftrl"])
        double_exp_below_ada = max(md["exp_md"], md["exp_ftrl"]) < min(
            md["adagrad"], md["adaftrl"]
        )
        double_ftrl_lowest = md["exp_ftrl"] < min(md["exp_md"], md["adagrad"], md["adaftrl"])
        report(
            "sparse logistic ordering at desk scale (known and double radius)",
            known_ok and double_ftrl_lowest and elapsed < 300.0,
            f"known-D exponentiated-below-diagonal: {known_ok}; "
            f"double-D exponentiated-below-diagonal: {double_exp_below_ada}; "
            f"double-D exp_ftrl strictly lowest: {double_ftrl_lowest} "
            f"(known {mk}, double {md}, {elapsed:.0f}s)",
        )

    def test_10_multitask_ordering_desk_scale(self):
        start = time.monotonic()
        spec = ExperimentSpec(
            kind="multitask", dim=20, tasks=5, rank=2, horizon=1000, trials=20, sparsity=0.0,
            algorithms=("spectral_exp_md", "spectral_exp_ftrl", "adagrad", "adaftrl"), seed=7,
        )
        records, _ = run_experiment(spec, threads=4)
        elapsed = time.monotonic() - start
        finals = final_values(records)
        means = {a: float(np.mean(list(v.values()))) for a, v in finals.items()}
        stds = {a: float(np.std(list(v.values()))) for a, v in finals.items()}
        exp_group = ("spectral_exp_md", "spectral_exp_ftrl")
        ada_group = ("adagrad", "adaftrl")
        means_ok = max(means[a] for a in exp_group) < min(means[a] for a in ada_group)
        # group-level stability: mean and max of the across-trial stddevs
        stds_ok = (
            np.mean([stds[a] for a in exp_group]) <= np.mean([stds[a] for a in ada_group])
            and max(stds[a] for a in exp_group) <= max(stds[a] for a in ada_group)
        )
        report(
            "multitask ordering and stability at desk scale",
            means_ok and stds_ok and elapsed < 300.0,
            f"means {means}, stds {stds}, {elapsed:.0f}s",
        )

    def test_11_accelerated_rates(self):
        start = time.monotonic()
        d, radius, horizon = 20, 10.0, 2000
        ts = np.arange(1, horizon + 1)
        window = (ts >= 200) & (ts <= 2000)

        learner = xo.ExpFtrl(
            xo.ScheduleParams(d, radius), mode=xo.BallConstraint(radius), x1=0.25 * np.ones(d)
        )
        acc = xo.Accelerator(learner)
        smooth_errs = []
        for _ in range(horizon):
            z = acc.x
            acc.step(z)
            smooth_errs.append(0.5 * float(np.dot(z, z)))
        smooth_slope = np.polyfit(
            np.log(ts[window]), np.log(np.maximum(np.array(smooth_errs)[window], 1e-300)), 1
        )[0]

        learner = xo.ExpFtrl(
            xo.ScheduleParams(d, radius), mode=xo.BallConstraint(radius), x1=0.25 * np.ones(d)
        )
        acc = xo.Accelerator(learner)
        l1_errs = []
        for _ in range(horizon):
            z = acc.x
            acc.step(np.sign(z))
            l1_errs.append(float(np.sum(np.abs(z))))
        l1_slope = np.polyfit(np.log(ts[window]), np.log(np.array(l1_errs)[window]), 1)[0]
        elapsed = time.monotonic() - start
        report(
            "accelerated rates (smooth quadratic and l1)",
            smooth_slope <= -1.7 and l1_slope <= -0.45 and elapsed < 60.0,
            f"slopes {smooth_slope:.2f} / {l1_slope:.2f}, {elapsed:.0f}s",
        )

    def test_12_zeroth_order_estimator(self):
        rng = np.random.default_rng(42)
        c = np.array([2.0, -2.0, 2.0, 2.0, -2.0])
        calls = {"n": 0}

        def f(x):
            calls["n"] += 1
            return float(np.dot(c, x))

        cfg = xo.rademacher_config(mu=0.05, batch=100_000)
        est = xo.two_point_grad(f, np.zeros(5), cfg, rng)
        rel = float(np.max(np.abs(est - c) / np.abs(c)))
        report(
            "two-point estimator (1e5 Rademacher samples, exact eval count)",
            rel <= 0.02 and calls["n"] == 100_001,
            f"max rel err {rel:.3%}, {calls['n']} evaluations",
        )

    def test_13_harness_determinism(self, tmp_path):
        ok = True
        details = []
        configs = {
            "logistic": dict(kind="logistic", dim=12, horizon=25, trials=2, sparsity=0.5,
                             radius_mode="known", algorithms=["exp_md", "adaftrl"], seed=33),
            "multitask": dict(kind="multitask", dim=6, tasks=3, rank=1, horizon=20, trials=2,
                              sparsity=0.0, radius_mode="known",
                              algorithms=["spectral_exp_ftrl", "adagrad"], seed=33),
            "blackbox": dict(kind="blackbox", dim=5, horizon=15, trials=2, sparsity=0.0,
                             radius_mode="known", algorithms=["acc_exp_md", "acc_adaftrl"],
                             seed=33),
        }
        for sub, data in configs.items():
            cfg = tmp_path / f"{sub}.json"
            cfg.write_text(json.dumps(data))
            a, b = tmp_path / f"{sub}_a.csv", tmp_path / f"{sub}_b.csv"
            ra = cli_main([sub, "--config", str(cfg), "--out", str(a)])
            rb = cli_main([sub, "--config", str(cfg), "--out", str(b)])
            same = ra == rb == 0 and a.read_bytes() == b.read_bytes()
            ok &= same
            details.append(f"{sub}:{'=' if same else '!='}")
        report("harness determinism (byte-identical CSV)", ok, " ".join(details))

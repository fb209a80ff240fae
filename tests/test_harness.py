"""Streams, experiment runner, accounting, and output formats."""

import importlib.util
import json
import lzma
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from expopt.cli import main
from expopt.harness import (
    ExperimentSpec,
    aggregate_mean_std,
    final_values,
    logistic_loss_grad,
    multitask_loss_grad,
    run_experiment,
    write_csv,
    write_metadata,
)
from expopt.harness import experiments as exp_mod
from expopt.harness import registry, streams
from expopt.harness.streams import logistic_blocks, multitask_blocks
from whole_stream import whole_stream


class TestLogisticBlocks:
    def test_exact_sparsity_rounding(self):
        rng = np.random.default_rng(80)
        w_star, *_ = whole_stream(logistic_blocks, 100, 10, 0.99, rng)
        assert np.count_nonzero(w_star) == 1

    def test_labels_are_signs(self):
        rng = np.random.default_rng(81)
        _, _, labels, _ = whole_stream(logistic_blocks, 10, 200, 0.5, rng)
        assert set(np.unique(labels)) <= {-1.0, 1.0}

    def test_fair_labels_for_zero_truth(self):
        rng = np.random.default_rng(82)
        w_star, _, labels, _ = whole_stream(logistic_blocks, 20, 10_000, 1.0, rng)
        assert np.count_nonzero(w_star) == 0
        freq = np.mean(labels == 1.0)
        assert abs(freq - 0.5) <= 0.02

    def test_loss_matches_log1p_form(self):
        rng = np.random.default_rng(83)
        _, features, labels, _ = whole_stream(logistic_blocks, 8, 50, 0.5, rng)
        w = rng.uniform(-1, 1, 8)
        for t in range(50):
            m = labels[t] * float(np.dot(w, features[t]))
            alt = math.log1p(math.exp(-m)) if m >= 0 else -m + math.log1p(math.exp(m))
            loss = logistic_loss_grad(w, features[t], labels[t])[0]
            assert loss == pytest.approx(alt, abs=1e-12)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(84)
        _, features, labels, _ = whole_stream(logistic_blocks, 5, 10, 0.4, rng)
        w = rng.uniform(-0.5, 0.5, 5)
        g = logistic_loss_grad(w, features[0], labels[0])[1]
        h = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (
                logistic_loss_grad(w + e, features[0], labels[0])[0]
                - logistic_loss_grad(w - e, features[0], labels[0])[0]
            ) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-8)


class TestMultitaskBlocks:
    @pytest.mark.parametrize("dim,tasks,rank", [(12, 6, 3), (6, 12, 3)])
    def test_rank_and_spectrum(self, dim, tasks, rank):
        rng = np.random.default_rng(85)
        w_star, sigma, *_ = whole_stream(multitask_blocks, dim, tasks, rank, 5, rng)
        s = np.linalg.svd(w_star, compute_uv=False)
        assert np.sum(s > 1e-8) == 3
        drawn = np.sort(sigma)[::-1]
        assert np.allclose(np.sort(s)[::-1][:3], drawn[:3], atol=1e-10)

    def test_nuclear_norm_equals_spectrum_sum(self):
        rng = np.random.default_rng(86)
        w_star, sigma, *_ = whole_stream(multitask_blocks, 8, 4, 2, 3, rng)
        s = np.linalg.svd(w_star, compute_uv=False)
        assert np.sum(s) == pytest.approx(np.sum(sigma), rel=1e-10)

    def test_zero_rank_gives_fair_coins(self):
        rng = np.random.default_rng(87)
        w_star, _, _, labels, _ = whole_stream(multitask_blocks, 6, 3, 0, 3000, rng)
        assert np.allclose(w_star, 0.0)
        assert abs(np.mean(labels == 1.0) - 0.5) <= 0.03

    def test_loss_is_sum_over_tasks(self):
        rng = np.random.default_rng(88)
        _, _, features, labels, _ = whole_stream(multitask_blocks, 5, 3, 2, 4, rng)
        w = rng.uniform(-0.5, 0.5, (5, 3))
        total = multitask_loss_grad(w, features[0], labels[0])[0]
        manual = sum(
            logistic_loss_grad(w[:, i], features[0][i], labels[0][i])[0] for i in range(3)
        )
        assert total == pytest.approx(manual, rel=1e-12)


class TestRunExperiment:
    def test_zero_horizon_gives_empty_records(self):
        spec = ExperimentSpec(
            kind="logistic", dim=5, horizon=0, trials=2, algorithms=("exp_md",), seed=1
        )
        records, failures = run_experiment(spec)
        assert records == [] and failures == []

    def test_rounds_contiguous(self):
        spec = ExperimentSpec(
            kind="logistic", dim=8, horizon=25, trials=2, sparsity=0.5,
            algorithms=("exp_md", "adagrad"), seed=2,
        )
        records, _ = run_experiment(spec)
        for algo in ("exp_md", "adagrad"):
            for trial in (0, 1):
                rounds = [r.round for r in records if r.algorithm == algo and r.trial == trial]
                assert rounds == list(range(1, 26))

    def test_algorithm_order_does_not_change_results(self):
        base = dict(kind="logistic", dim=8, horizon=30, trials=2, sparsity=0.5, seed=3)
        a, _ = run_experiment(ExperimentSpec(algorithms=("exp_md", "adaftrl"), **base))
        b, _ = run_experiment(ExperimentSpec(algorithms=("adaftrl", "exp_md"), **base))
        assert a == b  # canonical sort makes the record lists comparable

    def test_threads_do_not_change_results(self):
        spec = ExperimentSpec(
            kind="multitask", dim=6, tasks=3, rank=2, horizon=20, trials=4, sparsity=0.0,
            algorithms=("spectral_exp_md", "adagrad"), seed=4,
        )
        a, _ = run_experiment(spec, threads=1)
        b, _ = run_experiment(spec, threads=3)
        assert a == b

    def test_unknown_algorithm_raises(self):
        spec = ExperimentSpec(
            kind="logistic", dim=5, horizon=5, trials=1, algorithms=("nope",), seed=1
        )
        with pytest.raises(KeyError):
            run_experiment(spec)

    def test_numeric_failure_is_tagged(self, monkeypatch):
        class Exploding:
            x = np.zeros(5)

            def step(self, g, h_next=None, reg_weight=1.0):
                from expopt import NumericRangeError

                raise NumericRangeError("boom")

        monkeypatch.setattr(registry, "build_vector_learner", lambda *a, **k: Exploding())
        spec = ExperimentSpec(
            kind="logistic", dim=5, horizon=5, trials=2, algorithms=("exp_md",), seed=1
        )
        records, failures = run_experiment(spec)
        assert len(failures) == 2
        assert all(f.error == "boom" and f.round == 1 for f in failures)
        assert records == []

    def test_loss_accounting_recomputable(self):
        spec = ExperimentSpec(
            kind="logistic", dim=10, horizon=40, trials=1, sparsity=0.6,
            algorithms=("exp_ftrl",), seed=9,
        )
        records, _ = run_experiment(spec)
        values = np.array([r.value for r in records])
        # replay the identical stream and learner to rebuild the cumulative sums
        from expopt import BallConstraint, ExpFtrl, ScheduleParams

        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        w_star, features, labels, _ = whole_stream(logistic_blocks, 10, 40, 0.6, rng)
        radius = float(np.sum(np.abs(w_star)))
        learner = ExpFtrl(ScheduleParams(10, radius), mode=BallConstraint(radius))
        cum, replay = 0.0, []
        for x, y in zip(features, labels):
            loss, grad = logistic_loss_grad(learner.x, x, y)
            cum += loss - logistic_loss_grad(w_star, x, y)[0]
            learner.step(grad)
            replay.append(cum)
        assert np.allclose(values, replay, atol=1e-9)


class TestAggregation:
    def test_matches_single_and_two_pass(self):
        spec = ExperimentSpec(
            kind="logistic", dim=6, horizon=15, trials=5, sparsity=0.5,
            algorithms=("adagrad",), seed=12,
        )
        records, _ = run_experiment(spec)
        rounds, mean, std = aggregate_mean_std(records)["adagrad"]
        data = np.array(
            [[r.value for r in sorted(
                (x for x in records if x.trial == t), key=lambda r: r.round)]
             for t in range(5)]
        )
        # two-pass
        mean2 = data.sum(axis=0) / 5
        std2 = np.sqrt(((data - mean2) ** 2).sum(axis=0) / 5)
        # single-pass (Welford)
        mean1 = np.zeros(15)
        m2 = np.zeros(15)
        for i in range(5):
            delta = data[i] - mean1
            mean1 += delta / (i + 1)
            m2 += delta * (data[i] - mean1)
        std1 = np.sqrt(m2 / 5)
        assert np.allclose(mean, mean2, atol=1e-12) and np.allclose(mean, mean1, atol=1e-12)
        assert np.allclose(std, std2, atol=1e-12) and np.allclose(std, std1, atol=1e-12)


class TestOutputs:
    def test_csv_and_metadata(self, tmp_path):
        spec = ExperimentSpec(
            kind="logistic", dim=5, horizon=4, trials=1, sparsity=0.5,
            algorithms=("exp_md",), seed=13,
        )
        records, failures = run_experiment(spec)
        out = tmp_path / "r.csv"
        write_csv(records, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment,algorithm,trial,round,value"
        assert len(lines) == 5
        meta = write_metadata(spec, out, failures, "0.1.0")
        payload = json.loads(open(meta).read())
        assert payload["spec"]["dim"] == 5
        assert payload["rng"] == exp_mod.RNG_IDENTIFIER
        assert payload["failures"] == []

    def test_spec_round_trip_and_unknown_keys(self):
        spec = ExperimentSpec(
            kind="multitask", dim=6, tasks=3, rank=1, horizon=5, trials=1, sparsity=0.0,
            algorithms=("adagrad",), seed=4,
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({**spec.to_dict(), "typo_key": 1})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="bogus", dim=5, horizon=5, trials=1, algorithms=("a",), seed=1)
        with pytest.raises(ValueError):
            ExperimentSpec(
                kind="logistic", dim=5, horizon=5, trials=1, algorithms=("a",), seed=1,
                sparsity=1.5,
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                kind="multitask", dim=3, tasks=2, rank=3, horizon=5, trials=1,
                algorithms=("a",), seed=1,
            )

    def test_spec_integers(self):
        spec = ExperimentSpec(
            kind="logistic", dim=np.int64(5), horizon=np.int32(5), trials=1,
            algorithms=["exp_md"], seed=np.uint64(3),
        )
        assert (spec.dim, spec.horizon, spec.seed) == (5, 5, 3)
        assert all(type(v) is int for v in (spec.dim, spec.horizon, spec.seed))
        assert spec.algorithms == ("exp_md",)
        base = dict(kind="logistic", dim=5, horizon=5, trials=1, algorithms=("exp_md",), seed=1)
        for field, bad in [("dim", 5.0), ("trials", True), ("seed", "1"), ("rank", 0.0)]:
            with pytest.raises(TypeError, match=field):
                ExperimentSpec(**{**base, field: bad})
        for field, bad in [("seed", -1), ("tasks", 0), ("rank", -1)]:
            with pytest.raises(ValueError, match=field):
                ExperimentSpec(**{**base, field: bad})
        for bad in ["exp_md", ("exp_md", 3), None]:
            with pytest.raises(TypeError, match="algorithms"):
                ExperimentSpec(**{**base, "algorithms": bad})

    def test_spec_rejects_an_unknown_radius_mode_and_no_algorithms(self):
        base = dict(kind="logistic", dim=5, horizon=5, trials=1, algorithms=("exp_md",), seed=1)
        with pytest.raises(ValueError, match="radius_mode"):
            ExperimentSpec(**{**base, "radius_mode": "quarter"})
        with pytest.raises(ValueError, match="algorithms"):
            ExperimentSpec(**{**base, "algorithms": []})

    def test_generators_reject_what_a_spec_rejects(self):
        with pytest.raises(ValueError, match="sparsity"):
            logistic_blocks(5, 5, 1.5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="rank"):
            multitask_blocks(3, 2, 3, 5, np.random.default_rng(0))


class TestBlackbox:
    def test_runs_both_batch_settings(self):
        spec = ExperimentSpec(
            kind="blackbox", dim=6, horizon=10, trials=1, sparsity=0.0,
            algorithms=("acc_exp_ftrl", "acc_adagrad"), seed=14,
        )
        records, failures = run_experiment(spec)
        labels = {r.algorithm for r in records}
        assert labels == {
            "acc_exp_ftrl@b1", "acc_exp_ftrl@bsqrtT", "acc_adagrad@b1", "acc_adagrad@bsqrtT",
        }
        assert not failures

    def test_objective_values_finite_and_composite(self):
        from expopt.harness.streams import gen_blackbox_problem

        rng = np.random.default_rng(15)
        problem = gen_blackbox_problem(6, rng)
        x = rng.uniform(-1, 1, 6)
        val = problem.objective(x)
        assert val == pytest.approx(
            problem.smooth(x) + 0.5 * np.sum(np.abs(x)) + 0.25 * np.dot(x, x)
        )
        assert problem.smooth(np.full(6, 100.0)) > 0  # quadratic growth far out

    @pytest.mark.parametrize("rows", [1, 2, 18])
    @pytest.mark.parametrize("dim", [1, 6, 20])
    def test_smooth_matches_reference_formula(self, dim, rows):
        from expopt.harness.streams import BlackboxComposite, gen_blackbox_problem

        rng = np.random.default_rng(16 + 100 * dim + rows)
        problem = gen_blackbox_problem(dim, rng)
        # offsets below -kappa make the hinge active near the centers
        flat = BlackboxComposite(
            problem.mats, problem.centers, np.full(3, -2.0), problem.kappa, problem.reg
        )
        hinged = 0
        for oracle in (problem, flat):
            for _ in range(500 // rows):
                xs = rng.uniform(-1.0, 1.0, (rows, dim)) * 10.0 ** rng.integers(-3, 2)
                near = rng.random(rows) < 0.3
                xs[near] = oracle.centers[rng.integers(3, size=near.sum())] + 1e-3 * xs[near]
                stack = oracle.smooth(xs)
                assert stack.shape == (rows,)
                for x, value in zip(xs, stack):
                    t = np.einsum("pij,pj->pi", oracle.mats, x[None, :] - oracle.centers)
                    ref = float(
                        max(np.max(0.5 * np.sum(t**2, axis=1) + oracle.offsets), -oracle.kappa)
                    )
                    one = oracle.smooth(x)
                    assert type(one) is float and one == ref
                    # a row of the stack has the bits of the row alone
                    assert value.tobytes() == np.float64(ref).tobytes()
                    hinged += ref == -oracle.kappa
        assert hinged > 0

    def test_nan_oracle_is_one_failure_per_variant(self, monkeypatch):
        from expopt.harness import streams

        points = [0]
        clean = streams.BlackboxComposite.smooth

        def smooth(self, x):
            # finite for the first 15 evaluated points, NaN for every later one.  The
            # acc_exp_md stack plays first: each round one call on its two rows' points, the
            # 2 of the batch-1 row, then the 4 of the batch-3 row (T = 9), whose row 0 is also
            # its objective point.  Round 3's call holds points 12-17: the batch-1 row's 12 and
            # 13 are finite, the batch-3 row's 14-17 are not from 15 on.
            first, rows = points[0], len(x) if np.ndim(x) == 2 else 1
            points[0] += rows
            values = clean(self, x)
            if np.ndim(x) == 2:
                return np.where(np.arange(first, first + rows) < 15, values, np.nan)
            return values if first < 15 else float("nan")

        monkeypatch.setattr(streams.BlackboxComposite, "smooth", smooth)
        algorithms = ("acc_exp_md", "acc_exp_ftrl", "acc_adagrad", "acc_adaftrl")
        spec = ExperimentSpec(
            kind="blackbox", dim=6, horizon=9, trials=1, sparsity=0.0,
            algorithms=algorithms, seed=14,
        )
        records, failures = run_experiment(spec)
        labels = [f"{a}@b1" for a in algorithms] + [f"{a}@bsqrtT" for a in algorithms]
        assert sorted(f.algorithm for f in failures) == sorted(labels)
        assert all("non-finite oracle value" in f.error for f in failures)
        rounds = {f.algorithm: f.round for f in failures}
        # the NaN at point 15 ends the batch-3 row alone, at round 3; the batch-1 row plays
        # on alone until its own points turn NaN at round 4, and every later run at round 1
        assert rounds.pop("acc_exp_md@bsqrtT") == 3
        assert rounds.pop("acc_exp_md@b1") == 4
        assert set(rounds.values()) == {1}
        # three rounds of the exp_md stack and its batch-1 row's fourth, then one round of the
        # acc_exp_ftrl stack (2 + 4 points) and of the diagonal one (2 + 2 + 4 + 4)
        assert points[0] == 3 * 6 + 2 + 6 + 12
        assert [(r.algorithm, r.round) for r in records] == (
            [("acc_exp_md@b1", t) for t in (1, 2, 3)] + [("acc_exp_md@bsqrtT", t) for t in (1, 2)]
        )
        assert all(math.isfinite(r.value) for r in records)

    def test_nan_in_a_middle_row_of_a_stack_fails_that_variant_at_that_round(
        self, monkeypatch
    ):
        from expopt.harness import streams

        algorithms = ("acc_exp_md", "acc_exp_ftrl", "acc_adagrad")
        spec = ExperimentSpec(
            kind="blackbox", dim=6, horizon=9, trials=1, sparsity=0.0,
            algorithms=algorithms, seed=14,
        )
        clean_records, _ = run_experiment(spec)
        stacks = [0]
        clean = streams.BlackboxComposite.smooth

        def smooth(self, x):
            values = clean(self, x)
            # each algorithm's two variants are one stack, scored by one call a round on the
            # 2 points of the batch-1 row and then the 4 of the batch-3 row (T = 9)
            if np.ndim(x) == 2 and len(x) == 6:
                stacks[0] += 1
                if stacks[0] == 9 + 4:  # round 4 of the second stack, acc_exp_ftrl's
                    values[2 + 2] = np.nan  # a middle point of the batch-3 row's estimate
            return values

        monkeypatch.setattr(streams.BlackboxComposite, "smooth", smooth)
        records, failures = run_experiment(spec)
        # from round 5 the batch-1 row of acc_exp_ftrl plays on alone, 2 points a call
        assert stacks[0] == 3 * 9 - 5
        assert [(f.algorithm, f.round) for f in failures] == [("acc_exp_ftrl@bsqrtT", 4)]
        assert "non-finite oracle value" in failures[0].error
        kept = [r for r in clean_records if r.algorithm != "acc_exp_ftrl@bsqrtT" or r.round < 4]
        assert records == kept


class TestBlackboxReferenceBytes:
    """The in-process blackbox-accel CSVs equal the committed benchmark references."""

    @pytest.mark.parametrize("seed", [7, 4099])
    def test_csv_matches_reference_byte_for_byte(self, tmp_path, seed):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        loader = importlib.util.spec_from_file_location(
            "perfbench_workloads", perfbench / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(workloads)
        spec = ExperimentSpec.from_dict(workloads.make_spec("blackbox-accel", seed))
        records, failures = run_experiment(spec)
        out = tmp_path / "out.csv"
        write_csv(records, out)
        ref = perfbench / "refs" / f"blackbox-accel.seed{seed}.csv.xz"
        assert failures == []
        assert out.read_bytes() == lzma.decompress(ref.read_bytes())


class TestLogisticOracle:
    def test_scalar_sigmoid_matches_array_sigmoid(self):
        from expopt.harness.streams import _sigmoid, _sigmoid_scalar

        rng = np.random.default_rng(17)
        margins = np.concatenate([
            rng.normal(0.0, 1.0, 20_000),
            rng.normal(0.0, 30.0, 20_000),
            rng.uniform(-750.0, 750.0, 10_000),
            [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.0, -745.0, 800.0, -800.0],
        ])
        for m in margins:
            expected = float(_sigmoid(np.array([m]))[0])
            assert _sigmoid_scalar(float(m)) == expected

    def test_array_sigmoid_is_the_two_branch_formula_bit_for_bit(self):
        from expopt.harness.streams import _sigmoid

        def two_branch(m):  # 1/(1+exp(-m)) for m >= 0, exp(m)/(1+exp(m)) below
            out = np.empty_like(m)
            pos = m >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
            em = np.exp(m[~pos])
            out[~pos] = em / (1.0 + em)
            return out

        rng = np.random.default_rng(19)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 1e-320, -1e-320,
                            np.nan, -np.nan, 709.0, -709.0, 36.7, -36.7])
        for m in [special, *(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), rng.integers(0, 700))
                             for _ in range(2000))]:
            assert _sigmoid(m).tobytes() == two_branch(m).tobytes()

    def test_loss_grad_matches_array_sigmoid_formula(self):
        from expopt.harness.streams import _sigmoid

        rng = np.random.default_rng(18)
        _, features, labels, _ = whole_stream(logistic_blocks, 50, 300, 0.5, rng)
        for x, y in zip(features, labels):
            w = rng.normal(0.0, 10.0 ** rng.integers(-2, 3), 50)
            loss, grad = logistic_loss_grad(w, x, y)
            m = y * float(np.dot(w, x))
            assert loss == float(np.logaddexp(0.0, -m))
            expected = (-y * float(_sigmoid(np.array([-m]))[0])) * x
            assert grad.tobytes() == expected.tobytes()
            again = logistic_loss_grad(w, x, y)  # a second call gives the same bits
            assert again[0] == loss and np.array_equal(again[1], grad)


class TestAlgorithmNamesCheckedFirst:
    @pytest.mark.parametrize(
        "kind,builder,known,extra",
        [
            ("logistic", "build_vector_learner", "exp_md", {}),
            ("multitask", "build_matrix_learner", "spectral_exp_md", {"tasks": 3, "rank": 1}),
            ("blackbox", "accelerated_family", "acc_exp_md", {}),
        ],
    )
    def test_unknown_name_fails_before_any_build(self, monkeypatch, kind, builder, known, extra):
        real = getattr(registry, builder)
        builds = []

        def counted(*args, **kwargs):
            builds.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(registry, builder, counted)
        spec = ExperimentSpec(
            kind=kind, dim=4, horizon=3, trials=2, sparsity=0.0,
            algorithms=(known, "nope"), seed=1, **extra,
        )
        with pytest.raises(KeyError, match="nope"):
            run_experiment(spec)
        assert builds == []


def test_a_repeated_algorithm_is_a_config_error():
    with pytest.raises(ValueError, match="repeat"):
        ExperimentSpec(
            kind="logistic", dim=5, horizon=5, trials=1, algorithms=("exp_md", "exp_md"), seed=1
        )


@pytest.mark.parametrize("flag", [True, np.bool_(False)])
def test_a_bool_sparsity_is_a_config_error(tmp_path, flag):
    base = dict(kind="logistic", dim=5, horizon=5, trials=1, algorithms=["exp_md"], seed=1)
    with pytest.raises(TypeError, match="sparsity"):
        ExperimentSpec(**base, sparsity=flag)
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps({**base, "sparsity": bool(flag)}))
    assert main(["logistic", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


def test_no_run_keeps_an_earlier_decision_alive_while_another_group_plays(monkeypatch):
    # a 2-row stack of adagrad and adaftrl and a lone exp_md, over three blocks of 40 rounds
    monkeypatch.setattr(streams, "BLOCK_BYTES", 40 * 8 * 500)
    spec = ExperimentSpec(kind="logistic", dim=500, horizon=120, trials=1,
                          algorithms=("adagrad", "adaftrl", "exp_md"), seed=3)
    oracle, seen, shapes, alive = streams.logistic_loss_grad, [], set(), []

    def spy(w, x, y):  # a stacked row is a view of the stack's decision
        owner = w if w.base is None else w.base
        alive.append(sum(ref() is not None and ref() is not owner for ref in seen))
        seen.append(weakref.ref(owner))
        shapes.add(owner.shape)
        return oracle(w, x, y)

    monkeypatch.setattr(streams, "logistic_loss_grad", spy)
    records, failures = run_experiment(spec)
    assert not failures and len(records) == 3 * 120
    assert shapes == {(2, 500), (500,)}
    assert alive == [0] * len(alive)

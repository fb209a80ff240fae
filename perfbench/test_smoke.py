"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

They run the benchmark through its command line, check that the metrics it
prints are exactly those ``BENCHMARK.json`` declares, and check the
per-layer counts that must repeat exactly against counts derived from the
workload specs alone.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in workloads.WORKLOADS:
        proc = bench("--workload", name, "--seed", str(SEED), "--seconds", "0",
                     "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[name] = last_json(proc)
    return out


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_metrics_match_benchmark_json():
    proc = bench("--workload", "blackbox-accel", "--seed", str(SEED), "--seconds", "0",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_host_factor_is_probe_time_over_reference():
    ref = (run.CALIB_REF_WALL_S, run.CALIB_REF_CPU_S)
    assert run.host_factor(ref, ref) == pytest.approx((1.0, 1.0))
    twice = (2 * ref[0], 2 * ref[1])
    assert run.host_factor(ref, twice) == pytest.approx((1.5, 1.5))


def test_traced_metrics_match_benchmark_json(traced):
    for result in traced.values():
        assert result["correct"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared("per_layer")


def value(result, name):
    return result["metrics"][name]["value"]


def test_oracle_evals_are_batch_plus_one_per_estimate(traced):
    spec = workloads.make_spec("blackbox-accel", SEED, tiny=True)
    assert value(traced["blackbox-accel"], "zeroth_order.oracle_evals") == workloads.oracle_evals(spec)
    all_rounds = workloads.rounds_of(spec, spec["algorithms"])
    assert value(traced["blackbox-accel"], "zeroth_order.grad_calls") == all_rounds
    assert value(traced["blackbox-accel"], "accelerate.step_calls") == all_rounds


def test_exp_learner_steps_are_exp_learner_rounds(traced):
    for name, result in traced.items():
        spec = workloads.make_spec(name, SEED, tiny=True)
        assert value(result, "learners.step_calls") == workloads.rounds_of(
            spec, workloads.EXP_LEARNERS
        ), name


def test_spectral_factorizations_per_round_and_per_learner(traced):
    for name, result in traced.items():
        spec = workloads.make_spec(name, SEED, tiny=True)
        names = workloads.SPECTRAL_LEARNERS
        expected = 2 * workloads.rounds_of(spec, names) + workloads.learners_built(spec, names)
        got = value(result, "spectral.svd_calls") + value(result, "spectral.norm_calls")
        assert got == expected, name


def test_records_are_one_per_round(traced):
    for name, result in traced.items():
        spec = workloads.make_spec(name, SEED, tiny=True)
        assert value(result, "harness.records") == workloads.expected_rows(spec), name


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        ("root", 0, 100, -1, None),
        ("a", 10, 30, 0, None),
        ("a.inner", 12, 20, 1, None),
        ("b", 20, 50, 0, None),  # overlaps a: the union 10..50 covers 40
        ("c", 90, 120, 0, None),  # ends after root: only 90..100 counts
    ]
    assert tracing.self_times_ns(spans) == [100 - 40 - 10, 20 - 8, 8, 30, 30]


def test_tracer_restores_every_function_even_after_an_error():
    mod = types.ModuleType("fake")

    def boom(x):
        raise ValueError(x)

    def fine(x):
        return mod.boom(x)

    mod.boom, mod.fine = boom, fine
    tracer = tracing.Tracer()
    tracer.wrap(mod, "boom", "boom")
    tracer.wrap(mod, "fine", "fine", info=lambda a, k, r: r)
    tracer.wrap(mod, "absent", "absent")
    with pytest.raises(ValueError):
        mod.fine(1)
    assert tracer.restore() == []
    assert mod.boom is boom and mod.fine is fine
    assert tracer.missing == ["fake.absent"]
    assert [(s[0], s[3]) for s in tracer.spans] == [("fine", -1), ("boom", 0)]


def test_tolerance_comparison():
    ref = b"experiment,algorithm,trial,round,value\nx,a,0,1,1000.0\nx,a,0,2,-2.5\n"
    close = b"experiment,algorithm,trial,round,value\nx,a,0,1,1000.0000000001\nx,a,0,2,-2.5\n"
    far = b"experiment,algorithm,trial,round,value\nx,a,0,1,1000.001\nx,a,0,2,-2.5\n"
    short = b"experiment,algorithm,trial,round,value\nx,a,0,1,1000.0\n"
    nan = b"experiment,algorithm,trial,round,value\nx,a,0,1,nan\nx,a,0,2,-2.5\n"
    assert checks.csv_problems(close, 2, ref) == []
    assert checks.csv_problems(far, 2, ref)
    assert checks.csv_problems(short, 2, ref)
    assert checks.csv_problems(nan, 2, None)


def test_references_match_workload_definitions():
    for name in workloads.WORKLOADS:
        for seed in workloads.REF_SEEDS:
            ref = checks.load_ref(name, seed)
            assert ref is not None, (name, seed)
            spec = workloads.make_spec(name, seed)
            assert checks.csv_problems(ref, workloads.expected_rows(spec), None) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "logistic-d500", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

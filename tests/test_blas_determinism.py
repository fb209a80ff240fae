"""The same CSV bytes at any BLAS thread count, and one BLAS thread per CLI run.

The logistic oracle's margin is a fixed-order reduction: ``np.dot`` up to
10 000 elements, which OpenBLAS computes on one thread, and above that the
sum of the reduction over the two halves.  The CLI pins OpenBLAS to one
thread for its run and records the pin in the sidecar.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expopt import cli
from expopt.harness.streams import _fixed_order_dot

SRC = Path(__file__).resolve().parents[1] / "src"


def pair(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("n", [0, 1, 7, 500, 9_999, 10_000])
def test_reduction_is_np_dot_up_to_the_leaf_size(n):
    for seed in range(20):
        a, b = pair(n, seed)
        assert _fixed_order_dot(a, b) == float(np.dot(a, b))


def test_reduction_sums_the_halves_above_the_leaf_size():
    for seed in range(20):
        a, b = pair(40_000, seed)
        leaves = [float(np.dot(a[i : i + 10_000], b[i : i + 10_000]))
                  for i in range(0, 40_000, 10_000)]
        assert _fixed_order_dot(a[:20_000], b[:20_000]) == leaves[0] + leaves[1]
        assert _fixed_order_dot(a, b) == (leaves[0] + leaves[1]) + (leaves[2] + leaves[3])


def test_odd_length_splits_at_half_rounded_down():
    # 20 001 -> 10 000 + 10 001, and the 10 001 half -> 5 000 + 5 001: every
    # leaf is a one-thread np.dot whatever the test process's BLAS threads
    a, b = pair(20_001, 3)
    leaves = [float(np.dot(a[i:j], b[i:j])) for i, j in ((0, 10_000), (10_000, 15_000), (15_000, 20_001))]
    assert _fixed_order_dot(a, b) == leaves[0] + (leaves[1] + leaves[2])


def d20k_config(tmp_path):
    spec = {
        "kind": "logistic", "dim": 20_000, "horizon": 12, "trials": 1, "sparsity": 0.99,
        "radius_mode": "half", "algorithms": ["exp_md", "eg_pm"], "seed": 7,
    }
    path = tmp_path / "d20k.json"
    path.write_text(json.dumps(spec))
    return path


def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = d20k_config(tmp_path)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = tmp_path / f"t{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "expopt.cli", "logistic",
             "--config", str(cfg), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outs.append(out)
    assert filecmp.cmp(*outs, shallow=False)


def test_in_process_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    from expopt.harness import ExperimentSpec, run_experiment, write_csv

    blas = cli._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    _, get, set_ = blas
    spec = ExperimentSpec.from_dict(json.loads(d20k_config(tmp_path).read_text()))
    before = get()
    outs = []
    try:
        for threads in (1, 2):
            set_(threads)
            out = tmp_path / f"in{threads}.csv"
            write_csv(run_experiment(spec)[0], out)
            outs.append(out)
    finally:
        set_(before)
    assert filecmp.cmp(*outs, shallow=False)


def small_run(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({
        "kind": "logistic", "dim": 10, "horizon": 5, "trials": 1, "sparsity": 0.5,
        "algorithms": ["exp_md"], "seed": 3,
    }))
    out = tmp_path / "small.csv"
    assert cli.main(["logistic", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((tmp_path / "small.csv.meta.json").read_text())["blas"]


def test_main_pins_one_thread_and_restores_the_count(tmp_path, capsys):
    blas = cli._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    path, get, set_ = blas
    before = get()
    try:
        set_(2)  # OpenBLAS may cap it at the core count
        found = get()
        record = small_run(tmp_path)
        assert get() == found
        assert record == {"library": path, "threads_before": found, "threads": 1}
    finally:
        set_(before)


def test_sidecar_records_nulls_without_a_pin(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert small_run(tmp_path) == {"library": None, "threads_before": None, "threads": None}

"""expopt benchmark: CLI runs end to end, or one traced in-process run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload logistic-d500 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

``--trace 0`` runs the public CLI (``python -m expopt.cli <kind> --config
<workload json> --out <csv>``) in fresh interpreters, back to back, for
``--seconds`` seconds and reports the end-to-end metrics as medians over
those runs.  Before every second CLI run (and at least five times) a fresh
interpreter imports ``expopt.cli`` and parses the config: ``setup_s``.  A
host-speed probe (``calibrate.py``, a fixed piece of work) runs before and
after each of these timings, and every timing is divided by how much slower
than the reference host its two probes ran, so the metrics follow the
program rather than the load on a shared host.  Every CSV is
checked: the run's exit code, row count, finite values and sidecar
failures, and its values against the committed reference for the seed
(``refs/``).  A seed without a reference is checked against the first run
of the same seed, and one extra, untimed CLI run at a reference seed
checks the program against recorded output.

``--trace 1`` runs the CLI once (plus the check run), then alternates untraced and traced
in-process passes of ``run_experiment``/``write_csv``/``write_metadata``
for ``--seconds`` seconds and reports the per-layer metrics.  Every
traced CSV must be byte-identical to the CLI's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record,
with the environment, goes to ``.perfbench_out/``.  The exit code is 0
only when every output was correct.  The benchmark reads and writes only
inside the checkout and sets no BLAS variable of its own.
"""

import argparse
import contextlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import envrecord
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
CLI_THREADS = 1
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
# Wall and user+sys CPU seconds of one ``calibrate.py`` run on the host the
# baseline was recorded on (2-core VM, see baseline.json).  Timings are
# reported at this host speed: a probe that takes twice as long means the
# host runs at half speed, so the neighbouring timings are halved.
CALIB_REF_WALL_S = 0.41
CALIB_REF_CPU_S = 0.43

E2E_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "cpu_us_per_round": "us",
    "peak_rss_mb": "MB",
    "trial_ok_ratio": "ratio",
    "output_match_ratio": "ratio",
}

# Runs in a fresh interpreter: what every CLI run pays before round 1.
_SETUP = (
    "import json, sys\n"
    "import expopt.cli\n"
    "from expopt.harness import ExperimentSpec\n"
    "with open(sys.argv[1]) as fh:\n"
    "    ExperimentSpec.from_dict(json.load(fh))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _wait(proc, timeout):
    """Reap ``proc`` with its resource usage; kill it after ``timeout`` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(argv, log: Path):
    """Run ``argv`` with stdout/stderr to ``log``; returns (exit, wall_s, usage)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=fh, stderr=fh)
        code, usage = _wait(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
    return code, wall, usage


def calibrate(work: Path) -> tuple:
    """One host-speed probe: (wall_s, cpu_s) of ``calibrate.py``.

    It runs in the environment the CLI gets, BLAS threads included, so it
    meets a busy host the way a CLI run does.
    """
    code, wall, usage = run_child([sys.executable, str(CALIBRATE)], work / "calibrate.log")
    if code != 0:
        raise RuntimeError(f"calibrate.py exited {code}: {(work / 'calibrate.log').read_text()}")
    return wall, usage.ru_utime + usage.ru_stime


def host_factor(before: tuple, after: tuple) -> tuple:
    """How much slower than the reference host the probes around a timing ran.

    Returns (wall, cpu) factors, each the mean of the two probes over its
    reference time; a timing divided by its factor is at reference speed.
    """
    return ((before[0] + after[0]) / 2 / CALIB_REF_WALL_S,
            (before[1] + after[1]) / 2 / CALIB_REF_CPU_S)


def setup_probe(cfg: Path, work: Path) -> float:
    code, wall, _ = run_child([sys.executable, "-c", _SETUP, str(cfg)], work / "setup.log")
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}: {(work / 'setup.log').read_text()}")
    return wall


def write_config(spec: dict, path: Path) -> Path:
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return path


def cli_run(spec: dict, cfg: Path, work: Path, expect: bytes | None) -> dict:
    """One CLI run and its checks against ``expect`` (reference bytes or None)."""
    out = work / "out.csv"
    meta = work / "out.csv.meta.json"
    for stale in (out, meta):
        stale.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "expopt.cli", spec["kind"], "--config", str(cfg),
            "--out", str(out), "--threads", str(CLI_THREADS)]
    code, wall, usage = run_child(argv, work / "cli.log")
    attempted = workloads.units(spec)
    data = out.read_bytes() if out.exists() else b""
    if code != 0 or not meta.exists():
        failed = attempted
        problems = [f"CLI exited {code}: {(work / 'cli.log').read_text()[-500:]}"]
    else:
        failed = checks.sidecar_failures(meta)
        problems = checks.csv_problems(data, workloads.expected_rows(spec), expect)
        if failed:
            problems.append(f"{failed} trial failures in the sidecar")
    rows = max(data.count(b"\n") - 1, 0)
    return {
        "seed": spec["seed"],
        "exit": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rows": rows,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sha256": checks.digest(data),
        "bytes_identical": None if expect is None else data == expect,
        "data": data,
    }


def reference_for(workload: str, seed: int, tiny: bool):
    return None if tiny else checks.load_ref(workload, seed)


def reference_check(workload: str, seed: int, tiny: bool, work: Path) -> list:
    """An untimed CLI run at a reference seed when ``seed`` has no reference.

    The timed runs of such a seed can only be compared with each other, so
    this run checks the program against recorded output.
    """
    if tiny or seed in workloads.REF_SEEDS:
        return []
    spec = workloads.make_spec(workload, workloads.REF_SEEDS[seed % len(workloads.REF_SEEDS)])
    cfg = write_config(spec, work / "check_config.json")
    return [cli_run(spec, cfg, work, checks.load_ref(workload, spec["seed"]))]


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool, work: Path) -> dict:
    spec = workloads.make_spec(workload, seed, tiny)
    cfg = write_config(spec, work / "config.json")
    ref = reference_for(workload, seed, tiny)
    env = envrecord.record(ROOT, child_env(), CLI_THREADS)
    runs, setups, probes = [], [], [calibrate(work)]

    def between_probes(timing):
        """``timing()``, then a host probe; returns its result and host factor."""
        out = timing()
        probes.append(calibrate(work))
        return out, host_factor(probes[-2], probes[-1])

    def setup_sample():
        wall, (slow, _) = between_probes(lambda: setup_probe(cfg, work))
        setups.append({"raw_s": wall, "host_wall": slow, "s": wall / slow})

    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        if len(runs) % 2 == 0:
            setup_sample()
        expect = ref if ref is not None else (runs[0]["data"] if runs else None)
        run, (slow, slow_cpu) = between_probes(lambda: cli_run(spec, cfg, work, expect))
        run["host_wall"], run["host_cpu"] = slow, slow_cpu
        runs.append(run)
    while len(setups) < MIN_SETUP_SAMPLES:
        setup_sample()
    timed = list(runs)
    runs += reference_check(workload, seed, tiny, work)
    rows = [max(r["rows"], 1) for r in timed]
    metrics = {
        "setup_s": statistics.median(s["s"] for s in setups),
        "rounds_per_s": statistics.median(
            n / (r["wall_s"] / r["host_wall"]) for n, r in zip(rows, timed)),
        "cpu_us_per_round": statistics.median(
            r["cpu_s"] / r["host_cpu"] / n * 1e6 for n, r in zip(rows, timed)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    # the same medians without the host-speed correction; printed, not gated
    raw = {
        "setup_s": statistics.median(s["raw_s"] for s in setups),
        "rounds_per_s": statistics.median(n / r["wall_s"] for n, r in zip(rows, timed)),
        "cpu_us_per_round": statistics.median(
            r["cpu_s"] / n * 1e6 for n, r in zip(rows, timed)),
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    matched = sum(1 for r in runs if not r["problems"])
    metrics["trial_ok_ratio"] = 1.0 - failed / attempted
    metrics["output_match_ratio"] = matched / len(runs)
    return {
        "workload": workload,
        "trace": 0,
        "spec": spec,
        "environment": env,
        "correct": matched == len(runs) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "units": E2E_UNITS,
        "samples": {"setup": setups, "timed_cli_runs": len(timed), "host_probes": probes},
        "runs": [{k: v for k, v in r.items() if k != "data"} for r in runs],
    }


def import_expopt() -> SimpleNamespace:
    """Import the checkout's expopt in this process."""
    sys.path.insert(0, str(SRC))
    # cli first, as in a CLI process, in case importing it configures numpy
    names = ("cli", "accelerate", "baselines", "learners", "prox", "spectral",
             "harness", "harness.experiments", "harness.registry", "harness.streams")
    mods = {n.split(".")[-1]: importlib.import_module(f"expopt.{n}") for n in names}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"expopt imported from {mods['cli'].__file__}, not {SRC}")
    mods["package"] = importlib.import_module("expopt")
    return SimpleNamespace(**mods)


def one_pass(ex, spec_obj, csv_path: Path, tracer: tracing.Tracer | None):
    """``run_experiment`` + ``write_csv`` + ``write_metadata``, as the CLI calls them."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    with span("harness.run_experiment"):
        records, failures = ex.harness.run_experiment(spec_obj, threads=CLI_THREADS)
    with span("harness.write_csv"):
        ex.harness.write_csv(records, str(csv_path))
    with span("harness.write_metadata"):
        ex.harness.write_metadata(spec_obj, str(csv_path), failures, ex.package.__version__)
    return time.perf_counter() - start, records, failures


def run_traced(workload: str, seed: int, seconds: float, tiny: bool, work: Path) -> dict:
    spec = workloads.make_spec(workload, seed, tiny)
    cfg = write_config(spec, work / "config.json")
    env = envrecord.record(ROOT, child_env(), CLI_THREADS)
    deadline = time.perf_counter() + seconds
    cli = cli_run(spec, cfg, work, reference_for(workload, seed, tiny))
    checked = reference_check(workload, seed, tiny, work)
    problems = [p for r in [cli, *checked] for p in r["problems"]]

    ex = import_expopt()
    spec_obj = ex.harness.ExperimentSpec.from_dict(dict(spec))
    csv_path = work / "pass.csv"
    attempted = sum(r["attempted"] for r in [cli, *checked])
    failed = sum(r["failed"] for r in [cli, *checked])

    def checked_pass(tracer, label):
        nonlocal attempted, failed
        wall, records, failures = one_pass(ex, spec_obj, csv_path, tracer)
        data = csv_path.read_bytes()
        if data != cli["data"]:
            problems.append(f"{label} in-process CSV differs from the CLI's bytes")
        attempted += workloads.units(spec)
        failed += len(failures)
        return wall, len(records), len(data)

    untraced_s, traced_s, per_pass, durations = [], [], [], []
    while not traced_s or time.perf_counter() < deadline:
        untraced_s.append(checked_pass(None, "untraced")[0])
        tracer = tracing.Tracer()
        tracing.install(tracer, ex)
        try:
            wall, records, csv_bytes = checked_pass(tracer, "traced")
        finally:
            unrestored = tracer.restore()
        if unrestored:
            problems.append(f"not restored after tracing: {unrestored}")
        traced_s.append(wall)
        m, d = tracing.pass_metrics(tracer.spans, records, csv_bytes)
        if per_pass and tracing.exact_fields(m) != tracing.exact_fields(per_pass[0]):
            problems.append("per-layer counts differ between traced passes")
        per_pass.append(m)
        durations.append(d)
    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics = tracing.combine(per_pass, durations, overhead)
    return {
        "workload": workload,
        "trace": 1,
        "spec": spec,
        "environment": env,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": tracing.LAYER_UNITS,
        "problems": problems,
        "unwired": tracer.missing,
        "samples": {"traced_s": traced_s, "untraced_s": untraced_s},
        "cli_runs": [{k: v for k, v in r.items() if k != "data"} for r in [cli, *checked]],
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        runner = run_traced if trace else run_untraced
        result = runner(workload, seed, seconds, tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{workload}{'-tiny' if tiny else ''}.seed{seed}.trace{trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> None:
    """Human-readable lines: every metric by name and unit, then what failed."""
    units = result["units"]
    print(f"# {result['workload']} seed {result['spec']['seed']} trace {result['trace']}")
    for name, value in result["metrics"].items():
        print(f"{name:>36} {value:.6g} {units[name]}")
    if result["trace"] == 0:
        runs = result["runs"]
        print(f"{'timed CLI runs':>36} {result['samples']['timed_cli_runs']}")
        print(f"{'setup probes':>36} {len(result['samples']['setup'])}")
        print(f"{'host probes':>36} {len(result['samples']['host_probes'])}")
        for name, value in result["raw"].items():
            print(f"{'uncorrected ' + name:>36} {value:.6g} {units[name]}")
        compared = [r["bytes_identical"] for r in runs if r["bytes_identical"] is not None]
        print(f"{'byte-identical to reference':>36} {sum(compared)}/{len(compared)} (not gated)")
        problems = [p for r in runs for p in r["problems"]]
    else:
        print(f"{'traced passes':>36} {len(result['samples']['traced_s'])}")
        if result["unwired"]:
            print(f"{'functions not found':>36} {', '.join(result['unwired'])}")
        problems = result["problems"]
    for p in problems:
        print(f"PROBLEM: {p}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few rounds (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "expopt" / "cli.py").is_file():
        print(f"no expopt sources at {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(n, args.seed, args.seconds, args.trace, args.tiny) for n in names]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
        units = results[0]["units"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
        units = {f"{r['workload']}/{k}": r["units"][k] for r in results for k in r["metrics"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line entry point for the benchmark harness.

Subcommands ``logistic``, ``multitask`` and ``blackbox`` run the synthetic
experiments and write a CSV plus a JSON metadata sidecar.  Exit codes: 0 on
success, 2 for configuration errors, 3 when no (algorithm, trial) pair
finished without a numeric failure.  A run pins OpenBLAS to one thread and
restores its thread count on exit.
"""

import argparse
import ctypes
import json
import os
import sys

from . import __version__
from .harness import ExperimentSpec, final_values, run_experiment, write_csv, write_metadata

DEFAULT_SPECS = {
    "logistic": {
        "kind": "logistic",
        "dim": 500,
        "horizon": 2000,
        "trials": 20,
        "sparsity": 0.99,
        "radius_mode": "known",
        "algorithms": ["exp_md", "exp_ftrl", "adagrad", "adaftrl"],
        "seed": 7,
    },
    "multitask": {
        "kind": "multitask",
        "dim": 20,
        "tasks": 5,
        "rank": 2,
        "horizon": 1000,
        "trials": 20,
        "sparsity": 0.0,
        "radius_mode": "known",
        "algorithms": ["spectral_exp_md", "spectral_exp_ftrl", "adagrad", "adaftrl"],
        "seed": 7,
    },
    "blackbox": {
        "kind": "blackbox",
        "dim": 20,
        "horizon": 300,
        "trials": 3,
        "sparsity": 0.0,
        "radius_mode": "known",
        "algorithms": ["acc_exp_md", "acc_exp_ftrl", "acc_adagrad", "acc_adaftrl"],
        "seed": 7,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in DEFAULT_SPECS:
        cmd = sub.add_parser(kind, help=f"run the {kind} experiment")
        cmd.add_argument("--config", help="JSON config mirroring the experiment spec")
        cmd.add_argument("--out", default=f"{kind}_results.csv", help="output CSV path")
        cmd.add_argument("--seed", type=int, help="override the spec seed")
        cmd.add_argument("--trials", type=int, help="override the trial count")
        cmd.add_argument("--threads", type=int, default=1, help="ignored: runs use one thread")
    return parser


def _load_spec(args) -> ExperimentSpec:
    data = dict(DEFAULT_SPECS[args.command])
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object")
        if loaded.get("kind", args.command) != args.command:
            raise ValueError(
                f"config kind {loaded.get('kind')!r} does not match subcommand {args.command!r}"
            )
        data = loaded
        data.setdefault("kind", args.command)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    return ExperimentSpec.from_dict(data)


# (getter, setter) pairs, tried in order: the scipy-openblas wheels that
# numpy ships, an ILP64 OpenBLAS, a plain OpenBLAS.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas():
    """``(path, get, set)`` for the first loaded OpenBLAS, or None.

    Reads the mapped libraries from ``/proc/self/maps``; a library that
    exports none of the thread functions, or a platform without that file,
    yields None.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file was deleted or renamed
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return path, get, set_
    return None


def main(argv=None) -> int:
    """Run one subcommand with OpenBLAS on one thread; returns the exit code.

    One thread, because at the harness's sizes a BLAS worker thread spins
    beside the main one without speeding it up.  The previous thread count
    is restored on exit, so an in-process caller keeps its own setting.
    """
    args = _build_parser().parse_args(argv)
    blas = _openblas()
    if blas is None:
        return _run(args, None)
    path, get, set_ = blas
    before = get()
    set_(1)
    try:
        return _run(args, {"library": path, "threads_before": before, "threads": get()})
    finally:
        set_(before)


def _run(args, blas: dict | None) -> int:
    try:
        spec = _load_spec(args)
        # found before any trial runs, not by write_csv or write_metadata after them
        folder = os.path.dirname(args.out) or "."
        sidecar = f"{args.out}.meta.json"
        if not args.out:
            raise ValueError("--out is empty")
        if os.path.isdir(args.out):
            raise ValueError(f"--out {args.out!r} is a directory")
        if os.path.isdir(sidecar):
            raise ValueError(f"--out sidecar {sidecar!r} is a directory")
        if not os.path.isdir(folder):
            raise ValueError(f"--out directory {folder!r} does not exist")
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        records, failures = run_experiment(spec, threads=args.threads)
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    write_csv(records, args.out)
    meta_path = write_metadata(spec, args.out, failures, __version__, blas=blas)
    print(f"wrote {len(records)} records to {args.out} (metadata: {meta_path})")

    # a failed run's last value is not final: average the runs without a failure
    failed = {(f.algorithm, f.trial) for f in failures}
    finals = final_values(records)
    for algo in sorted(finals.keys() | {a for a, _ in failed}):
        vals = [v for trial, v in finals.get(algo, {}).items() if (algo, trial) not in failed]
        lost = sum(a == algo for a, _ in failed)
        mean = f"mean final value {sum(vals) / len(vals):.4f}" if vals else "no final value"
        note = f", {lost} failed" if lost else ""
        print(f"  {algo:<24} {mean} over {len(vals)} trial(s){note}")

    # success requires at least one (algorithm, trial) pair without a failure
    if failures and not {(r.algorithm, r.trial) for r in records} - failed:
        print("all trials failed numerically", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

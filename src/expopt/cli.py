"""Command-line entry point for the benchmark harness.

Subcommands ``logistic``, ``multitask`` and ``blackbox`` run the synthetic
experiments and write a CSV plus a JSON metadata sidecar; ``props`` runs
the quick property suites.  Exit codes: 0 on success, 2 for configuration
errors, 3 when no (algorithm, trial) pair finished without a numeric failure.
"""

import argparse
import json
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
    for kind in ("logistic", "multitask", "blackbox"):
        cmd = sub.add_parser(kind, help=f"run the {kind} experiment")
        cmd.add_argument("--config", help="JSON config mirroring the experiment spec")
        cmd.add_argument("--out", default=f"{kind}_results.csv", help="output CSV path")
        cmd.add_argument("--seed", type=int, help="override the spec seed")
        cmd.add_argument("--trials", type=int, help="override the trial count")
        cmd.add_argument("--threads", type=int, default=1, help="ignored: trials run sequentially")
    sub.add_parser("props", help="run the property suites")
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
    if isinstance(data.get("algorithms"), list):
        data["algorithms"] = tuple(data["algorithms"])
    return ExperimentSpec.from_dict(data)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "props":
        from .props import run_all

        return 0 if run_all() else 1

    try:
        spec = _load_spec(args)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        records, failures = run_experiment(spec, threads=args.threads)
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    write_csv(records, args.out)
    meta_path = write_metadata(spec, args.out, failures, __version__)
    print(f"wrote {len(records)} records to {args.out} (metadata: {meta_path})")

    finals = final_values(records)
    for algo in sorted(finals):
        vals = list(finals[algo].values())
        mean = sum(vals) / len(vals)
        print(f"  {algo:<24} mean final value {mean:.4f} over {len(vals)} trial(s)")

    # success requires at least one (algorithm, trial) pair without a failure
    failed = {(f.algorithm, f.trial) for f in failures}
    if failures and not {(r.algorithm, r.trial) for r in records} - failed:
        print("all trials failed numerically", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Summarize benchmark results: median, quartiles and count per metric.

Reads the result records ``run.py`` wrote to ``.perfbench_out/`` (tiny
runs excluded) and prints, per workload and metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the number
of runs.  ``--write <path>`` also stores the summary as JSON, which is how
``baseline.json`` was made.

    python3 perfbench/summarize.py [--write perfbench/baseline.json]
"""

import argparse
import json
import os
import statistics
from collections import defaultdict

import run


def collect():
    values = defaultdict(lambda: defaultdict(list))
    units, seeds, envs = {}, defaultdict(set), {}
    for path in sorted(run.OUT.glob("*.trace[01].json")):
        if "-tiny." in path.name:
            continue
        result = json.loads(path.read_text())
        workload = result["workload"]
        seeds[workload].add(result["spec"]["seed"])
        envs[workload] = result["environment"]
        for name, value in result["metrics"].items():
            values[workload][name].append(value)
            units[name] = result["units"][name]
    return values, units, seeds, envs


def portable(env: dict) -> dict:
    """The environment record without the paths of one machine."""
    out = {k: v for k, v in env.items() if k != "expopt_file"}
    out["blas_libraries"] = [os.path.basename(p) for p in env["blas_libraries"]]
    return out


def summarize(values, units) -> dict:
    out = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, vals in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            out[workload][name] = {
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "n": len(vals),
                "unit": units[name],
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", help="also write the summary as JSON to this path")
    args = parser.parse_args()
    values, units, seeds, envs = collect()
    summary = summarize(values, units)
    for workload, metrics in summary.items():
        print(f"# {workload} (seeds {sorted(seeds[workload])})")
        for name, s in metrics.items():
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(f"{name:>36} {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n {s['n']}  iqr/median {spread:.3f}")
    if args.write:
        shares = ("learners.project_share", "spectral.project_share")
        payload = {
            "project_shares": {
                w: {k: m[k]["median"] for k in shares if k in m} for w, m in summary.items()
            },
            "workloads": summary,
            "seeds": {w: sorted(s) for w, s in seeds.items()},
            "environment": {w: portable(e) for w, e in envs.items()},
        }
        with open(args.write, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

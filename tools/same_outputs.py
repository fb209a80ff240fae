"""Check that the working tree writes the CSV and sidecar bytes of a git ref.

    python3 tools/same_outputs.py <git-ref>

Runs the CLI on the four benchmark workloads (``perfbench/workloads.py``) at each seed of
``workloads.REF_SEEDS`` and on the three default specs (``expopt.cli.DEFAULT_SPECS``), with
OpenBLAS on one thread: once with the working tree's ``src/`` and once with the ref's, which
``git archive`` exports into a temporary directory.  Every spec is read from the working tree,
every output goes to that temporary directory, and nothing is written inside the repository.
Each CSV and ``.meta.json`` is compared byte for byte; the exit code is 0 when all are
equal, 1 on any difference or failed run, 2 for a ref that git cannot export.  The 22 runs
take about 40 s on a 2-core x86-64 host.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def specs() -> dict:
    """``{output name: spec}``: each workload at each reference seed, then the CLI defaults."""
    from expopt.cli import DEFAULT_SPECS

    found = importlib.util.spec_from_file_location("perfbench_workloads",
                                                   ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(found)
    found.loader.exec_module(workloads)
    out = {
        f"{name}-seed{seed}": workloads.make_spec(name, seed)
        for name in workloads.WORKLOADS
        for seed in workloads.REF_SEEDS
    }
    return out | {f"default-{kind}": dict(spec) for kind, spec in DEFAULT_SPECS.items()}


def export(ref: str, into: Path) -> Path:
    """The ``src/`` of ``ref``, extracted under ``into``."""
    tar = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def run_all(src: Path, runs: dict, out: Path) -> list:
    """Run the CLI of ``src`` on each spec, writing ``out/<name>.csv`` and its sidecar; returns
    the names of the runs that exited with an error."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    failed = []
    for name, spec in runs.items():
        cfg = out / f"{name}.json"
        cfg.write_text(json.dumps(spec))
        argv = [sys.executable, "-m", "expopt.cli", spec["kind"], "--config", str(cfg),
                "--out", str(out / f"{name}.csv")]
        done = subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)
        if done.returncode != 0:
            failed.append(name)
            print(f"{src}: {name} exited {done.returncode}: {done.stderr[-300:]}", file=sys.stderr)
    return failed


def differences(ours: Path, theirs: Path, names) -> list:
    """The output files of ``names`` that are missing or differ between the two directories."""
    files = [f"{name}{suffix}" for name in names for suffix in (".csv", ".csv.meta.json")]
    return [
        f for f in files
        if not (ours / f).exists() or not (theirs / f).exists()
        or (ours / f).read_bytes() != (theirs / f).read_bytes()
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = args[0]
    runs = specs()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        try:
            ref_src = export(ref, tmp / "ref")
        except subprocess.CalledProcessError:
            return 2
        failed = run_all(ROOT / "src", runs, tmp / "tree")
        failed += run_all(ref_src, runs, tmp / "ref-out")
        differ = differences(tmp / "tree", tmp / "ref-out", runs)
    for f in differ:
        print(f"differs from {ref}: {f}")
    if failed or differ:
        return 1
    print(f"{2 * len(runs)} files byte-identical to {ref}")
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # no __pycache__ inside the repository
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())

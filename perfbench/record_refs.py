"""Record the output references under ``refs/``.

Runs the CLI twice per workload at every seed in ``workloads.REF_SEEDS``,
requires both runs to pass the row, finiteness and failure checks and to
write identical bytes, and stores the CSV xz-compressed with its sha256 in
``refs/index.json``.  A reference is the output of the commit it was
recorded on: record it only on a commit whose output is the one later
commits must reproduce, never to make a mismatch go away.

    python3 perfbench/record_refs.py
"""

import json
import lzma
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    checks.REFS.mkdir(exist_ok=True)
    index = {}
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=run.OUT))
    try:
        for name in workloads.WORKLOADS:
            for seed in workloads.REF_SEEDS:
                spec = workloads.make_spec(name, seed)
                cfg = run.write_config(spec, work / "config.json")
                first = run.cli_run(spec, cfg, work, None)
                second = run.cli_run(spec, cfg, work, first["data"])
                problems = first["problems"] + second["problems"]
                if not second["bytes_identical"]:
                    problems.append("two runs wrote different bytes")
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                ref = checks.ref_name(name, seed)
                (checks.REFS / ref).write_bytes(lzma.compress(first["data"], preset=9))
                index[ref] = {"sha256": first["sha256"], "rows": first["rows"], "spec": spec}
                print(f"{ref}: {first['rows']} rows, sha256 {first['sha256']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (checks.REFS / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

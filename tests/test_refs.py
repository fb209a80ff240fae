"""The CLI's output for the benchmark's four workloads against their references.

``perfbench/`` holds the CSV each workload wrote at seed 7 when its reference
was recorded, xz-compressed, and the benchmark gates every timed run on it:
same rows in the same order, every value within a relative 1e-9 with an
absolute floor of 1e-12.  This test applies that gate in-process, through the
benchmark's own workload definitions and checks, and changes nothing there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from expopt import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


def _module(name):
    """``perfbench/<name>.py``, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, workloads = _module("checks"), _module("workloads")


def test_the_gate_is_the_benchmarks_tolerance():
    assert (checks.RTOL, checks.ATOL) == (1e-9, 1e-12)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_the_cli_writes_the_reference_values(tmp_path, workload):
    spec = workloads.make_spec(workload, SEED)
    config, out = tmp_path / "spec.json", tmp_path / "out.csv"
    config.write_text(json.dumps(spec))
    assert cli.main([spec["kind"], "--config", str(config), "--out", str(out)]) == 0
    ref = checks.load_ref(workload, SEED)
    assert ref is not None
    assert checks.csv_problems(out.read_bytes(), workloads.expected_rows(spec), ref) == []
    assert checks.sidecar_failures(Path(f"{out}.meta.json")) == 0

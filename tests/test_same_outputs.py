"""``tools/same_outputs.py``: the runs it compares, and how it compares them."""

import importlib.util
from pathlib import Path

from expopt.cli import DEFAULT_SPECS
from expopt.harness import ExperimentSpec

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_it_runs_every_workload_at_every_reference_seed_and_every_cli_default():
    runs = same_outputs.specs()
    workloads = ("logistic-d500", "logistic-d20k", "multitask-spectral", "blackbox-accel")
    assert sorted(runs) == sorted(
        [f"{w}-seed{seed}" for w in workloads for seed in (7, 4099)]
        + [f"default-{kind}" for kind in DEFAULT_SPECS])
    assert runs["logistic-d20k-seed4099"]["dim"] == 20000
    assert runs["default-multitask"] == DEFAULT_SPECS["multitask"]
    for spec in runs.values():
        ExperimentSpec.from_dict(spec)


def test_a_missing_or_changed_file_is_a_difference(tmp_path):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    for side in (ours, theirs):
        side.mkdir()
        for name in ("a", "b", "c"):
            (side / f"{name}.csv").write_bytes(b"x,1.0\n")
            (side / f"{name}.csv.meta.json").write_bytes(b"{}\n")
    (theirs / "b.csv").write_bytes(b"x,1.0000000000000002\n")
    (ours / "c.csv.meta.json").unlink()
    assert same_outputs.differences(ours, theirs, ["a", "b", "c"]) == [
        "b.csv", "c.csv.meta.json"]


def test_a_run_writes_its_csv_and_sidecar_and_a_failed_run_is_named(tmp_path):
    tiny = {"kind": "logistic", "dim": 6, "horizon": 4, "trials": 1,
            "algorithms": ["exp_md"], "seed": 3}
    runs = {"tiny": tiny, "bad": dict(tiny, algorithms=["nope"])}
    assert same_outputs.run_all(same_outputs.ROOT / "src", runs, tmp_path / "out") == ["bad"]
    assert (tmp_path / "out" / "tiny.csv").read_text().count("\n") == 5
    assert (tmp_path / "out" / "tiny.csv.meta.json").exists()

"""CLI surface: subcommands, config handling, exit codes, determinism."""

import json

import pytest

from expopt.cli import main


def small_config(tmp_path, **overrides):
    data = {
        "kind": "logistic",
        "dim": 10,
        "horizon": 20,
        "trials": 2,
        "sparsity": 0.5,
        "radius_mode": "known",
        "algorithms": ["exp_md", "adaftrl"],
        "seed": 21,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["logistic", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "out.csv.meta.json").exists()

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = small_config(tmp_path, bogus_field=3)
        assert main(["logistic", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_kind_mismatch_is_config_error(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["multitask", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_unknown_algorithm_is_config_error(self, tmp_path):
        cfg = small_config(tmp_path, algorithms=["no_such_algo"])
        assert main(["logistic", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["logistic", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_that_is_a_json_list_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps([{"kind": "logistic"}]))
        out = tmp_path / "o.csv"
        assert main(["logistic", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_override_replaces_the_config_trials(self, tmp_path):
        cfg = small_config(tmp_path, trials=2)
        out = tmp_path / "o.csv"
        assert main(["logistic", "--config", str(cfg), "--out", str(out), "--trials", "3"]) == 0
        meta = json.loads((tmp_path / "o.csv.meta.json").read_text())
        assert meta["spec"]["trials"] == 3
        trials = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
        assert trials == {"0", "1", "2"}

    @pytest.mark.parametrize(
        "overrides,argv,field",
        [
            ({"dim": 20.5}, [], "dim"),
            ({"horizon": 5.0}, [], "horizon"),
            ({"seed": 1.5}, [], "seed"),
            ({"seed": -3}, [], "seed"),
            ({}, ["--seed", "-3"], "seed"),
            ({"trials": True}, [], "trials"),
            ({"algorithms": "acc_exp_md"}, [], "algorithms"),
        ],
    )
    def test_malformed_blackbox_config_is_config_error(
        self, tmp_path, capsys, overrides, argv, field
    ):
        cfg = small_config(
            tmp_path, kind="blackbox", dim=4, horizon=4, trials=1, sparsity=0.0,
            algorithms=["acc_exp_md"],
        )
        data = json.loads(cfg.read_text()) | overrides
        cfg.write_text(json.dumps(data))
        out = tmp_path / "o.csv"
        assert main(["blackbox", "--config", str(cfg), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "where", ["missing directory", "directory", "empty", "sidecar directory"]
    )
    def test_an_out_path_that_cannot_be_written_is_config_error_before_any_trial(
        self, tmp_path, capsys, monkeypatch, where
    ):
        from expopt import cli

        def no_run(*args, **kwargs):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        monkeypatch.chdir(tmp_path)  # where an empty --out would be written
        cfg = small_config(tmp_path)
        if where == "sidecar directory":
            (tmp_path / "o.csv.meta.json").mkdir()
        out, says = {
            "missing directory": (tmp_path / "nope" / "o.csv", "does not exist"),
            "directory": (tmp_path, "is a directory"),
            "empty": ("", "is empty"),
            "sidecar directory": (tmp_path / "o.csv", "is a directory"),
        }[where]
        before = sorted(tmp_path.rglob("*"))
        assert main(["logistic", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out ") and err.count("\n") == 1 and says in err
        assert sorted(tmp_path.rglob("*")) == before  # no CSV, no sidecar

    def test_all_trials_failing_numerically(self, tmp_path, monkeypatch):
        import numpy as np

        from expopt import NumericRangeError
        from expopt.harness import registry

        class Exploding:
            x = np.zeros(10)

            def step(self, g, h_next=None, reg_weight=1.0):
                raise NumericRangeError("boom")

        monkeypatch.setattr(registry, "build_vector_learner", lambda *a, **k: Exploding())
        cfg = small_config(tmp_path)
        code = main(["logistic", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_the_summary_averages_only_the_runs_without_a_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        import numpy as np

        from expopt import NumericRangeError
        from expopt.harness import ExperimentSpec, final_values, run_experiment, streams
        from whole_stream import whole_stream

        cfg = small_config(tmp_path, dim=20, horizon=50, algorithms=["exp_md"])
        spec = ExperimentSpec.from_dict(json.loads(cfg.read_text()))
        finals = final_values(run_experiment(spec)[0])["exp_md"]
        seed = np.random.SeedSequence(spec.seed).spawn(spec.trials)[0]
        features = whole_stream(streams.logistic_blocks, 20, 50, spec.sparsity,
                                np.random.default_rng(seed))[1]
        oracle = streams.logistic_loss_grad

        def raising(w, x, y):  # trial 0's round 3
            if np.array_equal(x, features[2]):
                raise NumericRangeError("injected")
            return oracle(w, x, y)

        monkeypatch.setattr(streams, "logistic_loss_grad", raising)
        out = tmp_path / "o.csv"
        assert main(["logistic", "--config", str(cfg), "--out", str(out)]) == 0
        summary = capsys.readouterr().out.splitlines()[1]
        # the failed run's value at round 2 is no final value: trial 1's alone is the mean
        assert summary.split() == ["exp_md", "mean", "final", "value", f"{finals[1]:.4f}",
                                   "over", "1", "trial(s),", "1", "failed"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "subcommand,overrides",
        [
            ("logistic", {}),
            (
                "multitask",
                {"kind": "multitask", "dim": 6, "tasks": 3, "rank": 1, "sparsity": 0.0,
                 "algorithms": ["spectral_exp_md", "adagrad"]},
            ),
            (
                "blackbox",
                {"kind": "blackbox", "dim": 5, "sparsity": 0.0,
                 "algorithms": ["acc_exp_ftrl", "acc_adaftrl"]},
            ),
        ],
    )
    def test_byte_identical_csv(self, tmp_path, subcommand, overrides):
        cfg = small_config(tmp_path, **overrides)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([subcommand, "--config", str(cfg), "--out", str(a)]) == 0
        assert main([subcommand, "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["logistic", "--config", str(cfg), "--out", str(a)])
        main(["logistic", "--config", str(cfg), "--out", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()

    def test_threads_flag_preserves_bytes(self, tmp_path):
        cfg = small_config(tmp_path, trials=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["logistic", "--config", str(cfg), "--out", str(a), "--threads", "1"])
        main(["logistic", "--config", str(cfg), "--out", str(b), "--threads", "4"])
        assert a.read_bytes() == b.read_bytes()


def test_the_removed_props_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["props"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestBlackboxExitCodes:
    """Exit 3 only when no (algorithm, trial) pair of any batch variant survives."""

    def run(self, tmp_path, monkeypatch, survivors):
        import numpy as np

        from expopt import NumericRangeError
        from expopt.harness import registry
        from expopt.zeroth_order import rademacher_config

        class Exploding:
            x = np.zeros(4)

            def step(self, g, h_next=None, reg_weight=1.0):
                raise NumericRangeError("boom")

        real = registry.accelerated_family
        built = []

        def family(name, dim, reg):
            built.append(name)
            if len(built) <= survivors:
                return real(name, dim, reg)
            return Exploding(), rademacher_config

        monkeypatch.setattr(registry, "accelerated_family", family)
        cfg = small_config(
            tmp_path, kind="blackbox", dim=4, horizon=9, trials=1, sparsity=0.0,
            algorithms=["acc_exp_md", "acc_adagrad"],
        )
        out = tmp_path / "o.csv"
        code = main(["blackbox", "--config", str(cfg), "--out", str(out)])
        meta = json.loads((tmp_path / "o.csv.meta.json").read_text())
        assert len(built) == 4  # two algorithms at batch 1 and at sqrt(T)
        assert len(meta["failures"]) == 4 - survivors
        return code

    def test_every_variant_failing_exits_3(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, survivors=0) == 3

    def test_one_surviving_variant_exits_0(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, survivors=1) == 0

"""Command-line surface: subcommands, formats, determinism, exit codes."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peps_forge
from peps_forge import cli, dynamics, harness, limits
from peps_forge.harness import fixture_path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


CHAIN2 = str(fixture_path("chain2"))
CHAIN3 = str(fixture_path("chain3"))


class TestRunCommand:
    def test_reports_byte_identical(self, capsys):
        code1, out1 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "7")
        code2, out2 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 7
        assert doc["success"] is True

    def test_penalty_weight_has_no_effect(self, capsys, tmp_path):
        # the canonical gauge builds no penalty term, so c reaches no output
        doc = json.loads(Path(CHAIN3).read_text())
        outputs = []
        for c in (0.5, 7):
            path = tmp_path / f"c{c}.json"
            path.write_text(json.dumps({**doc["config"], "c": c}))
            code, out = run_cli(capsys, "run", "--config", str(path), "--seed", "7")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_seed_changes_report(self, capsys):
        _, out1 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "1")
        _, out2 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "2")
        assert json.loads(out1) != json.loads(out2)

    def test_until_success_mode(self, capsys):
        code, out = run_cli(
            capsys, "run", "--config", CHAIN3, "--seed", "5", "--mode", "until_success"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alternation_cap"] is None
        assert doc["fidelity"] >= 1.0 - 1e-8

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "run", "--config", CHAIN2, "--seed", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["seed"] == 3


class TestSweepCommand:
    def test_summary_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, out = run_cli(
            capsys,
            "sweep",
            "--config",
            CHAIN2,
            "--trials",
            "5",
            "--seed",
            "50",
            "--out",
            str(csv_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["trials"] == 5
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("instance,seed,success")

    def test_csv_to_stdout(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep",
            "--config",
            CHAIN2,
            "--trials",
            "3",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.startswith("instance,seed,")

    def test_summary_alone_builds_no_csv(self, capsys, monkeypatch):
        def unreachable(result):
            raise AssertionError("CSV text was built but not written")

        monkeypatch.setattr(harness, "sweep_csv", unreachable)
        code, out = run_cli(capsys, "sweep", "--config", CHAIN2, "--trials", "3")
        assert code == 0
        assert json.loads(out)["trials"] == 3

    def test_jobs_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", CHAIN2, "--trials", "2", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_flag_deterministic(self, capsys):
        # the command takes no jobs value: its CSV is the one any jobs value gives
        _, out = run_cli(
            capsys, "sweep", "--config", CHAIN2, "--trials", "4", "--format", "csv"
        )
        cfg = harness.load_config(CHAIN2)
        assert out == harness.sweep_csv(harness.sweep(cfg, trials=4, jobs=2))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_invalid(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", CHAIN2, "--trials", "2", "--jobs", jobs])
        assert exc.value.code == 2
        cfg = harness.load_config(CHAIN2)
        with pytest.raises(peps_forge.InvalidInputError, match="jobs must be >= 1"):
            harness.sweep(cfg, trials=2, jobs=int(jobs))


class TestVerifyCommands:
    def test_lemma1_fixture_passes(self, capsys):
        code, out = run_cli(capsys, "verify-lemma1", "--config", CHAIN3)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["min_overlap_margin"] >= -1e-10

    def test_lemma1_physical_registers_below_the_cap(self, capsys, tmp_path):
        # only verify-lemma1 can use a physical register this large: every
        # other command builds a state over the physical registers
        config = {
            "graph": {"topology": "chain", "length": 2},
            "bond_dim": 2,
            "tensors": {
                "source": "random",
                "kappa_max": 2.0,
                "seed": 3,
                "physical_dims": [100, 100],
            },
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out = run_cli(capsys, "verify-lemma1", "--config", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_lemma1_trials_below_one_invalid(self, capsys, tmp_path, trials):
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 5.0, "seed": 3},
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out = run_cli(
            capsys, "verify-lemma1", "--config", str(path), "--trials", trials
        )
        assert code == 2
        assert out == ""

    def test_lemma1_random_instances(self, capsys, tmp_path):
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {
                "source": "random",
                "kappa_max": 5.0,
                "physical_dims": None,
                "seed": 3,
            },
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out = run_cli(
            capsys, "verify-lemma1", "--config", str(path), "--trials", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instances"] == 5
        assert doc["steps_checked"] == 15

    def test_lemma1_derives_each_config_when_it_runs(self, tmp_path, monkeypatch):
        # configs are derived one per instance: none is built ahead of the work
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 5.0, "seed": 3},
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        built = []
        replace = dataclasses.replace

        def counting_replace(obj, **changes):
            out = replace(obj, **changes)
            if isinstance(out, harness.InstanceConfig):
                built.append(out)
            return out

        class Stop(Exception):
            pass

        def stop(cfg):
            raise Stop

        monkeypatch.setattr(dataclasses, "replace", counting_replace)
        monkeypatch.setattr(harness, "build_instance", stop)
        with pytest.raises(Stop):
            cli.main(["verify-lemma1", "--config", str(path), "--trials", "1000"])
        assert len(built) <= 1

    def test_lemma2_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify-lemma2", "--p", "0.5", "--m", "1", "--trials", "20000"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert abs(doc["empirical_frequency"] - 0.75) <= doc["four_sigma"]
        assert doc["grid_checks"]["min_s_bound_margin"] >= -1e-12

    def test_lemma2_counts_every_s_pair(self, capsys):
        # the s-bound grid is 20 values of p by 100 values of s
        code, out = run_cli(capsys, "verify-lemma2", "--p", "0.5", "--m", "1")
        assert code == 0
        grid = json.loads(out)["grid_checks"]
        assert grid["pairs_checked"] == 9 * 50
        assert grid["s_pairs_checked"] == 20 * 100

    def test_lemma2_reports_the_tight_s_bound(self, capsys):
        # 1/(2es) is attained where 1 - p = 1/(2s); (0.5, 1) is the first such pair
        code, out = run_cli(capsys, "verify-lemma2", "--p", "0.5", "--m", "1")
        assert code == 0
        grid = json.loads(out)["grid_checks"]
        assert grid["min_s_bound_margin"] == 0.0
        assert grid["min_s_bound_argmin"] == [0.5, 1]
        assert grid["tol"] == 1e-12

    def test_lemma2_failure_exit_code(self, capsys, monkeypatch):
        def broken(p, m, trials, rng):
            return np.zeros(trials, dtype=bool), np.ones(trials, dtype=np.int64)

        monkeypatch.setattr(dynamics, "markov_trials", broken)
        code, out = run_cli(
            capsys, "verify-lemma2", "--p", "0.5", "--m", "1", "--trials", "1000"
        )
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestGapScan:
    def test_json_table(self, capsys):
        code, out = run_cli(capsys, "gap-scan", "--config", CHAIN3)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 4
        assert all(row["gap"] > 0 for row in doc["steps"])
        assert all(abs(row["lambda0"]) <= 1e-9 for row in doc["steps"])

    def test_csv_table(self, capsys):
        code, out = run_cli(capsys, "gap-scan", "--config", CHAIN3, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step,lambda0,lambda1,gap,ground_degeneracy"
        assert len(lines) == 5
        # every cell is the repr of the value the JSON table gives
        _, json_out = run_cli(capsys, "gap-scan", "--config", CHAIN3)
        columns = lines[0].split(",")
        for line, row in zip(lines[1:], json.loads(json_out)["steps"], strict=True):
            assert line.split(",") == [repr(row[name]) for name in columns]

    def test_dump_terms(self, capsys, tmp_path):
        dump = tmp_path / "terms.json"
        code, _ = run_cli(
            capsys, "gap-scan", "--config", CHAIN2, "--dump-terms", str(dump)
        )
        assert code == 0
        doc = json.loads(dump.read_text())
        assert set(doc) == {"0", "1", "2"}
        term = doc["1"][0]
        assert set(term) == {"support", "kind", "matrix"}


class TestCostModel:
    def test_flag_arithmetic(self, capsys):
        code, out = run_cli(
            capsys, "cost-model", "--V", "4", "--kappa", "1", "--eps", "0.1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["measurement_bound"] == pytest.approx(
            16.0 / (0.1 * math.e) + 4.0, rel=1e-12
        )
        assert doc["s"] == 8 and doc["m"] == 8

    def test_config_derived(self, capsys):
        code, out = run_cli(capsys, "cost-model", "--config", CHAIN3)
        assert code == 0
        doc = json.loads(out)
        assert doc["num_vertices"] == 3
        assert doc["num_edges"] == 2
        assert doc["kappa"] > 1.0
        assert doc["gap"] > 0.0

    def test_missing_flags_invalid(self, capsys):
        code, _ = run_cli(capsys, "cost-model", "--V", "4")
        assert code == 2

    def test_full_failure_budget_rejected(self, capsys):
        # like run, cost-model takes a failure budget in (0, 1) only
        for eps in ("1", "1.5", "0", "-0.1", "nan"):
            code, _ = run_cli(
                capsys, "cost-model", "--V", "2", "--kappa", "1", "--eps", eps
            )
            assert code == 2, eps
        code, _ = run_cli(capsys, "cost-model", "--config", CHAIN3, "--eps", "1.5")
        assert code == 2

    @pytest.mark.parametrize("kappa", ["0.5", "0.999", "0", "-2"])
    def test_condition_number_below_one_invalid(self, capsys, kappa):
        # a condition number is at least 1; nothing may round it up silently
        code, _ = run_cli(capsys, "cost-model", "--V", "4", "--kappa", kappa, "--eps", "0.1")
        assert code == 2
        code, _ = run_cli(capsys, "cost-model", "--config", CHAIN3, "--kappa", kappa)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--kappa", "--delta"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flags_invalid(self, capsys, flag, value):
        argv = {"--V": "4", "--kappa": "2", "--eps": "0.1", flag: value}
        code, _ = run_cli(capsys, "cost-model", *[x for kv in argv.items() for x in kv])
        assert code == 2

    def test_flags_override_config_values(self, capsys):
        code, out = run_cli(
            capsys, "cost-model", "--config", CHAIN3,
            "--kappa", "3", "--eps", "0.2", "--delta", "0.5", "--d", "5", "--k", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["num_vertices"], doc["num_edges"]) == (3, 2)
        assert (doc["kappa"], doc["eps"], doc["gap"]) == (3.0, 0.2, 0.5)
        assert (doc["phys_dim"], doc["degree"]) == (5, 4)
        expected = dynamics.cost_model(3, 2, 3.0, 0.2, 0.5, 5, 4)
        assert doc["runtime_bound"] == expected.runtime_bound

    @pytest.mark.parametrize("flag", ["--V", "--E"])
    def test_config_rejects_size_flags(self, capsys, monkeypatch, flag):
        # the config fixes the graph; a vertex or edge count beside it was ignored
        def unreachable(*args):
            raise AssertionError("the instance was built for a rejected command")

        monkeypatch.setattr(harness, "build_instance", unreachable)
        code = cli.main(["cost-model", "--config", CHAIN3, flag, "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("invalid input: ") and flag in captured.err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--eps", "1.5"),
            ("--eps", "0"),
            ("--kappa", "0.5"),
            ("--kappa", "inf"),
            ("--delta", "-1"),
            ("--delta", "nan"),
            ("--d", "0"),
            ("--k", "-2"),
        ],
    )
    def test_config_checks_flags_before_preparing(self, capsys, monkeypatch, flag, value):
        # preparing the config's instance takes up to a second; a bad flag
        # beside it must not wait for that
        def unreachable(*args, **kwargs):
            raise AssertionError("the instance was prepared for a rejected command")

        monkeypatch.setattr(cli, "PreparedInstance", unreachable)
        code = cli.main(["cost-model", "--config", CHAIN3, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("invalid input: ") and flag in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", CHAIN3, "--eps", "5e-324"],
            ["sweep", "--config", "TINY_EPS", "--trials", "2"],
            ["cost-model", "--V", "2", "--kappa", "1e200", "--eps", "0.1"],
            ["cost-model", "--config", CHAIN3, "--eps", "1e-320"],
            ["cost-model", "--V", "1" + "0" * 400, "--kappa", "2", "--eps", "0.1"],
            ["cost-model", "--V", "3", "--E", "1" + "0" * 200, "--kappa", "2", "--eps", "0.1"],
            ["cost-model", "--V", "3", "--d", "1" + "0" * 59, "--kappa", "2", "--eps", "0.1"],
            ["cost-model", "--V", "2", "--kappa", "2", "--eps", "0.1", "--delta", "1e-320"],
        ],
        ids=["run", "sweep", "kappa", "config-eps", "V", "E", "d", "delta"],
    )
    def test_bound_past_the_float_range_exits_2(self, capsys, tmp_path, argv):
        # a bound that overflows (or reads inf, which JSON cannot hold) is
        # a bad parameter set: one line on stderr, no traceback, no output
        tiny_eps = tmp_path / "tiny_eps.json"
        doc = json.loads(Path(CHAIN3).read_text())["config"]
        tiny_eps.write_text(json.dumps({**doc, "eps": 5e-324}))
        code = cli.main([str(tiny_eps) if a == "TINY_EPS" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("invalid input: ")
        assert len(captured.err) < 200


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "run", "--config", "/nonexistent.json")
        assert code == 2

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"graph": {"topology": "chain", "length": 3}}))
        code, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 2

    def test_capacity_exceeded(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", "8")
        code, _ = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "1")
        assert code == 3

    @pytest.mark.parametrize("command", ["run", "verify-lemma1"])
    def test_capacity_exceeded_before_sampling(self, capsys, tmp_path, monkeypatch, command):
        def unreachable(*args):
            raise AssertionError("tensors were sampled for an instance above the cap")

        monkeypatch.setattr(harness, "random_tensors", unreachable)
        tensors = {"source": "random", "kappa_max": 2.0, "seed": 3}
        configs = [
            # ring3 at D = 1000 would need terabytes for its tensors alone
            {"graph": {"topology": "ring", "length": 3}, "bond_dim": 1000},
            # a 4,816-digit dimension, rejected before its graph is built
            {"graph": {"topology": "chain", "length": 8000}, "bond_dim": 2},
            # a physical register beyond what numpy can allocate
            {
                "graph": {"topology": "chain", "length": 2},
                "bond_dim": 2,
                "tensors": dict(tensors, physical_dims=[10**30, 2]),
            },
        ]
        for config in configs:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"tensors": tensors, "seed": 1, **config}))
            code = cli.main([command, "--config", str(path)])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("capacity exceeded: ")
            assert len(captured.err) < 200

    def test_trial_count_capped_before_allocating(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an instance was built for a sweep above the trial cap")

        monkeypatch.setattr(harness, "build_instance", unreachable)
        for trials in (10**15, limits.MAX_TRIALS + 1):
            for argv in (
                ["verify-lemma2", "--trials", str(trials)],
                ["sweep", "--config", CHAIN2, "--trials", str(trials)],
            ):
                code = cli.main(argv)
                captured = capsys.readouterr()
                assert code == 3, argv
                assert captured.out == ""
                assert captured.err.count("\n") == 1
                assert captured.err.startswith("capacity exceeded: ")

    def test_config_not_utf8(self, capsys, tmp_path):
        unreadable = [
            b'{"graph": "\xff\xfe"}',  # Latin-1 text, invalid UTF-8
            b'{"bond_dim": ' + b"9" * 5000 + b"}",  # past Python's int-string limit
            b"[" * 100_000,  # nested deeper than the JSON reader recurses
        ]
        path = tmp_path / "cfg.json"
        for content in unreadable:
            path.write_bytes(content)
            code = cli.main(["run", "--config", str(path)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("invalid input: ")
            assert "9" * 10 not in captured.err

    def test_config_is_a_directory(self, capsys, tmp_path):
        code, out = run_cli(capsys, "run", "--config", str(tmp_path))
        assert code == 2
        assert out == ""

    def test_out_is_a_directory(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "verify-lemma1", "--config", CHAIN3, "--out", str(tmp_path)
        )
        assert code == 2
        assert out == ""

    def test_non_finite_config_number_invalid(self, capsys, tmp_path):
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 2.0, "seed": 3},
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config).replace("2.0", "Infinity"))
        code, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--config", CHAIN2, "--seed", "-1"),
            ("sweep", "--config", CHAIN2, "--trials", "3", "--seed", "-5"),
            ("verify-lemma2", "--seed", "-1", "--trials", "100"),
        ],
        ids=["run", "sweep", "verify-lemma2"],
    )
    def test_negative_seed_invalid(self, capsys, argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "seed" in captured.err

    @pytest.mark.parametrize(
        "override", [("--seed", "-1"), ("--eps", "1.5"), ("--eps", "nan")]
    )
    def test_invalid_run_override_rejected_before_building(
        self, capsys, monkeypatch, override
    ):
        def unreachable(cfg):
            raise AssertionError("the instance was built for an invalid override")

        monkeypatch.setattr(harness, "build_instance", unreachable)
        code = cli.main(["run", "--config", CHAIN3, *override])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert override[0].lstrip("-") in captured.err

    def test_argparse_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", CHAIN3, "--mode", "warp"])
        assert exc.value.code == 2

    def test_physical_cap_checked_before_any_step(self, capsys, tmp_path, monkeypatch):
        # global (virtual) dimension 16 passes build_instance's check, the
        # physical product 64^3 does not
        def unreachable(*args, **kwargs):
            raise AssertionError("a step was assembled for an instance above the cap")

        monkeypatch.setattr(dynamics, "assemble_step", unreachable)
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {
                "source": "random",
                "kappa_max": 2.0,
                "seed": 3,
                "physical_dims": [64, 64, 64],
            },
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli.main(["run", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "contracted state requires dimension 262144" in captured.err

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", CHAIN3, "--out"],
            ["sweep", "--config", CHAIN3, "--trials", "3", "--out"],
            ["verify-lemma1", "--config", CHAIN3, "--trials", "200", "--out"],
            ["gap-scan", "--config", CHAIN3, "--out"],
            ["gap-scan", "--config", CHAIN3, "--dump-terms"],
            ["cost-model", "--config", CHAIN3, "--out"],
            ["verify-lemma2", "--out"],
        ],
        ids=lambda argv: "-".join([argv[0], argv[-1].lstrip("-")]),
    )
    def test_unwritable_output_rejected_before_work(
        self, capsys, tmp_path, monkeypatch, argv, where
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("work was done for an unwritable output path")

        monkeypatch.setattr(harness, "build_instance", unreachable)
        monkeypatch.setattr(dynamics, "markov_trials", unreachable)
        path = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
        code = cli.main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(path) in captured.err

    def test_late_write_error_is_invalid_input(self, capsys, monkeypatch):
        def unwritable(text, out_path):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(cli, "_emit", unwritable)
        code = cli.main(["cost-model", "--V", "4", "--kappa", "2", "--eps", "0.1"])
        assert code == 2
        assert "read-only file system" in capsys.readouterr().err


def test_cli_import_skips_scipy_stats():
    # importing scipy costs most of a command's start; the spectral layer and
    # the chi-square p-value import what they need on first use
    src = str(Path(peps_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    lazy = ["scipy.stats", "scipy.linalg", "scipy.sparse.linalg", "scipy.special"]
    probe = f"import sys, peps_forge.cli; print([m for m in {lazy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_lemma1_path_loads_no_scipy():
    # build_instance + verify_lemma1 run on numpy's BLAS pool alone
    src = str(Path(peps_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys\n"
        "from peps_forge import dynamics, harness\n"
        "cfg = harness.parse_config({'graph': {'topology': 'ring', 'length': 6},"
        " 'bond_dim': 2, 'tensors': {'source': 'random', 'kappa_max': 3.0, 'seed': 11},"
        " 'seed': 0})\n"
        "report = dynamics.verify_lemma1(*harness.build_instance(cfg))\n"
        "print(len(report.steps), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "6 []"

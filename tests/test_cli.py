import json
import os

import numpy as np
import pytest

from cdfilter.bench import run_appendix_a
from cdfilter.cli import main, read_csv, run_from_manifest

# a radar invocation small enough for repeated runs
_RADAR_FAST = ["radar", "--trials", "2", "--omega-deg", "6", "--interval-s",
               "6", "--m", "2", "--filters", "cdckf"]


def _run(argv):
    return main([str(a) for a in argv])


class TestConvergenceCommand:
    def test_writes_table_and_manifest(self, tmp_path):
        assert _run(["convergence", "linear-fp", "--methods", "lskf-rk2",
                     "--steps", "8,32", "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "convergence_linear-fp.csv")
        assert [r["steps"] for r in rows] == [8, 32]
        assert rows[0]["err_cov_fro"] > rows[1]["err_cov_fro"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "convergence"
        assert manifest["result_files"]["table"] == "convergence_linear-fp.csv"

    def test_oscillator_methods_share_a_limit(self, tmp_path):
        assert _run(["convergence", "oscillator", "--methods",
                     "lskf-rk2,cdckf-proper", "--steps", "256",
                     "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "convergence_oscillator.csv")
        assert len(rows) == 2
        for r in rows:
            assert r["err_mean_l2"] <= 1e-6
            assert r["err_cov_fro"] <= 1e-6


class TestRadarCommand:
    def test_bitwise_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(_RADAR_FAST + ["--out", a]) == 0
        assert _run(_RADAR_FAST + ["--out", b]) == 0
        assert (a / "radar.csv").read_bytes() == (b / "radar.csv").read_bytes()

    def test_manifest_written_before_results(self, tmp_path):
        _run(_RADAR_FAST + ["--out", tmp_path])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["settings"]["trials"] == 2
        assert manifest["decisions"]["seed"] == 20210001
        assert "divergence_rule" in manifest["decisions"]
        # timings are kept out of the deterministic result files
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert "wall_ms_per_trial" in timing

    def test_rerun_from_manifest_reproduces_bitwise(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        _run(_RADAR_FAST + ["--out", first])
        assert run_from_manifest(first / "manifest.json", out_dir=second) == 0
        assert (first / "radar.csv").read_bytes() == (second / "radar.csv").read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        base, env, replay = tmp_path / "base", tmp_path / "env", tmp_path / "replay"
        _run(_RADAR_FAST + ["--out", base])
        monkeypatch.setenv("CDFILTER_SEED", "999")
        _run(_RADAR_FAST + ["--out", env])
        monkeypatch.delenv("CDFILTER_SEED")
        manifest = json.loads((env / "manifest.json").read_text())
        assert manifest["decisions"]["seed"] == 999
        assert manifest["settings"]["seed"] == 999
        assert (base / "radar.csv").read_bytes() != (env / "radar.csv").read_bytes()
        # the replay runs the recorded seed without the variable set
        assert run_from_manifest(env / "manifest.json", out_dir=replay) == 0
        assert (env / "radar.csv").read_bytes() == (replay / "radar.csv").read_bytes()

    def test_seed_changes_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _run(_RADAR_FAST + ["--out", a])
        _run(_RADAR_FAST + ["--seed", "12345", "--out", b])
        ra, rb = read_csv(a / "radar.csv")[0], read_csv(b / "radar.csv")[0]
        assert ra["rmse_pos_m"] != rb["rmse_pos_m"]

    def test_defaults_are_bench_config_defaults(self, tmp_path, monkeypatch):
        # every radar flag left out runs BenchConfig's own default
        import cdfilter.cli as cli
        from cdfilter.bench import BenchConfig

        seen = []
        monkeypatch.setattr(cli, "run_grid", lambda config, jobs: seen.append(config) or [])
        monkeypatch.delenv("CDFILTER_SEED", raising=False)
        assert _run(["radar", "--out", tmp_path]) == 0
        assert seen == [BenchConfig()]

    def test_truth_overflow_exits_2_by_name(self, tmp_path, capsys):
        # sigma2 = 1e150 passes every parameter check; the truth simulation
        # then leaves the float range and says so
        assert _run(_RADAR_FAST + ["--sigma2", "1e150", "--out", tmp_path]) == 2
        assert "truth simulation of seed 20210001" in capsys.readouterr().err

    def test_csv_round_trip_preserves_floats(self, tmp_path):
        from cdfilter.bench import BenchConfig, run_grid
        from cdfilter.cli import RADAR_CSV_COLUMNS, _write_csv

        cfg = BenchConfig(omega_deg=(6.0,), intervals=(6.0,), m_values=(2,),
                          filters=("cdckf",), trials=2, em_substeps=50)
        rows = run_grid(cfg)
        _write_csv(tmp_path / "t.csv", RADAR_CSV_COLUMNS, rows)
        back = read_csv(tmp_path / "t.csv")
        # 17 significant digits: the double survives text exactly
        assert back[0]["rmse_pos_m"] == rows[0]["rmse_pos_m"]
        assert back[0]["filter"] == "cdckf"
        assert back[0]["m"] == 2


class TestAppendixACommand:
    def test_rows_and_manifest(self, tmp_path):
        assert _run(["appendix-a", "--factorizations", "16",
                     "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "appendix_a.csv")
        assert [r["variant"] for r in rows] == ["standard", "averaged", "partial"]
        assert all(r["factorizations"] == 16 for r in rows)
        assert all(r["mean_l2_err"] > 0 for r in rows)

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CDFILTER_SEED", "7")
        assert _run(["appendix-a", "--factorizations", "4",
                     "--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["settings"]["seed"] == 7
        rows = read_csv(tmp_path / "appendix_a.csv")
        expect = run_appendix_a(4, 7, 0.5, 1.0, 1.0)
        assert [r["mean_l2_err"] for r in rows] == [r["mean_l2_err"] for r in expect]

    def test_run_appendix_a_deterministic(self):
        a = run_appendix_a(8, 1, 0.5, 1.0, 1.0)
        b = run_appendix_a(8, 1, 0.5, 1.0, 1.0)
        assert a == b


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[radar]\ntrials = 2\nomega-deg = 6\n"
                           "interval-s = 6\nm = 2\nfilters = cdckf\n")
        out = tmp_path / "out"
        assert _run(["--config", cfgfile, "radar", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["trials"] == 2
        assert manifest["settings"]["filters"] == ["cdckf"]

    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[appendix-a]\nfactorizations = 4\n")
        out = tmp_path / "out"
        assert _run(["--config", cfgfile, "appendix-a",
                     "--factorizations", "8", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["factorizations"] == 8

    def test_config_keys_accept_underscores(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[appendix-a]\nfactorizations = 4\nt_end = 0.5\n")
        out = tmp_path / "out"
        assert _run(["--config", cfgfile, "appendix-a", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["t_end"] == 0.5

    @pytest.mark.parametrize("content", [None, "[appendix-a]\nseed = 5%\n"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        # a missing file, and a value configparser cannot interpolate
        cfgfile = tmp_path / "run.ini"
        if content is not None:
            cfgfile.write_text(content)
        assert _run(["--config", cfgfile, "appendix-a",
                     "--out", tmp_path / "out"]) == 2
        assert "run.ini" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[appendix-a]\nfactorisations = 4\n")
        assert _run(["--config", cfgfile, "appendix-a",
                     "--out", tmp_path / "out"]) == 2
        assert "factorisations" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_exits_2(self):
        assert _run(["radar", "--frobnicate"]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert _run(["teleport"]) == 2

    def test_runtime_failure_exits_1(self, tmp_path):
        # a valid command line whose output directory cannot be made
        out = tmp_path / "taken"
        out.write_text("")
        assert _run(["appendix-a", "--factorizations", "4", "--out", out]) == 1

    @pytest.mark.parametrize("argv", [
        ["radar", "--filters", "ekf"],
        ["radar", "--m", "0", "--filters", "lskf-adaptive"],
        ["radar", "--trials", "0"],
        ["convergence", "linear-fp", "--methods", "ekf"],
        ["convergence", "linear-fp", "--methods", "lskf-rk2", "--steps", "0"],
        ["radar", "--interval-s", "0"],
        ["radar", "--interval-s", "-1"],
        ["radar", "--interval-s", "2,121"],
        ["appendix-a", "--factorizations", "0"],
        ["radar", "--filters", ","],
        ["convergence", "linear-fp", "--methods", ","],
        ["radar", "--tol-abs", "0"],
        ["radar", "--tol-rel", "-1e-8"],
        ["radar", "--tol-rel", "nan"],
        ["appendix-a", "--t-end", "-1"],
        ["appendix-a", "--a", "0"],
        ["radar", "--seed", "-1"],
        ["appendix-a", "--seed", "-1"],
        ["radar", "--jobs", "0"],
        ["radar", "--jobs", "-3"],
        ["radar", "--tol-abs", "inf"],
        ["appendix-a", "--a", "inf"],
        ["appendix-a", "--b", "inf"],
        ["appendix-a", "--a", "1e200"],
        ["appendix-a", "--b", "1e200"],
        ["radar", "--sigma2", "1e300"],
    ])
    def test_bad_grid_value_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert _run(argv + ["--out", out]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["radar"], ["appendix-a"]])
    def test_negative_seed_env_exits_2_before_manifest(self, tmp_path, monkeypatch,
                                                       capsys, command):
        monkeypatch.setenv("CDFILTER_SEED", "-1")
        out = tmp_path / "out"
        assert _run(command + ["--out", out]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_non_integer_seed_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CDFILTER_SEED", "twelve")
        out = tmp_path / "out"
        assert _run(["appendix-a", "--out", out]) == 2
        assert "CDFILTER_SEED" in capsys.readouterr().err
        assert not out.exists()

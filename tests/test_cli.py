import csv
import json
import re

import pytest

from bundlejc.cli import (
    ConfigError,
    main,
    parse_config,
    resolved_config_text,
)
from bundlejc.model import resonance_detuning, resonance_detuning_higher
from bundlejc.observables import sweep

MINIMAL = """
[model]
n = 2
j = 0.3
omega_l = 21.0
delta_n = -49.5
"""

DISSIPATIVE = """
[model]
n = 2
j = 0.3
omega_l = 21.0
delta_n = -49.5
kappa = 1.0
gamma = 0.1
n_max = 8
"""


class TestParse:
    def test_defaults_and_resonance_resolution(self):
        cfg = parse_config(MINIMAL, "resonances")
        m = cfg.model
        assert m.kappa == 0.0 and m.gamma == 0.0 and m.n_max == 15
        assert m.delta_a == pytest.approx(resonance_detuning(m))
        assert cfg.scan.points == 801
        assert cfg.seeds.base_seed == 12345
        assert cfg.integrator.scheme == "spectral"

    def test_explicit_delta_a(self):
        cfg = parse_config(MINIMAL + "delta_a = 3.5\n", "resonances")
        assert cfg.model.delta_a == 3.5

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[extras\]"):
            parse_config(MINIMAL + "\n[extras]\nfoo = 1\n", "resonances")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="omega_c"):
            parse_config(MINIMAL + "omega_c = 1.0\n", "resonances")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="omega_l"):
            parse_config("[model]\nn = 2\nj = 0.3\ndelta_n = -49.5\n", "resonances")

    def test_bad_type_named(self):
        with pytest.raises(ConfigError, match=r"\[model\] n:"):
            parse_config(MINIMAL.replace("n = 2", "n = two"), "resonances")

    def test_bad_points(self):
        bad = DISSIPATIVE + "\n[scan]\npoints = 1\n"
        with pytest.raises(ConfigError, match="points"):
            parse_config(bad, "steadyscan")

    def test_bad_mu(self):
        bad = DISSIPATIVE + "\n[scan]\nmu_values = 1,2\n"
        with pytest.raises(ConfigError, match="mu_values"):
            parse_config(bad, "steadyscan")

    def test_bad_scheme(self):
        bad = DISSIPATIVE + "\n[integrator]\nscheme = euler\n"
        with pytest.raises(ConfigError, match=r"\[integrator\]"):
            parse_config(bad, "steadyscan")

    def test_removed_scheme_named(self):
        bad = DISSIPATIVE + "\n[integrator]\nscheme = fixed_rk4\n"
        with pytest.raises(ConfigError, match=r"\[integrator\] scheme .*spectral"):
            parse_config(bad, "steadyscan")

    def test_removed_dt_key_named(self):
        # an old config or sidecar is refused, not reinterpreted
        bad = DISSIPATIVE + "\n[integrator]\ndt = 0.001\n"
        with pytest.raises(ConfigError, match="'dt'"):
            parse_config(bad, "steadyscan")

    def test_unsupported_output_format(self):
        bad = DISSIPATIVE + "\n[output]\nformats = parquet\n"
        with pytest.raises(ConfigError, match="parquet"):
            parse_config(bad, "steadyscan")

    def test_dissipative_preset_requires_kappa(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(MINIMAL, "steadyscan")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(MINIMAL, "nope")

    def test_trajectory_rejects_ensemble(self):
        # the preset writes one unraveling; an ensemble size must not be ignored
        bad = DISSIPATIVE + "\n[seeds]\nn_trajectories = 5\n"
        with pytest.raises(ConfigError, match=r"\[seeds\] n_trajectories"):
            parse_config(bad, "trajectory")
        assert parse_config(bad, "steadyscan").seeds.n_trajectories == 5

    def test_round_trip_is_fixed_point(self):
        for extra in (
            "\n[scan]\nmin = -30\nmax = 30\n",
            # every optional field set, and a non-default scheme
            "\n[scan]\nbundle_n = 3\nmu_values = 2,4\n"
            "\n[integrator]\nscheme = adaptive\nt_final = 7.5\nsample_dt = 0.25\n",
        ):
            cfg = parse_config(DISSIPATIVE + extra, "steadyscan")
            text = resolved_config_text(cfg)
            again = parse_config(text, "steadyscan")
            assert again == cfg
            assert resolved_config_text(again) == text


class TestSweep:
    def test_duplicate_points_identical(self):
        cfg = parse_config(
            DISSIPATIVE + "\n[scan]\nmin = 21.28\nmax = 21.28\npoints = 2\n",
            "steadyscan",
        )
        header, rows = sweep(cfg.model, cfg.scan.grid())
        assert header[0] == "delta_a" and header[-1] == "flag"
        assert len(rows) == 2
        assert rows[0] == rows[1]
        # clean point: no flags
        assert rows[0][-1] == ""

    def test_threaded_matches_serial(self):
        cfg = parse_config(
            DISSIPATIVE + "\n[scan]\nmin = 15\nmax = 25\npoints = 3\n", "steadyscan"
        )
        _, serial = sweep(cfg.model, cfg.scan.grid(), threads=1)
        _, threaded = sweep(cfg.model, cfg.scan.grid(), threads=2)
        assert serial == threaded


def run_cli(args):
    return main([str(a) for a in args])


class TestMain:
    def test_resonances_end_to_end(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL)
        assert run_cli(["resonances", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "resonances.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cfg = parse_config(MINIMAL, "resonances")
        by_key = {(r["mu"], r["branch"]): float(r["delta_a"]) for r in rows}
        assert by_key[("2", "plus")] == pytest.approx(
            resonance_detuning_higher(cfg.model, 2, +1), rel=1e-8
        )
        from bundlejc.model import resonant_branch

        assert by_key[("1", resonant_branch(cfg.model))] == pytest.approx(
            resonance_detuning(cfg.model), rel=1e-8
        )
        # floats are fixed-width scientific notation
        for r in rows:
            assert re.fullmatch(r"-?\d\.\d{8}e[+-]\d{2,3}", r["delta_a"])
        meta = json.loads((tmp_path / "resonances_metadata.json").read_text())
        assert meta["preset"] == "resonances"
        assert "resolved_config" in meta
        assert meta["derived"]["resonance_table"]["mu_1"] == pytest.approx(
            resonance_detuning(cfg.model)
        )

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert run_cli(
            ["resonances", "--config", cfg_file, "--out", out_dir, "--dry-run"]
        ) == 0
        assert not out_dir.exists()
        printed = capsys.readouterr().out
        assert "[model]" in printed and "delta_sigma" in printed

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL + "bogus = 1\n")
        assert run_cli(["resonances", "--config", cfg_file, "--out", tmp_path]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        assert run_cli(["resonances", "--config", tmp_path / "nope.ini"]) == 1
        assert capsys.readouterr().err.startswith("bundlejc:")

    def test_truncation_failure_exit_code(self, tmp_path, capsys):
        # drastically undersized Fock space at a driven dissipative point
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE.replace("n_max = 8", "n_max = 2"))
        assert run_cli(["custom", "--config", cfg_file, "--out", tmp_path]) == 1
        assert "truncation" in capsys.readouterr().err.lower()

    def test_trajectory_determinism_bit_for_bit(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            DISSIPATIVE + "\n[integrator]\nt_final = 5.0\nsample_dt = 0.5\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out1]) == 0
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out2]) == 0
        for name in ("trajectory_populations.csv", "trajectory_jumps.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_trajectory_ensemble_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE + "\n[seeds]\nn_trajectories = 5\n")
        out_dir = tmp_path / "out"
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out_dir]) == 1
        assert "n_trajectories" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_override_changes_jumps(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            DISSIPATIVE + "\n[integrator]\nt_final = 20.0\nsample_dt = 0.5\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out1]) == 0
        assert (
            run_cli(
                ["trajectory", "--config", cfg_file, "--out", out2, "--seed", "999"]
            )
            == 0
        )
        j1 = (out1 / "trajectory_jumps.csv").read_text()
        j2 = (out2 / "trajectory_jumps.csv").read_text()
        assert j1 != j2
        meta = json.loads((out2 / "trajectory_metadata.json").read_text())
        assert meta["seeds"]["base_seed"] == 999

    def test_custom_preset_outputs(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE.replace("n_max = 8", "n_max = 12"))
        assert run_cli(["custom", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "custom_steady_state.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(float(r["P_m"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-8)
        meta = json.loads((tmp_path / "custom_metadata.json").read_text())
        assert meta["equal_time_correlations"]["g2"] > 1.0

    def test_superrabi_oscillation(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            "[model]\nn = 2\nj = 1.0\nomega_l = 70.0\ndelta_n = -165.0\nn_max = 8\n"
            "\n[integrator]\nsample_dt = 0.05\n"
        )
        assert run_cli(["superrabi", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "superrabi.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # population leaves |0,+> and transfers to |n,->, tracking sin^2
        p_top = [float(r["P_0_plus"]) for r in rows]
        p_bot = [float(r["P_n_minus"]) for r in rows]
        assert p_top[0] == pytest.approx(1.0, abs=1e-9)
        assert max(p_bot) > 0.9
        k = p_bot.index(max(p_bot))
        assert p_bot[k] == pytest.approx(
            float(rows[k]["analytic_sin2"]), abs=0.05
        )

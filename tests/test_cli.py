import configparser
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bundlejc.cli import (
    _SCHEMA,
    ConfigError,
    derived_quantities,
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


def section_keys(text):
    """{section: set of keys} of an INI text."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    return {section: set(cp[section]) for section in cp.sections()}


SCHEMA_KEYS = {section: set(keys) for section, keys in _SCHEMA.items()}

# keys that configs and sidecars of earlier versions hold, with a value they
# held; the [integrator] keys chose between the spectral and the adaptive
# DOP853 propagator, which is gone
REMOVED_INTEGRATOR_KEYS = [
    pytest.param("integrator", "scheme", "spectral", id="scheme"),
    pytest.param("integrator", "scheme", "adaptive", id="scheme_adaptive"),
    pytest.param("integrator", "scheme", "fixed_rk4", id="scheme_fixed_rk4"),
    pytest.param("integrator", "rel_tol", "1e-10", id="rel_tol"),
    pytest.param("integrator", "abs_tol", "1e-12", id="abs_tol"),
]
REMOVED_KEYS = [
    pytest.param("scan", "variable", "delta_a", id="variable"),
    pytest.param("output", "formats", "csv", id="formats"),
    pytest.param("seeds", "n_trajectories", "1", id="n_trajectories"),
    *REMOVED_INTEGRATOR_KEYS,
]


class TestParse:
    def test_defaults_and_resonance_resolution(self):
        cfg = parse_config(MINIMAL, "resonances")
        m = cfg.model
        assert m.kappa == 0.0 and m.gamma == 0.0 and m.n_max == 15
        assert m.delta_a == pytest.approx(resonance_detuning(m))
        assert cfg.scan.points == 801
        assert cfg.seeds.base_seed == 12345

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

    def test_removed_dt_key_named(self):
        # an old config or sidecar is refused, not reinterpreted
        bad = DISSIPATIVE + "\n[integrator]\ndt = 0.001\n"
        with pytest.raises(ConfigError, match="'dt'"):
            parse_config(bad, "steadyscan")

    @pytest.mark.parametrize("section, key, value", REMOVED_KEYS)
    def test_removed_key_named(self, section, key, value):
        # an old config is refused, not read as if the key were absent
        bad = DISSIPATIVE + f"\n[{section}]\n{key} = {value}\n"
        for preset in ("steadyscan", "trajectory"):
            with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
                parse_config(bad, preset)

    @pytest.mark.parametrize(
        "section, lines, field",
        [
            ("scan", "bundle_n = 0", "bundle_n"),
            ("scan", "bundle_n = 9", "bundle_n"),  # n_max = 8
            ("scan", "tau_points = 0", "tau_points"),
            ("scan", "tau_max = -5", "tau_max"),
            ("scan", "tau_max = nan", "tau_max"),
            ("scan", "tau_max = inf", "tau_max"),
            ("scan", "tau_max = 1.5", "tau_max"),  # = tau_min of the n=2 bundle
            ("scan", "bundle_n = 3; tau_max = 1.8", "tau_max"),  # tau_min(3) = 1.83
            ("integrator", "t_final = -1", "t_final"),
            ("integrator", "t_final = nan", "t_final"),
            ("integrator", "sample_dt = 0", "sample_dt"),
            ("integrator", "sample_dt = inf", "sample_dt"),
        ],
        ids=lambda v: v.replace(" ", ""),
    )
    def test_bad_horizon_or_tau_field_named(self, section, lines, field):
        bad = DISSIPATIVE + f"\n[{section}]\n" + lines.replace("; ", "\n") + "\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\] {field} must"):
            parse_config(bad, "g2tau")

    def test_horizon_and_tau_values_in_use_accepted(self):
        for extra in (
            "\n[scan]\ntau_points = 200\ntau_max = 20.0\n",
            "\n[scan]\ntau_points = 1\ntau_max = 40.0\nbundle_n = 8\n",
            "\n[integrator]\nt_final = 1.0\nsample_dt = 0.05\n",
            "\n[integrator]\nt_final = 50.0\nsample_dt = 0.05\n",
        ):
            parse_config(DISSIPATIVE + extra, "g2tau")

    def test_dissipative_preset_requires_kappa(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(MINIMAL, "steadyscan")

    @pytest.mark.parametrize("field", ["kappa", "gamma"])
    def test_superrabi_rejects_decay_rate(self, field):
        # the unitary preset would drop the rate unread
        with pytest.raises(ConfigError, match=rf"\[model\] {field} = 0.5: .*unitary"):
            parse_config(MINIMAL + f"{field} = 0.5\n", "superrabi")
        parse_config(MINIMAL + f"{field} = 0.0\n", "superrabi")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(MINIMAL, "nope")

    def test_round_trip_is_fixed_point(self):
        for extra in (
            "\n[scan]\nmin = -30\nmax = 30\n",
            # every optional field set
            "\n[scan]\nbundle_n = 3\nmu_values = 2,4\n"
            "\n[integrator]\nt_final = 7.5\nsample_dt = 0.25\n",
        ):
            cfg = parse_config(DISSIPATIVE + extra, "steadyscan")
            text = resolved_config_text(cfg)
            again = parse_config(text, "steadyscan")
            assert again == cfg
            assert resolved_config_text(again) == text
        # the last config leaves no field None, so its rendering holds every key
        assert section_keys(text) == SCHEMA_KEYS

    def test_readme_config_block_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        block = re.sub(r"\s+#.*", "", block)  # the README annotates keys inline
        parse_config(block, "steadyscan")
        assert section_keys(block) == SCHEMA_KEYS


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


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_import_leaves_out_ode_solvers():
    # every run pays at start-up for what `import bundlejc.cli` loads; the
    # propagators need numpy's LAPACK and scipy.sparse, not scipy's ODE
    # solvers or the scipy.optimize they pull in
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, bundlejc.cli; "
        "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


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

    def test_removed_key_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE + "\n[seeds]\nn_trajectories = 5\n")
        out_dir = tmp_path / "out"
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out_dir]) == 1
        assert "unknown key 'n_trajectories'" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, key, value", REMOVED_INTEGRATOR_KEYS)
    def test_removed_integrator_key_exit_code(self, tmp_path, capsys, section, key, value):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE + f"\n[{section}]\n{key} = {value}\n")
        out_dir = tmp_path / "out"
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out_dir]) == 1
        assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_threads_flag_removed(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            run_cli(["resonances", "--config", cfg_file, "--out", tmp_path, "--threads", "2"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize(
        "preset, section, line",
        [
            ("g2tau", "scan", "tau_max = -5"),
            ("trajectory", "integrator", "sample_dt = 0"),
            ("superrabi", "integrator", "t_final = -1"),
        ],
        ids=("g2tau", "trajectory", "superrabi"),
    )
    def test_bad_field_exit_code(self, tmp_path, capsys, preset, section, line):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE + f"\n[{section}]\n{line}\n")
        field = line.split(" = ")[0]
        out_dir = tmp_path / "out"
        assert run_cli([preset, "--config", cfg_file, "--out", out_dir]) == 1
        assert f"{field} must" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field", ["kappa", "gamma"])
    def test_superrabi_decay_rate_exit_code(self, tmp_path, capsys, field):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL + f"{field} = 5.0\n")
        out_dir = tmp_path / "out"
        assert run_cli(["superrabi", "--config", cfg_file, "--out", out_dir]) == 1
        assert f"[model] {field} = 5.0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_jcregime_singular_model_writes_nothing(self, tmp_path, capsys):
        # j = 0 and delta_a = 0 make the JC-regime effective model singular
        text = DISSIPATIVE.replace("j = 0.3", "j = 0.0") + "delta_a = 0.0\n"
        assert "omega_eff_jc" not in derived_quantities(parse_config(text, "jcregime").model)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(text)
        out_dir = tmp_path / "out"
        assert run_cli(["jcregime", "--config", cfg_file, "--out", out_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bundlejc: [model]") and "singular" in err
        assert "Traceback" not in err
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

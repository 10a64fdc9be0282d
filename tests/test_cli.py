import configparser
import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bundlejc import cli, dynamics
from bundlejc.cli import (
    _MAX_HORIZON_RATE,
    _SCHEMA,
    REGISTRY,
    ConfigError,
    derived_quantities,
    main,
    parse_config,
    resolved_config_text,
)
from bundlejc.dynamics import run_trajectories
from bundlejc.model import (
    GRID_CAP, dressed_state, resonance_detuning, resonance_detuning_higher, resonant_branch,
)
from bundlejc.observables import sweep, tau_min

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
# DOP853 propagator, which is gone.  g2tau's bundle order is now the model's
# n, and every sidecar's resonance table lists mu = 2, 3
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
    pytest.param("scan", "bundle_n", "2", id="bundle_n"),
    pytest.param("scan", "mu_values", "2,3", id="mu_values"),
    *REMOVED_INTEGRATOR_KEYS,
]


class TestParse:
    def test_defaults_and_resonance_resolution(self):
        cfg = parse_config(MINIMAL, "superrabi")
        m = cfg.model
        assert m.kappa == 0.0 and m.gamma == 0.0 and m.n_max == 15
        assert m.delta_a == pytest.approx(resonance_detuning(m))
        assert cfg.scan.points == 801
        assert cfg.seeds.base_seed == 12345

    def test_explicit_delta_a(self):
        cfg = parse_config(MINIMAL + "delta_a = 3.5\n", "superrabi")
        assert cfg.model.delta_a == 3.5

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[extras\]"):
            parse_config(MINIMAL + "\n[extras]\nfoo = 1\n", "superrabi")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="omega_c"):
            parse_config(MINIMAL + "omega_c = 1.0\n", "superrabi")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="omega_l"):
            parse_config("[model]\nn = 2\nj = 0.3\ndelta_n = -49.5\n", "superrabi")

    def test_bad_type_named(self):
        with pytest.raises(ConfigError, match=r"\[model\] n:"):
            parse_config(MINIMAL.replace("n = 2", "n = two"), "superrabi")

    def test_bad_points(self):
        bad = DISSIPATIVE + "\n[scan]\npoints = 1\n"
        with pytest.raises(ConfigError, match="points"):
            parse_config(bad, "steadyscan")

    def test_key_before_section_header_refused(self):
        with pytest.raises(ConfigError, match="config parse error: File contains no section"):
            parse_config("n = 2\n" + MINIMAL, "superrabi")

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
            ("scan", "tau_points = 0", "tau_points"),
            ("scan", "tau_max = -5", "tau_max"),
            ("scan", "tau_max = nan", "tau_max"),
            ("scan", "tau_max = inf", "tau_max"),
            ("scan", "tau_max = 1.5", "tau_max"),  # = tau_min of the n=2 bundle
            ("scan", "min = nan", "min"),
            ("scan", "max = -inf", "max"),
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
            "\n[scan]\ntau_points = 1\ntau_max = 40.0\n",
            "\n[integrator]\nt_final = 1.0\nsample_dt = 0.05\n",
            "\n[integrator]\nt_final = 50.0\nsample_dt = 0.05\n",
        ):
            parse_config(DISSIPATIVE + extra, "g2tau")

    @pytest.mark.parametrize(
        "lines, named",
        [
            (f"[scan]\npoints = {GRID_CAP}", f"[scan] points must be in 2..{GRID_CAP}; got "),
            (f"[scan]\ntau_points = {GRID_CAP}", f"[scan] tau_points must be in 1..{GRID_CAP}; got "),
            (f"[integrator]\nt_final = {GRID_CAP - 1}.0\nsample_dt = 1.0",
             f"[integrator] sample_dt must make at most GRID_CAP = {GRID_CAP} samples"),
        ],
        ids=("points", "tau_points", "samples"),
    )
    def test_grid_cap_is_the_largest_length_accepted(self, lines, named):
        # GRID_CAP points (or sample times) pass, one more is refused
        parse_config(DISSIPATIVE + "\n" + lines + "\n", "g2tau")
        over = re.sub(r"= (\d+)", lambda m: f"= {int(m[1]) + 1}", lines, count=1)
        with pytest.raises(ConfigError) as refusal:
            parse_config(DISSIPATIVE + "\n" + over + "\n", "g2tau")
        assert str(refusal.value).startswith(named)

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

    def test_readme_library_example_runs(self, capsys):
        # every name the README imports, and the default-grid g2_bundle_delayed call
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        exec(compile(block, "README.md", "exec"), {})
        pops, values = capsys.readouterr().out.splitlines()
        assert len(pops.strip("[]").split()) == 4
        assert len(values.split()) == 2


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

    def test_undefined_correlations_flagged(self):
        # at j = 0 no photon is emitted: each row keeps its populations, has
        # NaN for g2, g3 and g4 together, and says why
        cfg = parse_config(
            DISSIPATIVE.replace("j = 0.3", "j = 0.0") + "\n[scan]\npoints = 3\n", "steadyscan"
        )
        header, rows = sweep(cfg.model, cfg.scan.grid())
        g = slice(header.index("g2"), header.index("g4") + 1)
        for row in rows:
            assert row[-1] == "correlation_undefined"
            assert np.isnan(row[g]).all() and row[header.index("P0")] == pytest.approx(1.0)


def run_cli(args):
    return main([str(a) for a in args])


def sidecar_config(path) -> configparser.ConfigParser:
    """The resolved config a sidecar records, read as the INI it is."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(json.loads(Path(path).read_text())["resolved_config"])
    return cp


def assert_refused(tmp_path, capsys, preset, text, named, dry_run):
    """main, with or without --dry-run, exits 1 with parse_config's refusal,
    which starts with `named`, as its one stderr line, and writes nothing;
    returns that refusal."""
    with pytest.raises(ConfigError) as refusal:
        parse_config(text, preset)
    assert str(refusal.value).startswith(named)
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(text)
    out_dir = tmp_path / "out"
    assert run_cli([preset, "--config", cfg_file, "--out", out_dir] + ["--dry-run"] * dry_run) == 1
    assert capsys.readouterr().err == f"bundlejc: {refusal.value}\n"
    assert not out_dir.exists()
    return str(refusal.value)


# model points a preset cannot take, with the [model] field its refusal names
J0_NO_TLS_DECAY = (
    DISSIPATIVE.replace("j = 0.3", "j = 0.0").replace("gamma = 0.1", "gamma = 0.0")
    .replace("n_max = 8", "n_max = 6")
)
JC_UNDERFLOW = (
    "[model]\nn = 1\nn_max = 1\nj = 0.0\nomega_l = 0.0\ndelta_n = 2.497257988493094e-161\n"
    "kappa = 1e-300\ngamma = 1.0\n"
)
REFUSED_MODEL_POINTS = [
    pytest.param("steadyscan", DISSIPATIVE.replace("kappa = 1.0", "kappa = 0.0"),
                 "[model] kappa = 0.0", id="dissipative_kappa"),
    # at j = 0 without TLS decay the driven TLS never relaxes to one steady state
    *[pytest.param(preset, J0_NO_TLS_DECAY, "[model] gamma = 0.0", id=f"{preset}_gamma")
      for preset in ("g2tau", "jcregime", "custom", "steadyscan")],
    # Omega_m = 0: the JC doublets have no mixing angle
    pytest.param("jcregime", DISSIPATIVE.replace("j = 0.3", "j = 0.0").replace(
        "delta_n = -49.5", "delta_n = 0.0") + "delta_a = 1.0\n", "[model] j = 0.0",
        id="jcregime_doublets"),
    # delta_n^2 is subnormal, so Omega_m came out below |delta_n| and c_minus nan
    pytest.param("jcregime", JC_UNDERFLOW, "[model] j = 0.0", id="jcregime_underflow"),
    # omega_eff underflows to 0, so the default horizon would be infinite
    pytest.param("superrabi", "[model]\nn = 1\nj = 1e-300\nomega_l = 1e-300\ndelta_n = -1.0\n"
                 "delta_a = 0.5\n", "[model] j = 1e-300", id="superrabi_horizon"),
    # rates out of floating-point range, named by the largest
    *[pytest.param("custom", DISSIPATIVE.replace(old, new) + "delta_a = 1.0\n", named, id=ident)
      for old, new, named, ident in [
          ("j = 0.3", "j = 1e300", "[model] j = 1e+300", "j_1e300"),
          ("omega_l = 21.0", "omega_l = 1e300", "[model] omega_l = 1e+300", "omega_l_1e300"),
          ("delta_n = -49.5", "delta_n = 1e300", "[model] delta_n = 1e+300", "delta_n_1e300"),
          ("j = 0.3\nomega_l = 21.0", "j = 1e200\nomega_l = 1e200", "[model] j = 1e+200",
           "j_omega_l_1e200"),
          ("kappa = 1.0", "kappa = 1e300", "[model] kappa = 1e+300", "kappa_1e300"),
      ]],
    # the horizon 50/kappa or tau_max/kappa outruns the eig round-off: the
    # g2tau rows came out nan and the jump time did not converge
    *[pytest.param(preset, "[model]\nn = 1\nj = 2.0\nomega_l = 1.0\ndelta_n = 3.0\n"
                   "kappa = 1e-300\ngamma = 0.0\nn_max = 2\n", "[model] kappa = 1e-300",
                   id=f"{preset}_horizon") for preset in ("g2tau", "trajectory")],
    # so does 1.25 pi/|omega_eff| at omega_eff ~ 1e-300, above the smallest float
    pytest.param("superrabi", "[model]\nn = 1\nn_max = 1\nj = 1e-300\nomega_l = 42.0\n"
                 "delta_n = 1.0\n", "[model] j = 1e-300", id="superrabi_roundoff"),
    # ModelParams' own refusals, under [model] (the property test meets them
    # only when it draws such a value)
    *[pytest.param("custom", DISSIPATIVE.replace(old, new), named, id=ident)
      for old, new, named, ident in [
          ("n = 2", "n = 0", "[model] n must be >= 1", "n_0"),
          ("j = 0.3", "j = nan", "[model] j must be finite", "j_nan"),
          ("gamma = 0.1", "gamma = -0.1", "[model] gamma must be >= 0: it is a decay rate",
           "gamma_negative"),
          ("n_max = 8", "n_max = 1", "[model] n_max=1 < n=2: the coupling term vanishes "
           "identically", "n_max_below_n"),
          ("n_max = 8", "n_max = 21", "[model] n_max=21 exceeds the cap 20", "n_max_cap"),
      ]],
]


# model points whose steady state only the factor can refuse: the slowest
# relaxation of K lies below round-off of its largest rate, so the banded LU
# returns a near-null vector that is no density matrix (n = 2: P_1 = -4.5e-5
# and g2 = 96 at kappa = 1e-16; n = 1 at delta_a = 0: P_e = 3178 at
# j = 1e-10) or none at all (j = gamma = 1e-300).  Each passes its dry run
UNRELAXED_N2 = (
    "[model]\nn = 2\nj = 0.3\nomega_l = 21.0\ndelta_n = -49.5\ngamma = 0.0\nn_max = 12\n"
)
UNRELAXED_N1 = "[model]\nn = 1\nomega_l = 46.0\ndelta_n = 1.0\nkappa = 1.0\nn_max = 3\n"
# the resonant delta_a at gamma = 0, where P_e = 1.18133e-4 whatever j; eps
# over the factor's condition estimate is 1.9e-6 at j = 1e-3 and grows as 1/j^2
BLIND_SPOT = UNRELAXED_N1 + "gamma = 0.0\ndelta_a = -4232.5\n"
UNRELAXED_POINTS = [
    *[pytest.param("custom", UNRELAXED_N2 + f"delta_a = 24.0\nkappa = {kappa}\n",
                   f"kappa = {kappa}, gamma = 0.0, j = 0.3", id=f"n2_kappa_{kappa}")
      for kappa in ("1e-16", "1e-12")],
    pytest.param("custom", UNRELAXED_N1 + "delta_a = 0.0\nj = 1e-10\ngamma = 0.0\n",
                 "kappa = 1.0, gamma = 0.0, j = 1e-10", id="n1_j_1e-10"),
    *[pytest.param(preset, UNRELAXED_N1 + "j = 1e-300\ngamma = 1e-300\n",
                   "kappa = 1.0, gamma = 1e-300, j = 1e-300", id=f"{preset}_j_gamma_1e-300")
      for preset in ("custom", "jcregime", "g2tau")],
    # a positive but wrong state (P_e = 2.7e-2 and 1.9e-4 against 1.18133e-4)
    # that passes every check but the condition estimate
    *[pytest.param("custom", BLIND_SPOT + f"j = {j}\n", f"kappa = 1.0, gamma = 0.0, j = {j}",
                   id=f"n1_blind_spot_j_{j}") for j in (1e-8, 1e-10)],
]
UNRELAXED_SCANS = [
    *[pytest.param(UNRELAXED_N2 + f"kappa = {kappa}\n\n[scan]\nmin = 22\nmax = 26\npoints = 5\n",
                   f"kappa = {kappa}, gamma = 0.0, j = 0.3", id=f"n2_kappa_{kappa}")
      for kappa in ("1e-16", "1e-12")],
    # the default 801-point grid: the condition estimate refuses every row (12
    # rows once passed the rest of the gate, then overflowed n_max = 2)
    pytest.param("[model]\nn = 2\nn_max = 2\nj = 2.0\nomega_l = 1.0\ndelta_n = 1.0\n"
                 "kappa = 1e-300\ngamma = 0.0\n", "kappa = 1e-300, gamma = 0.0, j = 2.0",
                 id="n2_kappa_1e-300"),
    *[pytest.param(BLIND_SPOT + f"j = {j}\n\n[scan]\nmin = -4233.5\nmax = -4231.5\npoints = 3\n",
                   f"kappa = 1.0, gamma = 0.0, j = {j}", id=f"n1_blind_spot_j_{j}")
      for j in (1e-8, 1e-10)],
]

# a state that only the check on the smallest eigenvalue of rho refuses: the
# factor's condition estimate and the trace and residual bounds pass it
NEGATIVE_EIGENVALUE = (
    "[model]\nn = 1\nj = 38.272202562629445\nomega_l = 60.07024861835774\ndelta_n = 1e-300\n"
    "kappa = 3.2818513990233002e-12\ngamma = 0.0\nn_max = 4\ndelta_a = 89.38925503250101\n"
)

# g_1(0) = 0 exactly (a^2 = 0 at n_max = 1), computed as a round-off negative
NMAX1_ROUNDOFF = (
    "[model]\nn = 1\nn_max = 1\nj = 1\nomega_l = 21\ndelta_n = 1\nkappa = 10\ngamma = 1\n"
)
# a point whose g_2 bundle curve the eigendecomposition gets wrong, below 0
PSTAR = (
    "[model]\nn = 2\nn_max = 2\nj = -71.1296499191231\nomega_l = -78.95551397250043\n"
    "delta_n = 0.04614540461922445\nkappa = 44.27038123075698\ngamma = 1e-300\n"
)

# a cheap point of every preset
CHEAP_POINTS = {
    "superrabi": "[model]\nn = 2\nj = 1.0\nomega_l = 70.0\ndelta_n = -165.0\nn_max = 8\n"
    "\n[integrator]\nsample_dt = 0.5\n",
    "steadyscan": DISSIPATIVE + "\n[scan]\nmin = 20\nmax = 22\npoints = 3\n",
    "trajectory": DISSIPATIVE + "\n[integrator]\nt_final = 50.0\nsample_dt = 0.5\n",
    "g2tau": DISSIPATIVE + "\n[scan]\ntau_points = 5\n",
    "jcregime": DISSIPATIVE,
    "custom": DISSIPATIVE.replace("n_max = 8", "n_max = 12"),
}

# the top-level keys of every sidecar: its inputs, once, in resolved_config,
# and the quantities derived from [model]
SIDECAR_KEYS = {"preset", "library_version", "unit", "resolved_config", "derived"}
# and beside them what each preset's run measured
MEASURED_KEYS = {
    "superrabi": set(),
    "steadyscan": {"flagged_rows"},
    "trajectory": {"n_jumps"},
    "g2tau": {"tau_min", "g_equal_time_2"},
    "jcregime": {"n_photon_population"},
    "custom": {"equal_time_correlations"},
}

# the presets that never build a Liouvillian
NUMPY_ONLY_PRESETS = ("superrabi", "trajectory")

# run in a fresh interpreter: the stages in order, each with the scipy and
# multiprocessing modules loaded once it is done, then which of scipy.sparse
# and its csgraph and linalg subpackages are loaded after a steadyscan run,
# after a library sweep at its config, after a custom and a jcregime run, and
# after a g2tau run
SCIPY_PROBE = """
import json, sys
from pathlib import Path
from bundlejc.cli import main, parse_config
from bundlejc.observables import sweep

def deferred_loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy", "multiprocessing")))

configs, out, numpy_only = json.loads(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
seen = {"import bundlejc.cli": deferred_loaded()}
for preset, cfg in configs.items():
    assert main([preset, "--config", cfg, "--dry-run"]) == 0
    seen[preset + " --dry-run"] = deferred_loaded()
for preset in numpy_only:
    assert main([preset, "--config", configs[preset], "--out", out + "/" + preset]) == 0
    seen[preset] = deferred_loaded()
def sparse_loaded():
    probes = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.sparse.linalg")
    return [m for m in probes if m in sys.modules]

assert main(["steadyscan", "--config", configs["steadyscan"], "--out", out + "/steadyscan"]) == 0
sparse = {"steadyscan": sparse_loaded()}
cfg = parse_config(Path(configs["steadyscan"]).read_text(), "steadyscan")
sweep(cfg.model, cfg.scan.grid())
sparse["sweep"] = sparse_loaded()
for preset in ("custom", "jcregime"):
    assert main([preset, "--config", configs[preset], "--out", out + "/" + preset]) == 0
    sparse[preset] = sparse_loaded()
assert main(["g2tau", "--config", configs["g2tau"], "--out", out + "/g2tau"]) == 0
sparse["g2tau"] = sparse_loaded()
print(json.dumps({"seen": seen, "sparse": sparse}))
"""


def test_scipy_loads_only_where_a_liouvillian_is_built(tmp_path):
    # every run pays at start-up for what it imports, and scipy's LAPACK
    # costs 0.21-0.30 s of it; only the code that builds or factors a
    # Liouvillian imports scipy, so the library import, every dry run and the
    # presets that need only eigh, the H_nh eig and closed forms load none of
    # it.  Likewise only a parallel run_trajectories imports multiprocessing
    # (about 15 ms), which no preset calls: the trajectory preset runs one
    # trajectory in-process
    configs = {}
    for preset, text in CHEAP_POINTS.items():
        configs[preset] = str(tmp_path / f"{preset}.ini")
        Path(configs[preset]).write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            SCIPY_PROBE,
            json.dumps(configs),
            str(tmp_path / "out"),
            json.dumps(NUMPY_ONLY_PRESETS),
        ],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    stages = ["import bundlejc.cli"]
    stages += [f"{preset} --dry-run" for preset in CHEAP_POINTS] + list(NUMPY_ONLY_PRESETS)
    assert result["seen"] == {stage: [] for stage in stages}
    # the steady-state solve, run by a sweep (preset or library) or by
    # steady_state(p) in custom and jcregime, factors K with scipy's LAPACK
    # alone; only LiouvillePropagator(p) builds L as a CSR, so the probe sees
    # scipy.sparse once g2tau has run, and the spectral propagator needs
    # neither csgraph nor sparse.linalg
    assert result["sparse"] == {
        "steadyscan": [], "sweep": [], "custom": [], "jcregime": [], "g2tau": ["scipy.sparse"],
    }


# what main writes at each CHEAP_POINTS config, checked in; a change that moves
# an output byte rewrites its files in the same diff (tests/golden/README.md)
GOLDEN = Path(__file__).resolve().parent / "golden"


def written_outputs(preset, tmp_path) -> dict:
    """{file name: bytes} that main writes for CHEAP_POINTS[preset], with the
    sidecar's [output] directory line left out: it names tmp_path."""
    cfg_file, out_dir = tmp_path / "cfg.ini", tmp_path / "out"
    cfg_file.write_text(CHEAP_POINTS[preset])
    assert run_cli([preset, "--config", cfg_file, "--out", out_dir]) == 0
    files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    sidecar = f"{preset}_metadata.json"
    line = json.dumps(f"directory = {out_dir}\n")[1:-1].encode()  # as the JSON string holds it
    assert files[sidecar].count(line) == 1
    files[sidecar] = files[sidecar].replace(line, b"")
    return files


def first_difference(name, golden: bytes, written: bytes) -> str:
    """The first cell of a CSV, or line of a sidecar, where written departs
    from golden, with both values; a CSV column is named by its header."""
    if name.endswith(".csv"):
        tables = [list(csv.reader(io.StringIO(b.decode()))) for b in (golden, written)]
        header = tables[0][0]
    else:
        tables = [[[line] for line in b.decode().splitlines()] for b in (golden, written)]
        header = []
    for row, (old, new) in enumerate(zip_longest(*tables, fillvalue=[])):
        for col, (x, y) in enumerate(zip_longest(old, new)):
            if x != y:
                column = header[col] if col < len(header) else col
                return (f"{name}, row {row} (0 = first line), column {column!r}: "
                        f"golden {x!r}, written {y!r}")
    return f"{name}: same cells, other bytes (line endings or quoting)"


class TestMain:
    @pytest.mark.parametrize("preset", sorted(REGISTRY))
    def test_dataset_regenerates_from_sidecar(self, tmp_path, preset):
        # the sidecar's resolved config alone, run into a fresh directory,
        # rewrites every dataset byte for byte; it carries a [seeds] base_seed
        # other than the default
        first, again = tmp_path / "first", tmp_path / "again"
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CHEAP_POINTS[preset] + "\n[seeds]\nbase_seed = 7\n")
        assert run_cli([preset, "--config", cfg_file, "--out", first]) == 0
        sidecar = f"{preset}_metadata.json"
        resolved = tmp_path / "resolved.ini"
        resolved.write_text(json.loads((first / sidecar).read_text())["resolved_config"])
        assert run_cli([preset, "--config", resolved, "--out", again]) == 0
        datasets = sorted(path.name for path in first.glob("*.csv"))
        assert datasets and sorted(path.name for path in again.glob("*.csv")) == datasets
        for name in datasets:
            assert (again / name).read_bytes() == (first / name).read_bytes()
        assert (again / sidecar).read_text() == (first / sidecar).read_text().replace(
            str(first), str(again)
        )

    @pytest.mark.parametrize("preset", sorted(CHEAP_POINTS))
    def test_outputs_match_golden(self, tmp_path, preset):
        # every CSV and sidecar byte of the cheap points, against tests/golden
        written = written_outputs(preset, tmp_path)
        golden = {path.name: path.read_bytes() for path in (GOLDEN / preset).iterdir()}
        assert sorted(written) == sorted(golden)
        for name, data in golden.items():
            assert written[name] == data, first_difference(name, data, written[name])

    @pytest.mark.parametrize("preset", sorted(REGISTRY))
    def test_sidecar_keys(self, tmp_path, preset):
        # no input is repeated beside resolved_config: the sidecar once also
        # held [model] and [seeds] as JSON, t_final and sample_dt, bundle_n,
        # mu_values, grid_points, a second omega_eff_jc and three constant
        # strings.  Run without [integrator], superrabi and trajectory record
        # there the default horizon and step their t column was sampled at
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CHEAP_POINTS[preset].split("\n[integrator]")[0])
        assert run_cli([preset, "--config", cfg_file, "--out", tmp_path]) == 0
        sidecar = tmp_path / f"{preset}_metadata.json"
        assert set(json.loads(sidecar.read_text())) == SIDECAR_KEYS | MEASURED_KEYS[preset]
        integrator = sidecar_config(sidecar)["integrator"]
        if preset not in ("superrabi", "trajectory"):
            assert dict(integrator) == {}
            return
        stem = "superrabi" if preset == "superrabi" else "trajectory_populations"
        with open(tmp_path / f"{stem}.csv", newline="") as fh:
            t = [r["t"] for r in csv.DictReader(fh)]
        t_final, sample_dt = integrator.getfloat("t_final"), integrator.getfloat("sample_dt")
        assert t == [f"{k * sample_dt:.8e}" for k in range(1001)] and t[-1] == f"{t_final:.8e}"

    def test_resonance_table_in_sidecar_and_dry_run(self, tmp_path, capsys):
        # the mu = 1 resonance and the mu = 2, 3 pairs of the model's n, as
        # the sidecar and the dry run print them
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL)
        assert run_cli(["superrabi", "--config", cfg_file, "--out", tmp_path]) == 0
        meta = json.loads((tmp_path / "superrabi_metadata.json").read_text())
        assert meta["preset"] == "superrabi"
        assert sidecar_config(tmp_path / "superrabi_metadata.json")["model"]["n"] == "2"
        capsys.readouterr()
        assert run_cli(["superrabi", "--config", cfg_file, "--dry-run"]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed[printed.index("\n{") :]) == meta["derived"]
        table = meta["derived"]["resonance_table"]
        m = parse_config(MINIMAL, "superrabi").model
        assert table["branch"] == resonant_branch(m)
        assert table["mu_1"] == pytest.approx(resonance_detuning(m), rel=1e-8)
        for mu in (2, 3):
            for sign, branch in ((+1, "plus"), (-1, "minus")):
                assert table[f"mu_{mu}_{branch}"] == pytest.approx(
                    resonance_detuning_higher(m, mu, sign), rel=1e-8
                )
        # five detunings beside the branch
        assert len(table) == 1 + 5

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert run_cli(
            ["superrabi", "--config", cfg_file, "--out", out_dir, "--dry-run"]
        ) == 0
        assert not out_dir.exists()
        printed = capsys.readouterr().out
        assert "[model]" in printed and "delta_sigma" in printed

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL + "bogus = 1\n")
        assert run_cli(["superrabi", "--config", cfg_file, "--out", tmp_path]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        assert run_cli(["superrabi", "--config", tmp_path / "nope.ini"]) == 1
        assert capsys.readouterr().err.startswith("bundlejc:")

    @pytest.mark.parametrize(
        "preset, without_k",
        [("custom", False), ("jcregime", False), ("g2tau", False), ("g2tau", True)],
        ids=["custom", "jcregime", "g2tau", "g2tau-before-any-K"],
    )
    def test_truncation_failure_exit_code(self, tmp_path, capsys, monkeypatch, preset, without_k):
        # drastically undersized Fock space at a driven dissipative point (the
        # top level holds 8.918e-03): every one-point preset refuses it, and
        # g2tau does so before it assembles K for its propagator
        if without_k:
            def assemble(p):
                raise AssertionError("K assembled before the truncation check")

            monkeypatch.setattr(dynamics, "build_liouvillian", assemble)
            # a cli that imported build_liouvillian itself would call its own binding
            monkeypatch.setattr(cli, "build_liouvillian", assemble, raising=False)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE.replace("n_max = 8", "n_max = 2"))
        out_dir = tmp_path / "out"
        assert run_cli([preset, "--config", cfg_file, "--out", out_dir]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("bundlejc: truncation check failed: top Fock level holds population")
        assert not out_dir.exists()

    @pytest.mark.parametrize("preset, config, rates", UNRELAXED_POINTS)
    def test_unrelaxed_steady_state_names_rates(self, tmp_path, capsys, preset, config, rates):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(config)
        out_dir = tmp_path / "out"
        assert run_cli([preset, "--config", cfg_file, "--dry-run"]) == 0
        capsys.readouterr()
        assert run_cli([preset, "--config", cfg_file, "--out", out_dir]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("bundlejc: solver failure: steady state refused: ")
        assert f"[model] {rates}; the smallest nonzero of these over the largest rate" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, rates", UNRELAXED_SCANS)
    def test_unrelaxed_scan_flags_rows_naming_rates(self, tmp_path, config, rates):
        # a sweep runs on past a refused point, and the row's flag says why
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(config)
        assert run_cli(["steadyscan", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "steadyscan.csv", newline="") as fh:
            flags = [row["flag"] for row in csv.DictReader(fh)]
        assert all(flags)
        for flag in (flag for flag in flags if flag != "truncation"):
            assert flag.startswith("solver: steady state refused: ")
            assert f"[model] {rates}; the smallest nonzero of these" in flag

    def test_negative_eigenvalue_refused_naming_rates(self, tmp_path, capsys):
        # custom exits 1 and writes nothing; a sweep flags the row and goes on
        refused = "steady state refused: smallest eigenvalue of rho -6.358e-07 < -1e-12; "
        rates = "[model] kappa = 3.2818513990233002e-12, gamma = 0.0, j = 38.272202562629445; "
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(NEGATIVE_EIGENVALUE)
        assert run_cli(["custom", "--config", cfg_file, "--out", tmp_path / "out"]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"bundlejc: solver failure: {refused}") and rates in err
        assert not (tmp_path / "out").exists()
        cfg_file.write_text(NEGATIVE_EIGENVALUE + "\n[scan]\nmin = 89.38925503250101\n"
                            "max = 89.38925503250101\npoints = 2\n")
        assert run_cli(["steadyscan", "--config", cfg_file, "--out", tmp_path / "scan"]) == 0
        with open(tmp_path / "scan" / "steadyscan.csv", newline="") as fh:
            flags = [row["flag"] for row in csv.DictReader(fh)]
        assert len(flags) == 2
        assert all(flag.startswith(f"solver: {refused}") and rates in flag for flag in flags)

    def test_trajectory_determinism_bit_for_bit(self, tmp_path):
        # 50/kappa, so the record holds jumps (a 5/kappa run held none)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            DISSIPATIVE + "\n[integrator]\nt_final = 50.0\nsample_dt = 0.5\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out1]) == 0
        assert run_cli(["trajectory", "--config", cfg_file, "--out", out2]) == 0
        for name in ("trajectory_populations.csv", "trajectory_jumps.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert len((out1 / "trajectory_jumps.csv").read_text().splitlines()) > 1

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

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_removed_flag_refused(self, tmp_path, flag):
        # a run's inputs are its config file and --out; the seed is [seeds] base_seed
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            run_cli(["superrabi", "--config", cfg_file, "--out", tmp_path, flag, "2"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_retired_preset_refused(self, tmp_path, capsys):
        # resonances wrote the resonance table of every sidecar and dry run
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            run_cli(["resonances", "--config", cfg_file, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert "invalid choice: 'resonances'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize("line", ["bundle_n = 2", "mu_values = 2,3"])
    def test_old_sidecar_with_removed_scan_key_refused(self, tmp_path, capsys, line, dry_run):
        # the resolved config of a sidecar written while [scan] held these
        # keys (mu_values = 2,3 in every one) no longer regenerates its dataset
        text = resolved_config_text(parse_config(CHEAP_POINTS["g2tau"], "g2tau"))
        old = text.replace("\ntau_points = ", f"\n{line}\ntau_points = ")
        key = line.split(" = ")[0]
        named = f"unknown key '{key}' in section [scan]"
        assert_refused(tmp_path, capsys, "g2tau", old, named, dry_run)

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    def test_config_not_utf8_refused_naming_the_file(self, tmp_path, capsys, dry_run):
        # the decode error is a ValueError, which main once reported as a
        # solver failure
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_bytes(b"\xff\xfe[model]\n")
        out_dir = tmp_path / "out"
        args = ["custom", "--config", cfg_file, "--out", out_dir] + ["--dry-run"] * dry_run
        assert run_cli(args) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"bundlejc: config file {cfg_file} is not UTF-8: 'utf-8' codec ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    def test_config_with_byte_order_mark_accepted(self, tmp_path, capsys, dry_run):
        # Notepad starts a UTF-8 file with one; the parser once refused its
        # first section header, "\ufeff[model]", as a config parse error
        cfg_file = tmp_path / "bom.ini"
        cfg_file.write_bytes(b"\xef\xbb\xbf" + MINIMAL.lstrip().encode())
        out_dir = tmp_path / "out"
        args = ["superrabi", "--config", cfg_file, "--out", out_dir] + ["--dry-run"] * dry_run
        assert run_cli(args) == 0
        assert capsys.readouterr().err == ""
        if dry_run:
            assert not out_dir.exists()
        else:
            assert sidecar_config(out_dir / "superrabi_metadata.json")["model"]["n"] == "2"

    @pytest.mark.parametrize(
        "preset, section, line",
        [
            ("g2tau", "scan", "tau_max = -5"),
            ("trajectory", "integrator", "sample_dt = 0"),
            ("superrabi", "integrator", "t_final = -1"),
            ("steadyscan", "scan", "min = nan"),
        ],
        ids=("g2tau", "trajectory", "superrabi", "steadyscan"),
    )
    def test_bad_field_exit_code(self, tmp_path, capsys, preset, section, line):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE + f"\n[{section}]\n{line}\n")
        field = line.split(" = ")[0]
        out_dir = tmp_path / "out"
        assert run_cli([preset, "--config", cfg_file, "--out", out_dir]) == 1
        assert f"{field} must" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize("field", ["kappa", "gamma"])
    def test_superrabi_decay_rate_exit_code(self, tmp_path, capsys, field, dry_run):
        text = MINIMAL + f"{field} = 5.0\n"
        assert_refused(tmp_path, capsys, "superrabi", text, f"[model] {field} = 5.0", dry_run)

    @pytest.mark.parametrize(
        "preset, config, named",
        [
            # the super-Rabi frequency vanishes: no default horizon 1.25 pi / omega_eff
            ("superrabi", CHEAP_POINTS["superrabi"].replace("j = 1.0", "j = 0.0"),
             "[model] j = 0"),
            # no drive, so no dressed state |0>|+> to start from
            ("superrabi", CHEAP_POINTS["superrabi"].replace("omega_l = 70.0", "omega_l = 0.0"),
             "[model] omega_l = 0.0"),
            ("trajectory", CHEAP_POINTS["trajectory"].replace("omega_l = 21.0", "omega_l = 0.0"),
             "[model] omega_l = 0.0"),
        ],
        ids=("superrabi_j", "superrabi_omega_l", "trajectory_omega_l"),
    )
    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    def test_undefined_start_or_horizon_names_field(
        self, tmp_path, capsys, preset, config, named, dry_run
    ):
        assert_refused(tmp_path, capsys, preset, config, named, dry_run)

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize("preset, config, named", REFUSED_MODEL_POINTS)
    def test_model_requirement_names_field(self, tmp_path, capsys, preset, config, named, dry_run):
        # every model point a preset cannot take is refused before it runs,
        # so the dry run refuses it too, with the same line
        assert_refused(tmp_path, capsys, preset, config, named, dry_run)

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize(
        "preset, model, horizon, named",
        [
            ("superrabi", CHEAP_POINTS["superrabi"].split("\n[integrator]")[0],
             "\n[integrator]\nt_final = {t!r}\nsample_dt = {dt!r}\n", "[model] j = 1.0"),
            ("trajectory", DISSIPATIVE,
             "\n[integrator]\nt_final = {t!r}\nsample_dt = {dt!r}\n", "[model] kappa = 1.0"),
            ("g2tau", DISSIPATIVE, "\n[scan]\ntau_points = 5\ntau_max = {t!r}\n",
             "[model] kappa = 1.0"),
        ],
        ids=("superrabi_t_final", "trajectory_t_final", "g2tau_tau_max"),
    )
    def test_set_horizon_at_the_roundoff_bound(
        self, tmp_path, capsys, preset, model, horizon, named, dry_run
    ):
        # a horizon set in the config meets the eig round-off bound as a
        # default one does: just inside it parses, just past it is refused
        # naming the field that scales it (at kappa = 1, tau_max is the horizon)
        limit = _MAX_HORIZON_RATE / parse_config(model, preset).model.largest_rate()[1]

        def config(t):
            return model + horizon.format(t=t, dt=t / 10)

        parse_config(config(limit * (1 - 1e-9)), preset)
        refusal = assert_refused(tmp_path, capsys, preset, config(limit * (1 + 1e-9)), named, dry_run)
        assert refusal.endswith("(eig round-off)")

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize(
        "old, new",
        [("delta_n = -49.5", "delta_n = 0.0"), ("omega_l = 21.0", "omega_l = 1e300")],
        ids=("delta_n_zero", "omega_l_overflow"),
    )
    def test_unresolvable_resonance_names_delta_a(self, tmp_path, capsys, old, new, dry_run):
        # delta_a defaults to the n-photon resonance, which delta_n = 0 leaves
        # undefined and omega_l = 1e300 overflows
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CHEAP_POINTS["g2tau"].replace(old, new))
        out_dir = tmp_path / "out"
        args = ["g2tau", "--config", cfg_file, "--out", out_dir] + ["--dry-run"] * dry_run
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("bundlejc: [model] delta_a")
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_superrabi_j_zero_runs_with_t_final(self, tmp_path):
        # with a horizon given, the undriven-coupling run is well defined
        config = CHEAP_POINTS["superrabi"].replace("j = 1.0", "j = 0.0")
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(config.replace("[integrator]\n", "[integrator]\nt_final = 2.0\n"))
        assert run_cli(["superrabi", "--config", cfg_file, "--out", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "superrabi.csv").stat().st_size > 0

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    def test_jcregime_singular_model_writes_nothing(self, tmp_path, capsys, dry_run):
        # j = 0 and delta_a = 0 make the JC-regime effective model singular
        text = DISSIPATIVE.replace("j = 0.3", "j = 0.0") + "delta_a = 0.0\n"
        assert "omega_eff_jc" not in derived_quantities(parse_config(text, "custom").model)
        assert "singular" in assert_refused(tmp_path, capsys, "jcregime", text, "[model]", dry_run)

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    def test_mollow_singular_point(self, tmp_path, capsys, dry_run):
        # x = n delta_a + E_+ = 0 at j = 0: the Mollow effective model is
        # singular; the derived quantities leave its entries out, which custom
        # (given decay rates) records, and superrabi, whose analytic column
        # needs it, names the field
        text = (
            "[model]\nn = 1\nj = 0.0\nomega_l = 1.0\ndelta_n = -2.0\n"
            "delta_a = -0.3660254037844386\n\n[integrator]\nt_final = 1.0\n"
        )
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(text.replace("\n\n[", "\nkappa = 1.0\ngamma = 1.0\n\n["))
        res = tmp_path / "res"
        assert run_cli(["custom", "--config", cfg_file, "--out", res] + ["--dry-run"] * dry_run) == 0
        if dry_run:
            printed = capsys.readouterr().out
            derived = json.loads(printed[printed.index("\n{") :])
        else:
            derived = json.loads((res / "custom_metadata.json").read_text())["derived"]
        assert "omega" in derived and "omega_eff" not in derived
        refusal = assert_refused(tmp_path, capsys, "superrabi", text, "[model] delta_a", dry_run)
        assert "singular" in refusal

    def test_base_seed_changes_jumps(self, tmp_path):
        text = DISSIPATIVE + "\n[integrator]\nt_final = 20.0\nsample_dt = 0.5\n"
        (tmp_path / "a.ini").write_text(text)
        (tmp_path / "b.ini").write_text(text + "\n[seeds]\nbase_seed = 999\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["trajectory", "--config", tmp_path / "a.ini", "--out", out1]) == 0
        assert run_cli(["trajectory", "--config", tmp_path / "b.ini", "--out", out2]) == 0
        j1 = (out1 / "trajectory_jumps.csv").read_text()
        j2 = (out2 / "trajectory_jumps.csv").read_text()
        assert j1 != j2
        assert sidecar_config(out2 / "trajectory_metadata.json")["seeds"].getint("base_seed") == 999

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    def test_negative_seed_names_field(self, tmp_path, capsys, dry_run):
        # numpy once refused it inside the run, naming no field
        text = CHEAP_POINTS["trajectory"] + "\n[seeds]\nbase_seed = -1\n"
        named = "[seeds] base_seed must be >= 0; got -1"
        assert_refused(tmp_path, capsys, "trajectory", text, named, dry_run)

    @pytest.mark.parametrize("preset, written", [
        ("g2tau", '"g_equal_time_2": null'),
        ("custom", '"g2": null,\n    "g3": null,\n    "g4": null'),
    ], ids=("g2tau", "custom"))
    def test_undefined_correlation_written_as_null(self, tmp_path, preset, written):
        # the mean photon number is 8.6e-13 at j = 1e-6: g2tau once computed
        # both curves, then exited 1 naming no field and writing nothing
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CHEAP_POINTS["custom"].replace("j = 0.3", "j = 1e-6"))
        assert run_cli([preset, "--config", cfg_file, "--out", tmp_path]) == 0
        assert written in (tmp_path / f"{preset}_metadata.json").read_text()

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

    def test_g2tau_tau_columns_are_its_grids(self, tmp_path):
        # g2_bundle_delayed returns values only, so each tau written comes from
        # the preset's own grids: g1 on 0 and 0.01/kappa .. tau_max/kappa, g_N
        # on tau_min .. tau_max/kappa, tau_points geometric delays each
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            DISSIPATIVE.replace("kappa = 1.0", "kappa = 2.0")
            + "\n[scan]\ntau_points = 7\ntau_max = 20.0\n"
        )
        assert run_cli(["g2tau", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "g2tau.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        grids = {
            "g1": np.concatenate(([0.0], np.geomspace(0.01 / 2.0, 10.0, 7))),
            "g2_bundle": np.geomspace(tau_min(2, 2.0), 10.0, 7),
        }
        for curve, grid in grids.items():
            assert [r["tau"] for r in rows if r["curve"] == curve] == [f"{t:.8e}" for t in grid]
        assert len(rows) == 15

    @pytest.mark.parametrize(
        "sample_dt, times",
        [(0.3, ["0", "0.3", "0.6", "0.9"]), (1.5, ["0"])],
        ids=("step", "step_past_horizon"),
    )
    def test_superrabi_samples_at_the_configured_step(self, tmp_path, sample_dt, times):
        # sample_dt is the step, as for a trajectory, and no sample lies past
        # t_final.  superrabi once spread round(t_final / sample_dt) + 1
        # points evenly: 0, 0.333, 0.667, 1 here, and 0, 1 for a step of 1.5
        integrator = f"\n[integrator]\nt_final = 1.0\nsample_dt = {sample_dt}\n"
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CHEAP_POINTS["superrabi"].split("\n[integrator]")[0] + integrator)
        assert run_cli(["superrabi", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "superrabi.csv", newline="") as fh:
            written = [r["t"] for r in csv.DictReader(fh)]
        assert written == [f"{float(t):.8e}" for t in times]
        recorded = sidecar_config(tmp_path / "superrabi_metadata.json")["integrator"]
        assert (recorded.getfloat("t_final"), recorded.getfloat("sample_dt")) == (1.0, sample_dt)
        # the same grid as a trajectory over the same horizon and step
        p = parse_config(DISSIPATIVE + integrator, "trajectory").model
        (rec,) = run_trajectories(p, dressed_state(p, 0, "+"), 1.0, sample_dt, 1, 0)
        assert written == [f"{t:.8e}" for t in rec.times]

    def test_trajectory_default_step_follows_t_final(self, tmp_path):
        # the default step is the horizon over 1000, as 0.05/kappa is for the
        # default horizon 50/kappa; a fixed 0.05/kappa once gave a t_final of
        # 0.01 one sample, at t = 0
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(DISSIPATIVE + "\n[integrator]\nt_final = 0.01\n")
        assert run_cli(["trajectory", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "trajectory_populations.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1001
        integrator = sidecar_config(tmp_path / "trajectory_metadata.json")["integrator"]
        assert (integrator.getfloat("t_final"), integrator.getfloat("sample_dt")) == (0.01, 1e-05)

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize("sample_dt", ["1e-15", "1e-320"])
    @pytest.mark.parametrize("preset", ["superrabi", "trajectory"])
    def test_sample_count_over_cap_refused(self, tmp_path, capsys, preset, sample_dt, dry_run):
        # 1e15 samples, or t_final / sample_dt = inf: the dry run once passed,
        # and the run died allocating, naming no field
        integrator = f"\n[integrator]\nt_final = 1.0\nsample_dt = {sample_dt}\n"
        text = CHEAP_POINTS[preset].split("\n[integrator]")[0] + integrator
        named = f"[integrator] sample_dt must make at most GRID_CAP = {GRID_CAP} samples"
        assert_refused(tmp_path, capsys, preset, text, named, dry_run)

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize("preset", ["superrabi", "trajectory"])
    def test_sample_count_over_cap_with_default_horizon_refused(
        self, tmp_path, capsys, preset, dry_run
    ):
        # the run and the parse share the default t_final, so the dry run
        # refuses the count too; it once passed, and the run exited 1 as a
        # "solver failure"
        text = CHEAP_POINTS[preset].split("\n[integrator]")[0] + "\n[integrator]\nsample_dt = 1e-15\n"
        named = (f"[integrator] sample_dt must make at most GRID_CAP = {GRID_CAP} samples "
                 "to t_final = ")
        assert_refused(tmp_path, capsys, preset, text, named, dry_run)

    @pytest.mark.parametrize("dry_run", [False, True], ids=("run", "dry_run"))
    @pytest.mark.parametrize("preset, key", [("steadyscan", "points"), ("g2tau", "tau_points")])
    def test_scan_length_over_cap_refused(self, tmp_path, capsys, preset, key, dry_run):
        # 10**15 points: the dry run once passed, and the run ended in a
        # MemoryError traceback out of main
        text = CHEAP_POINTS[preset].split("\n[scan]")[0] + f"\n[scan]\n{key} = {10**15}\n"
        assert_refused(tmp_path, capsys, preset, text, f"[scan] {key} must be in", dry_run)

    def test_g2tau_roundoff_negative_written_as_computed(self, tmp_path):
        # g_1(0) is exactly 0 at n_max = 1 and computed as -3.81e-14 (OpenBLAS
        # 0.3.31, x86-64); the row once read 0.0
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(NMAX1_ROUNDOFF)
        assert run_cli(["g2tau", "--config", cfg_file, "--out", tmp_path]) == 0
        with open(tmp_path / "g2tau.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        assert (first["curve"], first["tau"]) == ("g1", "0.00000000e+00")
        assert -1e-6 <= float(first["value"]) < 0.0

    def test_g2tau_negative_beyond_roundoff_refused(self, tmp_path, capsys):
        # P*: its bundle curve reads -0.204 at tau = 0.283 (a dense expm gives
        # +0.0765); the run once clamped four values to 0.0 and exited 0
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(PSTAR)
        assert run_cli(["g2tau", "--config", cfg_file, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bundlejc: solver failure: g_2^(2)(tau = ")
        assert "is not >= -1e-06, the round-off bound" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_superrabi_default_step_in_sidecar(self, tmp_path):
        # the default step is t_final / 1000, as for a trajectory: 1001
        # samples, the last at t_final; the sidecar's resolved [integrator]
        # is the one place that step is written (t_final / 999 once gave 1000)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CHEAP_POINTS["superrabi"].replace("sample_dt = 0.5\n", ""))
        assert run_cli(["superrabi", "--config", cfg_file, "--out", tmp_path]) == 0
        integrator = sidecar_config(tmp_path / "superrabi_metadata.json")["integrator"]
        t_final = integrator.getfloat("t_final")
        assert integrator.getfloat("sample_dt") == t_final / 1000
        with open(tmp_path / "superrabi.csv", newline="") as fh:
            t = [r["t"] for r in csv.DictReader(fh)]
        assert len(t) == 1001 and t[-1] == f"{t_final:.8e}"

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


# 0, the float extremes and ordinary rates; negative decay rates are refused
RATES = st.sampled_from([0.0, 1e-300, -1e-300, 1e300, -1e300]) | st.floats(-100.0, 100.0)
# every preset runs in full: at n_max <= 4 each is cheap, steadyscan on a
# drawn grid of at most 9 points.  g2tau joined once it stopped warning (it
# clamped round-off negatives to 0 with a UserWarning, which
# filterwarnings = error fails); a negative beyond round-off is now a refusal
FULL_RUN_PRESETS = tuple(REGISTRY)
# grid lengths: each value runs cheaply or is refused before any array of its
# length exists; points and tau_points past GRID_CAP, and a sample count past
# it (t_final / sample_dt, or the preset's default horizon over sample_dt)
GRID_LINES = {
    "integrator": {"t_final": st.sampled_from([0.5, 4.0, 1e15, 1e300]),
                   "sample_dt": st.sampled_from([0.25, 1.0, 1e-15, 1e-320])},
    "scan": {"points": st.sampled_from([2, 9, 10**15]),
             "tau_points": st.sampled_from([1, 5, 10**15])},
}


@st.composite
def model_sections(draw):
    n = draw(st.integers(1, 3))
    lines = [f"n = {n}", f"n_max = {draw(st.integers(n, 4))}"]
    for key in ("j", "omega_l", "delta_n", "kappa", "gamma", "delta_a"):
        if key != "delta_a" or draw(st.booleans()):  # else delta_a = resonance
            lines.append(f"{key} = {draw(RATES)!r}")
    text = "[model]\n" + "\n".join(lines) + "\n"
    for section, keys in GRID_LINES.items():
        # points is always set: the default 801-point scan is slow to run
        drawn = [f"{key} = {draw(values)!r}" for key, values in keys.items()
                 if key == "points" or draw(st.booleans())]
        if drawn:
            text += f"\n[{section}]\n" + "\n".join(drawn) + "\n"
    return text


def main_stderr(args):
    """(exit code, stderr) of main(args), its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(model=model_sections())
@example(model=JC_UNDERFLOW + "\n[scan]\npoints = 9\n")
@example(model=PSTAR + "\n[scan]\npoints = 9\n")
@example(model=NMAX1_ROUNDOFF + "\n[scan]\npoints = 9\n")
# one sample (sample_dt past t_final): the jump loop once took
# exp(rates sample_dt) anyway and overflowed
@example(model="[model]\nn = 1\nn_max = 1\nj = 0.0\nomega_l = 1.0\ndelta_n = 0.0\n"
         "kappa = 1e-300\ngamma = 0.0\ndelta_a = 0.0\n\n[integrator]\nt_final = 0.5\n"
         "sample_dt = 1.0\n\n[scan]\npoints = 2\n")
def test_main_runs_or_refuses_naming_a_field(model):
    # every dry run exits 0, or exits 1 naming a [section] key; nothing
    # escapes main, and filterwarnings = error fails a stray warning.  A full
    # run refuses exactly what its dry run refuses: it may still fail in the
    # solver, but never with a config error of its own
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file, out_dir = Path(tmp) / "cfg.ini", Path(tmp) / "out"
        cfg_file.write_text(model)
        for preset in REGISTRY:
            args = [preset, "--config", cfg_file, "--out", out_dir]
            code, err = main_stderr(args + ["--dry-run"])
            refused = re.match(r"bundlejc: \[(\w+)\] (\w+)", err)
            if code == 0:
                assert err == ""
            else:
                assert code == 1 and refused, err
                assert refused[2] in _SCHEMA.get(refused[1], ()), err
            assert not out_dir.exists()
            if preset in FULL_RUN_PRESETS:
                run_code, run_err = main_stderr(args)
                if code == 1:
                    assert (run_code, run_err) == (code, err)
                else:
                    assert run_code == 0 or not run_err.splitlines()[-1].startswith("bundlejc: [")
                shutil.rmtree(out_dir, ignore_errors=True)

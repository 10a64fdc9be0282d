"""Reproduction harness: config parsing, experiment presets, parameter sweeps,
and CSV/JSON dataset emission.

Config files are INI-style with sections [model], [scan], [integrator],
[seeds], [output].  Unknown sections or keys are rejected.  Every run writes
one CSV per dataset plus a JSON metadata sidecar holding the fully resolved
configuration and derived quantities, so a dataset can be regenerated from its
sidecar alone.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    IntegratorConfig,
    LiouvillePropagator,
    TAIL_TOL,
    TruncationError,
    build_liouvillian,
    mcwf_trajectory,
    schrodinger_evolve,
    steady_state,
)
from .hilbert import StateVector
from .model import (
    ModelParams,
    build_H_I,
    dressed,
    dressed_state,
    jc_eigensystem,
    omega_eff_jc,
    omega_eff_mollow,
    resonance_detuning,
    resonance_detuning_higher,
    resonant_branch,
)
from .observables import (
    dressed_populations,
    g2_bundle_delayed,
    g_equal_time,
    photon_distribution,
    tau_min,
)

PRESETS = (
    "superrabi",
    "steadyscan",
    "trajectory",
    "g2tau",
    "jcregime",
    "resonances",
    "custom",
)

# preset -> needs decay rates
_DISSIPATIVE = {
    "superrabi": False,
    "steadyscan": True,
    "trajectory": True,
    "g2tau": True,
    "jcregime": True,
    "resonances": False,
    "custom": True,
}


class ConfigError(ValueError):
    """Bad experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ScanBlock:
    variable: str = "delta_a"
    min: float = -40.0
    max: float = 40.0
    points: int = 801
    mu_values: tuple = (2, 3)
    bundle_n: int | None = None
    tau_points: int = 200
    tau_max: float = 30.0

    def grid(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class IntegratorBlock:
    scheme: str = "fixed_rk4"
    dt: float | None = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_final: float | None = None
    sample_dt: float | None = None

    def config(self) -> IntegratorConfig:
        return IntegratorConfig(
            scheme=self.scheme, dt=self.dt, rel_tol=self.rel_tol, abs_tol=self.abs_tol
        )


@dataclass(frozen=True)
class SeedsBlock:
    base_seed: int = 12345
    n_trajectories: int = 1


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "."
    formats: str = "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    model: ModelParams
    scan: ScanBlock
    integrator: IntegratorBlock
    seeds: SeedsBlock
    output: OutputBlock


_SCHEMA = {
    "model": {
        "n": int,
        "j": float,
        "omega_l": float,
        "delta_n": float,
        "delta_a": str,  # float or the literal 'resonance'
        "kappa": float,
        "gamma": float,
        "n_max": int,
    },
    "scan": {
        "variable": str,
        "min": float,
        "max": float,
        "points": int,
        "mu_values": str,
        "bundle_n": int,
        "tau_points": int,
        "tau_max": float,
    },
    "integrator": {
        "scheme": str,
        "dt": float,
        "rel_tol": float,
        "abs_tol": float,
        "t_final": float,
        "sample_dt": float,
    },
    "seeds": {"base_seed": int, "n_trajectories": int},
    "output": {"directory": str, "formats": str},
}

_MODEL_DEFAULTS = {"delta_a": "resonance", "kappa": 0.0, "gamma": 0.0, "n_max": 15}


def _convert(section, key, raw, typ):
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from exc


def parse_config(text: str, preset: str) -> ExperimentConfig:
    """Parse and fully resolve an experiment config; rejects unknown keys."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    raw: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        raw[section] = {}
        for key, value in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = _convert(section, key, value, _SCHEMA[section][key])

    model_raw = raw.get("model", {})
    for req in ("n", "j", "omega_l", "delta_n"):
        if req not in model_raw:
            raise ConfigError(f"[model] missing required key {req!r}")
    merged = dict(_MODEL_DEFAULTS) | model_raw
    delta_a_raw = merged.pop("delta_a")
    try:
        model = ModelParams(delta_a=0.0, **merged)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc
    if isinstance(delta_a_raw, str) and delta_a_raw.strip() == "resonance":
        model = replace(model, delta_a=resonance_detuning(model))
    else:
        model = replace(model, delta_a=_convert("model", "delta_a", delta_a_raw, float))

    scan_raw = dict(raw.get("scan", {}))
    if "mu_values" in scan_raw:
        try:
            scan_raw["mu_values"] = tuple(
                int(tok) for tok in str(scan_raw["mu_values"]).split(",") if tok.strip()
            )
        except ValueError as exc:
            raise ConfigError(f"[scan] mu_values: {exc}") from exc
    scan = ScanBlock(**scan_raw)
    if scan.points < 2:
        raise ConfigError("[scan] points must be >= 2")
    if scan.variable != "delta_a":
        raise ConfigError(f"[scan] unsupported scan variable {scan.variable!r}")
    if not (math.isfinite(scan.min) and math.isfinite(scan.max)):
        raise ConfigError("[scan] bounds must be finite")
    if any(mu < 2 for mu in scan.mu_values):
        raise ConfigError("[scan] mu_values must all be >= 2")

    try:
        integrator = IntegratorBlock(**raw.get("integrator", {}))
        integrator.config()  # validates scheme/tolerances
    except ValueError as exc:
        raise ConfigError(f"[integrator] {exc}") from exc
    seeds = SeedsBlock(**raw.get("seeds", {}))
    if seeds.n_trajectories < 1:
        raise ConfigError("[seeds] n_trajectories must be >= 1")
    if preset == "trajectory" and seeds.n_trajectories > 1:
        raise ConfigError(
            "[seeds] n_trajectories must be 1 for preset 'trajectory', which "
            f"writes a single unraveling; got {seeds.n_trajectories}"
        )
    output = OutputBlock(**raw.get("output", {}))
    if output.formats != "csv":
        raise ConfigError(f"[output] unsupported format {output.formats!r}")

    if _DISSIPATIVE[preset] and model.kappa <= 0:
        raise ConfigError(f"[model] preset {preset!r} needs kappa > 0")
    return ExperimentConfig(
        preset=preset,
        model=model,
        scan=scan,
        integrator=integrator,
        seeds=seeds,
        output=output,
    )


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Canonical INI rendering of a resolved config; reparses to itself."""
    cp = configparser.ConfigParser(interpolation=None)
    m = cfg.model
    cp["model"] = {
        "n": str(m.n),
        "j": repr(m.j),
        "omega_l": repr(m.omega_l),
        "delta_n": repr(m.delta_n),
        "delta_a": repr(m.delta_a),
        "kappa": repr(m.kappa),
        "gamma": repr(m.gamma),
        "n_max": str(m.n_max),
    }
    s = cfg.scan
    cp["scan"] = {
        "variable": s.variable,
        "min": repr(s.min),
        "max": repr(s.max),
        "points": str(s.points),
        "mu_values": ",".join(str(mu) for mu in s.mu_values),
        "tau_points": str(s.tau_points),
        "tau_max": repr(s.tau_max),
    }
    if s.bundle_n is not None:
        cp["scan"]["bundle_n"] = str(s.bundle_n)
    i = cfg.integrator
    cp["integrator"] = {
        "scheme": i.scheme,
        "rel_tol": repr(i.rel_tol),
        "abs_tol": repr(i.abs_tol),
    }
    if i.dt is not None:
        cp["integrator"]["dt"] = repr(i.dt)
    if i.t_final is not None:
        cp["integrator"]["t_final"] = repr(i.t_final)
    if i.sample_dt is not None:
        cp["integrator"]["sample_dt"] = repr(i.sample_dt)
    cp["seeds"] = {
        "base_seed": str(cfg.seeds.base_seed),
        "n_trajectories": str(cfg.seeds.n_trajectories),
    }
    cp["output"] = {"directory": cfg.output.directory, "formats": cfg.output.formats}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{x:.8e}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def derived_quantities(m: ModelParams) -> dict:
    """Dressed-state and resonance table recorded in every sidecar."""
    out: dict = {"delta_sigma": m.delta_sigma}
    if m.omega_l > 0:
        d = dressed(m)
        out.update(
            omega=d.omega,
            e_plus=d.e_plus,
            e_minus=d.e_minus,
            c_plus_sq=d.c_plus**2,
            c_minus_sq=d.c_minus**2,
        )
        eff = omega_eff_mollow(m)
        out.update(omega_eff=eff.omega_eff, eps1=eff.eps1, eps2=eff.eps2)
    if m.delta_n != 0:
        table = {"mu_1": resonance_detuning(m), "branch": resonant_branch(m)}
        for mu in (2, 3):
            table[f"mu_{mu}_plus"] = resonance_detuning_higher(m, mu, +1)
            table[f"mu_{mu}_minus"] = resonance_detuning_higher(m, mu, -1)
        out["resonance_table"] = table
    den = m.n * m.delta_a * m.delta_sigma - math.factorial(m.n) * m.j**2
    if den != 0:
        out["omega_eff_jc"] = omega_eff_jc(m)
    return out


def _sidecar(cfg: ExperimentConfig, out_dir: Path, name: str, extra: dict) -> Path:
    meta = {
        "preset": cfg.preset,
        "library_version": __version__,
        "unit": "kappa" if _DISSIPATIVE[cfg.preset] else "j",
        "resolved_config": resolved_config_text(cfg),
        "model": asdict(cfg.model),
        "seeds": asdict(cfg.seeds),
        "derived": derived_quantities(cfg.model),
        **extra,
    }
    path = out_dir / f"{name}_metadata.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _scan_point(m: ModelParams, delta_a: float) -> tuple:
    """One steady-state evaluation; returns observables plus a failure flag."""
    p = replace(m, delta_a=float(delta_a))
    m_top = min(3 * p.n, p.n_max)
    try:
        rho = steady_state(build_liouvillian(p), tail_tol=None)
        pops = photon_distribution(rho)
        tail = float(pops[-1])
        gs = []
        correlation_ok = True
        for ell in (2, 3, 4):
            try:
                gs.append(g_equal_time(rho, ell))
            except ValueError:
                gs.append(float("nan"))
                correlation_ok = False
        flags = []
        if tail >= TAIL_TOL:
            flags.append("truncation")
        if not correlation_ok:
            flags.append("correlation_undefined")
        return (delta_a, *pops[: m_top + 1], *gs, tail, ";".join(flags))
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        nan = float("nan")
        return (delta_a, *([nan] * (m_top + 1)), nan, nan, nan, nan, f"solver: {exc}")


def sweep(cfg: ExperimentConfig, threads: int = 1):
    """Steady-state observables over the delta_a grid.

    Per-point failures are recorded in the trailing flag column and the sweep
    continues; row order is ascending in delta_a regardless of threading.
    """
    m = cfg.model
    grid = cfg.scan.grid()
    m_top = min(3 * m.n, m.n_max)
    header = (
        ["delta_a"]
        + [f"P{k}" for k in range(m_top + 1)]
        + ["g2", "g3", "g4", "tail_population", "flag"]
    )
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda da: _scan_point(m, da), grid))
    else:
        rows = [_scan_point(m, da) for da in grid]
    return header, rows


def _run_superrabi(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    m = cfg.model
    eff = omega_eff_mollow(m)
    t_final = cfg.integrator.t_final
    if t_final is None:
        t_final = 1.25 * math.pi / abs(eff.omega_eff)
    n_pts = 1000
    if cfg.integrator.sample_dt is not None:
        n_pts = max(2, int(round(t_final / cfg.integrator.sample_dt)) + 1)
    t_grid = np.linspace(0.0, t_final, n_pts)
    psi0 = dressed_state(m, 0, "+")
    history = schrodinger_evolve(build_H_I(m), psi0, t_grid, cfg.integrator.config())
    v_top = dressed_state(m, 0, "+").amp
    v_bot = dressed_state(m, m.n, "-").amp
    p_top = np.abs(history @ v_top.conj()) ** 2
    p_bot = np.abs(history @ v_bot.conj()) ** 2
    analytic = np.sin(eff.omega_eff * t_grid) ** 2
    rows = zip(t_grid, p_top, p_bot, analytic)
    csv_path = out_dir / "superrabi.csv"
    _write_csv(csv_path, ["t", "P_0_plus", "P_n_minus", "analytic_sin2"], rows)
    meta = _sidecar(cfg, out_dir, "superrabi", {"t_final": t_final, "columns": 4})
    return [csv_path, meta]


def _run_steadyscan(cfg: ExperimentConfig, out_dir: Path, threads: int) -> list[Path]:
    header, rows = sweep(cfg, threads=threads)
    csv_path = out_dir / "steadyscan.csv"
    _write_csv(csv_path, header, rows)
    n_flagged = sum(1 for r in rows if r[-1])
    meta = _sidecar(
        cfg,
        out_dir,
        "steadyscan",
        {
            "grid_points": cfg.scan.points,
            "flagged_rows": n_flagged,
            "truncation_check": "per-row; see 'flag' column",
        },
    )
    return [csv_path, meta]


def _run_trajectory(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    m = cfg.model
    t_final = cfg.integrator.t_final if cfg.integrator.t_final is not None else 50.0 / m.kappa
    sample_dt = (
        cfg.integrator.sample_dt if cfg.integrator.sample_dt is not None else 0.05 / m.kappa
    )
    psi0 = dressed_state(m, 0, "+")
    rec = mcwf_trajectory(m, psi0, t_final, cfg.seeds.base_seed, sample_dt)
    m_top = min(3, m.n_max)
    header = ["t"]
    for k in range(m_top + 1):
        header += [f"P_{k}_plus", f"P_{k}_minus"]
    rows = []
    for t, amp in zip(rec.times, rec.states):
        pops = dressed_populations(StateVector(m.dims, amp), m)
        row = [t]
        for k in range(m_top + 1):
            row += [pops[k, 0], pops[k, 1]]
        rows.append(row)
    pop_path = out_dir / "trajectory_populations.csv"
    _write_csv(pop_path, header, rows)
    jump_path = out_dir / "trajectory_jumps.csv"
    _write_csv(jump_path, ["time", "channel"], rec.jumps)
    meta = _sidecar(
        cfg,
        out_dir,
        "trajectory",
        {"t_final": t_final, "sample_dt": sample_dt, "n_jumps": len(rec.jumps)},
    )
    return [pop_path, jump_path, meta]


def _run_g2tau(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    m = cfg.model
    n_bundle = cfg.scan.bundle_n if cfg.scan.bundle_n is not None else m.n
    prop = LiouvillePropagator(build_liouvillian(m))
    rho = steady_state(prop.L)
    tau_grid = np.geomspace(
        tau_min(n_bundle, m.kappa), cfg.scan.tau_max / m.kappa, cfg.scan.tau_points
    )
    curve_n = g2_bundle_delayed(m, n_bundle, tau_grid, propagator=prop, rho_ss=rho,
                                mask_below_tau_min=False)
    tau_grid_1 = np.concatenate(
        ([0.0], np.geomspace(0.01 / m.kappa, cfg.scan.tau_max / m.kappa, cfg.scan.tau_points))
    )
    curve_1 = g2_bundle_delayed(
        m,
        1,
        tau_grid_1,
        propagator=prop,
        rho_ss=rho,
        mask_below_tau_min=False,
    )
    rows = [("g1", t, v) for t, v in zip(curve_1.abscissa, curve_1.values)]
    rows += [(f"g{n_bundle}_bundle", t, v) for t, v in zip(curve_n.abscissa, curve_n.values)]
    csv_path = out_dir / "g2tau.csv"
    _write_csv(csv_path, ["curve", "tau", "value"], rows)
    meta = _sidecar(
        cfg,
        out_dir,
        "g2tau",
        {
            "bundle_n": n_bundle,
            "tau_min": tau_min(n_bundle, m.kappa),
            "tau_min_note": "g_N value at tau_min is the approximate zero-delay value",
            "g_equal_time_2": g_equal_time(rho, 2),
        },
    )
    return [csv_path, meta]


def _run_jcregime(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    m = cfg.model
    eig = jc_eigensystem(m)
    rows = []
    for k, e in enumerate(eig.bare_energies):
        rows.append((k, "bare", e, 1.0, 0.0, 0.0))
    for k, mm in enumerate(eig.m_values):
        rows.append((int(mm), "plus", eig.e_plus[k], eig.c_plus[k], eig.c_minus[k], eig.omega_m[k]))
        rows.append((int(mm), "minus", eig.e_minus[k], eig.c_plus[k], eig.c_minus[k], eig.omega_m[k]))
    csv_path = out_dir / "jcregime.csv"
    _write_csv(csv_path, ["m", "branch", "energy", "c_plus", "c_minus", "omega_m"], rows)
    extra = {"omega_eff_jc": omega_eff_jc(m)}
    if m.kappa > 0:
        rho = steady_state(build_liouvillian(m))
        pops = photon_distribution(rho)
        extra["n_photon_population"] = float(pops[m.n])
    meta = _sidecar(cfg, out_dir, "jcregime", extra)
    return [csv_path, meta]


def _run_resonances(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    m = cfg.model
    rows = [(m.n, 1, resonant_branch(m), resonance_detuning(m))]
    for mu in cfg.scan.mu_values:
        rows.append((m.n, mu, "plus", resonance_detuning_higher(m, mu, +1)))
        rows.append((m.n, mu, "minus", resonance_detuning_higher(m, mu, -1)))
    csv_path = out_dir / "resonances.csv"
    _write_csv(csv_path, ["n", "mu", "branch", "delta_a"], rows)
    meta = _sidecar(cfg, out_dir, "resonances", {"mu_values": list(cfg.scan.mu_values)})
    return [csv_path, meta]


def _run_custom(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    m = cfg.model
    rho = steady_state(build_liouvillian(m))
    pops = photon_distribution(rho)
    csv_path = out_dir / "custom_steady_state.csv"
    _write_csv(csv_path, ["m", "P_m"], list(enumerate(pops)))
    gs = {}
    for ell in (2, 3, 4):
        try:
            gs[f"g{ell}"] = g_equal_time(rho, ell)
        except ValueError:
            gs[f"g{ell}"] = None
    meta = _sidecar(cfg, out_dir, "custom", {"equal_time_correlations": gs})
    return [csv_path, meta]


def run_preset(cfg: ExperimentConfig, threads: int = 1) -> list[Path]:
    """Execute a preset; returns the paths written (datasets + sidecar)."""
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    runners = {
        "superrabi": lambda: _run_superrabi(cfg, out_dir),
        "steadyscan": lambda: _run_steadyscan(cfg, out_dir, threads),
        "trajectory": lambda: _run_trajectory(cfg, out_dir),
        "g2tau": lambda: _run_g2tau(cfg, out_dir),
        "jcregime": lambda: _run_jcregime(cfg, out_dir),
        "resonances": lambda: _run_resonances(cfg, out_dir),
        "custom": lambda: _run_custom(cfg, out_dir),
    }
    return runners[cfg.preset]()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bundlejc",
        description="n-photon Jaynes-Cummings bundle-emission simulator",
    )
    parser.add_argument("preset", choices=PRESETS)
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", help="output directory (overrides [output] directory)")
    parser.add_argument("--seed", type=int, help="override [seeds] base_seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved config and derived quantities, do not simulate",
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = parse_config(text, args.preset)
        if args.out is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
        if args.seed is not None:
            cfg = replace(cfg, seeds=replace(cfg.seeds, base_seed=args.seed))
        if args.dry_run:
            print(resolved_config_text(cfg))
            print(
                json.dumps(
                    derived_quantities(cfg.model),
                    indent=2,
                    sort_keys=True,
                    default=_json_default,
                )
            )
            return 0
        paths = run_preset(cfg, threads=args.threads)
    except (ConfigError, OSError) as exc:
        print(f"bundlejc: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        print(f"bundlejc: truncation check failed: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"bundlejc: solver failure: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reproduction harness: config parsing, the experiment preset registry, and
CSV/JSON dataset emission.

Config files are INI-style with sections [model], [scan], [integrator],
[seeds], [output]; the keys of each section are the fields of the dataclass it
fills.  Unknown sections or keys are rejected.  [integrator] holds only the
horizon and sampling step of the time-resolved presets, whose propagators are
eigendecompositions with no scheme or tolerance to choose.  A preset computes
its tables; `run_preset` then writes one CSV per table plus a JSON metadata
sidecar holding the fully resolved configuration and derived quantities, so a
dataset can be regenerated from its sidecar alone.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from . import __version__
from .dynamics import (
    LiouvillePropagator,
    TruncationError,
    _check_horizon,
    build_liouvillian,
    mcwf_trajectory,
    schrodinger_evolve,
    steady_state,
)
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
    sweep,
    tau_min,
)


class ConfigError(ValueError):
    """Bad experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ScanBlock:
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
    """Horizon and sampling step of the time-resolved presets (None selects
    the preset's default)."""

    t_final: float | None = None
    sample_dt: float | None = None

    def __post_init__(self):
        _check_horizon(**{k: v for k, v in vars(self).items() if v is not None})


@dataclass(frozen=True)
class SeedsBlock:
    base_seed: int = 12345


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "."


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    model: ModelParams
    scan: ScanBlock
    integrator: IntegratorBlock
    seeds: SeedsBlock
    output: OutputBlock


def _scalar_type(hint):
    """The type a key parses to: int for `int | None`, else the hint itself."""
    return next((t for t in get_args(hint) if t is not type(None)), hint)


# section -> key -> type, from the fields of the block each section fills
_SCHEMA = {
    section: {key: _scalar_type(hint) for key, hint in get_type_hints(block).items()}
    for section, block in get_type_hints(ExperimentConfig).items()
    if section != "preset"
}


def _convert(section, key, raw, typ):
    if (section, key) == ("model", "delta_a") and raw == "resonance":
        return raw  # resolved once the rest of [model] is known
    try:
        if typ is tuple:  # [scan] mu_values: comma-separated integers
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from exc


def parse_config(text: str, preset: str) -> ExperimentConfig:
    """Parse and fully resolve an experiment config; rejects unknown keys."""
    if preset not in REGISTRY:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {tuple(REGISTRY)}")
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

    model_raw = dict(raw.get("model", {}))
    delta_a = model_raw.pop("delta_a", "resonance")
    for f in fields(ModelParams):
        if f.default is MISSING and f.name != "delta_a" and f.name not in model_raw:
            raise ConfigError(f"[model] missing required key {f.name!r}")
    try:
        model = ModelParams(delta_a=0.0 if delta_a == "resonance" else delta_a, **model_raw)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc
    if delta_a == "resonance":
        model = replace(model, delta_a=resonance_detuning(model))

    scan = ScanBlock(**raw.get("scan", {}))
    if scan.points < 2:
        raise ConfigError("[scan] points must be >= 2")
    if not (math.isfinite(scan.min) and math.isfinite(scan.max)):
        raise ConfigError("[scan] bounds must be finite")
    if any(mu < 2 for mu in scan.mu_values):
        raise ConfigError("[scan] mu_values must all be >= 2")
    if scan.bundle_n is not None and not 1 <= scan.bundle_n <= model.n_max:
        raise ConfigError(
            f"[scan] bundle_n must be in 1..n_max={model.n_max}; got {scan.bundle_n}"
        )
    if scan.tau_points < 1:
        raise ConfigError(f"[scan] tau_points must be >= 1; got {scan.tau_points}")
    floor = tau_min(scan.bundle_n or model.n, 1.0)  # in units of 1/kappa, like tau_max
    if not (math.isfinite(scan.tau_max) and scan.tau_max > floor):
        raise ConfigError(
            f"[scan] tau_max must be finite and > tau_min = {floor:g}; got {scan.tau_max}"
        )

    try:
        integrator = IntegratorBlock(**raw.get("integrator", {}))
    except ValueError as exc:
        raise ConfigError(f"[integrator] {exc}") from exc

    if REGISTRY[preset].dissipative and model.kappa <= 0:
        raise ConfigError(f"[model] preset {preset!r} needs kappa > 0")
    if preset == "superrabi":  # unitary: a decay rate would be dropped unread
        for name in ("kappa", "gamma"):
            value = getattr(model, name)
            if value > 0:
                raise ConfigError(
                    f"[model] {name} = {value}: preset 'superrabi' "
                    "is unitary and needs kappa = gamma = 0"
                )
    return ExperimentConfig(
        preset=preset,
        model=model,
        scan=scan,
        integrator=integrator,
        seeds=SeedsBlock(**raw.get("seeds", {})),
        output=OutputBlock(**raw.get("output", {})),
    )


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Canonical INI rendering of a resolved config; reparses to itself."""
    cp = configparser.ConfigParser(interpolation=None)
    for section in _SCHEMA:
        cp[section] = {
            key: _render(value)
            for key, value in asdict(getattr(cfg, section)).items()
            if value is not None
        }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _render(value) -> str:
    """Config-file form of a field value; reparses to the same value."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{x:.8e}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


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
    with suppress(ZeroDivisionError):  # singular effective model: no JC frequency
        out["omega_eff_jc"] = omega_eff_jc(m)
    return out


def _sidecar(cfg: ExperimentConfig, out_dir: Path, extra: dict) -> Path:
    meta = {
        "preset": cfg.preset,
        "library_version": __version__,
        "unit": "kappa" if REGISTRY[cfg.preset].dissipative else "j",
        "resolved_config": resolved_config_text(cfg),
        "model": asdict(cfg.model),
        "seeds": asdict(cfg.seeds),
        "derived": derived_quantities(cfg.model),
        **extra,
    }
    path = out_dir / f"{cfg.preset}_metadata.json"
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


def _run_superrabi(cfg: ExperimentConfig) -> tuple[dict, dict]:
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
    history = schrodinger_evolve(build_H_I(m), psi0, t_grid)
    v_top = psi0.amp
    v_bot = dressed_state(m, m.n, "-").amp
    p_top = np.abs(history @ v_top.conj()) ** 2
    p_bot = np.abs(history @ v_bot.conj()) ** 2
    analytic = np.sin(eff.omega_eff * t_grid) ** 2
    rows = zip(t_grid, p_top, p_bot, analytic)
    header = ["t", "P_0_plus", "P_n_minus", "analytic_sin2"]
    return {"superrabi": (header, rows)}, {"t_final": t_final, "columns": 4}


def _run_steadyscan(cfg: ExperimentConfig) -> tuple[dict, dict]:
    header, rows = sweep(cfg.model, cfg.scan.grid())
    return {"steadyscan": (header, rows)}, {
        "grid_points": cfg.scan.points,
        "flagged_rows": sum(1 for r in rows if r[-1]),
        "truncation_check": "per-row; see 'flag' column",
    }


def _run_trajectory(cfg: ExperimentConfig) -> tuple[dict, dict]:
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
    pops = dressed_populations(rec.states, m)[:, : m_top + 1]
    rows = np.column_stack([rec.times, pops.reshape(len(rec.times), -1)])
    tables = {
        "trajectory_populations": (header, rows),
        "trajectory_jumps": (["time", "channel"], rec.jumps),
    }
    return tables, {"t_final": t_final, "sample_dt": sample_dt, "n_jumps": len(rec.jumps)}


def _run_g2tau(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m = cfg.model
    n_bundle = cfg.scan.bundle_n if cfg.scan.bundle_n is not None else m.n
    prop = LiouvillePropagator(build_liouvillian(m))
    rho = steady_state(prop.L)
    tau_grid = np.geomspace(
        tau_min(n_bundle, m.kappa), cfg.scan.tau_max / m.kappa, cfg.scan.tau_points
    )
    curve_n = g2_bundle_delayed(m, n_bundle, tau_grid, propagator=prop, rho_ss=rho)
    tau_grid_1 = np.concatenate(
        ([0.0], np.geomspace(0.01 / m.kappa, cfg.scan.tau_max / m.kappa, cfg.scan.tau_points))
    )
    curve_1 = g2_bundle_delayed(m, 1, tau_grid_1, propagator=prop, rho_ss=rho)
    rows = [("g1", t, v) for t, v in zip(curve_1.abscissa, curve_1.values)]
    rows += [(f"g{n_bundle}_bundle", t, v) for t, v in zip(curve_n.abscissa, curve_n.values)]
    return {"g2tau": (["curve", "tau", "value"], rows)}, {
        "bundle_n": n_bundle,
        "tau_min": tau_min(n_bundle, m.kappa),
        "tau_min_note": "g_N value at tau_min is the approximate zero-delay value",
        "g_equal_time_2": g_equal_time(rho, 2),
    }


def _run_jcregime(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m = cfg.model
    eig = jc_eigensystem(m)
    rows = []
    for k, e in enumerate(eig.bare_energies):
        rows.append((k, "bare", e, 1.0, 0.0, 0.0))
    for k, mm in enumerate(eig.m_values):
        rows.append((int(mm), "plus", eig.e_plus[k], eig.c_plus[k], eig.c_minus[k], eig.omega_m[k]))
        rows.append((int(mm), "minus", eig.e_minus[k], eig.c_plus[k], eig.c_minus[k], eig.omega_m[k]))
    try:
        extra = {"omega_eff_jc": omega_eff_jc(m)}
    except ZeroDivisionError as exc:
        raise ConfigError(f"[model] preset 'jcregime': {exc}") from exc
    rho = steady_state(build_liouvillian(m))
    extra["n_photon_population"] = float(photon_distribution(rho)[m.n])
    header = ["m", "branch", "energy", "c_plus", "c_minus", "omega_m"]
    return {"jcregime": (header, rows)}, extra


def _run_resonances(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m = cfg.model
    rows = [(m.n, 1, resonant_branch(m), resonance_detuning(m))]
    for mu in cfg.scan.mu_values:
        rows.append((m.n, mu, "plus", resonance_detuning_higher(m, mu, +1)))
        rows.append((m.n, mu, "minus", resonance_detuning_higher(m, mu, -1)))
    header = ["n", "mu", "branch", "delta_a"]
    return {"resonances": (header, rows)}, {"mu_values": list(cfg.scan.mu_values)}


def _run_custom(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m = cfg.model
    rho = steady_state(build_liouvillian(m))
    pops = photon_distribution(rho)
    gs = {}
    for ell in (2, 3, 4):
        try:
            gs[f"g{ell}"] = g_equal_time(rho, ell)
        except ValueError:
            gs[f"g{ell}"] = None
    tables = {"custom_steady_state": (["m", "P_m"], list(enumerate(pops)))}
    return tables, {"equal_time_correlations": gs}


class Preset(NamedTuple):
    """run(cfg) computes the preset's tables, {stem: (header, rows)}, and its
    sidecar entries, and writes nothing; a dissipative preset needs kappa > 0
    and is in units of kappa, the others in units of J."""

    run: Callable[[ExperimentConfig], tuple[dict, dict]]
    dissipative: bool


REGISTRY = {
    "superrabi": Preset(_run_superrabi, dissipative=False),
    "steadyscan": Preset(_run_steadyscan, dissipative=True),
    "trajectory": Preset(_run_trajectory, dissipative=True),
    "g2tau": Preset(_run_g2tau, dissipative=True),
    "jcregime": Preset(_run_jcregime, dissipative=True),
    "resonances": Preset(_run_resonances, dissipative=False),
    "custom": Preset(_run_custom, dissipative=True),
}


def run_preset(cfg: ExperimentConfig) -> list[Path]:
    """Execute a preset, then write <stem>.csv per table and the sidecar;
    returns those paths, datasets first.  A preset that raises writes nothing."""
    tables, extra = REGISTRY[cfg.preset].run(cfg)
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [_write_csv(out_dir / f"{stem}.csv", *table) for stem, table in tables.items()]
    return paths + [_sidecar(cfg, out_dir, extra)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bundlejc",
        description="n-photon Jaynes-Cummings bundle-emission simulator",
    )
    parser.add_argument("preset", choices=tuple(REGISTRY))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", help="output directory (overrides [output] directory)")
    parser.add_argument("--seed", type=int, help="override [seeds] base_seed")
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
        paths = run_preset(cfg)
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

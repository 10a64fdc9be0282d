"""Reproduction harness: config parsing, the experiment preset registry, and
CSV/JSON dataset emission.

Config files are INI-style with sections [model], [scan], [integrator],
[seeds], [output]; the keys of each section are the fields of the dataclass it
fills.  Unknown sections or keys are rejected.  [integrator] holds only the
horizon and sampling step of superrabi and trajectory, whose propagators are
eigendecompositions with no scheme or tolerance to choose; g2tau's horizon is
[scan] tau_max.  Each time-resolved preset states its horizon once, in its
registry entry, and parse_config checks it for eig round-off; for superrabi
and trajectory it resolves the default horizon and step into [integrator], as
it resolves delta_a = resonance into [model].  A preset computes its tables;
`run_preset` then writes one CSV per table plus a JSON metadata sidecar
holding the resolved configuration, the derived quantities and what the run
measured, so a dataset can be regenerated from its sidecar alone.
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
    _sample_times,
    run_trajectories,
    schrodinger_evolve,
    steady_state,
)
from .model import (
    GRID_CAP,
    ModelParams,
    at_resonance,
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
    _g_orders,
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
    tau_points: int = 200
    tau_max: float = 30.0

    def grid(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class IntegratorBlock:
    """Horizon and sampling step of superrabi and trajectory (None selects
    the preset's default, which parse_config fills in)."""

    t_final: float | None = None
    sample_dt: float | None = None

    def __post_init__(self):
        try:
            _check_horizon(**{k: v for k, v in vars(self).items() if v is not None})
        except ValueError as exc:
            raise ConfigError(f"[integrator] {exc}") from exc


@dataclass(frozen=True)
class SeedsBlock:
    base_seed: int = 12345

    def __post_init__(self):
        if self.base_seed < 0:
            raise ConfigError(f"[seeds] base_seed must be >= 0; got {self.base_seed}")


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
    """The type a key parses to: float for `float | None`, else the hint itself."""
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
        try:
            model = at_resonance(model)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"[model] delta_a = resonance cannot be resolved: {exc}") from exc

    scan = ScanBlock(**raw.get("scan", {}))
    for key, lo in (("points", 2), ("tau_points", 1)):
        if not lo <= getattr(scan, key) <= GRID_CAP:
            raise ConfigError(f"[scan] {key} must be in {lo}..{GRID_CAP}; got {getattr(scan, key)}")
    for key in ("min", "max"):
        if not math.isfinite(getattr(scan, key)):
            raise ConfigError(f"[scan] {key} must be finite; got {getattr(scan, key)}")
    floor = tau_min(model.n, 1.0)  # in units of 1/kappa, like tau_max
    if not (math.isfinite(scan.tau_max) and scan.tau_max > floor):
        raise ConfigError(
            f"[scan] tau_max must be finite and > tau_min = {floor:g}; got {scan.tau_max}"
        )

    cfg = ExperimentConfig(
        preset=preset,
        model=model,
        scan=scan,
        integrator=IntegratorBlock(**raw.get("integrator", {})),
        seeds=SeedsBlock(**raw.get("seeds", {})),
        output=OutputBlock(**raw.get("output", {})),
    )
    top, rate = model.largest_rate()
    try:  # the sidecar holds no Infinity or NaN, and the solvers square each rate
        derived = derived_quantities(model)
        json.dumps([derived, rate * rate], allow_nan=False)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(
            f"[model] {top} = {getattr(model, top)}: out of floating-point range"
        ) from exc
    entry = REGISTRY[preset]
    for key, holds, reason in ((_NEEDS_KAPPA,) if entry.dissipative else ()) + entry.requires:
        if not holds(cfg, derived):
            raise ConfigError(f"[model] {key} = {getattr(model, key)}: preset {preset!r} {reason}")
    if entry.horizon is not None:  # its default horizon exists once the requirements hold
        horizon, sample_dt = entry.horizon(cfg)
        if not horizon * rate <= _MAX_HORIZON_RATE:
            key = "kappa" if entry.dissipative else "j"
            raise ConfigError(
                f"[model] {key} = {getattr(model, key)}: preset {preset!r} needs its horizon "
                f"{horizon:g} times the largest rate <= {_MAX_HORIZON_RATE:.2e} (eig round-off)"
            )
        if sample_dt is not None:  # the run reads, and the sidecar records, what it samples
            cfg = replace(cfg, integrator=IntegratorBlock(horizon, sample_dt))
    return cfg


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Canonical INI rendering of a resolved config; reparses to itself."""
    cp = configparser.ConfigParser(interpolation=None)
    for section in _SCHEMA:
        block = asdict(getattr(cfg, section))
        cp[section] = {key: str(value) for key, value in block.items() if value is not None}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


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


# the orders mu > 1 of the resonance table in every sidecar and --dry-run
_HIGHER_MU = (2, 3)


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
        with suppress(ZeroDivisionError):  # singular Mollow model: no entries
            eff = omega_eff_mollow(m)
            out.update(omega_eff=eff.omega_eff, eps1=eff.eps1, eps2=eff.eps2)
    if m.delta_n != 0:
        table = {"mu_1": resonance_detuning(m), "branch": resonant_branch(m)}
        for mu in _HIGHER_MU:
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
        "derived": derived_quantities(cfg.model),
        **extra,
    }
    path = out_dir / f"{cfg.preset}_metadata.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _sampled(cfg: ExperimentConfig, t_final: float) -> tuple[float, float]:
    """t_final and the [integrator] sample_dt, by default t_final/1000 (1001 samples)."""
    return t_final, cfg.integrator.sample_dt or t_final / 1000


def _superrabi_horizon(cfg: ExperimentConfig) -> tuple[float, float]:
    """The [integrator] t_final of superrabi, by default 1.25 pi/|omega_eff|."""
    t_final = cfg.integrator.t_final or 1.25 * math.pi / abs(omega_eff_mollow(cfg.model).omega_eff)
    return _sampled(cfg, t_final)


def _trajectory_horizon(cfg: ExperimentConfig) -> tuple[float, float]:
    """The [integrator] t_final of trajectory, by default 50/kappa."""
    return _sampled(cfg, cfg.integrator.t_final or 50.0 / cfg.model.kappa)


def _g2tau_horizon(cfg: ExperimentConfig) -> tuple[float, None]:
    """The longest delay of g2tau, tau_max/kappa; it samples no time grid."""
    return cfg.scan.tau_max / cfg.model.kappa, None


def _run_superrabi(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """|0>|+> under H_I at the _sample_times of the resolved [integrator]."""
    m = cfg.model
    eff = omega_eff_mollow(m)
    t_grid = _sample_times(cfg.integrator.t_final, cfg.integrator.sample_dt)
    psi0 = dressed_state(m, 0, "+")
    history = schrodinger_evolve(build_H_I(m), psi0, t_grid)
    p_top = np.abs(history @ psi0.conj()) ** 2
    p_bot = np.abs(history @ dressed_state(m, m.n, "-").conj()) ** 2
    analytic = np.sin(eff.omega_eff * t_grid) ** 2
    rows = zip(t_grid, p_top, p_bot, analytic)
    header = ["t", "P_0_plus", "P_n_minus", "analytic_sin2"]
    return {"superrabi": (header, rows)}, {}


def _run_steadyscan(cfg: ExperimentConfig) -> tuple[dict, dict]:
    header, rows = sweep(cfg.model, cfg.scan.grid())
    return {"steadyscan": (header, rows)}, {"flagged_rows": sum(1 for r in rows if r[-1])}


def _run_trajectory(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m, horizon = cfg.model, cfg.integrator
    psi0 = dressed_state(m, 0, "+")
    (rec,) = run_trajectories(m, psi0, horizon.t_final, horizon.sample_dt, 1, cfg.seeds.base_seed)
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
    return tables, {"n_jumps": len(rec.jumps)}


def _run_g2tau(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m = cfg.model
    rho = steady_state(m)  # a TruncationError here costs no K and no eig
    prop = LiouvillePropagator(m)
    t_floor, t_max = tau_min(m.n, m.kappa), _g2tau_horizon(cfg)[0]
    grid_n = np.geomspace(t_floor, t_max, cfg.scan.tau_points)
    g_n = g2_bundle_delayed(m, m.n, grid_n, propagator=prop, rho_ss=rho)
    grid_1 = np.concatenate(([0.0], np.geomspace(0.01 / m.kappa, t_max, cfg.scan.tau_points)))
    g_1 = g2_bundle_delayed(m, 1, grid_1, propagator=prop, rho_ss=rho)
    rows = [("g1", t, v) for t, v in zip(grid_1, g_1)]
    rows += [(f"g{m.n}_bundle", t, v) for t, v in zip(grid_n, g_n)]
    extra = {"tau_min": t_floor, "g_equal_time_2": g_equal_time(rho, 2)}
    return {"g2tau": (["curve", "tau", "value"], rows)}, extra


def _run_jcregime(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m = cfg.model
    eig = jc_eigensystem(m)
    rows = [(k, "bare", e, 1.0, 0.0, 0.0) for k, e in enumerate(eig.bare_energies)]
    for k, mm in enumerate(eig.m_values):
        for branch, e in (("plus", eig.e_plus[k]), ("minus", eig.e_minus[k])):
            rows.append((int(mm), branch, e, eig.c_plus[k], eig.c_minus[k], eig.omega_m[k]))
    rho = steady_state(m)
    header = ["m", "branch", "energy", "c_plus", "c_minus", "omega_m"]
    return {"jcregime": (header, rows)}, {"n_photon_population": float(photon_distribution(rho)[m.n])}


def _run_custom(cfg: ExperimentConfig) -> tuple[dict, dict]:
    m = cfg.model
    pops = photon_distribution(steady_state(m))
    gs = dict(zip(("g2", "g3", "g4"), _g_orders(pops, (2, 3, 4))))  # None for all or for none
    tables = {"custom_steady_state": (["m", "P_m"], list(enumerate(pops)))}
    return tables, {"equal_time_correlations": gs}


_NEEDS_KAPPA = ("kappa", lambda c, d: c.model.kappa > 0, "needs kappa > 0")
_DRESSED_START = ("omega_l", lambda c, d: c.model.omega_l > 0,
                  "starts in the laser-dressed state |0>|+>, which needs omega_l > 0")
_RELAXES = ("gamma", lambda c, d: c.model.j != 0 or c.model.gamma > 0,
            "needs gamma > 0 at j = 0, where the TLS has no unique steady state")

# The time-resolved presets propagate by exp(lambda t) over a horizon T, with
# the eigenvalues of L (g2tau), of H_nh (trajectory) or of H (superrabi).  A
# backward-stable eig leaves each eigenvalue off by about eps times the
# generator's norm, at least eps r for the largest [model] rate r (more by the
# eigenvalue's condition number), so exp(lambda T) is off by a factor up to
# exp(eps r T) in size or phase.  Keeping eps r T <= 1e-6 bounds that to
# 1 + 1e-6 for a well-conditioned eigenvalue.  Far past it (kappa = 1e-300,
# T = 50/kappa) the exp overflowed: g2tau wrote nan rows, the jump time
# diverged, and superrabi at omega_eff ~ 1e-300 printed an overflow warning.
_MAX_HORIZON_RATE = 1e-6 / sys.float_info.epsilon


class Preset(NamedTuple):
    """run(cfg) computes the preset's tables, {stem: (header, rows)}, and its
    sidecar entries, and writes nothing; a dissipative preset needs kappa > 0
    and is in units of kappa, the others in units of J.  A requirement is
    (field, holds(cfg, derived_quantities), reason); parse_config refuses a
    config failing one, naming the [model] field, so --dry-run refuses it too.
    A time-resolved preset's horizon(cfg) gives the horizon T and sample_dt
    its run uses, defaults included (sample_dt None where it samples no time
    grid).  Once the requirements hold, parse_config refuses T times the
    largest [model] rate past _MAX_HORIZON_RATE, naming kappa (j for
    superrabi); a sampled horizon then becomes cfg.integrator, which refuses
    a sample count past GRID_CAP, naming [integrator], and which the run
    reads."""

    run: Callable[[ExperimentConfig], tuple[dict, dict]]
    dissipative: bool
    requires: tuple = ()
    horizon: Callable[[ExperimentConfig], tuple[float, float | None]] | None = None


REGISTRY = {
    "superrabi": Preset(_run_superrabi, False, (
        _DRESSED_START,
        ("kappa", lambda c, d: c.model.kappa == 0, "is unitary and needs kappa = gamma = 0"),
        ("gamma", lambda c, d: c.model.gamma == 0, "is unitary and needs kappa = gamma = 0"),
        ("delta_a", lambda c, d: "omega_eff" in d, "has a singular Mollow model here"),
        ("j", lambda c, d: c.integrator.t_final or abs(d["omega_eff"]) >= sys.float_info.min,
         "has no default horizon 1.25 pi/|omega_eff| at omega_eff ~ 0; set [integrator] t_final"),
    ), _superrabi_horizon),
    "steadyscan": Preset(_run_steadyscan, True, (_RELAXES,)),
    "trajectory": Preset(_run_trajectory, True, (_DRESSED_START,), _trajectory_horizon),
    "g2tau": Preset(_run_g2tau, True, (_RELAXES,), _g2tau_horizon),
    "jcregime": Preset(_run_jcregime, True, (
        ("delta_a", lambda c, d: "omega_eff_jc" in d, "has a singular JC-regime model here"),
        ("j", lambda c, d: c.model.delta_n**2 + 4.0 * c.model.j**2 >= sys.float_info.min,
         "has no JC doublet splitting Omega_m where j and delta_n vanish or underflow"),
        _RELAXES,
    )),
    "custom": Preset(_run_custom, True, (_RELAXES,)),
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
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved config and derived quantities, do not simulate",
    )
    args = parser.parse_args(argv)

    try:
        try:
            # utf-8-sig drops the byte-order mark some editors write first
            text = Path(args.config).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:  # a ValueError, not a solver failure
            raise ConfigError(f"config file {args.config} is not UTF-8: {exc}") from exc
        cfg = parse_config(text, args.preset)
        if args.out is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
        if args.dry_run:
            print(resolved_config_text(cfg))
            print(json.dumps(derived_quantities(cfg.model), indent=2, sort_keys=True))
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

"""Measured quantities: photon and dressed-state populations, equal-time
high-order correlations, time-delayed bundle correlation functions, and
steady-state sweeps over the cavity detuning.

States are plain complex arrays: amplitudes of shape (..., d) and density
matrices of shape (d, d).  The equal-time g^(l)(0) is a sum over the photon
distribution, because a^dag^l a^l is diagonal in the Fock basis.  A sweep
builds the Liouvillian once (dynamics.SteadyStateWorkspace) and solves the
k = 0 block per point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import matrix_power

from .dynamics import (
    TAIL_TOL,
    LiouvillePropagator,
    SteadyStateWorkspace,
    build_liouvillian,
)
from .hilbert import DimensionMismatchError, fock_annihilation
from .model import ModelParams, dressed

__all__ = [
    "CorrelationCurve",
    "photon_distribution",
    "dressed_populations",
    "g_equal_time",
    "tau_min",
    "g2_bundle_delayed",
    "sweep",
]


@dataclass(frozen=True)
class CorrelationCurve:
    """Delayed g_N^(2)(tau): order = N, abscissa = the tau values."""

    order: int
    abscissa: np.ndarray
    values: np.ndarray


def photon_distribution(rho: np.ndarray) -> np.ndarray:
    """P_m = Tr[(|m><m| x I_2) rho] for m = 0..n_max."""
    pops = np.diagonal(rho).real
    return pops[0::2] + pops[1::2]


def dressed_populations(amps, p: ModelParams) -> np.ndarray:
    """All P_{|m>|+->} of amplitude arrays of shape (..., total_dim), such as
    one state or a whole trajectory history, as (..., n_max+1, 2) with
    columns ordered (+, -)."""
    amps = np.asarray(amps)
    if amps.shape[-1:] != (p.dims.total_dim,):
        raise DimensionMismatchError(
            f"amps: expected last axis {p.dims.total_dim}, got shape {amps.shape}"
        )
    return np.abs(amps.reshape(*amps.shape[:-1], -1, 2) @ dressed(p).basis) ** 2


def g_equal_time(rho: np.ndarray, ell: int) -> float:
    """Equal-time normalized correlation Tr(a^dag^l a^l rho) / Tr(a^dag a rho)^l.

    a^dag^l a^l is diagonal in the Fock basis with eigenvalue m!/(m-l)! on
    |m>, so both traces are sums over the photon distribution P_m.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    pops = photon_distribution(rho)
    n_mean = float(np.arange(len(pops)) @ pops)
    if n_mean <= 1e-12:
        raise ValueError("correlation undefined: vanishing mean photon number")
    falling = np.array([math.perm(m, ell) for m in range(len(pops))], dtype=float)
    return float(falling @ pops) / n_mean**ell


def tau_min(N: int, kappa: float) -> float:
    """Shortest delay at which the N-photon bundle correlation is well defined:
    sum_{m=1..N} 1/(m kappa)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    return sum(1.0 / (m * kappa) for m in range(1, N + 1))


def _clamp_nonnegative(values: np.ndarray) -> np.ndarray:
    if values.min() < 0:
        warnings.warn(
            f"clamping {int((values < 0).sum())} slightly negative correlation "
            f"values (min {values.min():.3e}) to 0",
            stacklevel=3,
        )
        values = np.maximum(values, 0.0)
    return values


def g2_bundle_delayed(
    p: ModelParams,
    N: int,
    tau_grid=None,
    *,
    propagator: LiouvillePropagator,
    rho_ss: np.ndarray,
) -> CorrelationCurve:
    """Delayed second-order correlation of the N-photon bundle.

    Quantum regression: the collapsed operator a^N rho_ss a^dagN is propagated
    under the Liouvillian and measured with a^dagN a^N; both denominator
    factors are the stationary value.  N=1 recovers the standard g2(tau).
    propagator must hold the Liouvillian L of p, and rho_ss must be its steady
    state, normally steady_state(propagator.L): it may have no entry outside
    k = 0, and ||L vec(rho_ss)|| may be at most 1e-9 ||K||_F (K = L.mat, the
    k = 0 block), the residual bound of the steady-state solver.  One
    propagator serves every N and grid.

    The default grid is 200 delays from tau_min to 30/kappa.  Every delay
    must be finite and >= 0; for N >= 2 it must also be >= tau_min, below
    which the bundle correlation is not meaningful.  N=1 grids, tau = 0
    included, are otherwise taken as given.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if p.kappa <= 0:
        raise ValueError("kappa must be > 0 for emission correlations")
    t_floor = tau_min(N, p.kappa)
    if tau_grid is None:
        tau_grid = np.geomspace(t_floor, 30.0 / p.kappa, 200)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if len(tau_grid) == 0:
        raise ValueError("empty tau grid")
    floor = t_floor if N >= 2 else 0.0
    bad = np.flatnonzero(~(np.isfinite(tau_grid) & (tau_grid >= floor)))
    if len(bad):
        bound = f"tau_min = {t_floor:g} for the N={N} bundle" if N >= 2 else "0"
        raise ValueError(f"delay {tau_grid[bad[0]]:g} must be finite and >= {bound}")

    if propagator.L.params != p:
        raise ValueError(f"propagator was built at {propagator.L.params}, not at p = {p}")
    d = p.dims.total_dim
    if np.shape(rho_ss) != (d, d):
        raise DimensionMismatchError(
            f"rho_ss has shape {np.shape(rho_ss)}; p's space needs ({d}, {d})"
        )
    kmat = propagator.L.mat
    residual = np.linalg.norm(kmat @ propagator.L.k0_entries(rho_ss, "rho_ss"))
    if not residual <= 1e-9 * np.linalg.norm(kmat.data):
        raise ValueError(
            f"rho_ss is not the steady state of the propagator's Liouvillian: "
            f"||L rho_ss|| = {residual:.3e}, over 1e-9 ||K||_F"
        )

    a = fock_annihilation(p.dims)
    an = matrix_power(a, N)
    meas = an.conj().T @ an
    denom = float(np.trace(meas @ rho_ss).real)
    if denom <= 1e-14:
        raise ValueError("bundle occupation too small: denominator under threshold")
    collapsed = an @ rho_ss @ an.conj().T
    propagated = propagator.propagate(collapsed, tau_grid)
    values = np.einsum("ij,tji->t", meas, propagated).real / denom**2
    values = _clamp_nonnegative(values)
    return CorrelationCurve(order=N, abscissa=tau_grid, values=values)


def _scan_point(ws: SteadyStateWorkspace, m_top: int, delta_a: float) -> tuple:
    """One steady-state evaluation; returns observables plus a failure flag."""
    try:
        rho = ws.solve(float(delta_a))
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


def sweep(p: ModelParams, grid):
    """Steady-state observables of p at each delta_a in grid, in grid order.

    Returns (header, rows): delta_a, P_0..P_min(3n, n_max), g2, g3, g4, the
    top-level population and a flag.  Per-point failures are recorded in the
    trailing flag column and the sweep continues.  The Liouvillian is built
    once, in a SteadyStateWorkspace; each point only rewrites its diagonal.
    """
    m_top = min(3 * p.n, p.n_max)
    header = (
        ["delta_a"]
        + [f"P{k}" for k in range(m_top + 1)]
        + ["g2", "g3", "g4", "tail_population", "flag"]
    )
    ws = SteadyStateWorkspace(build_liouvillian(p))
    return header, [_scan_point(ws, m_top, da) for da in grid]

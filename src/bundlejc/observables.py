"""Measured quantities: photon and dressed-state populations, equal-time
high-order correlations, time-delayed bundle correlation functions, and
steady-state sweeps over the cavity detuning.

States are plain complex arrays: amplitudes of shape (..., d) and density
matrices of shape (d, d).  The equal-time g^(l)(0) is a sum over the photon
distribution, because a^dag^l a^l is diagonal in the Fock basis.  The delayed
g_N^(2)(tau) is a trace per delay, contracted in the eigenbasis of the k = 0
block (LiouvillePropagator.expectation), so no propagated operator is
formed.  A sweep builds the steady-state system of the k = 0 block once
(dynamics.SteadyStateWorkspace, no Liouvillian) and solves it per point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import matrix_power

from .dynamics import TAIL_TOL, LiouvillePropagator, SteadyStateWorkspace
from .hilbert import _check_shape, fock_annihilation
from .model import ModelParams, dressed

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "photon_distribution",
    "dressed_populations",
    "g_equal_time",
    "tau_min",
    "g2_bundle_delayed",
    "sweep",
]


def photon_distribution(rho: np.ndarray) -> np.ndarray:
    """P_m = Tr[(|m><m| x I_2) rho] for m = 0..n_max."""
    pops = np.diagonal(rho).real
    return pops[0::2] + pops[1::2]


def dressed_populations(amps, p: ModelParams) -> np.ndarray:
    """All P_{|m>|+->} of amplitude arrays of shape (..., total_dim), such as
    one state or a whole trajectory history, as (..., n_max+1, 2) with
    columns ordered (+, -)."""
    amps = np.asarray(amps)
    _check_shape("amps", amps, (*amps.shape[:-1], p.dims.total_dim))
    return np.abs(amps.reshape(*amps.shape[:-1], -1, 2) @ dressed(p).basis) ** 2


def g_equal_time(rho: np.ndarray, ell: int) -> float | None:
    """Equal-time normalized correlation Tr(a^dag^l a^l rho) / Tr(a^dag a rho)^l;
    None, for every order l at once, where the mean photon number is <= 1e-12.

    a^dag^l a^l is diagonal in the Fock basis with eigenvalue m!/(m-l)! on
    |m>, so both traces are sums over the photon distribution P_m.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return _g_orders(photon_distribution(rho), (ell,))[0]


def _g_orders(pops: np.ndarray, orders) -> list[float | None]:
    """g_equal_time of rho at each order in orders, from pops = P_m of rho."""
    n_mean, ms = float(np.arange(len(pops)) @ pops), range(len(pops))
    falling = [np.array([math.perm(m, ell) for m in ms], dtype=float) for ell in orders]
    return [None if n_mean <= 1e-12 else float(f @ pops) / n_mean**ell
            for f, ell in zip(falling, orders)]


def tau_min(N: int, kappa: float) -> float:
    """Shortest delay at which the N-photon bundle correlation is well defined:
    sum_{m=1..N} 1/(m kappa)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    return sum(1.0 / (m * kappa) for m in range(1, N + 1))


def _stationarity_failure(kmat: sp.sparray, x: np.ndarray, trace: complex) -> str | None:
    """The first bound that x, the k = 0 entries of an operator of trace trace,
    fails as a steady state of the k = 0 block kmat, or None.  A K whose
    slowest rate is below round-off of its largest passes any near-null x."""
    if not abs(trace - 1.0) <= 1e-9:  # written so that a NaN fails too
        return f"|Tr x - 1| = {abs(trace - 1.0):.3e} > 1e-9"
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan fail the bound
        residual = np.linalg.norm(kmat @ x)
    bound = 1e-9 * np.linalg.norm(kmat.data)
    if not residual <= bound:
        return f"residual {residual:.3e} > 1e-9 ||K||_F = {bound:.3e}"
    return None


def g2_bundle_delayed(
    p: ModelParams,
    N: int,
    tau_grid=None,
    *,
    propagator: LiouvillePropagator,
    rho_ss: np.ndarray,
) -> np.ndarray:
    """Delayed g_N^(2)(tau) of the N-photon bundle, one value per delay in tau_grid.

    Quantum regression: the collapsed operator x = a^N rho_ss a^dagN evolves
    under the Liouvillian and is measured with a^dagN a^N; both denominator
    factors are the stationary value.  N=1 recovers the standard g2(tau).
    Each numerator Tr[a^dagN a^N exp(L tau) x] is propagator.expectation:
    sum_i exp(lambda_i tau) (m . w_i) c_i over the eigenpairs of the k = 0
    block, with m the measurement projected onto the eigenvectors once and c
    the coefficients of x from one solve, so a grid costs one exp table and
    forms no propagated operator.
    propagator must hold the Liouvillian L of p (LiouvillePropagator(p)), and
    rho_ss must be its steady state, normally steady_state(p): it may have no
    entry outside k = 0, and it must pass _stationarity_failure's bounds.
    One propagator serves every N and grid.

    The default grid is 200 delays from tau_min to 30/kappa.  For N >= 2 every
    delay must be finite and >= tau_min, below which the bundle correlation is
    not meaningful.  The propagator refuses a grid that is empty or not 1-D
    and a delay not finite and >= 0, as propagate does; N=1 grids, tau = 0
    included, pass as given.
    Values come back as computed; one below -1e-6 (g >= 0; round-off reached
    -3.7e-9) or NaN is a ValueError naming N, the value and its delay.
    """
    t_floor = tau_min(N, p.kappa)
    if tau_grid is None:
        tau_grid = np.geomspace(t_floor, 30.0 / p.kappa, 200)
    tau_grid = np.asarray(tau_grid, dtype=float)
    bad = tau_grid[~(np.isfinite(tau_grid) & (tau_grid >= t_floor))]
    if N >= 2 and len(bad):
        raise ValueError(f"delay {bad[0]:g} must be finite and >= tau_min = "
                         f"{t_floor:g} for the N={N} bundle")

    L = propagator.L
    if L.params != p:
        raise ValueError(f"propagator was built at {L.params}, not at p = {p}")
    if failure := _stationarity_failure(L.mat, L.k0_entries(rho_ss, "rho_ss"), np.trace(rho_ss)):
        raise ValueError(f"rho_ss is not the steady state of the propagator's Liouvillian: {failure}")

    a = fock_annihilation(p.dims)
    an = matrix_power(a, N)
    meas = an.conj().T @ an
    denom = float(np.trace(meas @ rho_ss).real)
    if denom <= 1e-14:
        raise ValueError(f"bundle occupation <a^dag^{N} a^{N}> = {denom:.3e} <= 1e-14")
    collapsed = an @ rho_ss @ an.conj().T
    values = propagator.expectation(meas, collapsed, tau_grid).real / denom**2
    if not values[k := np.argmin(values)] >= -1e-6:  # argmin finds the first NaN
        raise ValueError(f"g_{N}^(2)(tau = {tau_grid.flat[k]:g}) = {values[k]:.3e} is not "
                         ">= -1e-06, the round-off bound")
    return values


def _scan_point(ws: SteadyStateWorkspace, m_top: int, delta_a: float) -> tuple:
    """One steady-state evaluation; returns observables plus a failure flag.
    g2, g3 and g4 come from one photon distribution, and are all defined or
    all NaN (a vanishing mean photon number)."""
    nan = float("nan")
    try:
        rho = ws.solve(float(delta_a))
    except (RuntimeError, OverflowError, np.linalg.LinAlgError) as exc:
        return (delta_a, *([nan] * (m_top + 1)), nan, nan, nan, nan, f"solver: {exc}")
    pops = photon_distribution(rho)
    tail = float(pops[-1])
    flags = ["truncation"] if tail >= TAIL_TOL else []
    gs = _g_orders(pops, (2, 3, 4))
    if gs[0] is None:
        gs = [nan] * 3
        flags.append("correlation_undefined")
    return (delta_a, *pops[: m_top + 1], *gs, tail, ";".join(flags))


def sweep(p: ModelParams, grid):
    """Steady-state observables of p at each delta_a in grid, in grid order.

    Returns (header, rows): delta_a, P_0..P_min(3n, n_max), g2, g3, g4, the
    top-level population and a flag.  Per-point failures are recorded in the
    trailing flag column and the sweep continues.  SteadyStateWorkspace(p)
    builds the system once, with no Liouvillian; each point rewrites its diagonal.
    """
    m_top = min(3 * p.n, p.n_max)
    header = (
        ["delta_a"]
        + [f"P{k}" for k in range(m_top + 1)]
        + ["g2", "g3", "g4", "tail_population", "flag"]
    )
    ws = SteadyStateWorkspace(p)
    return header, [_scan_point(ws, m_top, da) for da in grid]

"""Model algebra for the driven n-photon Jaynes-Cummings system.

Hamiltonians in the rotating frame, laser-dressed two-level states, the
multi-photon resonance conditions, and the effective super-Rabi frequencies
in both the strong-drive (Mollow) and strong-coupling (JC) regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import matrix_power

from .hilbert import SpaceDims, StateVector, fock_annihilation, tls_operator

__all__ = [
    "ModelParams",
    "DressedData",
    "EffectiveTwoLevel",
    "JcEigensystem",
    "build_H_I",
    "dressed",
    "dressed_state",
    "resonance_detuning",
    "resonance_detuning_higher",
    "resonant_branch",
    "at_resonance",
    "omega_eff_mollow",
    "jc_eigensystem",
    "omega_eff_jc",
]

# Run time, not precision, sets the cap: the first g_N^(2)(tau) on a fresh
# LiouvillePropagator (the k = 0 eigendecomposition, then 200 delays) takes
# 0.89-1.01 s at n = 2, n_max = 20 and 0.12 s at n_max = 12 (5 calls each after
# a warm-up call; 2-vCPU host, OpenBLAS 0.3.31 on 2 threads).
# The factorial ratios are exact: math.perm is an integer, rounded once.
N_MAX_CAP = 20


@dataclass(frozen=True)
class ModelParams:
    """Physical rates of the driven n-photon JC model, all in the same units.

    n: photons created/annihilated per TLS transition
    j: n-photon coupling strength J
    omega_l: drive amplitude Omega_L
    delta_n: Delta^(n) = omega_0 - n*omega_a
    delta_a: delta_a^(n) = omega_a - omega_L/n
    kappa, gamma: cavity and TLS decay rates
    n_max: highest Fock level kept
    """

    n: int
    j: float
    omega_l: float
    delta_n: float
    delta_a: float
    kappa: float = 0.0
    gamma: float = 0.0
    n_max: int = 15

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("decay rates must be >= 0")
        for name in ("j", "omega_l", "delta_n", "delta_a", "kappa", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_max < self.n:
            raise ValueError(
                f"n_max={self.n_max} < n={self.n}: the coupling term vanishes identically"
            )
        if self.n_max > N_MAX_CAP:
            raise ValueError(f"n_max={self.n_max} exceeds the cap {N_MAX_CAP}")

    @property
    def delta_sigma(self) -> float:
        """TLS drive detuning, delta_sigma = Delta^(n) + n*delta_a^(n)."""
        return self.delta_n + self.n * self.delta_a

    @property
    def dims(self) -> SpaceDims:
        return SpaceDims(self.n_max)


@dataclass(frozen=True)
class DressedData:
    """Laser-dressed TLS eigensystem: |+-> = c_plus|e> +- c_minus|g>."""

    e_plus: float
    e_minus: float
    c_plus: float
    c_minus: float
    omega: float

    @property
    def basis(self) -> np.ndarray:
        """TLS amplitudes of |+> and |-> as columns, over rows (|g>, |e>)."""
        return np.array([[self.c_minus, -self.c_plus], [self.c_plus, self.c_minus]])


@dataclass(frozen=True)
class EffectiveTwoLevel:
    """Effective 2x2 Hamiltonian [[eps1, omega_eff], [omega_eff, eps2]] on
    {|0>|+>, |n>|->} after adiabatic elimination."""

    eps1: float
    eps2: float
    omega_eff: float


@dataclass(frozen=True)
class JcEigensystem:
    """Eigensystem of the undriven rotated n-photon JC Hamiltonian.

    Levels with m < n photons are bare |g, m> at energy m*delta_a; for
    m >= n the doublets |eps_{m,+-}> = C_minus|g,m> +- C_plus|e,m-n> split
    by Omega_m.
    """

    n: int
    delta_a: float
    bare_energies: np.ndarray  # energies of |g, m> for 0 <= m < n
    m_values: np.ndarray  # m = n .. n_max
    e_plus: np.ndarray
    e_minus: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    omega_m: np.ndarray


def _detuning_terms(p: ModelParams, num, pe):
    """delta_a N + delta_sigma |e><e|, the only part of H_I that depends on delta_a.

    num and pe are N = a^dag a and |e><e|, as matrices or as their diagonals:
    the arithmetic is elementwise, so both give the same diagonal bits.
    """
    return p.delta_a * num + p.delta_sigma * pe


def build_H_I(p: ModelParams) -> np.ndarray:
    """Full rotating-frame Hamiltonian: number terms + n-photon coupling + drive."""
    a = fock_annihilation(p.dims)
    sm = tls_operator("sigma_minus", p.dims)
    an = matrix_power(a, p.n)
    number = _detuning_terms(p, a.conj().T @ a, tls_operator("excited_projector", p.dims))
    coupling = p.j * (an.conj().T @ sm + sm.conj().T @ an)
    return number + coupling + p.omega_l * tls_operator("sigma_x", p.dims)


def dressed(p: ModelParams) -> DressedData:
    """Eigensystem of the driven TLS block delta_sigma*|e><e| + Omega_L*sigma_x."""
    if p.omega_l <= 0:
        raise ValueError("dressed basis undefined for Omega_L = 0; use bare basis")
    ds = p.delta_sigma
    omega = math.sqrt(ds * ds + 4.0 * p.omega_l**2)
    # rationalized form of sqrt(2 Omega_L^2 / (Omega^2 -+ ds*Omega)): avoids
    # catastrophic cancellation when |ds| >> Omega_L
    c_plus = math.sqrt((omega + ds) / (2.0 * omega))
    c_minus = math.sqrt((omega - ds) / (2.0 * omega))
    return DressedData(
        e_plus=(ds + omega) / 2.0,
        e_minus=(ds - omega) / 2.0,
        c_plus=c_plus,
        c_minus=c_minus,
        omega=omega,
    )


def dressed_state(p: ModelParams, m: int, branch: str) -> StateVector:
    """Composite basis state |m>|+-> built from the dressed TLS amplitudes."""
    column = dressed(p).basis[:, {"+": 0, "-": 1}[branch]]
    i = p.dims.index(m, 0)
    amp = np.zeros(p.dims.total_dim, dtype=complex)
    amp[i : i + 2] = column
    return StateVector(p.dims, amp)


def resonance_detuning(p: ModelParams) -> float:
    """delta_a^(n) that makes the |0>|+> <-> |n>|-> transition resonant."""
    if p.delta_n == 0:
        raise ValueError("resonance condition unsatisfiable for Delta^(n) = 0")
    return -(p.delta_n**2 + 4.0 * p.omega_l**2) / (2.0 * p.n * p.delta_n)


def resonance_detuning_higher(p: ModelParams, mu: int, sign: int) -> float:
    """delta_a for the higher-order |0>|+-> <-> |mu*n>|-+> resonances, mu >= 2.

    sign=+1 selects the |0>|+> <-> |mu n>|-> branch, sign=-1 the other one.
    """
    if mu < 2:
        raise ValueError("mu must be >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rad = math.sqrt(mu**2 * p.delta_n**2 + 4.0 * (mu**2 - 1) * p.omega_l**2)
    return (p.delta_n + sign * rad) / (p.n * (mu**2 - 1))


def resonant_branch(p: ModelParams) -> str:
    """Which transition the shared delta_a of the resonance condition activates.

    For Delta^(n) < 0 the resonance detuning is positive and n*delta_a = +Omega,
    so |0>|+> <-> |n>|-> is resonant; for Delta^(n) > 0 it is the other pair.
    """
    if p.delta_n == 0:
        raise ValueError("no resonant branch for Delta^(n) = 0")
    return "plus_to_minus" if p.delta_n < 0 else "minus_to_plus"


def at_resonance(p: ModelParams) -> ModelParams:
    """Copy of p with delta_a set on the n-photon resonance."""
    return replace(p, delta_a=resonance_detuning(p))


def omega_eff_mollow(p: ModelParams) -> EffectiveTwoLevel:
    """Effective two-level model of the super-Rabi subspace in the Mollow regime.

    The intermediate states |0>|-> and |n>|+> are adiabatically eliminated,
    leaving a real symmetric 2x2 Hamiltonian on {|0>|+>, |n>|->} whose
    off-diagonal element is the (signed) super-Rabi frequency.
    """
    d = dressed(p)
    nfac = float(math.factorial(p.n))
    x = p.n * p.delta_a + d.e_plus
    den = nfac * p.j**2 * d.c_minus**4 - x * d.e_minus
    if den == 0:
        raise ZeroDivisionError("effective model singular: vanishing denominator")
    omega_eff = math.sqrt(nfac) * p.j * d.c_plus**2 * x * d.e_minus / den
    eps1 = (
        nfac * p.j**2 * d.c_minus**2 * (d.c_minus**2 * d.e_plus + d.c_plus**2 * d.e_minus)
        - x * d.e_plus * d.e_minus
    ) / den
    eps2 = (
        (p.n * p.delta_a + d.e_minus) * den
        + nfac * p.j**2 * d.c_plus**2 * d.c_minus**2 * x
    ) / den
    return EffectiveTwoLevel(eps1=eps1, eps2=eps2, omega_eff=omega_eff)


def jc_eigensystem(p: ModelParams) -> JcEigensystem:
    m_values = np.arange(p.n, p.n_max + 1)
    ratios = np.array([math.perm(int(m), p.n) for m in m_values], dtype=float)
    omega_m = np.sqrt(p.delta_n**2 + 4.0 * p.j**2 * ratios)
    c_plus = np.sqrt((omega_m + p.delta_n) / (2.0 * omega_m))
    c_minus = np.sqrt((omega_m - p.delta_n) / (2.0 * omega_m))
    base = (m_values - p.n / 2.0) * p.delta_a
    return JcEigensystem(
        n=p.n,
        delta_a=p.delta_a,
        bare_energies=np.arange(p.n) * p.delta_a,
        m_values=m_values,
        e_plus=base + (p.delta_sigma + omega_m) / 2.0,
        e_minus=base + (p.delta_sigma - omega_m) / 2.0,
        c_plus=c_plus,
        c_minus=c_minus,
        omega_m=omega_m,
    )


def omega_eff_jc(p: ModelParams) -> float:
    """Super-Rabi frequency of |g,0> <-> |e,n> in the strong-coupling regime."""
    nfac = float(math.factorial(p.n))
    den = p.n * p.delta_a * p.delta_sigma - nfac * p.j**2
    if den == 0:
        raise ZeroDivisionError("effective model singular: vanishing denominator")
    return p.j * math.sqrt(nfac) * p.omega_l**2 / den

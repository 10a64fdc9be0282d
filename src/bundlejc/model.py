"""Model algebra for the driven n-photon Jaynes-Cummings system.

Hamiltonians in the rotating frame, laser-dressed two-level states, the
multi-photon resonance conditions, dressed-basis transition amplitudes, and
the effective super-Rabi frequencies in both the strong-drive (Mollow) and
strong-coupling (JC) regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import matrix_power

from .hilbert import Operator, SpaceDims, StateVector, fock_annihilation, tls_operator

__all__ = [
    "ModelParams",
    "DressedData",
    "TransitionTable",
    "EffectiveTwoLevel",
    "JcEigensystem",
    "frame_map",
    "build_H_I",
    "build_H0",
    "build_H_jc",
    "dressed",
    "dressed_state",
    "transition_table",
    "resonance_detuning",
    "resonance_detuning_higher",
    "resonant_branch",
    "at_resonance",
    "omega_eff_mollow",
    "jc_eigensystem",
    "omega_eff_jc",
]

# Run time, not precision, sets the cap: the dense eigendecomposition of the
# k = 0 Liouvillian block (the first g_N^(2)(tau) propagation) takes about
# 1.7-1.85 s at n = 2, n_max = 20 on a 2-vCPU host (0.19 s at n_max = 12).
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


@dataclass(frozen=True)
class TransitionTable:
    """Dressed-basis transition data for the n-photon coupling term.

    amplitude[(s, r)] is the matrix element <s|sigma_-|r> for s, r in '+-'.
    The m-dependent coupling magnitude is J*sqrt((m+n)!/m!) and the phase of
    the |m>|r> -> |m+n>|s> term rotates at E_s - E_r + n*delta_a.
    """

    n: int
    j: float
    delta_a: float
    dressed_data: DressedData
    amplitude: dict

    def magnitude(self, m: int) -> float:
        return self.j * math.sqrt(math.perm(m + self.n, self.n))

    def oscillation_detuning(self, s: str, r: str) -> float:
        e = {"+": self.dressed_data.e_plus, "-": self.dressed_data.e_minus}
        return e[s] - e[r] + self.n * self.delta_a


@dataclass(frozen=True)
class EffectiveTwoLevel:
    """Effective 2x2 Hamiltonian on {|0>|+>, |n>|->} after adiabatic elimination."""

    eps1: float
    eps2: float
    omega_eff: float

    basis_labels = ("|0>|+>", "|n>|->")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.eps1, self.omega_eff], [self.omega_eff, self.eps2]], dtype=float
        )


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

    def eigenvector(self, dims: SpaceDims, m: int, branch: str) -> StateVector:
        """Full-space eigenvector |eps_{m,+-}> for m >= n."""
        k = int(np.searchsorted(self.m_values, m))
        if k >= len(self.m_values) or self.m_values[k] != m:
            raise ValueError(f"m={m} has no dressed doublet (need m >= n)")
        amp = np.zeros(dims.total_dim, dtype=complex)
        sign = {"+": 1.0, "-": -1.0}[branch]
        cpm = self.c_plus[k] if branch == "+" else self.c_minus[k]
        cmp_ = self.c_minus[k] if branch == "+" else self.c_plus[k]
        amp[dims.index(m, 0)] = cmp_
        amp[dims.index(m - self.n, 1)] = sign * cpm
        return StateVector(dims, amp)


def frame_map(omega_a: float, omega_0: float, omega_l: float, n: int):
    """Map lab-frame frequencies to rotating-frame detunings.

    Returns (delta_a, delta_sigma, delta_n).  delta_sigma is computed as
    delta_n + n*delta_a so the identity holds exactly in floating point.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    delta_a = omega_a - omega_l / n
    delta_n = omega_0 - n * omega_a
    delta_sigma = delta_n + n * delta_a
    return delta_a, delta_sigma, delta_n


def _coupling_term(p: ModelParams) -> np.ndarray:
    a = fock_annihilation(p.dims).mat
    sm = tls_operator("sigma_minus", p.dims).mat
    an = matrix_power(a, p.n)
    return p.j * (an.conj().T @ sm + sm.conj().T @ an)


def _detuning_terms(p: ModelParams, num, pe):
    """delta_a N + delta_sigma |e><e|, the only part of H_I that depends on delta_a.

    num and pe are N = a^dag a and |e><e|, as matrices or as their diagonals:
    the arithmetic is elementwise, so both give the same diagonal bits.
    """
    return p.delta_a * num + p.delta_sigma * pe


def _drive_free_diag(p: ModelParams) -> np.ndarray:
    a = fock_annihilation(p.dims).mat
    pe = tls_operator("excited_projector", p.dims).mat
    return _detuning_terms(p, a.conj().T @ a, pe)


def build_H_I(p: ModelParams) -> Operator:
    """Full rotating-frame Hamiltonian: number terms + n-photon coupling + drive."""
    sx = tls_operator("sigma_x", p.dims).mat
    return Operator(p.dims, _drive_free_diag(p) + _coupling_term(p) + p.omega_l * sx)


def build_H0(p: ModelParams) -> Operator:
    """Driven Hamiltonian without the n-photon coupling (J term dropped)."""
    sx = tls_operator("sigma_x", p.dims).mat
    return Operator(p.dims, _drive_free_diag(p) + p.omega_l * sx)


def build_H_jc(p: ModelParams) -> Operator:
    """Undriven rotated n-photon JC Hamiltonian (drive term dropped)."""
    return Operator(p.dims, _drive_free_diag(p) + _coupling_term(p))


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
    d = dressed(p)
    sign = {"+": 1.0, "-": -1.0}[branch]
    c_e = d.c_plus if branch == "+" else d.c_minus
    c_g = d.c_minus if branch == "+" else d.c_plus
    amp = np.zeros(p.dims.total_dim, dtype=complex)
    amp[p.dims.index(m, 1)] = c_e
    amp[p.dims.index(m, 0)] = sign * c_g
    return StateVector(p.dims, amp)


def transition_table(p: ModelParams) -> TransitionTable:
    d = dressed(p)
    amplitude = {
        ("+", "+"): d.c_plus * d.c_minus,
        ("+", "-"): d.c_minus**2,
        ("-", "+"): -d.c_plus**2,
        ("-", "-"): -d.c_plus * d.c_minus,
    }
    return TransitionTable(
        n=p.n, j=p.j, delta_a=p.delta_a, dressed_data=d, amplitude=amplitude
    )


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

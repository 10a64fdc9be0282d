"""Reference computations for the benchmark's correctness checks.

Nothing here calls a ``bundlejc`` builder.  The Hamiltonian and Liouvillian
are assembled from numpy ``kron`` products of the ladder operators, the
steady state is the SVD null vector of L, regression propagation uses
``scipy.linalg.expm`` and unitary propagation uses ``eigh``.  The basis
ordering is the library's documented one: |m>|s> sits at index 2*m + s, with
s = 0 for |g> and s = 1 for |e>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Point:
    """One model point, in the units of the [model] config section."""

    n: int
    j: float
    omega_l: float
    delta_n: float
    n_max: int
    kappa: float = 0.0
    gamma: float = 0.0

    def model_section(self, delta_a: str = "resonance") -> str:
        return (
            f"[model]\nn = {self.n}\nj = {self.j!r}\nomega_l = {self.omega_l!r}\n"
            f"delta_n = {self.delta_n!r}\ndelta_a = {delta_a}\n"
            f"kappa = {self.kappa!r}\ngamma = {self.gamma!r}\nn_max = {self.n_max}\n"
        )

    @property
    def resonance(self) -> float:
        """delta_a on the |0>|+> <-> |n>|-> resonance."""
        return -(self.delta_n**2 + 4.0 * self.omega_l**2) / (2.0 * self.n * self.delta_n)

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


def ladder(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Photon annihilation a and TLS lowering sigma_- on the composite space."""
    nf = n_max + 1
    a = np.kron(np.diag(np.sqrt(np.arange(1.0, nf)), 1), np.eye(2))
    sm = np.kron(np.eye(nf), np.array([[0.0, 1.0], [0.0, 0.0]]))
    return a, sm


def hamiltonian(pt: Point, delta_a: float) -> np.ndarray:
    """delta_a a^dag a + delta_sigma sigma_+ sigma_- + J(a^dag^n sigma_- + h.c.)
    + Omega_L sigma_x, with delta_sigma = Delta + n delta_a."""
    a, sm = ladder(pt.n_max)
    an = np.linalg.matrix_power(a, pt.n)
    coupling = an.T @ sm
    return (
        delta_a * (a.T @ a)
        + (pt.delta_n + pt.n * delta_a) * (sm.T @ sm)
        + pt.j * (coupling + coupling.T)
        + pt.omega_l * (sm + sm.T)
    )


def liouvillian(pt: Point, delta_a: float) -> np.ndarray:
    """Dense L acting on column-stacked rho, built with kron."""
    h = hamiltonian(pt, delta_a)
    eye = np.eye(pt.dim)
    lmat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    a, sm = ladder(pt.n_max)
    for rate, c in ((pt.kappa, a), (pt.gamma, sm)):
        cdc = c.T @ c
        lmat += rate * (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye))
    return lmat


def steady_state(lmat: np.ndarray) -> np.ndarray:
    """Density matrix spanning the null space of L, from its SVD."""
    d = math.isqrt(lmat.shape[0])
    _, svals, vh = np.linalg.svd(lmat)
    if not (svals[-1] < 1e-10 * svals[0] < svals[-2]):
        raise RuntimeError(f"null space of L is not one-dimensional: {svals[-2:]}")
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = rho / np.trace(rho)
    return (rho + rho.conj().T) / 2.0


def photon_distribution(rho: np.ndarray) -> np.ndarray:
    pops = np.diagonal(rho).real
    return pops[0::2] + pops[1::2]


def g_equal_time(pops: np.ndarray, ell: int) -> float:
    """sum_m m!/(m-ell)! P_m / <N>^ell, from the photon distribution alone."""
    m = np.arange(len(pops), dtype=float)
    falling = np.ones_like(m)
    for k in range(ell):
        falling *= m - k
    return float(falling @ pops / (m @ pops) ** ell)


def g_bundle(lmat: np.ndarray, rho: np.ndarray, pt: Point, requests) -> np.ndarray:
    """Quantum-regression g_N^(2)(tau): Tr[a^dagN a^N e^{L tau}(a^N rho a^dagN)]
    over Tr[a^dagN a^N rho]^2, for each (N, tau) in ``requests``; one expm per
    distinct tau."""
    d = rho.shape[0]
    a, _ = ladder(pt.n_max)
    propagators = {tau: scipy.linalg.expm(lmat * tau) for _, tau in requests}
    out = []
    for order, tau in requests:
        an = np.linalg.matrix_power(a, order)
        meas = an.T @ an
        denom = np.trace(meas @ rho).real
        xt = propagators[tau] @ (an @ rho @ an.T).flatten(order="F")
        out.append(np.trace(meas @ xt.reshape((d, d), order="F")).real / denom**2)
    return np.array(out)


def dressed_pair(pt: Point, delta_a: float) -> tuple[np.ndarray, np.ndarray]:
    """(|+>, |->) of delta_sigma |e><e| + Omega_L sigma_x in the (g, e) basis."""
    ds = pt.delta_n + pt.n * delta_a
    _, vecs = np.linalg.eigh(np.array([[0.0, pt.omega_l], [pt.omega_l, ds]]))
    return vecs[:, 1], vecs[:, 0]


def fock_tls(pt: Point, m: int, tls: np.ndarray) -> np.ndarray:
    """|m> (x) tls on the composite space."""
    fock = np.zeros(pt.n_max + 1)
    fock[m] = 1.0
    return np.kron(fock, tls)


def unitary_history(h: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) psi0 at each t, from the eigendecomposition of H."""
    evals, evecs = np.linalg.eigh(h)
    c0 = evecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(np.asarray(times), evals))
    return (phases * c0) @ evecs.T

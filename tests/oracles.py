"""Dense oracles that only the tests use, kept apart from the library code
they check: the driven Hamiltonian without the n-photon coupling (its
spectrum is the dressed ladder), the undriven n-photon JC Hamiltonian and its
doublet eigenvectors, one dressed-state population at a time, a
Liouvillian applied to a matrix, and the steady state by one direct sparse LU.
"""

import numpy as np
import scipy.sparse as sp
from numpy.linalg import matrix_power
from scipy.sparse.linalg import splu

from bundlejc.dynamics import unvec, vec
from bundlejc.hilbert import DensityMatrix, StateVector, fock_annihilation, tls_operator
from bundlejc.model import dressed_state


def _number_terms(p):
    """delta_a N + delta_sigma |e><e|, the diagonal of every rotating-frame H."""
    a = fock_annihilation(p.dims)
    pe = tls_operator("excited_projector", p.dims)
    return p.delta_a * (a.conj().T @ a) + p.delta_sigma * pe


def build_H0(p):
    """Driven Hamiltonian without the n-photon coupling (J term dropped)."""
    return _number_terms(p) + p.omega_l * tls_operator("sigma_x", p.dims)


def build_H_jc(p):
    """Undriven rotated n-photon JC Hamiltonian (drive term dropped)."""
    an = matrix_power(fock_annihilation(p.dims), p.n)
    sm = tls_operator("sigma_minus", p.dims)
    return _number_terms(p) + p.j * (an.conj().T @ sm + sm.conj().T @ an)


def jc_eigenvector(eig, dims, m, branch):
    """Amplitudes of the JC doublet state |eps_{m,+-}> = C_-+|g,m> +- C_+-|e,m-n>
    of a JcEigensystem, for m >= n."""
    k = int(np.searchsorted(eig.m_values, m))
    if k >= len(eig.m_values) or eig.m_values[k] != m:
        raise ValueError(f"m={m} has no dressed doublet (need m >= n)")
    amp = np.zeros(dims.total_dim, dtype=complex)
    sign = {"+": 1.0, "-": -1.0}[branch]
    cpm = eig.c_plus[k] if branch == "+" else eig.c_minus[k]
    cmp_ = eig.c_minus[k] if branch == "+" else eig.c_plus[k]
    amp[dims.index(m, 0)] = cmp_
    amp[dims.index(m - eig.n, 1)] = sign * cpm
    return amp


def dressed_population(state: StateVector | DensityMatrix, p, m, branch):
    """Population of |m>|+-> from the full-space dressed state, one entry at a time."""
    v = dressed_state(p, m, branch).amp
    if isinstance(state, StateVector):
        return float(abs(np.vdot(v, state.amp)) ** 2)
    return float(np.real(v.conj() @ state.mat @ v))


def apply_liouvillian(L, rho):
    """L rho, as a matrix, through the column-stacked vectorization."""
    return unvec(L.mat @ vec(rho), L.params.dims.total_dim)


def lu_steady_state(L):
    """Steady state of L by one sparse LU on its own k = 0 block K, with row 0
    replaced by the trace row; no residual check and no fallback."""
    d = L.params.dims.total_dim
    idx = L.sectors[0]
    trace_row = sp.csr_array(vec(np.eye(d))[idx][None, :])
    b = np.zeros(len(idx), dtype=complex)
    b[0] = 1.0
    x = np.zeros(d * d, dtype=complex)
    x[idx] = splu(sp.vstack([trace_row, L.block(0)[1:]], format="csc")).solve(b)
    rho = unvec(x, d)
    rho = (rho + rho.conj().T) / 2.0
    return rho / rho.trace().real

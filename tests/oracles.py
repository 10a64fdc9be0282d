"""Dense oracles that only the tests use, kept apart from the library code
they check: the driven Hamiltonian without the n-photon coupling (its
spectrum is the dressed ladder), the undriven n-photon JC Hamiltonian and its
doublet eigenvectors, one dressed-state population at a time, the k = 0
part of a Liouvillian applied to a matrix, the steady state by one direct
sparse LU, the
density matrix |psi><psi| of a pure state, a density-matrix invariant check,
and the ensemble average of trajectory records.
"""

import math

import numpy as np
import scipy.sparse as sp
from numpy.linalg import matrix_power
from scipy.sparse.linalg import splu

from bundlejc.dynamics import unvec, vec
from bundlejc.hilbert import fock_annihilation, tls_operator
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


def dressed_population(state, p, m, branch):
    """Population of |m>|+-> from the full-space dressed state, one entry at a
    time; state is amplitudes of shape (d,) or a density matrix (d, d)."""
    v = dressed_state(p, m, branch)
    if state.ndim == 1:
        return float(abs(np.vdot(v, state)) ** 2)
    return float(np.real(v.conj() @ state @ v))


def apply_liouvillian(L, rho):
    """The k = 0 part of L rho, as a matrix (every other entry 0), through the
    column-stacked vectorization: L is block-diagonal in k, so it is K = L.mat
    applied to the k = 0 entries of rho."""
    d = L.params.dims.total_dim
    x = np.zeros(d * d, dtype=complex)
    x[L.idx] = L.mat @ vec(rho)[L.idx]
    return unvec(x, d)


def lu_steady_state(L):
    """Steady state of L by one sparse LU on its k = 0 block K, with row 0
    replaced by the trace row; no residual check and no fallback."""
    d = L.params.dims.total_dim
    trace_row = sp.csr_array(vec(np.eye(d))[L.idx][None, :])
    b = np.zeros(len(L.idx), dtype=complex)
    b[0] = 1.0
    x = np.zeros(d * d, dtype=complex)
    x[L.idx] = splu(sp.vstack([trace_row, L.mat[1:]], format="csc")).solve(b)
    rho = unvec(x, d)
    rho = (rho + rho.conj().T) / 2.0
    return rho / rho.trace().real


def pure_density(psi):
    """|psi><psi| of the amplitudes psi, as a (d, d) density matrix."""
    return np.outer(psi, psi.conj())


def check_density_matrix(rho):
    """Raise a ValueError unless rho is Hermitian, trace-one and positive; each
    test is written so that a NaN fails it."""
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= 1e-10:
        raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
    tr = rho.trace()
    if not abs(tr - 1.0) <= 1e-8:
        raise ValueError(f"density matrix trace {tr} deviates from 1")
    ev_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if not ev_min >= -1e-8:
        raise ValueError(f"density matrix not positive: min eigenvalue {ev_min:.3e}")


def trajectory_average(records, observable):
    """(times, mean, standard error) of <psi|O|psi> over two or more
    trajectory records that share one sample grid."""
    states = np.stack([rec.states for rec in records])
    vals = np.einsum("rti,ij,rtj->rt", states.conj(), observable, states).real
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(len(records))
    return records[0].times, vals.mean(axis=0), stderr

"""Time evolution: Schrodinger integration, Lindblad dynamics, steady states,
and Monte Carlo wave-function (quantum-jump) trajectories.

The Liouvillian acts on the column-stacked vectorization of rho.  H, a and
sigma_- all conserve k = (m - m') mod n, where m and m' are the photon
numbers of the row and column of rho, so L is block-diagonal in k (a weak
symmetry).  The steady state and the regression operators a^N rho_ss a^dagN
of the delayed correlations all lie in k = 0, so only the k = 0 block K is
assembled (_k0_triplets), and every consumer refuses an operator with an
entry in another sector.  SteadyStateWorkspace factors K straight from its
triplets, as a band along the n-photon excitation ladder; build_liouvillian
sums them into a CSR matrix, which the spectral propagator eigendecomposes
once, as a real matrix in a Hermitian operator basis.  H and L do not depend
on time, so each equation of motion has one propagator, an
eigendecomposition, which is exact at the sample times; a delayed
correlation is contracted in the eigenbasis of K
(LiouvillePropagator.expectation), never forming the propagated operators.

scipy is imported only where K is built or factored.  steady_state(p) and
the steady-state solve load only scipy's LAPACK (0.21-0.30 s of start-up
after numpy); LiouvillePropagator(p) builds the Liouvillian and loads
scipy.sparse too (12-19 ms more), so only the g2tau preset loads it.
Schrodinger propagation and the quantum-jump trajectories need only numpy.
multiprocessing is imported only where run_trajectories starts its worker
pool (about 15 ms), so a lone trajectory (run in-process) and every
Liouvillian path never load it.  The module is kept whole rather than split
along these lines, because the benchmark tracer (perfbench/tracing.py) wraps
the functions whose __module__ is bundlejc.dynamics and reads
bundlejc.dynamics.LiouvillePropagator.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import TYPE_CHECKING

import numpy as np

from .hilbert import _check_shape, fock_annihilation, tls_operator
from .model import GRID_CAP, ModelParams, _detuning_terms, build_H_I

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Liouvillian",
    "TrajectoryRecord",
    "TruncationError",
    "schrodinger_evolve",
    "build_liouvillian",
    "LiouvillePropagator",
    "steady_state",
    "SteadyStateWorkspace",
    "run_trajectories",
]

TAIL_TOL = 1e-8
EPS = float(np.finfo(float).eps)


class TruncationError(RuntimeError):
    """Population reached the highest kept Fock level; n_max is too small."""


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat).flatten(order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def _check_psi0(psi0: np.ndarray, d: int) -> float:
    """The norm of psi0; raises unless psi0 has shape (d,) and unit norm
    (written so that a NaN norm fails too)."""
    _check_shape("psi0", psi0, (d,))
    norm = float(np.linalg.norm(psi0))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"psi0 must be normalized; its norm is {norm}")
    return norm


def schrodinger_evolve(H: np.ndarray, psi0: np.ndarray, t_grid) -> np.ndarray:
    """Solve i dpsi/dt = H psi exactly at the grid times (eigh of H), from the
    amplitudes psi0; returns the amplitudes at each grid time.  The grid must
    be non-empty and finite; it may run backward, as unitary evolution does.
    No renormalization is applied: norm drift beyond 1e-5 aborts, because it
    means the eigenbasis was not unitary.
    """
    d = len(psi0) if np.ndim(psi0) else len(np.atleast_1d(H))  # 0-d: refused next
    _check_psi0(psi0, d)
    _check_shape("H", H, (d, d))
    herm = np.max(np.abs(H - H.conj().T))
    if not herm < 1e-10:  # written so that a NaN deviation fails too
        raise ValueError(f"H must be Hermitian: max |H - H^dag| = {herm:.3e}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not len(t_grid):
        raise ValueError(f"t_grid must be a non-empty 1-D grid; got shape {t_grid.shape}")
    if not np.isfinite(t_grid).all():
        raise ValueError(f"t_grid must hold finite times; got {t_grid[~np.isfinite(t_grid)][0]}")
    evals, evecs = np.linalg.eigh(H)
    c0 = evecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(t_grid - t_grid[0], evals))
    history = (phases * c0) @ evecs.T

    drift = np.abs(np.linalg.norm(history, axis=1) - 1.0).max()
    if not drift <= 1e-5:
        raise RuntimeError(f"norm drift {drift:.3e} > 1e-5")
    return history


@cache
def _csr_class() -> type[sp.csr_array]:
    """The CSR array class of L.mat: it reports the bytes it stores (data,
    indices, indptr).  Made on first use, so importing this module loads no
    scipy."""
    import scipy.sparse as sp

    class _CSR(sp.csr_array):
        @property
        def nbytes(self) -> int:
            return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    return _CSR


def _sector(idx: np.ndarray, d: int, n: int) -> np.ndarray:
    """k = (m_i - m_j) mod n of each vec index idx = i + d j (index i is 2m_i + s)."""
    j, i = np.divmod(idx, d)
    return (i // 2 - j // 2) % n


@dataclass(frozen=True)
class Liouvillian:
    """The k = 0 block K of L on column-stacked rho, built from params: idx
    holds, in increasing order, the vec indices of the entries rho[i, j] with
    (m_i - m_j) mod n = 0, and mat[p, q] is the entry of L between idx[p] and
    idx[q].  L has no entry between two values of k."""

    params: ModelParams
    mat: sp.csr_array  # of _csr_class()
    idx: np.ndarray

    def k0_entries(self, op: np.ndarray, name: str) -> np.ndarray:
        """vec(op) at idx; a DimensionMismatchError names op (as name) unless it
        is (d, d), and a ValueError names the sector of an entry outside k = 0."""
        _check_shape(name, op, (self.params.dims.total_dim,) * 2)
        v = vec(op)
        if np.count_nonzero(v[self.idx]) != np.count_nonzero(v):
            k = _sector(np.flatnonzero(v), self.params.dims.total_dim, self.params.n)
            raise ValueError(f"{name} has support in sector k={k[k > 0].min()}; L holds k=0 only")
        return v[self.idx]


def _kron_coo(x: np.ndarray, y: np.ndarray):
    """COO triplets (rows, cols, values) of kron(x, y), from the nonzeros only."""
    rx, cx = np.nonzero(x)
    ry, cy = np.nonzero(y)
    n = y.shape[0]
    rows = (rx[:, None] * n + ry).ravel()
    cols = (cx[:, None] * n + cy).ravel()
    vals = (x[rx, cx][:, None] * y[ry, cy]).ravel()
    return rows, cols, vals


def _decay_channels(p: ModelParams) -> list[tuple[float, np.ndarray]]:
    """(rate, C) of the two decay channels, cavity first: kappa a, gamma sigma_-."""
    return [
        (p.kappa, fock_annihilation(p.dims)),
        (p.gamma, tls_operator("sigma_minus", p.dims)),
    ]


def _damped_generator(h, decays) -> np.ndarray:
    """G = -i H - (1/2) sum_c rate_c C^dag C from h = H and decays =
    [(rate_c, C^dag C)], given as matrices or as their diagonals (elementwise,
    so the diagonal bits agree)."""
    g = -1j * h
    for rate, cdc in decays:
        g = g - 0.5 * rate * cdc
    return g


def _k0_triplets(p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """idx (as in Liouvillian) and the COO triplets (rows, cols, vals) over it
    of the k = 0 block K of L(rho) = -i[H_I, rho] + kappa D[a] rho +
    gamma D[sigma_-] rho; none is 0, and only a diagonal entry has two.

    Written as L rho = G rho + rho G^dag + sum_c rate_c C rho C^dag with
    G = -i H_I - (1/2) sum_c rate_c C^dag C, from the nonzeros of the d x d
    operators: vec(X rho Y) = kron(Y^T, X) vec(rho), keeping the triplets
    whose row (and so column) lies in k = 0.
    """
    d = p.dims.total_dim
    jumps = [(rate, c) for rate, c in _decay_channels(p) if rate > 0]
    g = _damped_generator(build_H_I(p), [(rate, c.conj().T @ c) for rate, c in jumps])
    eye = np.eye(d)
    terms = [_kron_coo(eye, g), _kron_coo(g.conj(), eye)]
    terms += [_kron_coo(c.conj(), rate * c) for rate, c in jumps]
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*terms))
    idx = np.flatnonzero(_sector(np.arange(d * d), d, p.n) == 0)
    keep = _sector(rows, d, p.n) == 0
    return idx, np.searchsorted(idx, rows[keep]), np.searchsorted(idx, cols[keep]), vals[keep]


def build_liouvillian(p: ModelParams) -> Liouvillian:
    """The k = 0 block of L at p: _k0_triplets summed in a CSR with no zero."""
    idx, rows, cols, vals = _k0_triplets(p)
    kmat = _csr_class()((vals, (rows, cols)), shape=(len(idx),) * 2)
    kmat.eliminate_zeros()
    return Liouvillian(p, kmat, idx)


def _hermitian_basis(idx: np.ndarray, d: int) -> sp.csr_array:
    """Unitary T from the vec coordinates idx of a sector closed under the
    adjoint to the orthonormal Hermitian basis {|i><i|, (|i><j| + |j><i|)/sqrt2,
    i(|i><j| - |j><i|)/sqrt2}.  Row p is the basis element of entry p, so T x
    is real when x holds the sector's entries of a Hermitian operator."""
    import scipy.sparse as sp

    j, i = np.divmod(idx, d)
    off = np.flatnonzero(i != j)
    mate = np.searchsorted(idx, i[off] * d + j[off])  # position of entry (j, i)
    vals = np.ones(len(idx), dtype=complex)
    vals[off] = np.where(i[off] < j[off], 1, 1j) / math.sqrt(2)
    rows = np.r_[np.arange(len(idx)), off]
    cols = np.r_[np.arange(len(idx)), mate]
    return sp.csr_array((np.r_[vals, vals[off].conj()], (rows, cols)), shape=(len(idx),) * 2)


class LiouvillePropagator:
    """Spectral form of exp(L t) on the k = 0 sector, the one that holds the
    steady state and every regression operator a^N rho_ss a^dagN, for the
    model p (L = build_liouvillian(p)) or for a Liouvillian, used as built.

    The sector is closed under the adjoint and L maps Hermitian operators to
    Hermitian ones, so its block K is decomposed once, here, as the real
    matrix T K T^dag = W diag(lambda) W^-1 (T from _hermitian_basis) at about
    half the cost of a complex eig.  As X = T^dag (T X) for any X, arbitrary
    (not necessarily trace-one or Hermitian) k = 0 operators propagate, as
    the two-time regression pathway needs:
    exp(L tau) x = sum_i exp(lambda_i tau) c_i T^dag w_i, with x the k = 0
    entries of X and c = W^-1 T x.  W is never inverted: c comes from one
    real np.linalg.solve per operator (_coefficients).  propagate forms those
    operators; expectation contracts a measurement with them in the
    eigenbasis and forms none.

    The real form has real eigenvalues and conjugate pairs.  LAPACK's dgeev
    returns each pair together, the one with positive imaginary part first,
    with eigenvectors v and conj(v); its real eigenvector matrix V holds
    Re v and Im v in their place, and costs a real solve where W costs a
    complex one.
    """

    def __init__(self, p: ModelParams | Liouvillian):
        self.L = L = p if isinstance(p, Liouvillian) else build_liouvillian(p)
        self._t = _hermitian_basis(L.idx, L.params.dims.total_dim)
        real_form = self._t @ L.mat @ self._t.conj().T
        imag = np.abs(real_form.data.imag).max(initial=0.0)
        if imag > 1e-14 * np.abs(real_form.data.real).max(initial=0.0):
            raise RuntimeError(f"sector k=0 not real in the Hermitian basis: {imag:.3e}")
        self._evals, self._w = np.linalg.eig(real_form.real.toarray())
        self._pairs = np.flatnonzero(self._evals.imag > 0)  # v; conj(v) follows
        self._vr = self._w.real.copy()
        self._vr[:, self._pairs + 1] = self._w[:, self._pairs].imag
        # one member of each conjugate pair, then the real eigenvalues
        self._half = np.r_[self._pairs, np.flatnonzero(self._evals.imag == 0)]

    def _coefficients(self, op_mat: np.ndarray, taus) -> tuple[np.ndarray, np.ndarray]:
        """taus as a float grid and the eigenbasis coefficients c = W^-1 T x of
        op_mat.  Raises a ValueError naming taus unless they are one delay or a
        non-empty 1-D grid of finite delays >= 0 (L is dissipative: it does
        not run backward); k0_entries refuses an op_mat not (d, d) or with an
        entry outside k = 0.

        T x = V y is solved in real arithmetic, its real and imaginary parts
        as two right-hand sides.  Re v = (v + conj(v))/2 and Im v =
        (v - conj(v))/2i, so a pair's coefficients on v and conj(v) are
        (y_v -+ i y_conj(v))/2; a real eigenvector keeps its y."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        if taus.ndim != 1 or not len(taus):
            raise ValueError(f"taus must be a non-empty 1-D grid; got shape {taus.shape}")
        bad = taus[~(np.isfinite(taus) & (taus >= 0))]
        if len(bad):
            raise ValueError(f"taus must be finite and >= 0; got {bad[0]:g}")
        u = self._t @ self.L.k0_entries(op_mat, "op_mat")
        c = np.linalg.solve(self._vr, np.column_stack([u.real, u.imag])) @ [1, 1j]
        p = self._pairs
        c[p], c[p + 1] = (c[p] - 1j * c[p + 1]) / 2, (c[p] + 1j * c[p + 1]) / 2
        return taus, c

    def propagate(self, op_mat: np.ndarray, taus) -> np.ndarray:
        """Returns an array of operators exp(L tau) op_mat, one per tau, with
        the refusals of _coefficients."""
        taus, coeffs = self._coefficients(op_mat, taus)
        d, idx = self.L.params.dims.total_dim, self.L.idx
        out = np.zeros((len(taus), d * d), dtype=complex)
        evecs = self._t.conj().T @ self._w
        out[:, idx] = (np.exp(np.outer(taus, self._evals)) * coeffs) @ evecs.T
        return out.reshape((len(taus), d, d)).transpose(0, 2, 1)

    def expectation(self, meas: np.ndarray, op_mat: np.ndarray, taus) -> np.ndarray:
        """Tr[meas exp(L tau) op_mat], one complex value per tau, with the
        refusals of _coefficients and a DimensionMismatchError naming meas
        unless it is (d, d).

        Contracted in the eigenbasis: Tr[M X] = vec(M^T) . vec(X), so with m
        the k = 0 entries of vec(meas^T) (X has no others) each value is
        sum_i exp(lambda_i tau) (m . T^dag w_i) c_i.  The measurement is
        projected onto the eigenvectors once; the grid then costs one exp of
        the tau x lambda table, over one member of each conjugate pair since
        exp(conj(lambda) tau) = conj(exp(lambda tau)), and two matrix-vector
        products.  No operator is formed."""
        taus, coeffs = self._coefficients(op_mat, taus)
        _check_shape("meas", meas, (self.L.params.dims.total_dim,) * 2)
        m = (vec(meas.T)[self.L.idx] @ self._t.conj().T) @ self._w
        k, p = m * coeffs, self._pairs
        table = np.outer(taus, self._evals[self._half])
        np.exp(table, out=table)  # in place: one table at peak
        return table @ k[self._half] + (table[:, : len(p)] @ k[p + 1].conj()).conj()


def steady_state(p: ModelParams | Liouvillian) -> np.ndarray:
    """Unique stationary density matrix of p (of L.params, given a Liouvillian
    L): SteadyStateWorkspace(p) solved at p.delta_a.  Raises TruncationError if
    the top Fock level holds population TAIL_TOL or more, a check the solve skips."""
    p = p.params if isinstance(p, Liouvillian) else p
    rho = SteadyStateWorkspace(p).solve(p.delta_a)
    dims = p.dims
    i = dims.index(dims.n_max, 0)  # |n_max, g>; |n_max, e> follows
    tail = float(rho[i, i].real + rho[i + 1, i + 1].real)
    if tail >= TAIL_TOL:
        raise TruncationError(f"top Fock level holds population {tail:.3e} >= "
                              f"{TAIL_TOL:.1e}; increase n_max")
    return rho


class SteadyStateWorkspace:
    """The steady-state system of the k = 0 block K of p along delta_a, built
    once from _k0_triplets.

    delta_a enters H_I only on its diagonal, as delta_a (N + n |e><e|) (since
    delta_sigma = Delta + n delta_a), so it moves only the diagonal of L:
    L_(i,j),(i,j) = G_ii + conj(G_jj), with G = -i H_I - (1/2) sum_c rate_c
    C^dag C.  That entry is constant for a population (i = j).  The
    constrained form of K (row 0 replaced by the nonzeros of the trace row) is
    kept as its entries (_rows, _cols, _data) in CSC order, every coherence
    diagonal among them; summed from at most two triplets each, they are the
    entries of build_liouvillian's K bit for bit.  `solve` rewrites the
    coherence diagonals from the d diagonal values of G, with the arithmetic
    of build_liouvillian, and factors afresh.

    The unknowns are ordered once, along the excitation ladder: entry
    rho[(m, s), (m', s')] by the key 2 (m' - m)/n + s' - s.  H changes the
    key by exactly 1 (its coupling moves (m, s) by (-+n, +-1), its drive
    flips s) and the decays keep it, so the constrained system is
    block-tridiagonal in the key at every delta_a: kl = ku = 2(n_max + 1) at
    any n once j or omega_l is nonzero.  The band-storage position of each
    stored entry is kept, so each solve is one scatter, one LAPACK zgbsv, a
    condition estimate of the factor (zgbcon) and one refinement step.
    """

    def __init__(self, p: ModelParams):
        if not p.kappa > 0:
            raise ValueError(f"kappa must be > 0 for a unique steady state; got {p.kappa}")
        d = p.dims.total_dim
        self._p = p
        a = fock_annihilation(p.dims)
        self._num = np.diagonal(a.conj().T @ a)  # as build_H_I forms N: sqrt(m)^2, not m
        self._pe = np.diagonal(tls_operator("excited_projector", p.dims))
        self._decays = [
            (rate, np.diagonal(c.conj().T @ c)) for rate, c in _decay_channels(p) if rate > 0
        ]
        self._idx, rows, cols, vals = _k0_triplets(p)
        size = len(self._idx)
        col, row = np.divmod(self._idx, d)  # entry e is rho[row[e], col[e]]
        pops, moving = np.flatnonzero(row == col), np.flatnonzero(row != col)
        self._j, self._i = col[moving], row[moving]
        # the entries in CSC order (by column, then row): row 0 gives way to
        # the trace row, 1 at each population, and every coherence diagonal
        # is stored; the triplets of an entry are added in the order given
        kept = rows != 0
        keys = np.r_[pops * size, cols[kept] * size + rows[kept], moving * (size + 1)]
        keys, at = np.unique(keys, return_inverse=True)
        vals = np.r_[np.ones(len(pops)), vals[kept], np.zeros(len(moving))]
        self._cols, self._rows = np.divmod(keys, size)
        self._data = np.empty(len(keys), dtype=complex)
        self._data.real, self._data.imag = np.bincount(at, vals.real), np.bincount(at, vals.imag)
        self._diag = np.searchsorted(keys, moving * (size + 1))
        self._starts = np.flatnonzero(np.diff(self._cols, prepend=-1))  # none is empty

        # the ladder ordering, by key, then m, s and s' (the trace row lies in
        # key 0): entry e of the k = 0 system is entry where[e] of the
        # reordered one, banded with kl sub- and ku superdiagonals
        (m, s), (m_col, s_col) = np.divmod(row, 2), np.divmod(col, 2)
        perm = np.lexsort((s_col, s, m, 2 * (m_col - m) // p.n + s_col - s))
        self._where = np.argsort(perm)
        r, c = self._where[self._rows], self._where[self._cols]
        self._kl, self._ku = int(np.max(r - c)), int(np.max(c - r))
        # LAPACK band storage: A[r, c] at ab[kl + ku + r - c, c]; the top kl
        # rows of ab take the factor's fill-in
        self._band = (self._kl + self._ku + r - c, c)
        self._rhs = np.zeros((size, 1), dtype=complex)
        self._rhs[self._where[0], 0] = 1.0  # row 0 is the trace row: Tr rho = 1

    def _product(self, x: np.ndarray) -> np.ndarray:
        """A x for the constrained system A as last written, in real arithmetic
        and CSC order: scipy's CSC product, bit for bit."""
        ar, ai = self._data.real, self._data.imag
        xr, xi = x.real[self._cols], x.imag[self._cols]
        y = np.empty(len(x), dtype=complex)
        y.real = np.bincount(self._rows, ar * xr - ai * xi, len(x))
        y.imag = np.bincount(self._rows, ar * xi + ai * xr, len(x))
        return y

    def solve(self, delta_a: float) -> np.ndarray:
        """Steady state of L at this delta_a, with no truncation check.

        The constrained block is solved by a banded LU with partial pivoting
        (zgbsv) in the workspace's ordering, plus one step of iterative
        refinement on that factor (zgbtrs); a stored entry that is exactly 0
        just sits in the band.  One gate then decides: the factor is
        nonsingular and its reciprocal 1-norm condition estimate rcond exceeds
        eps (past that, the solve is an arbitrary near-null vector, which can
        be positive, of small residual and wrong), and the Hermitian,
        unit-trace rho is finite and has no eigenvalue below -1e-12; else a
        RuntimeError names the check and the [model] rates.  A delta_a whose
        square overflows is an OverflowError (_detuning_terms).  The trace and
        residual bounds that g2_bundle_delayed applies to a caller's rho_ss
        are not applied here: one refinement step on a factor with
        rcond > eps meets them (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., ch. 9 and 12), and no random solve that passed
        the checks above has failed them (CHANGES.md).
        """
        from scipy.linalg.lapack import zgbcon, zgbsv, zgbtrs

        q = replace(self._p, delta_a=delta_a)
        g = _damped_generator(_detuning_terms(q, self._num, self._pe), self._decays)
        self._data[self._diag] = g[self._i] + g[self._j].conj()

        ab = np.zeros((2 * self._kl + self._ku + 1, len(self._rhs)), complex, order="F")
        ab[self._band] = self._data
        norm = np.add.reduceat(np.abs(self._data), self._starts).max()  # ||A||_1
        lu, piv, x, info = zgbsv(self._kl, self._ku, ab, self._rhs, overwrite_ab=1)
        if info < 0:
            raise RuntimeError(f"zgbsv: argument {-info} has an illegal value")
        if info > 0:
            raise _refusal(q, "the banded LU factor is exactly singular")
        rcond = zgbcon(self._kl, self._ku, lu, piv, norm)[0]
        if not rcond > EPS:  # written so that a NaN estimate fails too
            raise _refusal(q, "the banded LU factor is singular to working precision: "
                           f"zgbcon's rcond {rcond:.3e} <= eps {EPS:.3e}")
        d = q.dims.total_dim
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
            # one step of iterative refinement on the same factor, at a tenth
            # of its cost, takes the tail populations (1e-19 at n_max = 12)
            # from tens of percent off to within 1e-10 relative of a dense LU;
            # tails near 1e-27 it holds only to about 1e-6 relative
            r = self._rhs.copy()
            r[self._where, 0] -= self._product(x[self._where, 0])
            x0 = (x + zgbtrs(lu, self._kl, self._ku, r, piv)[0])[self._where, 0]
            x = np.zeros(d * d, dtype=complex)
            x[self._idx] = x0
            rho = unvec(x, d)
            rho = (rho + rho.conj().T) / 2.0
            rho = rho / rho.trace().real
        if not np.isfinite(rho).all():  # else eigvalsh raises a LinAlgError
            raise _refusal(q, "the refined solution is not finite")
        lowest = np.linalg.eigvalsh(rho)[0]
        if not lowest >= -1e-12:
            raise _refusal(q, f"smallest eigenvalue of rho {lowest:.3e} < -1e-12")
        return rho


def _refusal(q: ModelParams, why: str) -> RuntimeError:
    """The gate's error: the failed check, the relaxation rates kappa, gamma
    and j of q, and the smallest nonzero of them over the largest rate of q."""
    top, rate = q.largest_rate()
    slowest = min(abs(getattr(q, k)) for k in ("kappa", "gamma", "j") if getattr(q, k) != 0)
    return RuntimeError(
        f"steady state refused: {why}; no unique steady state to working precision at "
        f"[model] kappa = {q.kappa}, gamma = {q.gamma}, j = {q.j}; the smallest nonzero of "
        f"these over the largest rate |{top}| = {rate:g} is {slowest / rate:.1e}"
    )


@dataclass
class TrajectoryRecord:
    """One quantum-jump unraveling: normalized states at the sample times plus
    the (time, channel) list of jumps, channel in {'cavity', 'tls'}."""

    seed: int
    times: np.ndarray
    states: np.ndarray  # (n_samples, total_dim), normalized
    jumps: list


JUMP_TOL = 1e-12  # |log ||psi||^2 - log r| at a solved jump time
JUMP_MAX_ITER = 100  # Newton/bisection steps; bisection alone needs about 60
DRAW_BLOCK = 32  # uniform(size=k) gives the values of k scalar draws


class _JumpPropagator:
    """Exact evolution under H_nh = H_I - (i/2) Gamma, Gamma = kappa a^dag a +
    gamma sigma_+ sigma_-, diagonalized once as V diag(lambda) V^-1 and shared
    across an ensemble.  A state psi = V c is held as its coefficients c, so
    advancing by s is c exp(rates s).  Each quadratic form F is read as
    c^dag F c: gram = V^dag V gives ||psi||^2; loss stacks gram over
    V^dag Gamma V, so one matvec gives ||psi||^2 and the decay weight
    w = -d||psi||^2/ds; cavity = V^dag kappa a^dag a V gives the cavity's
    share of w.  jump_maps apply a and sigma_- to c."""

    def __init__(self, p: ModelParams):
        channels = _decay_channels(p)
        decays = [(rate, c.conj().T @ c) for rate, c in channels]
        # eigenvalues of G = -i H_nh are the rates -i lambda
        self.rates, self.v = np.linalg.eig(_damped_generator(build_H_I(p), decays))
        self.inv = np.linalg.inv(self.v)
        vh = self.v.conj().T
        forms = [vh @ (rate * cdc) @ self.v for rate, cdc in decays]
        self.loss = np.concatenate([vh @ self.v, forms[0] + forms[1]])
        self.gram = self.loss[: len(self.v)]
        self.cavity = forms[0]
        self.jump_maps = [self.inv @ c @ self.v for _, c in channels]


def _check_horizon(**fields: float) -> None:
    """Raise a ValueError naming the first field that is not finite and > 0."""
    for name, value in fields.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0; got {value}")
    if len(fields) == 2:
        _sample_times(**fields)  # t_final and sample_dt: refuses a count past GRID_CAP


def _sample_times(t_final: float, sample_dt: float) -> np.ndarray:
    """The sample times of both time-resolved presets: 0, sample_dt, 2 sample_dt,
    ... up to t_final (or within 1e-12 relative of it), at most GRID_CAP of them."""
    count = np.floor(t_final / sample_dt * (1 + 1e-12)) + 1
    if not count <= GRID_CAP:
        raise ValueError(f"sample_dt must make at most GRID_CAP = {GRID_CAP} samples to "
                         f"t_final = {t_final:g}; got {sample_dt:g} ({count:.3g} samples)")
    return sample_dt * np.arange(count)


def _uniforms(rng: np.random.Generator):
    """rng's uniform draws one by one, DRAW_BLOCK per call to rng."""
    while True:
        yield from rng.uniform(size=DRAW_BLOCK).tolist()


def _unravel(
    prop: _JumpPropagator, psi0, norm: float, t_final: float, sample_dt: float, seed: int
) -> TrajectoryRecord:
    """One quantum-jump unraveling of checked input: psi0 of norm norm,
    evolved by prop, with the random stream of seed.

    Deterministic non-Hermitian evolution until the squared norm reaches the
    next uniform draw r.  The jump time is the root of log ||psi||^2 = log r,
    solved by safeguarded Newton iteration to JUMP_TOL in the log-norm, so it
    does not depend on sample_dt.  The channel is drawn in proportion to the
    channel weights kappa<a^dag a> and gamma<sigma_+ sigma_->.  Every product
    is matrix-vector (see run_trajectories)."""
    draws = _uniforms(np.random.default_rng(seed))
    times = _sample_times(t_final, sample_dt)
    states = np.empty((len(times), len(psi0)), dtype=complex)
    jumps: list[tuple[float, str]] = []

    states[0] = psi0
    c = np.dot(prop.inv, psi0 / norm)
    # from one sample time to the next; none for a lone sample, where it can overflow
    full = np.exp(prop.rates * sample_dt) if len(times) > 1 else None
    t, norm2 = 0.0, 1.0  # the time reached, and ||psi||^2 there
    r = next(draws)
    for k, t_next in enumerate(times[1:].tolist(), start=1):
        h, advance = sample_dt, full  # the span to t_next and its exp(rates h)
        while True:
            trial = c * advance
            trial_norm2 = np.vdot(trial, np.dot(prop.gram, trial)).real
            if trial_norm2 > r:
                c, norm2, t = trial, trial_norm2, t_next
                break
            # the jump time: root s in (0, h] of f(s) = log ||psi(s)||^2 - log r,
            # from log-linear interpolation, then Newton steps on
            # d||psi||^2/ds = -w, bisecting when a step would leave the bracket
            f_lo = math.log(norm2 / r)
            f_hi = math.log(trial_norm2 / r) if trial_norm2 > 0 else -math.inf
            s, lo, hi = h * f_lo / (f_lo - f_hi), 0.0, h
            for _ in range(JUMP_MAX_ITER):
                cs = c * np.exp(prop.rates * s)
                n2, w = np.dot(prop.loss, cs).reshape(2, -1).dot(cs.conj()).real.tolist()
                f = math.log(n2 / r) if n2 > 0 else -math.inf  # -inf once n2 underflows
                if abs(f) <= JUMP_TOL:
                    break
                lo, hi = (s, hi) if f > 0 else (lo, s)
                # Newton step f n2 / w, taken only if it stays in (lo, hi); never
                # divides when w is not positive
                step = f * n2
                s = s + step / w if (lo - s) * w < step < (hi - s) * w else 0.5 * (lo + hi)
            else:
                raise RuntimeError(
                    f"jump time not converged to {JUMP_TOL:.0e} in {JUMP_MAX_ITER} steps"
                )
            t += s
            if not w > 0:
                raise RuntimeError("jump resolution lost: no decay weight at jump time")
            cavity = next(draws) < np.vdot(cs, np.dot(prop.cavity, cs)).real / w
            c = np.dot(prop.jump_maps[0 if cavity else 1], cs)
            norm2 = np.vdot(c, np.dot(prop.gram, c)).real
            if not norm2 > 0:
                raise RuntimeError("jump resolution lost: state annihilated")
            c, norm2 = c / math.sqrt(norm2), 1.0
            jumps.append((t, "cavity" if cavity else "tls"))
            r = next(draws)
            h = t_next - t
            advance = np.exp(prop.rates * h)
        states[k] = np.dot(prop.v, c) / math.sqrt(norm2)
    return TrajectoryRecord(seed=seed, times=times, states=states, jumps=jumps)


_member = None  # a run_trajectories worker's member function, set by _adopt


def _adopt(member) -> None:
    """Pool initializer: keep the member, inherited through the fork."""
    global _member
    _member = member


def _ensemble_member(seed: int) -> TrajectoryRecord:
    """A pool's task, one member.  Module-level and private, so the pool
    pickles it by name even when the public functions have been wrapped."""
    return _member(seed)


def run_trajectories(
    p: ModelParams,
    psi0: np.ndarray,
    t_final: float,
    sample_dt: float,
    n_trajectories: int,
    base_seed: int,
) -> list[TrajectoryRecord]:
    """Ensemble of n_trajectories quantum-jump unravelings (_unravel) of the
    master equation from the unit-norm amplitudes psi0, trajectory i with
    seed base_seed + i, all sharing one jump propagator; returned in seed
    order.  A lone trajectory is the ensemble of one.

    The input is checked once, before any process starts.  The members are
    independent, so they run in min(n_trajectories, CPUs in the affinity
    mask) forked worker processes; the affinity mask (taskset) is the only
    control.  One worker (always so for an ensemble of one), or a platform
    without os.sched_getaffinity, runs them in-process through the same
    per-member function.  Either way a record depends only on its seed, bit
    for bit, whatever the batching.  The pool is terminated on every exit
    (success, a member's error, Ctrl-C), so no worker outlives the call.

    A member makes only matrix-vector BLAS calls.  In a forked worker a
    matrix-matrix product wakes OpenBLAS's threads, which spin for about
    0.1 s on the other worker's core: forming a member's states with one
    (601 x 26)(26 x 26) product cut the benchmark's jumps per second x0.73."""
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1; got {n_trajectories}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0; got {base_seed}")
    _check_horizon(t_final=t_final, sample_dt=sample_dt)
    norm = _check_psi0(psi0, p.dims.total_dim)
    member = partial(_unravel, _JumpPropagator(p), psi0, norm, t_final, sample_dt)
    seeds = range(base_seed, base_seed + n_trajectories)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(n_trajectories, len(affinity(0))) if affinity is not None else 1
    if workers == 1:
        return [member(seed) for seed in seeds]
    import multiprocessing  # deferred: its pool machinery costs about 15 ms to import

    # the pool's exit terminates (and joins) the workers: an interrupt
    # (Ctrl-C reaches the workers too) can kill a worker mid-member, and a
    # pool that waited for its members would wait for that one forever.  The
    # member reaches each worker through the fork, so a task is a seed: a
    # pickled propagator (88 KB at n_max = 12) outgrew the 64 KiB pipe, and an
    # interrupt could leave the task thread blocked mid-write, hanging the exit
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_adopt, initargs=(member,)) as pool:
        result = pool.map_async(_ensemble_member, seeds)
        while not result.ready():
            # timed: Ctrl-C can land on a pool thread, and the caller runs
            # the handler only once its own wait returns
            result.wait(0.1)
        return result.get()

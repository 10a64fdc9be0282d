"""Time evolution: Schrodinger integration, Lindblad dynamics, steady states,
and Monte Carlo wave-function (quantum-jump) trajectories.

The Liouvillian acts on the column-stacked vectorization of rho.  H, a and
sigma_- all conserve k = (m - m') mod n, where m and m' are the photon
numbers of the row and column of rho, so L is block-diagonal in k (a weak
symmetry).  The steady state and the regression operators a^N rho_ss a^dagN
of the delayed correlations all lie in k = 0, so build_liouvillian makes only
the k = 0 block K, as a sparse (CSR) matrix, and every consumer refuses an
operator with an entry in another sector.  The steady state is found by one
banded LU of K, its unknowns ordered once by reverse Cuthill-McKee; the
spectral propagator eigendecomposes K once, as a real matrix in a Hermitian
operator basis.  There is one steady-state solver, SteadyStateWorkspace: it
holds the system of one K, and since delta_a moves only the diagonal of L, it
rewrites just that diagonal (with the arithmetic of build_liouvillian) to
solve at any delta_a.  steady_state(L) is its solve at the delta_a of L, then
a truncation check.  H and L do not depend on time, so each equation of motion
has one propagator, an eigendecomposition, which is exact at the sample times.

scipy is imported only where a Liouvillian is built or factored:
build_liouvillian (the one way to make an L; LiouvillePropagator and
steady_state both start from one), _hermitian_basis and
SteadyStateWorkspace.  Schrodinger propagation and the quantum-jump
trajectories need only numpy, so a run that never builds L never loads scipy
(about 0.3 s of start-up).  multiprocessing is imported the same way, only
where run_trajectories starts its worker pool (about 15 ms), so a lone
trajectory and every Liouvillian path never load it.  The module is kept
whole rather than split along these lines, because the benchmark tracer
(perfbench/tracing.py) wraps the functions whose __module__ is
bundlejc.dynamics and reads bundlejc.dynamics.LiouvillePropagator.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import TYPE_CHECKING

import numpy as np

from .hilbert import DimensionMismatchError, fock_annihilation, tls_operator
from .model import ModelParams, _detuning_terms, build_H_I

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
    "mcwf_trajectory",
    "run_trajectories",
]

TAIL_TOL = 1e-8

log = logging.getLogger("bundlejc")


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
    if np.shape(psi0) != (d,):
        raise DimensionMismatchError(f"psi0 has shape {np.shape(psi0)}; the space needs ({d},)")
    norm = float(np.linalg.norm(psi0))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"psi0 must be normalized; its norm is {norm}")
    return norm


def schrodinger_evolve(H: np.ndarray, psi0: np.ndarray, t_grid) -> np.ndarray:
    """Solve i dpsi/dt = H psi exactly at the grid times (eigh of H), from the
    amplitudes psi0; returns the amplitudes at each grid time.  No
    renormalization is applied: norm drift beyond 1e-5 aborts, because it
    means the eigenbasis was not unitary.
    """
    d = len(psi0)
    if H.shape != (d, d):
        raise DimensionMismatchError(f"H has shape {H.shape}; psi0 needs ({d}, {d})")
    herm = np.max(np.abs(H - H.conj().T))
    if not herm < 1e-10:  # written so that a NaN deviation fails too
        raise ValueError(f"H must be Hermitian: max |H - H^dag| = {herm:.3e}")
    t_grid = np.asarray(t_grid, dtype=float)
    _check_psi0(psi0, d)
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
        """vec(op) at idx; a ValueError names the sector of an entry outside k = 0."""
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


def build_liouvillian(p: ModelParams) -> Liouvillian:
    """L(rho) = -i[H_I, rho] + kappa D[a] rho + gamma D[sigma_-] rho, k = 0 block.

    Written as L rho = G rho + rho G^dag + sum_c rate_c C rho C^dag with
    G = -i H_I - (1/2) sum_c rate_c C^dag C, and assembled in COO form from
    the nonzeros of the d x d operators: vec(X rho Y) = kron(Y^T, X) vec(rho),
    keeping the triplets whose row (and so column) lies in k = 0.
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
    rows, cols = np.searchsorted(idx, rows[keep]), np.searchsorted(idx, cols[keep])
    kmat = _csr_class()((vals[keep], (rows, cols)), shape=(len(idx),) * 2)
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
    steady state and every regression operator a^N rho_ss a^dagN.

    The sector is closed under the adjoint and L maps Hermitian operators to
    Hermitian ones, so its block K is decomposed once, here, as the real
    matrix T K T^dag (T from _hermitian_basis) at about half the cost of a
    complex eig; as X = T^dag (T X) for any X, arbitrary (not necessarily
    trace-one or Hermitian) k = 0 operators propagate, as the two-time
    regression pathway needs.
    """

    def __init__(self, L: Liouvillian):
        self.L = L
        t = _hermitian_basis(L.idx, L.params.dims.total_dim)
        real_form = t @ L.mat @ t.conj().T
        imag = np.abs(real_form.data.imag).max(initial=0.0)
        if imag > 1e-14 * np.abs(real_form.data.real).max(initial=0.0):
            raise RuntimeError(f"sector k=0 not real in the Hermitian basis: {imag:.3e}")
        self._evals, w = np.linalg.eig(real_form.real.toarray())
        self._inv = np.linalg.inv(w) @ t  # before T^dag W: one dense matrix fewer at peak
        self._evecs = t.conj().T @ w

    def propagate(self, op_mat: np.ndarray, taus) -> np.ndarray:
        """Returns an array of operators exp(L tau) op, one per tau.  Raises a
        ValueError, naming the sector, if op has an entry outside k = 0."""
        d, idx = self.L.params.dims.total_dim, self.L.idx
        part = self.L.k0_entries(op_mat, "op_mat")
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        out = np.zeros((len(taus), d * d), dtype=complex)
        out[:, idx] = (np.exp(np.outer(taus, self._evals)) * (self._inv @ part)) @ self._evecs.T
        return out.reshape((len(taus), d, d)).transpose(0, 2, 1)


def steady_state(L: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix of L: SteadyStateWorkspace(L) solved
    at the delta_a of L.  Raises TruncationError if the top Fock level holds
    population TAIL_TOL or more; the workspace solve alone skips that check."""
    rho = SteadyStateWorkspace(L).solve(L.params.delta_a)
    dims = L.params.dims
    i = dims.index(dims.n_max, 0)  # |n_max, g>; |n_max, e> follows
    tail = float(rho[i, i].real + rho[i + 1, i + 1].real)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"top Fock level holds population {tail:.3e} >= {TAIL_TOL:.1e}; "
            "increase n_max"
        )
    return rho


def _diagonal_positions(m: sp.csc_array, diag: np.ndarray) -> np.ndarray:
    """Positions in m.data of the stored diagonal entries (r, r), r in diag."""
    cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
    stored = np.flatnonzero(m.indices == cols)
    return stored[np.searchsorted(cols[stored], diag)]


class SteadyStateWorkspace:
    """The steady-state system of the k = 0 block K along delta_a, built once.

    delta_a enters H_I only on its diagonal, as delta_a (N + n |e><e|) (since
    delta_sigma = Delta + n delta_a), so it moves only the diagonal of L:
    L_(i,j),(i,j) = G_ii + conj(G_jj), with G = -i H_I - (1/2) sum_c rate_c
    C^dag C.  That entry is constant for a population (i = j).  K and its
    constrained form (row 0 replaced by the nonzeros of the trace row) are
    kept in CSC with every coherence diagonal in the pattern; `solve` rewrites
    those entries from the d diagonal values of G, with the arithmetic of
    build_liouvillian, and factors afresh.

    So the pattern does not depend on delta_a, and neither does its reverse
    Cuthill-McKee ordering (Cuthill & McKee 1969), taken here once.  Reordered,
    the constrained system is banded (27 to 62 sub- and superdiagonals for
    340 to 1764 unknowns at n = 1..5, n_max <= 20), and the band-storage
    position of each stored entry is kept, so each solve is one scatter, one
    LAPACK zgbsv and one refinement step.
    """

    def __init__(self, L: Liouvillian):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        p = L.params
        d = p.dims.total_dim
        self._p = p
        self._idx = L.idx
        a = fock_annihilation(p.dims)
        self._num = np.diagonal(a.conj().T @ a)  # as build_H_I forms N: sqrt(m)^2, not m
        self._pe = np.diagonal(tls_operator("excited_projector", p.dims))
        self._decays = [
            (rate, np.diagonal(c.conj().T @ c)) for rate, c in _decay_channels(p) if rate > 0
        ]
        k0 = L.mat.tocoo()
        moving = np.flatnonzero(self._idx % (d + 1))  # coherences: vec index i + d j, i != j
        self._j, self._i = np.divmod(self._idx[moving], d)
        data = np.concatenate([k0.data, np.zeros(len(moving), dtype=complex)])
        rows = np.concatenate([k0.row, moving])
        cols = np.concatenate([k0.col, moving])
        self._block = sp.csc_array((data, (rows, cols)), shape=k0.shape)
        self._trace = vec(np.eye(d))[self._idx]  # Tr rho as a row over the k = 0 entries
        pops = np.flatnonzero(self._trace)
        kept = rows != 0  # row 0 gives way to the trace row
        self._constrained = sp.csc_array(
            (
                np.r_[self._trace[pops], data[kept]],
                (np.r_[np.zeros_like(pops), rows[kept]], np.r_[pops, cols[kept]]),
            ),
            shape=k0.shape,
        )
        self._block_diag = _diagonal_positions(self._block, moving)
        self._constrained_diag = _diagonal_positions(self._constrained, moving)

        # the pattern holds every coherence diagonal, so one ordering serves
        # every delta_a: entry e of the k = 0 system is entry where[e] of the
        # reordered one, which is banded with kl sub- and ku superdiagonals
        pattern = self._constrained.copy()
        pattern.data[:] = 1.0  # a stored zero counts: csgraph degrees include the diagonal
        perm = reverse_cuthill_mckee((pattern + pattern.T).tocsr(), symmetric_mode=True)
        self._where = np.argsort(perm)
        r = self._where[self._constrained.indices]
        c = self._where[np.repeat(np.arange(len(perm)), np.diff(self._constrained.indptr))]
        self._kl, self._ku = int(np.max(r - c)), int(np.max(c - r))
        # LAPACK band storage: A[r, c] at ab[kl + ku + r - c, c]; the top kl
        # rows of ab take the factor's fill-in
        self._band = (self._kl + self._ku + r - c, c)
        self._rhs = np.zeros((len(perm), 1), dtype=complex)
        self._rhs[self._where[0], 0] = 1.0  # row 0 is the trace row: Tr rho = 1

    def solve(self, delta_a: float) -> np.ndarray:
        """Steady state of L at this delta_a, with no truncation check.

        The constrained block is solved by a banded LU with partial pivoting
        (zgbsv) in the workspace's ordering, plus one step of iterative
        refinement on that factor (zgbtrs); a stored entry that is exactly 0
        just sits in the band.  L is block-diagonal in k, so ||K x|| is the
        residual ||L rho|| of the full L.  If the factor is exactly singular,
        Tr x is not 1 to 1e-9, the residual exceeds 1e-9 ||K||_F (K at this
        delta_a), or L has no cavity decay (kappa = 0: nothing relaxes the
        photon number, and LU would return one of possibly many stationary
        states), the null space of K is inspected densely, with a logged
        warning, to tell a degenerate steady state from a solver failure.
        """
        from scipy.linalg.lapack import zgbsv, zgbtrs

        q = replace(self._p, delta_a=delta_a)
        g = _damped_generator(_detuning_terms(q, self._num, self._pe), self._decays)
        diag = g[self._i] + g[self._j].conj()
        self._block.data[self._block_diag] = diag
        self._constrained.data[self._constrained_diag] = diag
        k_scale = np.linalg.norm(self._block.data)

        residual = np.inf
        if q.kappa > 0:
            ab = np.zeros((2 * self._kl + self._ku + 1, len(self._rhs)), complex, order="F")
            ab[self._band] = self._constrained.data
            lu, piv, x, info = zgbsv(self._kl, self._ku, ab, self._rhs, overwrite_ab=1)
            if info < 0:
                raise RuntimeError(f"zgbsv: argument {-info} has an illegal value")
            if info == 0:  # else the factor is exactly singular
                with np.errstate(over="ignore", invalid="ignore"):  # inf, nan fail below
                    # one step of iterative refinement on the same factor, at a
                    # tenth of its cost, takes the tail populations (1e-19 at
                    # n_max = 12) from tens of percent off to full precision
                    r = self._rhs.copy()
                    r[self._where, 0] -= self._constrained @ x[self._where, 0]
                    x0 = (x + zgbtrs(lu, self._kl, self._ku, r, piv)[0])[self._where, 0]
                    residual = np.linalg.norm(self._block @ x0)
                    if not abs(self._trace @ x0 - 1.0) <= 1e-9:
                        # a factor singular to working precision can return a
                        # huge null vector whose trace row was lost to cancellation
                        residual = np.inf
            why = f"banded LU residual {residual:.3e}"
        else:
            why = "no cavity decay, so no LU residual proves uniqueness"

        if not residual <= 1e-9 * k_scale:
            log.warning(
                "steady state on the k=0 block: %s; falling back to a dense SVD null space",
                why,
            )
            _, svals, vh = np.linalg.svd(self._block.toarray())
            null_dim = int(np.sum(svals < 1e-10 * svals[0]))
            if null_dim != 1:
                raise RuntimeError(f"degenerate steady state: null-space dimension {null_dim}")
            x0 = vh[-1].conj()
            x0 = x0 / (self._trace @ x0)
            residual = np.linalg.norm(self._block @ x0)
            if not residual <= 1e-9 * k_scale:
                raise RuntimeError(f"steady-state residual too large: {residual:.3e}")

        d = q.dims.total_dim
        x = np.zeros(d * d, dtype=complex)
        x[self._idx] = x0
        rho = unvec(x, d)
        rho = (rho + rho.conj().T) / 2.0
        return rho / rho.trace().real


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


class _JumpPropagator:
    """Exact evolution under H_nh = H_I - (i/2)(kappa a^dag a + gamma sigma_+
    sigma_-), diagonalized once as V diag(lambda) V^-1 and shared across an
    ensemble.  A state psi = V c is held as its coefficients c, so advancing
    by s is c exp(-i lambda s); one matvec with the stacked forms V^dag V and
    V^dag (rate C^dag C) V then gives ||psi||^2 and both channel weights."""

    def __init__(self, p: ModelParams):
        channels = _decay_channels(p)
        decays = [(rate, c.conj().T @ c) for rate, c in channels]
        # eigenvalues of G = -i H_nh are the rates -i lambda
        self._rates, self.v = np.linalg.eig(_damped_generator(build_H_I(p), decays))
        self.inv = np.linalg.inv(self.v)
        vh = self.v.conj().T
        self._forms = np.concatenate(
            [vh @ self.v] + [vh @ (rate * cdc) @ self.v for rate, cdc in decays]
        )
        self.jump_maps = [self.inv @ c @ self.v for _, c in channels]

    def advance(self, c: np.ndarray, s: float) -> np.ndarray:
        return c * np.exp(self._rates * s)

    def forms(self, c: np.ndarray) -> list[float]:
        """[||psi||^2, kappa ||a psi||^2, gamma ||sigma_- psi||^2]."""
        return ((self._forms @ c).reshape(3, -1) @ c.conj()).real.tolist()

    def jump_time(self, c, h: float, norm2: float, norm2_h: float, r: float):
        """Root s in (0, h] of log ||psi(s)||^2 = log r, where psi(s) has
        coefficients advance(c, s) and the squared norm falls from norm2 > r
        at s = 0 to norm2_h <= r at s = h.  Starts from log-linear
        interpolation and takes Newton steps on d||psi||^2/ds = -(w_cav +
        w_tls), bisecting when a step would leave the bracket.  Returns s, the
        coefficients at s and the channel weights there."""

        def excess(n2):  # log ||psi||^2 - log r, -inf once the norm underflows
            return math.log(n2 / r) if n2 > 0 else -math.inf

        f_lo = excess(norm2)
        s = h * f_lo / (f_lo - excess(norm2_h))
        lo, hi = 0.0, h
        for _ in range(JUMP_MAX_ITER):
            cs = self.advance(c, s)
            n2, w_cav, w_tls = self.forms(cs)
            f = excess(n2)
            if abs(f) <= JUMP_TOL:
                return s, cs, w_cav, w_tls
            if f > 0:
                lo = s
            else:
                hi = s
            # Newton step f n2 / w, taken only if it stays in (lo, hi); never
            # divides when the weight w is not positive
            step, w = f * n2, w_cav + w_tls
            s = s + step / w if (lo - s) * w < step < (hi - s) * w else 0.5 * (lo + hi)
        raise RuntimeError(
            f"jump time not converged to {JUMP_TOL:.0e} in {JUMP_MAX_ITER} steps"
        )


def _check_horizon(**fields: float) -> None:
    """Raise a ValueError naming the first field that is not finite and > 0."""
    for name, value in fields.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0; got {value}")


def mcwf_trajectory(
    p: ModelParams,
    psi0: np.ndarray,
    t_final: float,
    seed: int,
    sample_dt: float,
    _prop: _JumpPropagator | None = None,
) -> TrajectoryRecord:
    """Single quantum-jump trajectory of the master equation from the
    unit-norm amplitudes psi0.

    Deterministic non-Hermitian evolution until the squared norm reaches the
    next uniform draw r.  The jump time is the root of log ||psi||^2 = log r,
    solved by safeguarded Newton iteration to JUMP_TOL in the log-norm, so it
    does not depend on sample_dt.  The channel is chosen proportionally to
    kappa<a^dag a> vs gamma<sigma_+ sigma_->.  Bit-reproducible for a fixed
    seed, and the same record whether run alone or in run_trajectories.
    """
    _check_horizon(t_final=t_final, sample_dt=sample_dt)
    norm = _check_psi0(psi0, p.dims.total_dim)
    prop = _prop if _prop is not None else _JumpPropagator(p)
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, t_final + sample_dt / 2, sample_dt)
    states = np.empty((len(times), p.dims.total_dim), dtype=complex)
    jumps: list[tuple[float, str]] = []

    states[0] = psi0
    c = prop.inv @ (psi0 / norm)
    norm2 = 1.0  # ||psi||^2 at t
    t = 0.0
    r = rng.uniform()
    for k, t_next in enumerate(times[1:], start=1):
        while True:
            trial = prop.advance(c, t_next - t)
            trial_norm2 = prop.forms(trial)[0]
            if trial_norm2 > r:
                c, norm2, t = trial, trial_norm2, t_next
                break
            s, c, w_cav, w_tls = prop.jump_time(c, t_next - t, norm2, trial_norm2, r)
            t += s
            if w_cav + w_tls <= 0:
                raise RuntimeError("jump resolution lost: no decay weight at jump time")
            cavity = rng.uniform() < w_cav / (w_cav + w_tls)
            c = prop.jump_maps[0 if cavity else 1] @ c
            norm2 = prop.forms(c)[0]
            if not norm2 > 0:
                raise RuntimeError("jump resolution lost: state annihilated")
            c = c / math.sqrt(norm2)
            norm2 = 1.0
            jumps.append((t, "cavity" if cavity else "tls"))
            r = rng.uniform()
        states[k] = prop.v @ c / math.sqrt(norm2)
    return TrajectoryRecord(seed=seed, times=times, states=states, jumps=jumps)


def _ensemble_member(
    seed: int, p: ModelParams, psi0, t_final: float, sample_dt: float, _prop
) -> TrajectoryRecord:
    """One member of run_trajectories.  Module-level and private, so a pool
    pickles it by name even when the public functions have been wrapped."""
    return mcwf_trajectory(p, psi0, t_final, seed, sample_dt, _prop=_prop)


def run_trajectories(
    p: ModelParams,
    psi0: np.ndarray,
    t_final: float,
    sample_dt: float,
    n_trajectories: int,
    base_seed: int,
) -> list[TrajectoryRecord]:
    """Ensemble of n_trajectories unravelings, trajectory i with seed
    base_seed + i, all sharing one jump propagator; returned in seed order.

    The members are independent, so they run in min(n_trajectories, CPUs in
    the affinity mask) forked worker processes, each running the scalar code
    of mcwf_trajectory; the affinity mask (taskset) is the only control.  One
    worker, or a platform without os.sched_getaffinity, runs them in-process
    through the same per-member function.  Either way each record is the lone
    mcwf_trajectory with its seed, bit for bit."""
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1; got {n_trajectories}")
    # refuse bad input before any process starts
    _check_horizon(t_final=t_final, sample_dt=sample_dt)
    _check_psi0(psi0, p.dims.total_dim)
    member = partial(
        _ensemble_member, p=p, psi0=psi0, t_final=t_final, sample_dt=sample_dt,
        _prop=_JumpPropagator(p),
    )
    seeds = range(base_seed, base_seed + n_trajectories)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(n_trajectories, len(affinity(0))) if affinity is not None else 1
    if workers == 1:
        return [member(seed) for seed in seeds]
    import multiprocessing  # deferred: its pool machinery costs about 15 ms to import

    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        return pool.map(member, seeds)
    except BaseException:
        # map raises a member's exception only once every member has ended,
        # but an interrupt (Ctrl-C reaches the workers too) can kill a worker
        # mid-member, and a closed pool would wait for that member forever
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()

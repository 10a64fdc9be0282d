"""Time evolution: Schrodinger integration, Lindblad dynamics, steady states,
and Monte Carlo wave-function (quantum-jump) trajectories.

The Liouvillian is a sparse (CSR) superoperator acting on the column-stacked
vectorization of rho.  H, a and sigma_- all conserve k = (m - m') mod n, where
m and m' are the photon numbers of the row and column of rho, so L is
block-diagonal in k (a weak symmetry).  The steady state lies in the k = 0
block and is found by sparse LU on that block alone; the spectral propagator
eigendecomposes a block only when an operator has support in it.  delta_a
moves only the diagonal of L, so a SteadyStateWorkspace builds L once for a
whole delta_a scan and rewrites just the k = 0 diagonal at each point, with
the arithmetic of build_liouvillian: its steady states are bit-for-bit those
of steady_state, and both share the checks that follow the factorization.
H and L do not depend on time, so each equation of motion has one propagator,
an eigendecomposition, which is exact at the sample times.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm
from scipy.sparse.linalg import splu

from .hilbert import (
    DensityMatrix,
    Operator,
    SpaceDims,
    StateVector,
    fock_annihilation,
    tls_operator,
)
from .model import ModelParams, _detuning_terms, build_H_I

__all__ = [
    "Liouvillian",
    "TrajectoryRecord",
    "TruncationError",
    "schrodinger_evolve",
    "build_liouvillian",
    "LiouvillePropagator",
    "lindblad_evolve",
    "steady_state",
    "SteadyStateWorkspace",
    "mcwf_trajectory",
    "run_trajectories",
    "trajectory_average",
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


def schrodinger_evolve(H: Operator, psi0: StateVector, t_grid) -> np.ndarray:
    """Solve i dpsi/dt = H psi exactly at the grid times (eigh of H); returns
    the amplitudes at each grid time.  No renormalization is applied: norm
    drift beyond 1e-5 aborts, because it means the eigenbasis was not unitary.
    """
    if not H.is_hermitian(1e-10):
        raise ValueError("H must be Hermitian")
    t_grid = np.asarray(t_grid, dtype=float)
    psi = psi0.amp.astype(complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    evals, evecs = np.linalg.eigh(H.mat)
    c0 = evecs.conj().T @ psi
    phases = np.exp(-1j * np.outer(t_grid - t_grid[0], evals))
    history = (phases * c0) @ evecs.T

    drift = np.abs(np.linalg.norm(history, axis=1) - 1.0).max()
    if drift > 1e-5:
        raise RuntimeError(f"norm drift {drift:.3e} > 1e-5")
    return history


class _CSR(sp.csr_array):
    """CSR array that reports the bytes it stores (data, indices, indptr)."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(frozen=True)
class Liouvillian:
    """Sparse superoperator on column-stacked rho.

    sectors[k] holds the vec indices of the entries rho[i, j] whose photon
    numbers satisfy (m_i - m_j) mod n = k; mat has no entry between sectors.
    cavity_decay is False when kappa = 0, where nothing relaxes the photon
    number and the steady state need not be unique.
    """

    dims: SpaceDims
    mat: _CSR
    sectors: tuple[np.ndarray, ...]
    cavity_decay: bool

    def apply(self, rho_mat: np.ndarray) -> np.ndarray:
        d = self.dims.total_dim
        return unvec(self.mat @ vec(rho_mat), d)

    def block(self, k: int) -> sp.csr_array:
        idx = self.sectors[k]
        return self.mat[idx][:, idx]


def _sectors(dims: SpaceDims, n: int) -> tuple[np.ndarray, ...]:
    m = np.arange(dims.total_dim) // 2
    k = vec((m[:, None] - m[None, :]) % n)
    return tuple(np.flatnonzero(k == sector) for sector in range(n))


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
    """(rate, C) of each decay channel with a nonzero rate: kappa a, gamma sigma_-."""
    jumps = [
        (p.kappa, fock_annihilation(p.dims).mat),
        (p.gamma, tls_operator("sigma_minus", p.dims).mat),
    ]
    return [(rate, c) for rate, c in jumps if rate > 0]


def _damped_generator(h, decays) -> np.ndarray:
    """G = -i H - (1/2) sum_c rate_c C^dag C from h = H and decays =
    [(rate_c, C^dag C)], given as matrices or as their diagonals (elementwise,
    so the diagonal bits agree)."""
    g = -1j * h
    for rate, cdc in decays:
        g = g - 0.5 * rate * cdc
    return g


def build_liouvillian(p: ModelParams) -> Liouvillian:
    """L(rho) = -i[H_I, rho] + kappa D[a] rho + gamma D[sigma_-] rho.

    Written as L rho = G rho + rho G^dag + sum_c rate_c C rho C^dag with
    G = -i H_I - (1/2) sum_c rate_c C^dag C, and assembled in COO form from
    the nonzeros of the d x d operators: vec(X rho Y) = kron(Y^T, X) vec(rho).
    """
    dims = p.dims
    d = dims.total_dim
    jumps = _decay_channels(p)
    g = _damped_generator(build_H_I(p).mat, [(rate, c.conj().T @ c) for rate, c in jumps])
    eye = np.eye(d)
    terms = [_kron_coo(eye, g), _kron_coo(g.conj(), eye)]
    terms += [_kron_coo(c.conj(), rate * c) for rate, c in jumps]
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*terms))
    lmat = _CSR((vals, (rows, cols)), shape=(d * d, d * d))
    lmat.eliminate_zeros()
    return Liouvillian(dims, lmat, _sectors(dims, p.n), cavity_decay=p.kappa > 0)


class LiouvillePropagator:
    """Spectral form of exp(L t), one eigendecomposition per symmetry sector.

    A sector is decomposed the first time an operator with support in it is
    propagated, and reused afterwards.  Propagates arbitrary (not necessarily
    trace-one) operators, which is what the regression pathway for two-time
    correlators needs.
    """

    def __init__(self, L: Liouvillian):
        self.L = L
        self._spectra: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _spectrum(self, k: int):
        if k not in self._spectra:
            evals, evecs = np.linalg.eig(self.L.block(k).toarray())
            self._spectra[k] = (evals, evecs, np.linalg.inv(evecs))
        return self._spectra[k]

    def propagate(self, op_mat: np.ndarray, taus) -> np.ndarray:
        """Returns an array of operators exp(L tau) op, one per tau."""
        d = self.L.dims.total_dim
        v = vec(op_mat)
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        out = np.zeros((len(taus), d * d), dtype=complex)
        for k, idx in enumerate(self.L.sectors):
            part = v[idx]
            if not np.any(part):
                continue
            evals, evecs, inv = self._spectrum(k)
            out[:, idx] = (np.exp(np.outer(taus, evals)) * (inv @ part)) @ evecs.T
        return out.reshape((len(taus), d, d)).transpose(0, 2, 1)


def _check_density_history(history):
    for rho in history:
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > 1e-9:
            raise RuntimeError(f"Hermiticity violated: {herm:.3e}")
        tr = rho.trace().real
        if abs(tr - 1.0) > 1e-7:
            raise RuntimeError(f"trace violated: {tr}")
        ev_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
        if ev_min < -1e-7:
            raise RuntimeError(f"positivity violated: min eigenvalue {ev_min:.3e}")


def lindblad_evolve(L: Liouvillian, rho0: DensityMatrix, t_grid) -> np.ndarray:
    """Propagate rho0 under L; returns density matrices at each grid time."""
    t_grid = np.asarray(t_grid, dtype=float)
    rho0.validate()
    history = LiouvillePropagator(L).propagate(rho0.mat, t_grid - t_grid[0])
    _check_density_history(history)
    return history


def _truncation_tail(rho_mat: np.ndarray, dims: SpaceDims) -> float:
    i = dims.index(dims.n_max, 0)
    return float(rho_mat[i, i].real + rho_mat[i + 1, i + 1].real)


def steady_state(L: Liouvillian, tail_tol: float | None = TAIL_TOL) -> DensityMatrix:
    """Unique stationary density matrix of L.

    The steady state lies in the k = 0 sector.  Its block is solved by sparse
    LU with row 0 replaced by the trace constraint.  If the solution does
    not satisfy L rho = 0, or L has no cavity decay (then LU returns one of
    possibly many stationary states), the null space of the block is
    inspected densely to distinguish a degenerate steady state from a solver
    failure.
    """
    idx = L.sectors[0]
    block = L.block(0)
    constrained = _with_trace_row(block, L.dims, idx) if L.cavity_decay else None
    return _k0_steady_state(
        L.dims, idx, block, constrained, sparse_norm(L.mat), tail_tol
    )


def _trace_row(dims: SpaceDims, idx: np.ndarray) -> np.ndarray:
    """Tr rho as a row over the vec indices idx."""
    return vec(np.eye(dims.total_dim))[idx]


def _with_trace_row(block, dims: SpaceDims, idx: np.ndarray) -> sp.csc_array:
    """The k = 0 block with row 0 replaced by the nonzeros of the trace row."""
    trace_row = sp.csr_array(_trace_row(dims, idx)[None, :])
    return sp.vstack([trace_row, block[1:]], format="csc")


def _k0_steady_state(
    dims: SpaceDims,
    idx: np.ndarray,
    block,
    constrained,
    l_scale: float,
    tail_tol: float | None,
) -> DensityMatrix:
    """Steady state from the k = 0 block K (vec indices idx) of L.

    constrained is K with row 0 replaced by the trace row, or None when L has
    no cavity decay.  L is block-diagonal in k, so ||K x|| is the residual
    ||L rho|| of the full L; l_scale is ||L||_F.
    """
    d = dims.total_dim
    x0 = None
    residual = np.inf
    if constrained is not None:
        b = np.zeros(len(idx), dtype=complex)
        b[0] = 1.0
        try:
            x0 = splu(constrained).solve(b)
            residual = np.linalg.norm(block @ x0)
        except RuntimeError:  # SuperLU: the factor is exactly singular
            pass
        why = f"sparse LU residual {residual:.3e}"
    else:
        why = "no cavity decay, so no LU residual proves uniqueness"

    if not residual <= 1e-9 * l_scale:
        log.warning(
            "steady state on the k=0 block: %s; falling back to a dense SVD null space",
            why,
        )
        _, svals, vh = np.linalg.svd(block.toarray())
        null_dim = int(np.sum(svals < 1e-10 * svals[0]))
        if null_dim != 1:
            raise RuntimeError(f"degenerate steady state: null-space dimension {null_dim}")
        x0 = vh[-1].conj()
        x0 = x0 / (_trace_row(dims, idx) @ x0)
        residual = np.linalg.norm(block @ x0)
        if residual > 1e-9 * l_scale:
            raise RuntimeError(f"steady-state residual too large: {residual:.3e}")

    x = np.zeros(d * d, dtype=complex)
    x[idx] = x0
    rho = unvec(x, d)
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / rho.trace().real
    if tail_tol is not None:
        tail = _truncation_tail(rho, dims)
        if tail >= tail_tol:
            raise TruncationError(
                f"top Fock level holds population {tail:.3e} >= {tail_tol:.1e}; "
                "increase n_max"
            )
    return DensityMatrix(dims, rho)


def _diagonal_positions(m: sp.csc_array, diag: np.ndarray) -> np.ndarray:
    """Positions in m.data of the stored diagonal entries (r, r), r in diag."""
    cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
    stored = np.flatnonzero(m.indices == cols)
    return stored[np.searchsorted(cols[stored], diag)]


class SteadyStateWorkspace:
    """The k = 0 steady-state system of p along delta_a, built once.

    delta_a enters H_I only on its diagonal, as delta_a (N + n |e><e|) (since
    delta_sigma = Delta + n delta_a), so it moves only the diagonal of L:
    L_(i,j),(i,j) = G_ii + conj(G_jj), with G = -i H_I - (1/2) sum_c rate_c
    C^dag C.  That entry is constant for a population (i = j).  The k = 0
    block and its constrained form (row 0 holding only the nonzeros of the
    trace row) are kept in CSC with every coherence diagonal in the pattern;
    `solve` rewrites those entries from the d diagonal values of G, with the
    arithmetic of build_liouvillian, and factors afresh.  ||L||_F is the fixed
    off-diagonal sum plus sum_(i,j) |G_ii + conj(G_jj)|^2.
    """

    def __init__(self, p: ModelParams):
        L = build_liouvillian(p)
        d = p.dims.total_dim
        self._p = p
        self._idx = L.sectors[0]
        self._cavity_decay = L.cavity_decay
        a = fock_annihilation(p.dims).mat
        self._num = np.diagonal(a.conj().T @ a)  # as build_H_I forms N: sqrt(m)^2, not m
        self._pe = np.diagonal(tls_operator("excited_projector", p.dims).mat)
        self._decays = [
            (rate, np.diagonal(c.conj().T @ c)) for rate, c in _decay_channels(p)
        ]
        coo = L.mat.tocoo()
        self._offdiag_sq = float(np.sum(np.abs(coo.data[coo.row != coo.col]) ** 2))

        k0 = L.block(0).tocoo()
        moving = np.flatnonzero(self._idx % (d + 1))  # coherences: vec index i + d j, i != j
        self._j, self._i = np.divmod(self._idx[moving], d)
        self._block = sp.csc_array(
            (
                np.concatenate([k0.data, np.zeros(len(moving), dtype=complex)]),
                (np.concatenate([k0.row, moving]), np.concatenate([k0.col, moving])),
            ),
            shape=k0.shape,
        )
        self._constrained = _with_trace_row(self._block, p.dims, self._idx)
        self._block_diag = _diagonal_positions(self._block, moving)
        self._constrained_diag = _diagonal_positions(self._constrained, moving)

    def solve(self, delta_a: float) -> DensityMatrix:
        """steady_state(build_liouvillian(p with this delta_a), tail_tol=None)."""
        q = replace(self._p, delta_a=delta_a)
        g = _damped_generator(_detuning_terms(q, self._num, self._pe), self._decays)
        diag = g[self._i] + g[self._j].conj()
        self._block.data[self._block_diag] = diag
        self._constrained.data[self._constrained_diag] = diag
        constrained = self._constrained if self._cavity_decay else None
        if constrained is not None and not diag.all():
            # build_liouvillian drops an entry that vanishes (a coherence of
            # the same energy at gamma = 0); so must the pattern SuperLU orders
            constrained = constrained.copy()
            constrained.eliminate_zeros()
        diag_sq = float(np.sum(np.abs(g[:, None] + g.conj()[None, :]) ** 2))
        return _k0_steady_state(
            q.dims,
            self._idx,
            self._block,
            constrained,
            math.sqrt(self._offdiag_sq + diag_sq),
            None,
        )


@dataclass
class TrajectoryRecord:
    """One quantum-jump unraveling: normalized states at the sample times plus
    the (time, channel) list of jumps, channel in {'cavity', 'tls'}."""

    seed: int
    times: np.ndarray
    states: np.ndarray  # (n_samples, total_dim), normalized
    jumps: list


class _JumpPropagator:
    """Exact evolution under the non-Hermitian H_I - (i/2)(kappa a^dag a +
    gamma sigma_+ sigma_-), via eigendecomposition.  Shared across an ensemble."""

    def __init__(self, p: ModelParams):
        self.p = p
        dims = p.dims
        a = fock_annihilation(dims).mat
        sm = tls_operator("sigma_minus", dims).mat
        h_nh = (
            build_H_I(p).mat
            - 0.5j * (p.kappa * (a.conj().T @ a) + p.gamma * (sm.conj().T @ sm))
        )
        self.a = a
        self.sm = sm
        self._evals, self._evecs = np.linalg.eig(h_nh)
        self._inv = np.linalg.inv(self._evecs)

    def advance(self, psi: np.ndarray, dt: float) -> np.ndarray:
        c = self._inv @ psi
        return self._evecs @ (np.exp(-1j * self._evals * dt) * c)


def mcwf_trajectory(
    p: ModelParams,
    psi0: StateVector,
    t_final: float,
    seed: int,
    sample_dt: float,
    _prop: _JumpPropagator | None = None,
) -> TrajectoryRecord:
    """Single quantum-jump trajectory of the master equation.

    Deterministic non-Hermitian evolution until the squared norm reaches the
    next uniform draw, jump time located by bisection (to sample_dt/1000),
    channel chosen proportionally to kappa<a^dag a> vs gamma<sigma_+ sigma_->.
    Bit-reproducible for a fixed seed.
    """
    if abs(psi0.norm - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    prop = _prop if _prop is not None else _JumpPropagator(p)
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, t_final + sample_dt / 2, sample_dt)
    states = np.empty((len(times), p.dims.total_dim), dtype=complex)
    jumps: list[tuple[float, str]] = []
    bisect_tol = sample_dt * 1e-3

    psi = psi0.amp.copy()
    states[0] = psi
    t = 0.0
    r = rng.uniform()
    for k, t_next in enumerate(times[1:], start=1):
        while True:
            trial = prop.advance(psi, t_next - t)
            if np.vdot(trial, trial).real > r:
                psi = trial
                t = t_next
                break
            # the squared norm decreases monotonically: bisect the crossing
            lo, hi = t, t_next
            while hi - lo > bisect_tol:
                mid = 0.5 * (lo + hi)
                if np.vdot(
                    (cand := prop.advance(psi, mid - t)), cand
                ).real > r:
                    lo = mid
                else:
                    hi = mid
            t_jump = 0.5 * (lo + hi)
            psi = prop.advance(psi, t_jump - t)
            t = t_jump
            w_cav = p.kappa * float(np.linalg.norm(prop.a @ psi) ** 2)
            w_tls = p.gamma * float(np.linalg.norm(prop.sm @ psi) ** 2)
            if w_cav + w_tls <= 0:
                raise RuntimeError("jump resolution lost: no decay weight at jump time")
            if rng.uniform() < w_cav / (w_cav + w_tls):
                psi = prop.a @ psi
                channel = "cavity"
            else:
                psi = prop.sm @ psi
                channel = "tls"
            nrm = np.linalg.norm(psi)
            if nrm == 0.0:
                raise RuntimeError("jump resolution lost: state annihilated")
            psi = psi / nrm
            jumps.append((t_jump, channel))
            r = rng.uniform()
        states[k] = psi / np.linalg.norm(psi)
    return TrajectoryRecord(seed=seed, times=times, states=states, jumps=jumps)


def run_trajectories(
    p: ModelParams,
    psi0: StateVector,
    t_final: float,
    sample_dt: float,
    n_trajectories: int,
    base_seed: int,
) -> list[TrajectoryRecord]:
    """Ensemble of n_trajectories unravelings run in turn, trajectory i with
    seed base_seed + i, all sharing one jump propagator."""
    prop = _JumpPropagator(p)
    return [
        mcwf_trajectory(p, psi0, t_final, base_seed + i, sample_dt, _prop=prop)
        for i in range(n_trajectories)
    ]


def trajectory_average(records: list[TrajectoryRecord], observable: Operator):
    """Ensemble mean of <psi|O|psi> over trajectories sharing one sample grid.

    Returns (times, mean, standard_error)."""
    if not records:
        raise ValueError("need at least one trajectory record")
    times = records[0].times
    for rec in records[1:]:
        if not np.array_equal(rec.times, times):
            raise ValueError("trajectory records have mismatched sample grids")
    vals = np.empty((len(records), len(times)))
    for i, rec in enumerate(records):
        vals[i] = np.einsum(
            "ti,ij,tj->t", rec.states.conj(), observable.mat, rec.states
        ).real
    mean = vals.mean(axis=0)
    if len(records) > 1:
        stderr = vals.std(axis=0, ddof=1) / math.sqrt(len(records))
    else:
        stderr = np.zeros_like(mean)
    return times, mean, stderr

"""Time evolution: Schrodinger integration, Lindblad dynamics, steady states,
and Monte Carlo wave-function (quantum-jump) trajectories.

The Liouvillian is a sparse (CSR) superoperator acting on the column-stacked
vectorization of rho.  H, a and sigma_- all conserve k = (m - m') mod n, where
m and m' are the photon numbers of the row and column of rho, so L is
block-diagonal in k (a weak symmetry).  The steady state lies in the k = 0
block and is found by sparse LU on that block alone; the spectral propagator
eigendecomposes a block only when an operator has support in it, and a block
closed under the adjoint (2k = 0 mod n) as a real matrix in a Hermitian
operator basis.  There is one steady-state solver, SteadyStateWorkspace: it
holds the k = 0 system of one L, and since delta_a moves only the diagonal of
L, it rewrites just the k = 0 diagonal (with the arithmetic of
build_liouvillian) to solve at any delta_a.  steady_state(L) is its solve at
the delta_a of L, then a truncation check.  H and L do not depend on time, so
each equation of motion has one propagator, an eigendecomposition, which is
exact at the sample times.

scipy is imported only where a Liouvillian is built or factored:
build_liouvillian (the one way to make an L; lindblad_evolve,
LiouvillePropagator and steady_state all start from one), _hermitian_basis
and SteadyStateWorkspace.  Schrodinger propagation and the quantum-jump
trajectories need only numpy, so a run that never builds L never loads scipy
(about 0.3 s of start-up).  The module is kept whole rather than split along
that line, because the benchmark tracer (perfbench/tracing.py) wraps the
functions whose __module__ is bundlejc.dynamics and reads
bundlejc.dynamics.LiouvillePropagator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .hilbert import (
    DensityMatrix,
    DimensionMismatchError,
    SpaceDims,
    StateVector,
    fock_annihilation,
    tls_operator,
)
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


def schrodinger_evolve(H: np.ndarray, psi0: StateVector, t_grid) -> np.ndarray:
    """Solve i dpsi/dt = H psi exactly at the grid times (eigh of H); returns
    the amplitudes at each grid time.  No renormalization is applied: norm
    drift beyond 1e-5 aborts, because it means the eigenbasis was not unitary.
    """
    d = len(psi0.amp)
    if H.shape != (d, d):
        raise DimensionMismatchError(f"H has shape {H.shape}; psi0 needs ({d}, {d})")
    herm = np.max(np.abs(H - H.conj().T))
    if not herm < 1e-10:  # written so that a NaN deviation fails too
        raise ValueError(f"H must be Hermitian: max |H - H^dag| = {herm:.3e}")
    t_grid = np.asarray(t_grid, dtype=float)
    psi = psi0.amp.astype(complex)
    if not abs(psi0.norm - 1.0) <= 1e-9:
        raise ValueError(f"psi0 must be normalized; its norm is {psi0.norm}")
    evals, evecs = np.linalg.eigh(H)
    c0 = evecs.conj().T @ psi
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


@dataclass(frozen=True)
class Liouvillian:
    """Sparse superoperator on column-stacked rho, built from params.

    sectors[k] holds the vec indices of the entries rho[i, j] whose photon
    numbers satisfy (m_i - m_j) mod n = k; mat has no entry between sectors.
    """

    params: ModelParams
    mat: sp.csr_array  # of _csr_class()
    sectors: tuple[np.ndarray, ...]

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
    """L(rho) = -i[H_I, rho] + kappa D[a] rho + gamma D[sigma_-] rho.

    Written as L rho = G rho + rho G^dag + sum_c rate_c C rho C^dag with
    G = -i H_I - (1/2) sum_c rate_c C^dag C, and assembled in COO form from
    the nonzeros of the d x d operators: vec(X rho Y) = kron(Y^T, X) vec(rho).
    """
    dims = p.dims
    d = dims.total_dim
    jumps = [(rate, c) for rate, c in _decay_channels(p) if rate > 0]
    g = _damped_generator(build_H_I(p), [(rate, c.conj().T @ c) for rate, c in jumps])
    eye = np.eye(d)
    terms = [_kron_coo(eye, g), _kron_coo(g.conj(), eye)]
    terms += [_kron_coo(c.conj(), rate * c) for rate, c in jumps]
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*terms))
    lmat = _csr_class()((vals, (rows, cols)), shape=(d * d, d * d))
    lmat.eliminate_zeros()
    return Liouvillian(p, lmat, _sectors(dims, p.n))


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
    """Spectral form of exp(L t), one eigendecomposition per symmetry sector.

    A sector is decomposed the first time an operator with support in it is
    propagated, and reused afterwards.  L maps Hermitian operators to
    Hermitian ones, so a sector closed under the adjoint is decomposed as the
    real matrix T K T^dag (T from _hermitian_basis) at about half the cost;
    as X = T^dag (T X) for any X, arbitrary (not necessarily trace-one or
    Hermitian) operators propagate, as the two-time regression pathway needs.
    """

    def __init__(self, L: Liouvillian):
        self.L = L
        self._spectra: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _spectrum(self, k: int):
        if k not in self._spectra:
            block = self.L.block(k)
            if 2 * k % len(self.L.sectors):
                evals, evecs = np.linalg.eig(block.toarray())
                self._spectra[k] = (evals, evecs, np.linalg.inv(evecs))
            else:
                t = _hermitian_basis(self.L.sectors[k], self.L.params.dims.total_dim)
                real_form = t @ block @ t.conj().T
                imag = np.abs(real_form.data.imag).max(initial=0.0)
                if imag > 1e-14 * np.abs(real_form.data.real).max(initial=0.0):
                    raise RuntimeError(f"sector k={k} not real in the Hermitian basis: {imag:.3e}")
                evals, w = np.linalg.eig(real_form.real.toarray())
                inv = np.linalg.inv(w) @ t  # before T^dag W: one dense matrix fewer at peak
                self._spectra[k] = (evals, t.conj().T @ w, inv)
        return self._spectra[k]

    def propagate(self, op_mat: np.ndarray, taus) -> np.ndarray:
        """Returns an array of operators exp(L tau) op, one per tau."""
        d = self.L.params.dims.total_dim
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
    """Raise unless every rho is Hermitian, trace-one and positive; each test
    is written so that a NaN fails it."""
    for rho in history:
        herm = np.max(np.abs(rho - rho.conj().T))
        if not herm <= 1e-9:
            raise RuntimeError(f"Hermiticity violated: {herm:.3e}")
        tr = rho.trace().real
        if not abs(tr - 1.0) <= 1e-7:
            raise RuntimeError(f"trace violated: {tr}")
        ev_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
        if not ev_min >= -1e-7:
            raise RuntimeError(f"positivity violated: min eigenvalue {ev_min:.3e}")


def lindblad_evolve(L: Liouvillian, rho0: DensityMatrix, t_grid) -> np.ndarray:
    """Propagate rho0 under L; returns density matrices at each grid time."""
    t_grid = np.asarray(t_grid, dtype=float)
    rho0.validate()
    history = LiouvillePropagator(L).propagate(rho0.mat, t_grid - t_grid[0])
    _check_density_history(history)
    return history


def steady_state(L: Liouvillian) -> DensityMatrix:
    """Unique stationary density matrix of L: SteadyStateWorkspace(L) solved
    at the delta_a of L.  Raises TruncationError if the top Fock level holds
    population TAIL_TOL or more; the workspace solve alone skips that check."""
    rho = SteadyStateWorkspace(L).solve(L.params.delta_a)
    i = rho.dims.index(rho.dims.n_max, 0)  # |n_max, g>; |n_max, e> follows
    tail = float(rho.mat[i, i].real + rho.mat[i + 1, i + 1].real)
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
    """The k = 0 steady-state system of L along delta_a, built once.

    delta_a enters H_I only on its diagonal, as delta_a (N + n |e><e|) (since
    delta_sigma = Delta + n delta_a), so it moves only the diagonal of L:
    L_(i,j),(i,j) = G_ii + conj(G_jj), with G = -i H_I - (1/2) sum_c rate_c
    C^dag C.  That entry is constant for a population (i = j).  The k = 0
    block K and its constrained form (row 0 replaced by the nonzeros of the
    trace row) are kept in CSC with every coherence diagonal in the pattern;
    `solve` rewrites those entries from the d diagonal values of G, with the
    arithmetic of build_liouvillian, and factors afresh.  ||L||_F is the fixed
    off-diagonal sum plus sum_(i,j) |G_ii + conj(G_jj)|^2.
    """

    def __init__(self, L: Liouvillian):
        import scipy.sparse as sp

        p = L.params
        d = p.dims.total_dim
        self._p = p
        self._idx = L.sectors[0]
        a = fock_annihilation(p.dims)
        self._num = np.diagonal(a.conj().T @ a)  # as build_H_I forms N: sqrt(m)^2, not m
        self._pe = np.diagonal(tls_operator("excited_projector", p.dims))
        self._decays = [
            (rate, np.diagonal(c.conj().T @ c)) for rate, c in _decay_channels(p) if rate > 0
        ]
        lmat = L.mat
        lrow = np.repeat(np.arange(lmat.shape[0]), np.diff(lmat.indptr))
        self._offdiag_sq = float(np.sum(np.abs(lmat.data[lmat.indices != lrow]) ** 2))

        k0 = L.block(0).tocoo()
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

    def solve(self, delta_a: float) -> DensityMatrix:
        """Steady state of L at this delta_a, with no truncation check.

        The constrained block is solved by sparse LU.  L is block-diagonal in
        k, so ||K x|| is the residual ||L rho|| of the full L.  If it exceeds
        1e-9 ||L||_F, or L has no cavity decay (kappa = 0: nothing relaxes the
        photon number, and LU would return one of possibly many stationary
        states), the null space of K is inspected densely, with a logged
        warning, to tell a degenerate steady state from a solver failure.
        """
        from scipy.sparse.linalg import splu

        q = replace(self._p, delta_a=delta_a)
        g = _damped_generator(_detuning_terms(q, self._num, self._pe), self._decays)
        diag = g[self._i] + g[self._j].conj()
        self._block.data[self._block_diag] = diag
        self._constrained.data[self._constrained_diag] = diag
        l_scale = math.sqrt(
            self._offdiag_sq + float(np.sum(np.abs(g[:, None] + g.conj()[None, :]) ** 2))
        )

        x0 = None
        residual = np.inf
        if q.kappa > 0:
            constrained = self._constrained
            if not diag.all():
                # build_liouvillian drops an entry that vanishes (a coherence of
                # the same energy at gamma = 0); so must the pattern SuperLU orders
                constrained = constrained.copy()
                constrained.eliminate_zeros()
            b = np.zeros(len(self._idx), dtype=complex)
            b[0] = 1.0
            try:
                x0 = splu(constrained).solve(b)
                residual = np.linalg.norm(self._block @ x0)
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
            _, svals, vh = np.linalg.svd(self._block.toarray())
            null_dim = int(np.sum(svals < 1e-10 * svals[0]))
            if null_dim != 1:
                raise RuntimeError(f"degenerate steady state: null-space dimension {null_dim}")
            x0 = vh[-1].conj()
            x0 = x0 / (self._trace @ x0)
            residual = np.linalg.norm(self._block @ x0)
            if not residual <= 1e-9 * l_scale:
                raise RuntimeError(f"steady-state residual too large: {residual:.3e}")

        d = q.dims.total_dim
        x = np.zeros(d * d, dtype=complex)
        x[self._idx] = x0
        rho = unvec(x, d)
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / rho.trace().real
        return DensityMatrix(q.dims, rho)


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
    psi0: StateVector,
    t_final: float,
    seed: int,
    sample_dt: float,
    _prop: _JumpPropagator | None = None,
) -> TrajectoryRecord:
    """Single quantum-jump trajectory of the master equation.

    Deterministic non-Hermitian evolution until the squared norm reaches the
    next uniform draw r.  The jump time is the root of log ||psi||^2 = log r,
    solved by safeguarded Newton iteration to JUMP_TOL in the log-norm, so it
    does not depend on sample_dt.  The channel is chosen proportionally to
    kappa<a^dag a> vs gamma<sigma_+ sigma_->.  Bit-reproducible for a fixed
    seed, and the same record whether run alone or in run_trajectories.
    """
    _check_horizon(t_final=t_final, sample_dt=sample_dt)
    if not abs(psi0.norm - 1.0) <= 1e-9:
        raise ValueError(f"psi0 must be normalized; its norm is {psi0.norm}")
    prop = _prop if _prop is not None else _JumpPropagator(p)
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, t_final + sample_dt / 2, sample_dt)
    states = np.empty((len(times), p.dims.total_dim), dtype=complex)
    jumps: list[tuple[float, str]] = []

    states[0] = psi0.amp
    c = prop.inv @ psi0.normalized().amp
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
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1; got {n_trajectories}")
    prop = _JumpPropagator(p)
    return [
        mcwf_trajectory(p, psi0, t_final, base_seed + i, sample_dt, _prop=prop)
        for i in range(n_trajectories)
    ]


def trajectory_average(records: list[TrajectoryRecord], observable: np.ndarray):
    """Ensemble mean of <psi|O|psi> over trajectories sharing one sample grid.

    Returns (times, mean, standard_error)."""
    if not records:
        raise ValueError("need at least one trajectory record")
    times = records[0].times
    for rec in records[1:]:
        if not np.array_equal(rec.times, times):
            raise ValueError("trajectory records have mismatched sample grids")
    d = records[0].states.shape[1]
    if observable.shape != (d, d):
        raise DimensionMismatchError(
            f"observable has shape {observable.shape}; the states need ({d}, {d})"
        )
    vals = np.empty((len(records), len(times)))
    for i, rec in enumerate(records):
        vals[i] = np.einsum(
            "ti,ij,tj->t", rec.states.conj(), observable, rec.states
        ).real
    mean = vals.mean(axis=0)
    if len(records) > 1:
        stderr = vals.std(axis=0, ddof=1) / math.sqrt(len(records))
    else:
        stderr = np.zeros_like(mean)
    return times, mean, stderr

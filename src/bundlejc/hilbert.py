"""Operators and states on the truncated Fock(n_max) x two-level space.

Basis ordering is fixed throughout the package: the composite index of the
basis state |m> (x) |s> is  2*m + s  with s = 0 for the TLS ground state |g>
and s = 1 for the excited state |e>.  All serialization uses this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "SpaceDims",
    "Operator",
    "StateVector",
    "DensityMatrix",
    "fock_annihilation",
    "tls_operator",
    "identity",
    "matmul",
    "dagger",
    "commutator",
    "expectation",
    "basis_state",
]

GROUND = 0
EXCITED = 1

TLS_KINDS = ("sigma_minus", "sigma_plus", "sigma_x", "sigma_z", "excited_projector")


class DimensionMismatchError(ValueError):
    """Operands live on different truncated spaces."""


@dataclass(frozen=True)
class SpaceDims:
    """Truncated space keeping Fock levels 0..n_max, tensored with the TLS."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1

    @property
    def total_dim(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, m: int, s: int) -> int:
        """Composite index of |m>|s>; s=0 is |g>, s=1 is |e>."""
        if not (0 <= m <= self.n_max and s in (0, 1)):
            raise ValueError(f"basis labels out of range: m={m}, s={s}")
        return 2 * m + s

    def unindex(self, i: int) -> tuple[int, int]:
        return divmod(i, 2)


def _check_same_dims(*objs):
    dims = objs[0].dims
    for o in objs[1:]:
        if o.dims != dims:
            raise DimensionMismatchError(f"dims differ: {dims} vs {o.dims}")
    return dims


def _frozen_complex(arr, shape) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    if out.shape != shape:
        raise DimensionMismatchError(f"expected shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Operator:
    """Dense operator on the composite space (immutable)."""

    dims: SpaceDims
    mat: np.ndarray

    def __post_init__(self):
        d = self.dims.total_dim
        object.__setattr__(self, "mat", _frozen_complex(self.mat, (d, d)))

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_dims(self, other)
        return Operator(self.dims, self.mat @ other.mat)

    def dag(self) -> "Operator":
        return Operator(self.dims, self.mat.conj().T)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return np.max(np.abs(self.mat - self.mat.conj().T)) < tol


@dataclass(frozen=True)
class StateVector:
    """Pure state with amplitudes in the fixed (m, s) ordering."""

    dims: SpaceDims
    amp: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "amp", _frozen_complex(self.amp, (self.dims.total_dim,))
        )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def normalized(self) -> "StateVector":
        return StateVector(self.dims, self.amp / self.norm)

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.amp, self.amp.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    dims: SpaceDims
    mat: np.ndarray

    def __post_init__(self):
        d = self.dims.total_dim
        object.__setattr__(self, "mat", _frozen_complex(self.mat, (d, d)))

    def validate(self, herm_tol=1e-10, trace_tol=1e-8, eig_floor=-1e-8):
        """Raise if the state is not Hermitian, trace-one and positive."""
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > herm_tol:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = self.mat.trace()
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        evals = np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2)
        if evals.min() < eig_floor:
            raise ValueError(f"density matrix not positive: min eigenvalue {evals.min():.3e}")


def fock_annihilation(dims: SpaceDims) -> Operator:
    """Photon annihilation a (x) I_2; <m-1|a|m> = sqrt(m) on the kept levels."""
    nf = dims.fock_dim
    a = np.diag(np.sqrt(np.arange(1, nf)), k=1)
    return Operator(dims, np.kron(a, np.eye(2)))


def tls_operator(kind: str, dims: SpaceDims) -> Operator:
    """I_Fock (x) (2x2) in the (|g>, |e>) ordering."""
    if kind == "sigma_minus":
        m = np.array([[0, 1], [0, 0]], dtype=complex)
    elif kind == "sigma_plus":
        m = np.array([[0, 0], [1, 0]], dtype=complex)
    elif kind == "sigma_x":
        m = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "sigma_z":
        m = np.array([[-1, 0], [0, 1]], dtype=complex)
    elif kind == "excited_projector":
        m = np.array([[0, 0], [0, 1]], dtype=complex)
    else:
        raise ValueError(f"unknown TLS operator kind {kind!r}; expected one of {TLS_KINDS}")
    return Operator(dims, np.kron(np.eye(dims.fock_dim), m))


def identity(dims: SpaceDims) -> Operator:
    return Operator(dims, np.eye(dims.total_dim))


def matmul(*ops: Operator) -> Operator:
    if not ops:
        raise ValueError("matmul needs at least one operator")
    dims = _check_same_dims(*ops)
    out = ops[0].mat
    for op in ops[1:]:
        out = out @ op.mat
    return Operator(dims, out)


def dagger(op: Operator) -> Operator:
    return op.dag()


def commutator(a: Operator, b: Operator) -> Operator:
    dims = _check_same_dims(a, b)
    return Operator(dims, a.mat @ b.mat - b.mat @ a.mat)


def expectation(op: Operator, state: StateVector | DensityMatrix) -> complex:
    """<psi|O|psi> for pure states, Tr(O rho) for density matrices."""
    _check_same_dims(op, state)
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amp, op.mat @ state.amp))
    return complex(np.trace(op.mat @ state.mat))


def basis_state(dims: SpaceDims, m: int, s: int) -> StateVector:
    amp = np.zeros(dims.total_dim, dtype=complex)
    amp[dims.index(m, s)] = 1.0
    return StateVector(dims, amp)


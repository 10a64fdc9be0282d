"""Operators and states on the truncated Fock(n_max) x two-level space.

Operators are plain complex (d, d) arrays, each built fresh per call.  States
and density matrices are immutable and checked: their arrays are read-only
copies of the shape the space fixes.

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
    "StateVector",
    "DensityMatrix",
    "fock_annihilation",
    "tls_operator",
    "basis_state",
]

TLS_KINDS = ("sigma_minus", "sigma_x", "excited_projector")


class DimensionMismatchError(ValueError):
    """An array's shape does not match the truncated space it is built on."""


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


def _frozen_complex(arr, shape) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    if out.shape != shape:
        raise DimensionMismatchError(f"expected shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


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

    def validate(self):
        """Raise if the state is not Hermitian, trace-one and positive."""
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > 1e-10:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = self.mat.trace()
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        evals = np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2)
        if evals.min() < -1e-8:
            raise ValueError(f"density matrix not positive: min eigenvalue {evals.min():.3e}")


def fock_annihilation(dims: SpaceDims) -> np.ndarray:
    """Photon annihilation a (x) I_2; <m-1|a|m> = sqrt(m) on the kept levels."""
    nf = dims.fock_dim
    a = np.diag(np.sqrt(np.arange(1, nf)), k=1)
    return np.kron(a, np.eye(2)).astype(complex)


def tls_operator(kind: str, dims: SpaceDims) -> np.ndarray:
    """I_Fock (x) (2x2) in the (|g>, |e>) ordering."""
    if kind == "sigma_minus":
        m = np.array([[0, 1], [0, 0]], dtype=complex)
    elif kind == "sigma_x":
        m = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "excited_projector":
        m = np.array([[0, 0], [0, 1]], dtype=complex)
    else:
        raise ValueError(f"unknown TLS operator kind {kind!r}; expected one of {TLS_KINDS}")
    return np.kron(np.eye(dims.fock_dim), m)


def basis_state(dims: SpaceDims, m: int, s: int) -> StateVector:
    amp = np.zeros(dims.total_dim, dtype=complex)
    amp[dims.index(m, s)] = 1.0
    return StateVector(dims, amp)


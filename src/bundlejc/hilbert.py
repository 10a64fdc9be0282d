"""Operators and states on the truncated Fock(n_max) x two-level space.

Operators, states and density matrices are plain complex arrays, each built
fresh per call: an operator or a density matrix has shape (d, d) and a state
vector shape (d,), with d = SpaceDims.total_dim.  Every function that takes
one checks its shape with _check_shape, which names the argument.

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
    "fock_annihilation",
    "tls_operator",
    "basis_state",
]

TLS_KINDS = ("sigma_minus", "sigma_x", "excited_projector")


class DimensionMismatchError(ValueError):
    """An array's shape does not match the truncated space it is built on."""


def _check_shape(name: str, arr, shape: tuple) -> None:
    """Raise a DimensionMismatchError that names arr as name unless arr has this shape."""
    if np.shape(arr) != shape:
        raise DimensionMismatchError(f"{name} has shape {np.shape(arr)}; the space needs {shape}")


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


def basis_state(dims: SpaceDims, m: int, s: int) -> np.ndarray:
    """Amplitudes of |m>|s>, a fresh complex array of shape (total_dim,)."""
    amp = np.zeros(dims.total_dim, dtype=complex)
    amp[dims.index(m, s)] = 1.0
    return amp


import numpy as np
import pytest

from bundlejc.hilbert import (
    DensityMatrix,
    DimensionMismatchError,
    SpaceDims,
    StateVector,
    basis_state,
    fock_annihilation,
    tls_operator,
)

DIMS = SpaceDims(6)


def test_space_dims_basic():
    assert DIMS.fock_dim == 7
    assert DIMS.total_dim == 14
    with pytest.raises(ValueError):
        SpaceDims(0)


def test_index_round_trip():
    for m in range(DIMS.n_max + 1):
        for s in (0, 1):
            assert divmod(DIMS.index(m, s), 2) == (m, s)


def test_annihilation_ladder():
    a = fock_annihilation(DIMS)
    out = a @ basis_state(DIMS, 1, 0).amp
    np.testing.assert_allclose(out, basis_state(DIMS, 0, 0).amp)
    out = a @ basis_state(DIMS, 4, 1).amp
    np.testing.assert_allclose(out, 2.0 * basis_state(DIMS, 3, 1).amp)
    # vacuum annihilates
    assert np.all(a @ basis_state(DIMS, 0, 1).amp == 0)


def test_annihilation_matrix_elements():
    a = fock_annihilation(DIMS)
    for m in range(1, DIMS.n_max + 1):
        for s in (0, 1):
            elem = a[DIMS.index(m - 1, s), DIMS.index(m, s)]
            assert elem == pytest.approx(np.sqrt(m))


def test_tls_operators():
    sm = tls_operator("sigma_minus", DIMS)
    proj = tls_operator("excited_projector", DIMS)
    np.testing.assert_allclose(
        sm @ basis_state(DIMS, 3, 1).amp, basis_state(DIMS, 3, 0).amp
    )
    assert np.all(proj @ basis_state(DIMS, 2, 0).amp == 0)
    # sigma_+ sigma_- = |e><e|
    np.testing.assert_allclose(sm.conj().T @ sm, proj)
    sx = tls_operator("sigma_x", DIMS)
    np.testing.assert_allclose(sx @ sx, np.eye(DIMS.total_dim))
    for kind in ("sigma_y", "sigma_plus", "sigma_z"):
        with pytest.raises(ValueError):
            tls_operator(kind, DIMS)


def test_number_operator_diagonal():
    a = fock_annihilation(DIMS)
    num = a.conj().T @ a
    expected = np.repeat(np.arange(DIMS.fock_dim), 2).astype(complex)
    np.testing.assert_allclose(np.diagonal(num), expected)


def test_commutator_truncation():
    # [a, a^dag] = 1 except on the discarded top Fock level
    a = fock_annihilation(DIMS)
    comm = a @ a.conj().T - a.conj().T @ a
    for m in range(DIMS.n_max):
        for s in (0, 1):
            i = DIMS.index(m, s)
            assert comm[i, i] == pytest.approx(1.0)
    top = DIMS.index(DIMS.n_max, 0)
    assert comm[top, top] == pytest.approx(-DIMS.n_max)


def test_dimension_mismatch_rejected():
    # a state or density matrix of another truncation fails to build
    with pytest.raises(DimensionMismatchError):
        StateVector(DIMS, basis_state(SpaceDims(4), 0, 0).amp)
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(DIMS, np.eye(SpaceDims(4).total_dim) / SpaceDims(4).total_dim)


def test_expectation_examples():
    a = fock_annihilation(DIMS)
    num = a.conj().T @ a
    psi = basis_state(DIMS, 3, 0).amp
    assert np.vdot(psi, num @ psi) == pytest.approx(3.0)
    proj = tls_operator("excited_projector", DIMS)
    for m, s, expected in ((2, 1, 1.0), (2, 0, 0.0)):
        psi = basis_state(DIMS, m, s).amp
        assert np.vdot(psi, proj @ psi) == pytest.approx(expected)
    # mixture average
    rho = (
        0.5 * basis_state(DIMS, 0, 0).to_density_matrix().mat
        + 0.5 * basis_state(DIMS, 2, 0).to_density_matrix().mat
    )
    assert np.trace(num @ DensityMatrix(DIMS, rho).mat) == pytest.approx(1.0)


def test_operators_are_fresh_complex_arrays():
    # every later product runs in complex128, and no call shares its array
    ops = [fock_annihilation(DIMS)] + [
        tls_operator(kind, DIMS) for kind in ("sigma_minus", "sigma_x", "excited_projector")
    ]
    for op in ops:
        assert op.dtype == np.complex128
        assert op.shape == (DIMS.total_dim, DIMS.total_dim)
    i, j = DIMS.index(0, 0), DIMS.index(1, 0)
    ops[0][i, j] = 5.0
    assert fock_annihilation(DIMS)[i, j] == 1.0


def test_states_immutable():
    psi = basis_state(DIMS, 1, 0)
    with pytest.raises(ValueError):
        psi.amp[0] = 1.0
    with pytest.raises(ValueError):
        psi.to_density_matrix().mat[0, 0] = 1.0

import numpy as np
import pytest

from bundlejc.dynamics import (
    LiouvillePropagator,
    run_trajectories,
    steady_state,
)
from bundlejc.hilbert import (
    DimensionMismatchError,
    SpaceDims,
    basis_state,
    fock_annihilation,
    tls_operator,
)
from bundlejc.model import dressed_state
from bundlejc.observables import g2_bundle_delayed
from oracles import pure_density

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
    for m, s in [(-1, 0), (DIMS.n_max + 1, 0), (0, 2)]:
        with pytest.raises(ValueError, match="basis labels out of range"):
            DIMS.index(m, s)


def test_annihilation_ladder():
    a = fock_annihilation(DIMS)
    out = a @ basis_state(DIMS, 1, 0)
    np.testing.assert_allclose(out, basis_state(DIMS, 0, 0))
    out = a @ basis_state(DIMS, 4, 1)
    np.testing.assert_allclose(out, 2.0 * basis_state(DIMS, 3, 1))
    # vacuum annihilates
    assert np.all(a @ basis_state(DIMS, 0, 1) == 0)


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
        sm @ basis_state(DIMS, 3, 1), basis_state(DIMS, 3, 0)
    )
    assert np.all(proj @ basis_state(DIMS, 2, 0) == 0)
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


def test_dimension_mismatch_rejected(dissipative_n2):
    # a state of another truncation, or a density matrix in place of a state
    # vector and the reverse, is refused by name wherever a state enters
    p = dissipative_n2
    psi = basis_state(SpaceDims(4), 0, 0)
    for psi0 in (psi, pure_density(basis_state(p.dims, 0, 0))):
        with pytest.raises(DimensionMismatchError, match="psi0 has shape"):
            run_trajectories(p, psi0, 1.0, 0.5, n_trajectories=2, base_seed=0)
    prop = LiouvillePropagator(p)
    for rho in (pure_density(psi), basis_state(p.dims, 0, 0)):
        with pytest.raises(DimensionMismatchError, match="rho_ss has shape"):
            g2_bundle_delayed(p, 1, [1.0], propagator=prop, rho_ss=rho)


def test_expectation_examples():
    a = fock_annihilation(DIMS)
    num = a.conj().T @ a
    psi = basis_state(DIMS, 3, 0)
    assert np.vdot(psi, num @ psi) == pytest.approx(3.0)
    proj = tls_operator("excited_projector", DIMS)
    for m, s, expected in ((2, 1, 1.0), (2, 0, 0.0)):
        psi = basis_state(DIMS, m, s)
        assert np.vdot(psi, proj @ psi) == pytest.approx(expected)
    # mixture average
    rho = 0.5 * pure_density(basis_state(DIMS, 0, 0))
    rho += 0.5 * pure_density(basis_state(DIMS, 2, 0))
    assert np.trace(num @ rho) == pytest.approx(1.0)


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


def test_states_are_fresh_complex_arrays(dissipative_n2):
    # states, like operators, are complex128 arrays of the space's shape, and
    # no call shares its array
    p = dissipative_n2
    d = p.dims.total_dim
    makers = [
        (lambda: basis_state(p.dims, 1, 0), (d,)),
        (lambda: dressed_state(p, 1, "+"), (d,)),
        (lambda: steady_state(p), (d, d)),
    ]
    for make, shape in makers:
        state = make()
        assert state.dtype == np.complex128
        assert state.shape == shape
        state[...] = 5.0
        assert np.all(make() != 5.0)


def test_nan_density_matrix_rejected(dissipative_n2):
    # g2_bundle_delayed checks rho_ss against the Liouvillian before it
    # propagates, with the steady-state solver's bounds: trace first, then
    # residual, each written so that a NaN fails it.  A NaN on the diagonal
    # fails the trace bound
    prop, rho = LiouvillePropagator(dissipative_n2), steady_state(dissipative_n2)
    rho[3, 3] = np.nan
    with pytest.raises(ValueError, match=r"^rho_ss is not the steady state .*: \|Tr x - 1\| = nan"):
        g2_bundle_delayed(dissipative_n2, 1, [1.0], propagator=prop, rho_ss=rho)


def test_nan_coherence_fails_residual_bound(dissipative_n2):
    # a NaN in a k = 0 coherence (|0,g><0,e|) leaves the trace alone
    prop, rho = LiouvillePropagator(dissipative_n2), steady_state(dissipative_n2)
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match=r"^rho_ss is not the steady state .*: residual nan > 1e-9"):
        g2_bundle_delayed(dissipative_n2, 1, [1.0], propagator=prop, rho_ss=rho)

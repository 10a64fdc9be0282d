import math
import re
from dataclasses import replace

import numpy as np
import pytest

from bundlejc.dynamics import (
    LiouvillePropagator,
    SteadyStateWorkspace,
    build_liouvillian,
    steady_state,
)
from bundlejc.hilbert import (
    DimensionMismatchError,
    SpaceDims,
    basis_state,
    fock_annihilation,
)
from bundlejc.model import ModelParams
from bundlejc.observables import (
    dressed_populations,
    g2_bundle_delayed,
    g_equal_time,
    photon_distribution,
    tau_min,
)
from oracles import dressed_population, pure_density


def fock_mixture(dims, weights):
    """Diagonal cavity state, TLS in |g>."""
    mat = np.zeros((dims.total_dim,) * 2, dtype=complex)
    for m, w in enumerate(weights):
        mat[dims.index(m, 0), dims.index(m, 0)] = w
    return mat / np.trace(mat).real


def coherent_state(dims, alpha):
    amp = np.zeros(dims.total_dim, dtype=complex)
    for m in range(dims.n_max + 1):
        amp[dims.index(m, 0)] = alpha**m / math.sqrt(math.factorial(m))
    return pure_density(amp / np.linalg.norm(amp))


class TestPhotonDistribution:
    def test_basis_states(self):
        dims = SpaceDims(5)
        for m in (0, 2, 5):
            for s in (0, 1):
                pm = photon_distribution(pure_density(basis_state(dims, m, s)))
                expected = np.zeros(6)
                expected[m] = 1.0
                np.testing.assert_allclose(pm, expected, atol=1e-12)

    def test_mixture_and_normalization(self):
        dims = SpaceDims(4)
        rho = fock_mixture(dims, [1.0, 0.0, 3.0])
        pm = photon_distribution(rho)
        np.testing.assert_allclose(pm[:3], [0.25, 0.0, 0.75], atol=1e-12)
        assert pm.sum() == pytest.approx(1.0)


class TestDressedPopulations:
    def test_completeness(self, unitary_n2):
        psi = basis_state(unitary_n2.dims, 0, 0)
        pops = dressed_populations(psi, unitary_n2)
        assert pops.sum() == pytest.approx(1.0, abs=1e-10)

    def test_ground_state_split(self, unitary_n2):
        # |0, g> overlaps the m=0 doublet with weights c_-^2 and c_+^2
        from bundlejc.model import dressed

        d = dressed(unitary_n2)
        psi = basis_state(unitary_n2.dims, 0, 0)
        assert dressed_population(psi, unitary_n2, 0, "+") == pytest.approx(
            d.c_minus**2, abs=1e-12
        )
        assert dressed_population(psi, unitary_n2, 0, "-") == pytest.approx(
            d.c_plus**2, abs=1e-12
        )

    def test_vectorised_matches_per_element(self, unitary_n2):
        rng = np.random.default_rng(4)
        d = unitary_n2.dims.total_dim
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        per_element = np.array(
            [
                [dressed_population(psi, unitary_n2, m, br) for br in "+-"]
                for m in range(unitary_n2.n_max + 1)
            ]
        )
        np.testing.assert_allclose(
            dressed_populations(psi, unitary_n2), per_element, rtol=0, atol=1e-14
        )

    def test_history_matches_single_states(self, unitary_n2):
        # a (T, d) history gives each state's own rows, bit for bit
        rng = np.random.default_rng(6)
        d = unitary_n2.dims.total_dim
        history = rng.normal(size=(7, d)) + 1j * rng.normal(size=(7, d))
        stacked = dressed_populations(history, unitary_n2)
        assert stacked.shape == (7, unitary_n2.n_max + 1, 2)
        for amp, rows in zip(history, stacked):
            np.testing.assert_array_equal(rows, dressed_populations(amp, unitary_n2))
        with pytest.raises(DimensionMismatchError, match="amps"):
            dressed_populations(history[:, :-2], unitary_n2)

    def test_density_matrix_agrees_with_state_vector(self, unitary_n2):
        psi = basis_state(unitary_n2.dims, 2, 1)
        rho = pure_density(psi)
        for m in (0, 2):
            for br in ("+", "-"):
                assert dressed_population(rho, unitary_n2, m, br) == pytest.approx(
                    dressed_population(psi, unitary_n2, m, br), abs=1e-12
                )


class TestEqualTime:
    def test_fock_state_values(self):
        # g^(l) of |m> is m! / (m - l)! / m^l
        dims = SpaceDims(6)
        rho = pure_density(basis_state(dims, 4, 0))
        for ell in (1, 2, 3, 4):
            expected = (
                math.factorial(4) / math.factorial(4 - ell) / 4.0**ell
            )
            assert g_equal_time(rho, ell) == pytest.approx(expected, abs=1e-10)

    def test_coherent_state_poissonian(self):
        rho = coherent_state(SpaceDims(14), 0.5)
        assert g_equal_time(rho, 2) == pytest.approx(1.0, abs=1e-6)
        assert g_equal_time(rho, 3) == pytest.approx(1.0, abs=1e-5)

    def test_matches_trace_formula(self):
        # Tr(a^dag^l a^l rho) / Tr(a^dag a rho)^l from the operators, on a
        # random density matrix with coherences between all levels
        dims = SpaceDims(10)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(dims.total_dim,) * 2) + 1j * rng.normal(size=(dims.total_dim,) * 2)
        rho = x @ x.conj().T / np.trace(x @ x.conj().T).real
        a = fock_annihilation(dims)
        n_mean = np.trace(a.conj().T @ a @ rho).real
        for ell in (1, 2, 3, 4):
            al = np.linalg.matrix_power(a, ell)
            expected = np.trace(al.conj().T @ al @ rho).real / n_mean**ell
            assert g_equal_time(rho, ell) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_vacuum_rejected(self):
        rho = pure_density(basis_state(SpaceDims(3), 0, 0))
        with pytest.raises(ValueError, match="undefined"):
            g_equal_time(rho, 2)

    def test_bad_order_rejected(self):
        rho = pure_density(basis_state(SpaceDims(3), 1, 0))
        with pytest.raises(ValueError):
            g_equal_time(rho, 0)


class TestTauMin:
    def test_values(self):
        assert tau_min(1, 1.0) == pytest.approx(1.0)
        assert tau_min(2, 1.0) == pytest.approx(1.5)
        assert tau_min(3, 2.0) == pytest.approx((1.0 + 0.5 + 1.0 / 3.0) / 2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            tau_min(0, 1.0)
        with pytest.raises(ValueError):
            tau_min(2, 0.0)


@pytest.fixture(scope="module")
def dissipative_n2_ss(dissipative_n2):
    prop = LiouvillePropagator(build_liouvillian(dissipative_n2))
    return prop, steady_state(prop.L)


class TestDelayedBundleCorrelation:
    def test_zero_delay_matches_equal_time(self, dissipative_n2, dissipative_n2_ss):
        # two independent pathways to g^(2)(0) must agree
        prop, rho_ss = dissipative_n2_ss
        curve = g2_bundle_delayed(
            dissipative_n2, 1, np.array([0.0]), propagator=prop, rho_ss=rho_ss
        )
        assert curve.values[0] == pytest.approx(
            g_equal_time(rho_ss, 2), abs=1e-8
        )

    def test_long_delay_decorrelates(self, dissipative_n2, dissipative_n2_ss):
        prop, rho_ss = dissipative_n2_ss
        for order in (1, 2):
            curve = g2_bundle_delayed(
                dissipative_n2, order, np.array([200.0]), propagator=prop, rho_ss=rho_ss
            )
            assert curve.values[-1] == pytest.approx(1.0, abs=0.02)

    def test_default_grid_starts_at_tau_min(self, dissipative_n2, dissipative_n2_ss):
        prop, rho_ss = dissipative_n2_ss
        curve = g2_bundle_delayed(dissipative_n2, 2, propagator=prop, rho_ss=rho_ss)
        assert len(curve.abscissa) == 200
        assert curve.abscissa[0] == pytest.approx(tau_min(2, dissipative_n2.kappa))
        assert curve.abscissa[-1] == pytest.approx(30.0 / dissipative_n2.kappa)
        assert curve.order == 2

    def test_grid_below_tau_min_rejected(self, dissipative_n2, dissipative_n2_ss):
        # tau_min(2, kappa = 1) = 1.5: a bundle grid reaching below it is an
        # error, not silently shortened
        prop, rho_ss = dissipative_n2_ss
        for grid in ([0.1, 1.0, 2.0, 5.0], [0.01]):
            with pytest.raises(ValueError, match="tau_min"):
                g2_bundle_delayed(dissipative_n2, 2, grid, propagator=prop, rho_ss=rho_ss)
        with pytest.raises(ValueError, match="empty"):
            g2_bundle_delayed(dissipative_n2, 1, [], propagator=prop, rho_ss=rho_ss)

    @pytest.mark.parametrize(
        "order, grid, named",
        [
            (1, [-5.0, 0.0, 1.0], "delay -5 must be finite and >= 0"),
            (1, [0.0, np.nan, 1.0], "delay nan must be finite"),
            (1, [1.0, np.inf], "delay inf must be finite"),
            (2, [2.0, np.nan], "delay nan must be finite and >= tau_min = 1.5"),
            (2, [np.inf], "delay inf must be finite and >= tau_min"),
        ],
    )
    def test_bad_delay_named(self, dissipative_n2, dissipative_n2_ss, order, grid, named):
        # a negative or non-finite delay would come back as a huge or NaN
        # value, and a NaN also keeps the clamp from seeing negative values
        prop, rho_ss = dissipative_n2_ss
        with pytest.raises(ValueError, match=re.escape(named)):
            g2_bundle_delayed(dissipative_n2, order, grid, propagator=prop, rho_ss=rho_ss)

    def test_order_one_grid_taken_as_given(self, dissipative_n2, dissipative_n2_ss):
        prop, rho_ss = dissipative_n2_ss
        grid = np.array([0.1, 1.0, 2.0, 5.0])
        g1 = g2_bundle_delayed(dissipative_n2, 1, grid, propagator=prop, rho_ss=rho_ss)
        np.testing.assert_array_equal(g1.abscissa, grid)

    def test_values_nonnegative(self, dissipative_n2, dissipative_n2_ss):
        prop, rho_ss = dissipative_n2_ss
        grid = np.geomspace(tau_min(2, dissipative_n2.kappa), 30.0 / dissipative_n2.kappa, 50)
        curve = g2_bundle_delayed(dissipative_n2, 2, grid, propagator=prop, rho_ss=rho_ss)
        assert np.all(curve.values >= 0.0)

    def test_requires_decay(self, unitary_n2):
        prop = LiouvillePropagator(build_liouvillian(unitary_n2))
        rho = pure_density(basis_state(unitary_n2.dims, 0, 0))
        with pytest.raises(ValueError, match="kappa"):
            g2_bundle_delayed(unitary_n2, 1, np.array([1.0]), propagator=prop, rho_ss=rho)

    def test_vanishing_occupation_rejected(self):
        # undriven, undamped-cavity vacuum has no emission to correlate
        p = ModelParams(
            n=1, j=0.0, omega_l=0.0, delta_n=0.0, delta_a=0.0,
            kappa=1.0, gamma=0.5, n_max=3,
        )
        prop = LiouvillePropagator(build_liouvillian(p))
        with pytest.raises(ValueError, match="denominator"):
            g2_bundle_delayed(p, 1, np.array([1.0]), propagator=prop, rho_ss=steady_state(prop.L))

    @pytest.mark.parametrize("field, other", [("delta_a", 0.0), ("kappa", 2.0)])
    def test_propagator_of_other_point_rejected(
        self, dissipative_n2, dissipative_n2_ss, field, other
    ):
        # a propagator and steady state built at another point would give
        # that point's curve (at delta_a = 0: 4.417 at tau = 1.5, not 0.138),
        # or mix tau_min of p with the other point's propagation
        _, rho_ss = dissipative_n2_ss
        prop = LiouvillePropagator(build_liouvillian(replace(dissipative_n2, **{field: other})))
        with pytest.raises(ValueError, match="propagator"):
            g2_bundle_delayed(dissipative_n2, 2, [1.5], propagator=prop, rho_ss=rho_ss)

    def test_state_that_is_not_stationary_rejected(self, dissipative_n2, dissipative_n2_ss):
        # the delta_a = 0 steady state against the resonant propagator gives
        # g_2(tau_min) = 2.78 in place of 0.138; its residual ||L rho|| is
        # 9.2e-3 ||K||_F (K the k = 0 block of L), where a true steady
        # state's is under 1e-18 ||K||_F
        prop, _ = dissipative_n2_ss
        other = SteadyStateWorkspace(prop.L).solve(0.0)
        with pytest.raises(ValueError, match="rho_ss is not the steady state"):
            g2_bundle_delayed(dissipative_n2, 2, [1.5], propagator=prop, rho_ss=other)

    @pytest.mark.parametrize("size", [1e-3, 1e-30])
    def test_state_outside_k0_rejected(self, dissipative_n2, dissipative_n2_ss, size):
        # a coherence between photon numbers 1 and 0 lies in sector k = 1,
        # which the Liouvillian does not hold; it is refused by name however
        # small, not dropped or left to a residual bound
        prop, rho_ss = dissipative_n2_ss
        i, j = dissipative_n2.dims.index(1, 0), dissipative_n2.dims.index(0, 0)
        off = rho_ss.copy()
        off[i, j] = off[j, i] = size
        with pytest.raises(ValueError, match="rho_ss has support in sector k=1"):
            g2_bundle_delayed(dissipative_n2, 2, [1.5], propagator=prop, rho_ss=off)

    def test_steady_state_of_other_space_rejected(self, dissipative_n2, dissipative_n2_ss):
        prop, _ = dissipative_n2_ss
        small = pure_density(basis_state(SpaceDims(10), 0, 0))
        with pytest.raises(ValueError, match="rho_ss"):
            g2_bundle_delayed(dissipative_n2, 2, [1.5], propagator=prop, rho_ss=small)

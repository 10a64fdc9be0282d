import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from bundlejc.dynamics import (
    LiouvillePropagator,
    SteadyStateWorkspace,
    steady_state,
    unvec,
)
from bundlejc.hilbert import (
    DimensionMismatchError,
    SpaceDims,
    basis_state,
    fock_annihilation,
)
from bundlejc.model import ModelParams, at_resonance
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
        # with no photons every order is undefined: a value, not an error
        rho = pure_density(basis_state(SpaceDims(3), 0, 0))
        assert [g_equal_time(rho, ell) for ell in (1, 2, 3, 4)] == [None] * 4

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
    return LiouvillePropagator(dissipative_n2), steady_state(dissipative_n2)


class TestDelayedBundleCorrelation:
    def test_zero_delay_matches_equal_time(self, dissipative_n2, dissipative_n2_ss):
        # two independent pathways to g^(2)(0) must agree
        prop, rho_ss = dissipative_n2_ss
        g2 = g2_bundle_delayed(
            dissipative_n2, 1, np.array([0.0]), propagator=prop, rho_ss=rho_ss
        )
        assert g2[0] == pytest.approx(
            g_equal_time(rho_ss, 2), abs=1e-8
        )

    def test_long_delay_decorrelates(self, dissipative_n2, dissipative_n2_ss):
        prop, rho_ss = dissipative_n2_ss
        for order in (1, 2):
            g2 = g2_bundle_delayed(
                dissipative_n2, order, np.array([200.0]), propagator=prop, rho_ss=rho_ss
            )
            assert g2[-1] == pytest.approx(1.0, abs=0.02)

    def test_default_grid_starts_at_tau_min(self, dissipative_n2, dissipative_n2_ss):
        # the default grid is 200 geometric delays from tau_min to 30/kappa
        prop, rho_ss = dissipative_n2_ss
        kappa = dissipative_n2.kappa
        grid = np.geomspace(tau_min(2, kappa), 30.0 / kappa, 200)
        np.testing.assert_array_equal(
            g2_bundle_delayed(dissipative_n2, 2, propagator=prop, rho_ss=rho_ss),
            g2_bundle_delayed(dissipative_n2, 2, grid, propagator=prop, rho_ss=rho_ss),
        )

    def test_grid_below_tau_min_rejected(self, dissipative_n2, dissipative_n2_ss):
        # tau_min(2, kappa = 1) = 1.5: a bundle grid reaching below it is an
        # error, not silently shortened
        prop, rho_ss = dissipative_n2_ss
        for grid in ([0.1, 1.0, 2.0, 5.0], [0.01]):
            with pytest.raises(ValueError, match="tau_min"):
                g2_bundle_delayed(dissipative_n2, 2, grid, propagator=prop, rho_ss=rho_ss)
        with pytest.raises(ValueError, match="empty"):
            g2_bundle_delayed(dissipative_n2, 1, [], propagator=prop, rho_ss=rho_ss)

    def test_grid_not_1d_names_taus(self, dissipative_n2, dissipative_n2_ss):
        # N = 1 hands its grid to propagate, where a (1, 2) grid once died
        # inside numpy naming no argument
        prop, rho_ss = dissipative_n2_ss
        with pytest.raises(ValueError, match=r"^taus must be a non-empty 1-D grid; got shape \(1, 2\)$"):
            g2_bundle_delayed(dissipative_n2, 1, [[1.0, 2.0]], propagator=prop, rho_ss=rho_ss)

    @pytest.mark.parametrize(
        "order, grid, named",
        [
            (1, [-5.0, 0.0, 1.0], "taus must be finite and >= 0; got -5"),
            (1, [0.0, np.nan, 1.0], "taus must be finite and >= 0; got nan"),
            (1, [1.0, np.inf], "taus must be finite and >= 0; got inf"),
            (2, [2.0, np.nan], "delay nan must be finite and >= tau_min = 1.5"),
            (2, [np.inf], "delay inf must be finite and >= tau_min"),
        ],
    )
    def test_bad_delay_named(self, dissipative_n2, dissipative_n2_ss, order, grid, named):
        # a negative or non-finite delay would come back as a huge or NaN
        # value; the delay is named before any propagation
        prop, rho_ss = dissipative_n2_ss
        with pytest.raises(ValueError, match=re.escape(named)):
            g2_bundle_delayed(dissipative_n2, order, grid, propagator=prop, rho_ss=rho_ss)

    def test_order_one_grid_taken_as_given(self, dissipative_n2, dissipative_n2_ss):
        # an unsorted grid, tau = 0 included, comes back in its own order; the
        # rtol allows for BLAS matmul, whose bits depend on the batch size
        prop, rho_ss = dissipative_n2_ss
        grid = np.array([5.0, 0.1, 2.0, 0.0, 1.0])
        g1 = g2_bundle_delayed(dissipative_n2, 1, grid, propagator=prop, rho_ss=rho_ss)
        one_by_one = [
            g2_bundle_delayed(dissipative_n2, 1, [tau], propagator=prop, rho_ss=rho_ss)[0]
            for tau in grid
        ]
        np.testing.assert_allclose(g1, one_by_one, rtol=1e-12)

    def test_values_nonnegative(self, dissipative_n2, dissipative_n2_ss):
        prop, rho_ss = dissipative_n2_ss
        grid = np.geomspace(tau_min(2, dissipative_n2.kappa), 30.0 / dissipative_n2.kappa, 50)
        g2 = g2_bundle_delayed(dissipative_n2, 2, grid, propagator=prop, rho_ss=rho_ss)
        assert np.all(g2 >= 0.0)

    def test_roundoff_negative_returned_as_computed(self):
        # a^2 = 0 at n_max = 1, so g_1(0) is exactly 0; it is computed as
        # -3.81e-14 (OpenBLAS 0.3.31, x86-64), which a clamp once wrote as 0.0
        # with a warning.  The values come back as the contraction computes them
        p = at_resonance(ModelParams(
            n=1, j=1.0, omega_l=21.0, delta_n=1.0, delta_a=0.0, kappa=10.0, gamma=1.0, n_max=1,
        ))
        prop = LiouvillePropagator(p)
        rho = steady_state(p)
        grid = np.array([0.0, 0.1, 1.0])
        g1 = g2_bundle_delayed(p, 1, grid, propagator=prop, rho_ss=rho)
        a = fock_annihilation(p.dims)
        meas = a.conj().T @ a
        computed = prop.expectation(meas, a @ rho @ a.conj().T, grid).real
        np.testing.assert_array_equal(g1, computed / np.trace(meas @ rho).real ** 2)
        assert -1e-6 <= g1[0] < 0.0

    def test_negative_beyond_roundoff_refused(self):
        # P*: its bundle curve reads -0.204 at tau = 0.283, where a dense expm
        # of the same Liouvillian gives +0.0765; the clamp once wrote 0.0 at
        # four delays.  The refusal names N, the value and its delay
        p = at_resonance(ModelParams(
            n=2, j=-71.1296499191231, omega_l=-78.95551397250043,
            delta_n=0.04614540461922445, delta_a=0.0, kappa=44.27038123075698,
            gamma=1e-300, n_max=2,
        ))
        prop = LiouvillePropagator(p)
        rho = steady_state(p)
        grid = np.geomspace(tau_min(2, p.kappa), 30.0 / p.kappa, 200)
        with pytest.raises(ValueError, match=r"^g_2\^\(2\)\(tau = ([0-9.e-]+)\) = -[0-9.]+e-0[1-3] "
                           r"is not >= -1e-06, the round-off bound$") as refusal:
            g2_bundle_delayed(p, 2, grid, propagator=prop, rho_ss=rho)
        tau = float(re.search(r"tau = ([0-9.e-]+)", str(refusal.value))[1])
        a2 = fock_annihilation(p.dims) @ fock_annihilation(p.dims)
        meas = a2.conj().T @ a2
        x = prop.L.k0_entries(a2 @ rho @ a2.conj().T, "collapsed")
        d = p.dims.total_dim
        out = np.zeros(d * d, dtype=complex)
        out[prop.L.idx] = expm(prop.L.mat.toarray() * tau) @ x
        exact = np.trace(meas @ unvec(out, d)).real / np.trace(meas @ rho).real ** 2
        assert exact > 0.05

    def test_nan_value_refused(self, dissipative_n2, dissipative_n2_ss, monkeypatch):
        # a NaN from the contraction fails the same bound as a negative
        prop, rho_ss = dissipative_n2_ss
        monkeypatch.setattr(prop, "expectation", lambda meas, op, taus: np.full(len(taus), np.nan))
        with pytest.raises(ValueError, match=r"^g_2\^\(2\)\(tau = 1\.5\) = nan is not >= -1e-06"):
            g2_bundle_delayed(dissipative_n2, 2, [1.5, 2.0], propagator=prop, rho_ss=rho_ss)

    def test_requires_decay(self, unitary_n2):
        prop = LiouvillePropagator(unitary_n2)
        rho = pure_density(basis_state(unitary_n2.dims, 0, 0))
        with pytest.raises(ValueError, match="kappa"):
            g2_bundle_delayed(unitary_n2, 1, np.array([1.0]), propagator=prop, rho_ss=rho)

    def test_vanishing_occupation_rejected(self):
        # undriven, undamped-cavity vacuum has no emission to correlate
        p = ModelParams(
            n=1, j=0.0, omega_l=0.0, delta_n=0.0, delta_a=0.0,
            kappa=1.0, gamma=0.5, n_max=3,
        )
        prop = LiouvillePropagator(p)
        with pytest.raises(ValueError, match=r"^bundle occupation <a\^dag\^1 a\^1> = \S+ <= 1e-14$"):
            g2_bundle_delayed(p, 1, np.array([1.0]), propagator=prop, rho_ss=steady_state(p))

    @pytest.mark.parametrize("field, other", [("delta_a", 0.0), ("kappa", 2.0)])
    def test_propagator_of_other_point_rejected(
        self, dissipative_n2, dissipative_n2_ss, field, other
    ):
        # a propagator and steady state built at another point would give
        # that point's curve (at delta_a = 0: 4.417 at tau = 1.5, not 0.138),
        # or mix tau_min of p with the other point's propagation
        _, rho_ss = dissipative_n2_ss
        prop = LiouvillePropagator(replace(dissipative_n2, **{field: other}))
        with pytest.raises(ValueError, match="^propagator was built at "):
            g2_bundle_delayed(dissipative_n2, 2, [1.5], propagator=prop, rho_ss=rho_ss)

    def test_propagator_of_other_model_rejected(self, dissipative_n2, dissipative_n2_ss):
        # rho_ss is the steady state of the propagator's own L, so only the
        # check on the model the propagator was built at can refuse the pair
        prop, rho_ss = dissipative_n2_ss
        other = replace(dissipative_n2, delta_a=dissipative_n2.delta_a + 1.0)
        named = f"propagator was built at {dissipative_n2}, not at p = {other}"
        with pytest.raises(ValueError, match=re.escape(named)):
            g2_bundle_delayed(other, 2, [1.5], propagator=prop, rho_ss=rho_ss)

    def test_state_that_is_not_stationary_rejected(self, dissipative_n2, dissipative_n2_ss):
        # the delta_a = 0 steady state against the resonant propagator gives
        # g_2(tau_min) = 2.78 in place of 0.138; its residual ||L rho|| is
        # 9.2e-3 ||K||_F (K the k = 0 block of L), where a true steady
        # state's is under 1e-18 ||K||_F
        prop, _ = dissipative_n2_ss
        other = SteadyStateWorkspace(dissipative_n2).solve(0.0)
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

    @pytest.mark.parametrize(
        "scale, trace_error", [(2.0, "1.000e+00"), (1j, "1.414e+00")], ids=("doubled", "imaginary")
    )
    def test_state_without_unit_trace_rejected(
        self, dissipative_n2, dissipative_n2_ss, scale, trace_error
    ):
        # a multiple of the steady state passes the residual bound (L is
        # linear): 2 rho would halve every value (g_2(tau = 2, 5) = 0.0788,
        # 0.1831 in place of 0.1576, 0.3662), and 1j rho leaves no positive
        # denominator, an error that does not name rho_ss.  The trace bound
        # is the steady-state solver's own, quoted as the solver words it
        prop, rho_ss = dissipative_n2_ss
        with pytest.raises(
            ValueError,
            match=re.escape(
                "rho_ss is not the steady state of the propagator's Liouvillian: "
                f"|Tr x - 1| = {trace_error} > 1e-9"
            ),
        ):
            g2_bundle_delayed(
                dissipative_n2, 2, [2.0, 5.0], propagator=prop, rho_ss=scale * rho_ss
            )

    def test_steady_state_of_other_space_rejected(self, dissipative_n2, dissipative_n2_ss):
        prop, _ = dissipative_n2_ss
        small = pure_density(basis_state(SpaceDims(10), 0, 0))
        with pytest.raises(ValueError, match="rho_ss"):
            g2_bundle_delayed(dissipative_n2, 2, [1.5], propagator=prop, rho_ss=small)

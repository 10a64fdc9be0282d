import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlejc.hilbert import tls_operator
from bundlejc.model import (
    ModelParams,
    at_resonance,
    build_H_I,
    dressed,
    dressed_state,
    jc_eigensystem,
    omega_eff_jc,
    omega_eff_mollow,
    resonance_detuning,
    resonance_detuning_higher,
    resonant_branch,
)
from oracles import build_H0, build_H_jc, jc_eigenvector

drives = st.floats(0.1, 100.0, allow_nan=False)


def simple(n=2, **kw):
    base = dict(n=n, j=1.0, omega_l=10.0, delta_n=-30.0, delta_a=5.0, n_max=6)
    base.update(kw)
    return ModelParams(**base)


class TestParams:
    def test_delta_sigma_relation(self):
        p = simple()
        assert p.delta_sigma == p.delta_n + p.n * p.delta_a

    def test_validation(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            simple(n=0)
        with pytest.raises(ValueError, match="^kappa must be >= 0: it is a decay rate$"):
            simple(kappa=-1.0)
        with pytest.raises(ValueError, match="^n_max=2 < n=3: the coupling term vanishes"):
            simple(n=3, n_max=2)
        with pytest.raises(ValueError, match="^n_max=25 exceeds the cap 20$"):
            simple(n_max=25)  # factorial cap


class TestHamiltonians:
    def test_diagonal_when_uncoupled(self):
        p = simple(j=0.0, omega_l=0.0)
        h = build_H_I(p)
        assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0
        for m in range(p.n_max + 1):
            assert h[p.dims.index(m, 0), p.dims.index(m, 0)] == pytest.approx(m * p.delta_a)
            assert h[p.dims.index(m, 1), p.dims.index(m, 1)] == pytest.approx(
                m * p.delta_a + p.delta_sigma
            )

    def test_coupling_matrix_element(self):
        p = simple()
        h = build_H_I(p)
        elem = h[p.dims.index(0, 1), p.dims.index(p.n, 0)]
        assert elem == pytest.approx(p.j * math.sqrt(math.factorial(p.n)))

    def test_hermitian(self):
        for builder in (build_H_I, build_H0, build_H_jc):
            h = builder(simple())
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_decomposition(self):
        p = simple()
        h_i = build_H_I(p)
        h_0 = build_H0(p)
        h_jc = build_H_jc(p)
        sx = tls_operator("sigma_x", p.dims)
        np.testing.assert_allclose(h_i - h_jc, p.omega_l * sx, atol=1e-14)
        # H_I - H_0 has support only on (m, e) <-> (m+n, g) pairs
        diff = h_i - h_0
        for i in range(p.dims.total_dim):
            for k in range(p.dims.total_dim):
                if diff[i, k] != 0:
                    m1, s1 = divmod(i, 2)
                    m2, s2 = divmod(k, 2)
                    assert abs(m1 - m2) == p.n
                    assert {s1, s2} == {0, 1}

    def test_h0_eigenvalues_are_dressed_ladder(self):
        p = simple()
        d = dressed(p)
        evals = np.sort(np.linalg.eigvalsh(build_H0(p)))
        expected = np.sort(
            [e + m * p.delta_a for m in range(p.n_max + 1) for e in (d.e_plus, d.e_minus)]
        )
        np.testing.assert_allclose(evals, expected, atol=1e-10)

    def test_jc_block_structure(self):
        p = simple()
        h = build_H_jc(p)
        for m in range(p.n, p.n_max + 1):
            off = h[p.dims.index(m, 0), p.dims.index(m - p.n, 1)]
            assert off == pytest.approx(
                p.j * math.sqrt(math.factorial(m) / math.factorial(m - p.n))
            )


class TestDressed:
    def test_symmetric_case(self):
        p = simple(delta_n=-2.0, delta_a=1.0, omega_l=1.0)  # delta_sigma = 0
        d = dressed(p)
        assert d.omega == pytest.approx(2.0)
        assert d.e_plus == pytest.approx(1.0)
        assert d.e_minus == pytest.approx(-1.0)
        assert d.c_plus == pytest.approx(1 / math.sqrt(2))
        assert d.c_minus == pytest.approx(1 / math.sqrt(2))

    def test_two_photon_point_values(self, unitary_n2):
        d = dressed(unitary_n2)
        assert unitary_n2.delta_sigma == pytest.approx(-23.1061, abs=1e-4)
        assert d.omega == pytest.approx(141.894, abs=1e-3)
        assert d.e_plus == pytest.approx(59.394, abs=1e-3)
        assert d.e_minus == pytest.approx(-82.5, abs=1e-10)  # Delta/2 at resonance
        assert d.c_plus**2 == pytest.approx(0.4186, abs=1e-4)
        assert d.c_minus**2 == pytest.approx(0.5814, abs=1e-4)

    def test_matches_two_by_two_eigensolver(self):
        # oracle: diagonalize delta_sigma |e><e| + Omega_L sigma_x directly
        for ds, ol in [(-23.0, 70.0), (5.0, 2.0), (0.0, 1.0), (40.0, 3.0)]:
            h2 = np.array([[0.0, ol], [ol, ds]])
            evals, evecs = np.linalg.eigh(h2)
            p = simple(delta_n=ds, delta_a=0.0, omega_l=ol)
            d = dressed(p)
            assert d.e_minus == pytest.approx(evals[0], abs=1e-10)
            assert d.e_plus == pytest.approx(evals[1], abs=1e-10)
            v_plus = evecs[:, 1] * np.sign(evecs[1, 1])  # fix gauge: c_plus > 0
            assert abs(v_plus[1]) == pytest.approx(d.c_plus, abs=1e-10)
            assert abs(v_plus[0]) == pytest.approx(d.c_minus, abs=1e-10)

    def test_sigma_minus_element_oracle(self):
        # <+|sigma_-|-> by explicit 2-vector algebra equals c_minus^2
        p = simple(delta_n=-23.0, delta_a=0.0)
        d = dressed(p)
        plus = np.array([d.c_minus, d.c_plus])  # (g, e) components
        minus = np.array([-d.c_plus, d.c_minus])
        sm = np.array([[0, 1], [0, 0]])
        assert plus @ sm @ minus == pytest.approx(d.c_minus**2, abs=1e-12)

    def test_undriven_errors(self):
        with pytest.raises(ValueError, match="bare basis"):
            dressed(simple(omega_l=0.0))

    @given(st.floats(-50, 50), drives)
    @settings(max_examples=200)
    def test_normalization(self, ds, ol):
        d = dressed(simple(delta_n=ds, delta_a=0.0, omega_l=ol))
        assert d.c_plus**2 + d.c_minus**2 == pytest.approx(1.0, abs=1e-12)


class TestResonances:
    def test_reference_points(self):
        p2 = ModelParams(n=2, j=0.3, omega_l=21.0, delta_n=-49.5, delta_a=0.0, n_max=6)
        assert resonance_detuning(p2) == pytest.approx(21.2841, abs=1e-4)
        p3 = ModelParams(n=3, j=0.3, omega_l=24.0, delta_n=-79.5, delta_a=0.0, n_max=6)
        assert resonance_detuning(p3) == pytest.approx(18.0802, abs=1e-4)

    def test_unitary_point(self):
        p = ModelParams(n=2, j=1.0, omega_l=70.0, delta_n=-165.0, delta_a=0.0, n_max=6)
        assert resonance_detuning(p) == pytest.approx(70.9470, abs=1e-4)

    def test_degenerate_error(self):
        with pytest.raises(ValueError):
            resonance_detuning(simple(delta_n=0.0))

    def test_higher_order_values(self):
        p = ModelParams(n=2, j=0.3, omega_l=21.0, delta_n=-49.5, delta_a=0.0, n_max=6)
        # same numbers from the closed form [Delta +- 2 sqrt(Delta^2 + 3 Omega_L^2)]/6
        closed_plus = (-49.5 + 2 * math.sqrt(49.5**2 + 3 * 21.0**2)) / 6
        closed_minus = (-49.5 - 2 * math.sqrt(49.5**2 + 3 * 21.0**2)) / 6
        assert resonance_detuning_higher(p, 2, +1) == pytest.approx(12.2256, abs=1e-4)
        assert resonance_detuning_higher(p, 2, +1) == pytest.approx(closed_plus, abs=1e-10)
        assert resonance_detuning_higher(p, 2, -1) == pytest.approx(-28.7256, abs=1e-4)
        assert resonance_detuning_higher(p, 2, -1) == pytest.approx(closed_minus, abs=1e-10)

    def test_higher_order_radical_collapse(self):
        # Omega_L = 0: the radical collapses to |mu Delta|
        p0 = simple(omega_l=0.0, delta_n=-30.0)
        for mu in (2, 3):
            val = resonance_detuning_higher(p0, mu, +1)
            expected = (p0.delta_n + mu * abs(p0.delta_n)) / (p0.n * (mu**2 - 1))
            assert val == pytest.approx(expected, abs=1e-12)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            resonance_detuning_higher(simple(), 1, +1)
        with pytest.raises(ValueError, match="sign must be"):
            resonance_detuning_higher(simple(), 2, 0)

    @given(st.floats(-80, -1), drives, st.integers(1, 3))
    @settings(max_examples=200)
    def test_resonance_identity(self, dn, ol, n):
        p = ModelParams(n=n, j=0.1, omega_l=ol, delta_n=dn, delta_a=0.0, n_max=4)
        da = resonance_detuning(p)
        d = dressed(replace(p, delta_a=da))
        assert abs(n * da) == pytest.approx(d.omega, rel=1e-10)

    @given(st.floats(-80, -1), drives, st.integers(2, 4), st.sampled_from([1, -1]))
    @settings(max_examples=200)
    def test_higher_resonance_identity(self, dn, ol, mu, sign):
        p = ModelParams(n=2, j=0.1, omega_l=ol, delta_n=dn, delta_a=0.0, n_max=4)
        da = resonance_detuning_higher(p, mu, sign)
        d = dressed(replace(p, delta_a=da))
        assert (mu * p.n * da) ** 2 == pytest.approx(d.omega**2, rel=1e-9)

    def test_branch_helper(self):
        assert resonant_branch(simple(delta_n=-30.0)) == "plus_to_minus"
        assert resonant_branch(simple(delta_n=30.0)) == "minus_to_plus"
        with pytest.raises(ValueError, match="no resonant branch"):
            resonant_branch(simple(delta_n=0.0))


class TestEffectiveMollow:
    def test_two_photon_value(self, unitary_n2):
        eff = omega_eff_mollow(unitary_n2)
        assert eff.omega_eff == pytest.approx(-0.5920, abs=2e-4)

    def test_three_photon_value(self, unitary_n3):
        assert unitary_n3.delta_a == pytest.approx(60.2673, abs=1e-4)
        eff = omega_eff_mollow(unitary_n3)
        assert eff.omega_eff == pytest.approx(-0.6543, abs=2e-4)

    @pytest.mark.parametrize("real", [float, np.float64])
    def test_singular_point_refused(self, real):
        # x = n delta_a + E_+ = 0 at j = 0 zeroes the denominator.  With numpy
        # floats the division would give inf and a warning, not an error
        p = ModelParams(n=1, j=real(0.0), omega_l=real(1.0), delta_n=real(-2.0),
                        delta_a=real(-0.3660254037844386), n_max=2)
        with pytest.raises(ZeroDivisionError, match="^effective model singular: vanishing denominator$"):
            omega_eff_mollow(p)

    def test_linear_in_small_j(self):
        p = at_resonance(simple(j=1e-6, omega_l=70.0, delta_n=-165.0))
        eff = omega_eff_mollow(p)
        p2 = replace(p, j=2e-6)
        eff2 = omega_eff_mollow(p2)
        assert eff2.omega_eff == pytest.approx(2 * eff.omega_eff, rel=1e-5)

    def test_full_hamiltonian_splitting_oracle(self, unitary_n2, unitary_n3):
        # the two eigenstates of H_I closest to |0>|+> and |n>|-> are split
        # by 2|Omega_eff| in the Mollow regime
        for p in (unitary_n2, unitary_n3):
            eff = omega_eff_mollow(p)
            h = build_H_I(p)
            evals, evecs = np.linalg.eigh(h)
            top = dressed_state(p, 0, "+")
            bot = dressed_state(p, p.n, "-")
            i = np.argmax(np.abs(evecs.conj().T @ top))
            k = np.argmax(np.abs(evecs.conj().T @ bot))
            split = abs(evals[i] - evals[k])
            assert split == pytest.approx(2 * abs(eff.omega_eff), rel=0.1)


class TestJcRegime:
    def test_symmetric_amplitudes_at_zero_detuning(self):
        p = simple(delta_n=0.0, delta_a=3.0)
        eig = jc_eigensystem(p)
        np.testing.assert_allclose(eig.c_plus, 1 / math.sqrt(2))
        np.testing.assert_allclose(eig.c_minus, 1 / math.sqrt(2))

    def test_bare_state_limit(self):
        p = ModelParams(n=2, j=1.0, omega_l=0.1, delta_n=-165.0, delta_a=0.0, n_max=6)
        eig = jc_eigensystem(p)
        k = 0  # m = n = 2
        assert eig.omega_m[k] == pytest.approx(165.0242, abs=1e-4)
        assert eig.c_plus[k] == pytest.approx(0.00857, abs=1e-5)
        assert eig.c_minus[k] == pytest.approx(0.99996, abs=1e-5)

    def test_diagonalizes_h_jc(self):
        p = simple()
        eig = jc_eigensystem(p)
        h = build_H_jc(p)
        evals = np.sort(np.linalg.eigvalsh(h))
        # states |e, m> with m + n beyond the truncation have no partner and
        # stay bare at m*delta_a + delta_sigma
        leftovers = [
            m * p.delta_a + p.delta_sigma
            for m in range(p.n_max - p.n + 1, p.n_max + 1)
        ]
        expected = np.sort(
            np.concatenate([eig.bare_energies, eig.e_plus, eig.e_minus, leftovers])
        )
        np.testing.assert_allclose(evals, expected, atol=1e-9)

    def test_eigenvectors_orthonormal_and_exact(self):
        p = simple()
        eig = jc_eigensystem(p)
        h = build_H_jc(p)
        vecs = []
        for k, m in enumerate(eig.m_values):
            for branch, e in (("+", eig.e_plus[k]), ("-", eig.e_minus[k])):
                v = jc_eigenvector(eig, p.dims, int(m), branch)
                vecs.append(v)
                np.testing.assert_allclose(h @ v, e * v, atol=1e-9)
        gram = np.array(vecs).conj() @ np.array(vecs).T
        np.testing.assert_allclose(gram, np.eye(len(vecs)), atol=1e-10)

    def test_omega_eff_jc_reference_point(self):
        p = ModelParams(
            n=2, j=1.0, omega_l=0.1, delta_n=-165.0, delta_a=41.268234, n_max=6
        )
        assert omega_eff_jc(p) == pytest.approx(-2.0772e-6, rel=1e-3)

    @pytest.mark.parametrize("real", [float, np.float64])
    def test_omega_eff_jc_singular_point_refused(self, real):
        # j = 0 and delta_a = 0 zero the denominator n delta_a delta_sigma - n! j^2
        p = simple(j=real(0.0), delta_a=real(0.0))
        with pytest.raises(ZeroDivisionError, match="^effective model singular: vanishing denominator$"):
            omega_eff_jc(p)

    def test_omega_eff_jc_trivial_limits(self):
        p = simple(omega_l=0.0)
        assert omega_eff_jc(p) == 0.0
        small = omega_eff_jc(simple(j=1e-8))
        smaller = omega_eff_jc(simple(j=0.5e-8))
        assert small == pytest.approx(2 * smaller, rel=1e-6)

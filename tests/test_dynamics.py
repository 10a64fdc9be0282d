import logging
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.stats import kstest

from bundlejc import dynamics
from bundlejc.dynamics import (
    LiouvillePropagator,
    SteadyStateWorkspace,
    TruncationError,
    _hermitian_basis,
    build_liouvillian,
    lindblad_evolve,
    mcwf_trajectory,
    run_trajectories,
    schrodinger_evolve,
    steady_state,
    trajectory_average,
    unvec,
    vec,
)
from bundlejc.hilbert import (
    DensityMatrix,
    DimensionMismatchError,
    StateVector,
    basis_state,
    fock_annihilation,
    tls_operator,
)
from bundlejc.model import ModelParams, build_H_I
from bundlejc.observables import sweep
from dop853 import dop853
from oracles import apply_liouvillian, lu_steady_state


def decay_params(kappa=0.0, gamma=0.0, n_max=4):
    # no drive, no coupling: pure dissipative relaxation
    return ModelParams(
        n=1, j=0.0, omega_l=0.0, delta_n=0.0, delta_a=0.0,
        kappa=kappa, gamma=gamma, n_max=n_max,
    )


def dense_liouvillian(p):
    """Oracle: the Lindblad superoperator built densely with numpy kron."""
    d = p.dims.total_dim
    eye = np.eye(d)
    h = build_H_I(p)
    lmat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, op in (
        (p.kappa, fock_annihilation(p.dims)),
        (p.gamma, tls_operator("sigma_minus", p.dims)),
    ):
        if rate > 0:
            odo = op.conj().T @ op
            lmat = lmat + rate * (
                np.kron(op.conj(), op) - 0.5 * np.kron(eye, odo) - 0.5 * np.kron(odo.T, eye)
            )
    return lmat


def random_density(dims, seed):
    rng = np.random.default_rng(seed)
    d = dims.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(dims, rho / rho.trace().real)


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        np.testing.assert_array_equal(unvec(vec(m), 6), m)

    def test_column_stacking(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])


class TestLiouvillian:
    def test_matches_direct_lindblad_form(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho = random_density(dissipative_n2.dims, seed=3).mat
        h = build_H_I(dissipative_n2)
        a = fock_annihilation(dissipative_n2.dims)
        sm = tls_operator("sigma_minus", dissipative_n2.dims)

        def diss(op):
            od = op.conj().T
            return 0.5 * (2 * op @ rho @ od - rho @ od @ op - od @ op @ rho)

        direct = -1j * (h @ rho - rho @ h) + dissipative_n2.kappa * diss(a) + dissipative_n2.gamma * diss(sm)
        np.testing.assert_allclose(apply_liouvillian(L, rho), direct, atol=1e-10)

    def test_trace_annihilated(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        for seed in range(100):
            rho = random_density(dissipative_n2.dims, seed=seed).mat
            assert abs(np.trace(apply_liouvillian(L, rho))) < 1e-9

    def test_evolution_preserves_trace_and_hermiticity(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho0 = basis_state(dissipative_n2.dims, 0, 0).to_density_matrix()
        history = lindblad_evolve(L, rho0, np.linspace(0.0, 5.0, 11))
        for rho in history:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


class TestLindbladAnalytic:
    def test_cavity_decay(self):
        p = decay_params(kappa=0.7)
        L = build_liouvillian(p)
        rho0 = basis_state(p.dims, 3, 0).to_density_matrix()
        t_grid = np.linspace(0.0, 4.0, 9)
        history = lindblad_evolve(L, rho0, t_grid)
        a = fock_annihilation(p.dims)
        num = a.conj().T @ a
        for t, rho in zip(t_grid, history):
            n_mean = np.trace(num @ rho).real
            assert n_mean == pytest.approx(3.0 * np.exp(-0.7 * t), abs=1e-9)

    def test_tls_decay(self):
        p = decay_params(gamma=0.4)
        L = build_liouvillian(p)
        rho0 = basis_state(p.dims, 0, 1).to_density_matrix()
        t_grid = np.linspace(0.0, 6.0, 7)
        history = lindblad_evolve(L, rho0, t_grid)
        proj = tls_operator("excited_projector", p.dims)
        for t, rho in zip(t_grid, history):
            assert np.trace(proj @ rho).real == pytest.approx(np.exp(-0.4 * t), abs=1e-9)

    def test_nan_in_history_rejected(self):
        # each check is written so that a NaN deviation fails it, not passes
        p = decay_params(kappa=0.7)
        rho = basis_state(p.dims, 3, 0).to_density_matrix().mat.copy()
        rho[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="Hermiticity violated: nan"):
            dynamics._check_density_history([rho])

    def test_schemes_agree(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho0 = basis_state(dissipative_n2.dims, 0, 0).to_density_matrix()
        t_grid = np.linspace(0.0, 2.0, 5)
        spectral = lindblad_evolve(L, rho0, t_grid)
        d = dissipative_n2.dims.total_dim
        adaptive = [unvec(v, d) for v in dop853(L.mat, vec(rho0.mat), t_grid)]
        np.testing.assert_allclose(adaptive, spectral, atol=1e-7)


class TestSteadyState:
    def test_pure_decay_reaches_vacuum(self):
        p = decay_params(kappa=1.0, gamma=0.2)
        rho = steady_state(build_liouvillian(p))
        expected = basis_state(p.dims, 0, 0).to_density_matrix().mat
        np.testing.assert_allclose(rho.mat, expected, atol=1e-10)

    def test_residual_and_validity(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho = steady_state(L)
        rho.validate()
        residual = np.max(np.abs(apply_liouvillian(L, rho.mat)))
        assert residual < 1e-8 * scipy.sparse.linalg.norm(L.mat)

    def test_agrees_with_long_time_evolution(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho_ss = steady_state(L)
        rho0 = basis_state(dissipative_n2.dims, 0, 0).to_density_matrix()
        late = lindblad_evolve(L, rho0, np.array([0.0, 400.0]))[-1]
        np.testing.assert_allclose(late, rho_ss.mat, atol=1e-7)

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_matches_dense_null_vector(self, point, request):
        p = request.getfixturevalue(point)
        d = p.dims.total_dim
        _, _, vh = np.linalg.svd(dense_liouvillian(p))
        null = unvec(vh[-1].conj(), d)
        rho = steady_state(build_liouvillian(p))
        np.testing.assert_allclose(rho.mat, null / np.trace(null), rtol=0, atol=1e-12)

    def test_fallback_logged_before_degenerate_error(self, caplog):
        # no decay, drive or coupling: every Fock-state population is stationary,
        # so the k=0 block is exactly singular and LU cannot factor it
        p = ModelParams(n=2, j=0.0, omega_l=0.0, delta_n=0.3, delta_a=0.5, n_max=4)
        L = build_liouvillian(p)
        with caplog.at_level(logging.WARNING, logger="bundlejc"):
            with pytest.raises(RuntimeError, match="degenerate steady state"):
                steady_state(L)
        fallback = [r for r in caplog.records if "SVD" in r.getMessage()]
        assert len(fallback) == 1
        assert fallback[0].levelno == logging.WARNING
        assert fallback[0].name == "bundlejc"
        assert "residual" in fallback[0].getMessage()

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_no_cavity_decay_is_degenerate(self, dissipative_n2, gamma):
        # kappa = 0: with gamma = 0 nothing relaxes (null space 26), with
        # gamma > 0 the photon number mod n is conserved (null space 2); LU
        # alone would return one stationary state of many without a word
        L = build_liouvillian(replace(dissipative_n2, kappa=0.0, gamma=gamma))
        with pytest.raises(RuntimeError, match="degenerate steady state"):
            steady_state(L)

    def test_truncation_guard(self, dissipative_n2):
        # same physical point with a clearly undersized Fock space
        small = replace(dissipative_n2, n_max=3)
        with pytest.raises(TruncationError):
            steady_state(build_liouvillian(small))


class TestSchrodinger:
    def test_eigenstate_acquires_phase_only(self):
        p = decay_params()
        h = np.diag(np.arange(p.dims.total_dim, dtype=complex))
        psi0 = basis_state(p.dims, 2, 1)
        history = schrodinger_evolve(h, psi0, np.array([0.0, 1.0, 2.0]))
        for t, amp in zip((0.0, 1.0, 2.0), history):
            i = p.dims.index(2, 1)
            assert amp[i] == pytest.approx(np.exp(-1j * 5.0 * t), abs=1e-10)
            assert np.linalg.norm(np.delete(amp, i)) < 1e-12

    def test_driven_tls_rabi(self):
        # H = Omega_L sigma_x: P_e(t) = sin^2(Omega_L t) from the ground state
        p = ModelParams(n=1, j=0.0, omega_l=1.3, delta_n=0.0, delta_a=0.0, n_max=1)
        h = build_H_I(p)
        psi0 = basis_state(p.dims, 0, 0)
        t_grid = np.linspace(0.0, 3.0, 31)
        history = schrodinger_evolve(h, psi0, t_grid)
        i_e = p.dims.index(0, 1)
        np.testing.assert_allclose(
            np.abs(history[:, i_e]) ** 2, np.sin(1.3 * t_grid) ** 2, atol=1e-8
        )

    def test_spectral_matches_expm(self, unitary_n2):
        h = build_H_I(unitary_n2)
        psi0 = basis_state(unitary_n2.dims, 0, 0)
        t_grid = np.linspace(0.0, 0.5, 6)
        spectral = schrodinger_evolve(h, psi0, t_grid)
        exact = np.array([scipy.linalg.expm(-1j * h * t) @ psi0.amp for t in t_grid])
        np.testing.assert_allclose(spectral, exact, rtol=0, atol=1e-10)

    def test_spectral_matches_adaptive(self, unitary_n2):
        h = build_H_I(unitary_n2)
        psi0 = basis_state(unitary_n2.dims, 0, 0)
        t_grid = np.linspace(0.0, 0.5, 6)
        spectral = schrodinger_evolve(h, psi0, t_grid)
        adaptive = dop853(-1j * h, psi0.amp, t_grid)
        np.testing.assert_allclose(adaptive, spectral, rtol=0, atol=1e-7)

    def test_norm_drift_rejected(self, unitary_n2, monkeypatch):
        # an eigenbasis off unitarity by 1e-4 drifts the norm by about 2e-4
        eigh = np.linalg.eigh

        def skewed_eigh(mat):
            evals, evecs = eigh(mat)
            return evals, evecs * (1.0 + 1e-4)

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        h = build_H_I(unitary_n2)
        psi0 = basis_state(unitary_n2.dims, 0, 0)
        with pytest.raises(RuntimeError, match=r"norm drift .* > 1e-5"):
            schrodinger_evolve(h, psi0, np.linspace(0.0, 1.0, 3))

    def test_non_hermitian_rejected(self):
        p = decay_params()
        m = np.zeros((p.dims.total_dim,) * 2, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            schrodinger_evolve(m, basis_state(p.dims, 0, 0), [0.0, 1.0])

    def test_nan_hamiltonian_rejected(self):
        # a NaN deviation from Hermiticity must not pass the tolerance check
        p = decay_params()
        h = np.zeros((p.dims.total_dim,) * 2, dtype=complex)
        h[0, 0] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            schrodinger_evolve(h, basis_state(p.dims, 0, 0), [0.0, 1.0])

    def test_nan_psi0_rejected(self, unitary_n2):
        amp = basis_state(unitary_n2.dims, 0, 0).amp.copy()
        amp[1] = np.nan
        psi0 = StateVector(unitary_n2.dims, amp)
        with pytest.raises(ValueError, match="psi0 must be normalized; its norm is nan"):
            schrodinger_evolve(build_H_I(unitary_n2), psi0, [0.0, 1.0])

    def test_shape_mismatch_names_h(self):
        # H of one truncation, psi0 of another
        p = decay_params(n_max=4)
        h = build_H_I(replace(p, n_max=3))
        with pytest.raises(DimensionMismatchError, match="H has shape"):
            schrodinger_evolve(h, basis_state(p.dims, 0, 0), [0.0, 1.0])


class TestMcwf:
    def test_no_decay_matches_schrodinger(self, unitary_n2):
        p = replace(unitary_n2, kappa=0.0, gamma=0.0)
        psi0 = basis_state(p.dims, 0, 0)
        rec = mcwf_trajectory(p, psi0, 0.2, seed=1, sample_dt=0.05)
        exact = dop853(-1j * build_H_I(p), psi0.amp, rec.times)
        assert rec.jumps == []
        # states agree up to nothing: same dynamics, no renormalization needed
        np.testing.assert_allclose(rec.states, exact, atol=1e-8)

    def test_nan_psi0_rejected(self, dissipative_n2):
        # refused up front, not left to fail as a jump time that never converges
        amp = basis_state(dissipative_n2.dims, 0, 0).amp.copy()
        amp[1] = np.nan
        psi0 = StateVector(dissipative_n2.dims, amp)
        with pytest.raises(ValueError, match="psi0 must be normalized; its norm is nan"):
            mcwf_trajectory(dissipative_n2, psi0, 5.0, seed=1, sample_dt=0.5)

    def test_seed_reproducibility(self, dissipative_n2):
        psi0 = basis_state(dissipative_n2.dims, 0, 0)
        r1 = mcwf_trajectory(dissipative_n2, psi0, 5.0, seed=42, sample_dt=0.5)
        r2 = mcwf_trajectory(dissipative_n2, psi0, 5.0, seed=42, sample_dt=0.5)
        np.testing.assert_array_equal(r1.states, r2.states)
        assert r1.jumps == r2.jumps
        r3 = mcwf_trajectory(dissipative_n2, psi0, 5.0, seed=43, sample_dt=0.5)
        assert r3.jumps != r1.jumps

    def test_ensemble_records_match_single_runs(self, dissipative_n2):
        # reproducible per seed, whatever the batching: member i of an
        # ensemble is the lone trajectory with seed base_seed + i, bit for bit
        psi0 = basis_state(dissipative_n2.dims, 0, 0)
        recs = run_trajectories(dissipative_n2, psi0, 60.0, 0.5, n_trajectories=3, base_seed=5)
        for i, rec in enumerate(recs):
            alone = mcwf_trajectory(dissipative_n2, psi0, 60.0, seed=5 + i, sample_dt=0.5)
            assert rec.seed == alone.seed == 5 + i
            np.testing.assert_array_equal(rec.states, alone.states)
            assert rec.jumps == alone.jumps
        assert sum(len(rec.jumps) for rec in recs) > 0

    # at sample_dt = 400 the squared norm underflows to 0 within one step
    @pytest.mark.parametrize(
        "sample_dt, t_final", [(0.5, 12.0), (1.0, 12.0), (3.0, 12.0), (400.0, 400.0)]
    )
    def test_first_jump_time_matches_analytic(self, sample_dt, t_final):
        # |1, g> with cavity decay only: ||psi(t)||^2 = exp(-kappa t), so the
        # first jump is at -ln(r)/kappa for the first draw r, whatever the grid
        kappa = 2.0
        p = decay_params(kappa=kappa, n_max=2)
        psi0 = basis_state(p.dims, 1, 0)
        checked = 0
        for seed in range(50):
            exact = -math.log(np.random.default_rng(seed).uniform()) / kappa
            if exact > t_final:
                continue
            rec = mcwf_trajectory(p, psi0, t_final, seed=seed, sample_dt=sample_dt)
            assert rec.jumps[0][0] == pytest.approx(exact, rel=1e-12, abs=0.0)
            checked += 1
        assert checked > 40

    def test_unconverged_jump_time_raises(self, dissipative_n2, monkeypatch):
        # the log-linear start alone does not meet JUMP_TOL at this point
        monkeypatch.setattr(dynamics, "JUMP_MAX_ITER", 1)
        psi0 = basis_state(dissipative_n2.dims, 0, 0)
        with pytest.raises(RuntimeError, match="not converged"):
            mcwf_trajectory(dissipative_n2, psi0, 200.0, seed=1, sample_dt=10.0)

    @pytest.mark.parametrize("field", ["t_final", "sample_dt"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_horizon_names_field(self, field, value):
        p = decay_params(kappa=1.0)
        psi0 = basis_state(p.dims, 1, 0)
        horizon = {"t_final": 2.0, "sample_dt": 0.5, field: value}
        with pytest.raises(ValueError, match=field):
            mcwf_trajectory(p, psi0, seed=0, **horizon)
        with pytest.raises(ValueError, match=field):
            run_trajectories(p, psi0, n_trajectories=2, base_seed=0, **horizon)

    @pytest.mark.parametrize("n_trajectories", [0, -1])
    def test_empty_ensemble_rejected(self, n_trajectories):
        p = decay_params(kappa=1.0)
        with pytest.raises(ValueError, match="n_trajectories"):
            run_trajectories(
                p, basis_state(p.dims, 1, 0), 2.0, 0.5, n_trajectories, base_seed=0
            )

    def test_single_photon_jump_times_exponential(self):
        # |1, g> with cavity decay only: one jump, waiting time ~ Exp(kappa)
        p = decay_params(kappa=2.0, n_max=2)
        psi0 = basis_state(p.dims, 1, 0)
        times = []
        for seed in range(300):
            rec = mcwf_trajectory(p, psi0, 12.0, seed=seed, sample_dt=0.5)
            assert len(rec.jumps) <= 1
            if rec.jumps:
                t_jump, channel = rec.jumps[0]
                assert channel == "cavity"
                times.append(t_jump)
        assert len(times) > 280
        stat = kstest(times, "expon", args=(0.0, 1.0 / 2.0))
        assert stat.pvalue > 1e-3

    def test_channel_labels(self):
        p = decay_params(kappa=1.0, gamma=1.0, n_max=2)
        rng_hits = set()
        for seed in range(40):
            rec = mcwf_trajectory(
                p, basis_state(p.dims, 1, 1), 20.0, seed=seed, sample_dt=1.0
            )
            rng_hits.update(ch for _, ch in rec.jumps)
        assert rng_hits == {"cavity", "tls"}

    def test_ensemble_mean_tracks_master_equation(self):
        # pure cavity decay: <n>(t) = 2 exp(-kappa t), compare at 4 standard errors
        p = decay_params(kappa=1.0, n_max=3)
        psi0 = basis_state(p.dims, 2, 0)
        recs = run_trajectories(p, psi0, 4.0, 0.5, n_trajectories=200, base_seed=7)
        a = fock_annihilation(p.dims)
        times, mean, stderr = trajectory_average(recs, a.conj().T @ a)
        exact = 2.0 * np.exp(-times)
        dev = np.abs(mean - exact)[1:]
        assert np.all(dev < 4.0 * np.maximum(stderr[1:], 1e-3))


class TestTrajectoryAverage:
    def test_single_record_zero_stderr(self):
        p = decay_params(kappa=1.0)
        rec = mcwf_trajectory(p, basis_state(p.dims, 1, 0), 2.0, seed=0, sample_dt=0.5)
        a = fock_annihilation(p.dims)
        _, mean, stderr = trajectory_average([rec], a.conj().T @ a)
        assert np.all(stderr == 0.0)
        assert mean[0] == pytest.approx(1.0)

    def test_mismatched_grids_rejected(self):
        p = decay_params(kappa=1.0)
        psi0 = basis_state(p.dims, 1, 0)
        r1 = mcwf_trajectory(p, psi0, 2.0, seed=0, sample_dt=0.5)
        r2 = mcwf_trajectory(p, psi0, 2.0, seed=0, sample_dt=1.0)
        a = fock_annihilation(p.dims)
        num = a.conj().T @ a
        with pytest.raises(ValueError, match="mismatched"):
            trajectory_average([r1, r2], num)

    def test_empty_rejected(self):
        p = decay_params()
        a = fock_annihilation(p.dims)
        num = a.conj().T @ a
        with pytest.raises(ValueError):
            trajectory_average([], num)

    def test_shape_mismatch_names_observable(self):
        p = decay_params(kappa=1.0, n_max=4)
        rec = mcwf_trajectory(p, basis_state(p.dims, 1, 0), 2.0, seed=0, sample_dt=0.5)
        a = fock_annihilation(replace(p, n_max=3).dims)
        with pytest.raises(DimensionMismatchError, match="observable"):
            trajectory_average([rec], a.conj().T @ a)


class TestPropagator:
    def test_identity_at_zero_delay(self, dissipative_n2):
        prop = LiouvillePropagator(build_liouvillian(dissipative_n2))
        rho = random_density(dissipative_n2.dims, seed=9).mat
        out = prop.propagate(rho, [0.0])[0]
        np.testing.assert_allclose(out, rho, atol=1e-9)

    def test_matches_lindblad_evolve(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        prop = LiouvillePropagator(L)
        rho0 = basis_state(dissipative_n2.dims, 0, 0).to_density_matrix()
        taus = np.array([0.0, 1.0, 3.0])
        from_prop = prop.propagate(rho0.mat, taus)
        from_evolve = lindblad_evolve(L, rho0, taus)
        np.testing.assert_allclose(from_prop, from_evolve, atol=1e-10)


def oracle_point(n, kappa, gamma):
    return ModelParams(
        n=n, j=0.3, omega_l=2.0, delta_n=-1.5, delta_a=0.4,
        kappa=kappa, gamma=gamma, n_max=6,
    )


class TestSectoredLiouvillian:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kappa,gamma", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.2), (1.0, 0.2)])
    def test_matches_dense_kron(self, n, kappa, gamma):
        p = oracle_point(n, kappa, gamma)
        dense = dense_liouvillian(p)
        # the two sum the same terms in a different order: equal to a few ulps
        np.testing.assert_allclose(
            build_liouvillian(p).mat.toarray(),
            dense,
            rtol=0,
            atol=4 * np.finfo(float).eps * np.abs(dense).max(),
        )

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_off_sector_blocks_vanish(self, point, request):
        p = request.getfixturevalue(point)
        L = build_liouvillian(p)
        assert len(L.sectors) == p.n
        np.testing.assert_array_equal(
            np.sort(np.concatenate(L.sectors)), np.arange(p.dims.total_dim**2)
        )
        dense = L.mat.toarray()
        for k, rows in enumerate(L.sectors):
            for k2, cols in enumerate(L.sectors):
                if k != k2:
                    assert not np.any(dense[np.ix_(rows, cols)])

    def test_reports_stored_bytes(self, dissipative_n2):
        mat = build_liouvillian(dissipative_n2).mat
        assert mat.nbytes == mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert mat.nbytes < 1_000_000

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_propagator_matches_expm(self, point, request):
        p = request.getfixturevalue(point)
        L = build_liouvillian(p)
        d = p.dims.total_dim
        rho = random_density(p.dims, seed=11).mat
        assert all(np.any(vec(rho)[idx]) for idx in L.sectors)
        taus = [0.0, 0.7, 4.0]
        got = LiouvillePropagator(L).propagate(rho, taus)
        lmat = dense_liouvillian(p)
        for tau, out in zip(taus, got):
            exact = unvec(scipy.linalg.expm(lmat * tau) @ vec(rho), d)
            np.testing.assert_allclose(out, exact, rtol=0, atol=1e-9)

    def test_regression_operator_decomposes_k0_only(self, dissipative_n3):
        L = build_liouvillian(dissipative_n3)
        prop = LiouvillePropagator(L)
        rho = steady_state(L).mat
        a3 = np.linalg.matrix_power(fock_annihilation(dissipative_n3.dims), 3)
        prop.propagate(a3 @ rho @ a3.conj().T, [1.0, 2.0])
        assert list(prop._spectra) == [0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kappa,gamma", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.2), (1.0, 0.2)])
    def test_self_adjoint_sectors_real_in_hermitian_basis(self, n, kappa, gamma):
        p = oracle_point(n, kappa, gamma)
        L = build_liouvillian(p)
        dense = dense_liouvillian(p)
        for k in [k for k in range(n) if 2 * k % n == 0]:
            idx = L.sectors[k]
            t = _hermitian_basis(idx, p.dims.total_dim)
            np.testing.assert_allclose(
                (t @ t.conj().T).toarray(), np.eye(len(idx)), rtol=0, atol=1e-14
            )
            real_form = (t @ L.block(k) @ t.conj().T).toarray()
            assert not np.any(real_form.imag)
            np.testing.assert_allclose(
                real_form,
                (t @ dense[np.ix_(idx, idx)]) @ t.conj().T,
                rtol=0,
                atol=4 * np.finfo(float).eps * np.abs(dense).max(),
            )

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_real_form_propagates_non_hermitian_operator(self, point, request):
        # a^n rho_ss lies in k = 0 but is not Hermitian, so only X = T^dag (T X)
        # makes the real decomposition exact for it
        p = request.getfixturevalue(point)
        L = build_liouvillian(p)
        d = p.dims.total_dim
        an = np.linalg.matrix_power(fock_annihilation(p.dims), p.n)
        op = an @ steady_state(L).mat
        assert np.abs(op - op.conj().T).max() > 1e-3
        k0 = L.sectors[0]
        assert np.count_nonzero(vec(op)) == np.count_nonzero(vec(op)[k0])
        prop = LiouvillePropagator(L)
        taus = [0.0, 0.7, 4.0]
        got = prop.propagate(op, taus)
        assert list(prop._spectra) == [0]
        # L is block-diagonal in k, so exp(L tau) acts on k = 0 through its block
        block = dense_liouvillian(p)[np.ix_(k0, k0)]
        for tau, out in zip(taus, got):
            exact = np.zeros(d * d, dtype=complex)
            exact[k0] = scipy.linalg.expm(block * tau) @ vec(op)[k0]
            np.testing.assert_allclose(out, unvec(exact, d), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("point, real", [("dissipative_n2", [0, 1]), ("dissipative_n3", [0])])
    def test_real_form_decomposes_sectors_closed_under_adjoint(
        self, point, real, request, monkeypatch
    ):
        p = request.getfixturevalue(point)
        L = build_liouvillian(p)
        seen = []
        basis = dynamics._hermitian_basis
        monkeypatch.setattr(
            dynamics, "_hermitian_basis", lambda idx, d: seen.append(idx) or basis(idx, d)
        )
        LiouvillePropagator(L).propagate(random_density(p.dims, seed=11).mat, [1.0])
        assert [k for k, idx in enumerate(L.sectors) if any(idx is s for s in seen)] == real

    def test_complex_real_form_rejected(self, dissipative_n2, monkeypatch):
        basis = dynamics._hermitian_basis

        def rotated_basis(idx, d):
            # still unitary, but row 0 times i: the block stops being real
            t = basis(idx, d)
            t.data[t.indptr[0]:t.indptr[1]] *= 1j
            return t

        monkeypatch.setattr(dynamics, "_hermitian_basis", rotated_basis)
        prop = LiouvillePropagator(build_liouvillian(dissipative_n2))
        with pytest.raises(RuntimeError, match="not real in the Hermitian basis"):
            prop.propagate(random_density(dissipative_n2.dims, seed=3).mat, [1.0])


def dense_k0_steady_state(p):
    """Oracle: the SVD null vector of the k = 0 block of dense_liouvillian(p).

    The block holds the entries rho[i, j] whose photon numbers m_i, m_j (the
    basis index is 2m + s) satisfy (m_i - m_j) mod n = 0; the steady state
    lives there, and it costs a small fraction of the full SVD.
    """
    d = p.dims.total_dim
    m = np.arange(d) // 2
    k0 = np.flatnonzero(vec((m[:, None] - m[None, :]) % p.n) == 0)
    _, svals, vh = np.linalg.svd(dense_liouvillian(p)[np.ix_(k0, k0)])
    assert svals[-2] > 1e-6 * svals[0]  # a unique steady state
    x = np.zeros(d * d, dtype=complex)
    x[k0] = vh[-1].conj()
    rho = unvec(x, d)
    return rho / np.trace(rho)


class TestSteadyStateWorkspace:
    """The delta_a sweep solves each point on one Liouvillian build."""

    @staticmethod
    def grid(p):
        # delta_a = 0, the resonance, and points on both sides of each
        return np.sort(np.r_[np.linspace(-9.0, 9.0, 5), p.delta_a, p.delta_a + 1.5])

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_sweep_rows_match_dense_oracle(self, point, request, caplog):
        p = request.getfixturevalue(point)
        grid = self.grid(p)
        with caplog.at_level(logging.WARNING, logger="bundlejc"):
            header, rows = sweep(p, grid)
        assert not caplog.records  # sparse LU held at every point: no SVD fallback
        g2 = header.index("g2")
        ws = SteadyStateWorkspace(build_liouvillian(p))
        for delta_a, row in zip(grid, rows):
            rho = dense_k0_steady_state(replace(p, delta_a=delta_a))
            np.testing.assert_allclose(ws.solve(delta_a).mat, rho, rtol=0, atol=1e-12)
            diag = np.diagonal(rho).real
            pops = diag[0::2] + diag[1::2]
            assert row[0] == delta_a
            np.testing.assert_allclose(row[1:g2], pops[: g2 - 1], rtol=0, atol=1e-12)
            assert row[-2] == pytest.approx(pops[-1], rel=0, abs=1e-12)
            m = np.arange(len(pops))
            n_mean = m @ pops
            for ell, g in zip((2, 3, 4), row[g2 : g2 + 3]):
                falling = np.array([math.perm(k, ell) for k in m], dtype=float)
                num = falling @ pops
                expected = num / n_mean**ell
                # to first order, what an error of 1e-12 in each P_m can do
                # (far from resonance P_m>3 is tiny and g^(4) ill-conditioned)
                tol = 1e-12 * (falling.sum() / num + ell * m.sum() / n_mean) * expected
                assert abs(g - expected) <= tol

    @staticmethod
    def assert_bit_for_bit(p, grid):
        # the workspace is built at p's own delta_a and rewrites the diagonal
        # for each point; steady_state solves one built at the point itself
        # (here without its truncation check: n = 3 overflows n_max near 0)
        ws = SteadyStateWorkspace(build_liouvillian(p))
        for delta_a in grid:
            L = build_liouvillian(replace(p, delta_a=delta_a))
            expected = lu_steady_state(L)
            np.testing.assert_array_equal(ws.solve(delta_a).mat, expected)
            np.testing.assert_array_equal(SteadyStateWorkspace(L).solve(delta_a).mat, expected)

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_reproduces_steady_state_bit_for_bit(self, point, request):
        # the workspace rewrites the diagonal with build_liouvillian's own
        # arithmetic, so SuperLU factors the very matrix the direct LU does
        p = request.getfixturevalue(point)
        self.assert_bit_for_bit(p, np.r_[self.grid(p), -p.delta_n / p.n])

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_bit_for_bit_where_a_coherence_diagonal_vanishes(self, point, request):
        # at gamma = 0 the (0,g)/(0,e) coherence diagonal is i delta_sigma,
        # exactly 0 at delta_a = -Delta/n, where build_liouvillian stores no entry
        p = replace(request.getfixturevalue(point), gamma=0.0)
        vanishing = -p.delta_n / p.n
        assert replace(p, delta_a=vanishing).delta_sigma == 0.0
        self.assert_bit_for_bit(p, [0.0, vanishing, vanishing + 0.5, vanishing])

    def test_truncation_flag_past_the_window(self, dissipative_n3):
        # n_max = 15 cannot hold the n = 3 ladder near delta_a = 0
        _, rows = sweep(dissipative_n3, [0.0, dissipative_n3.delta_a])
        assert rows[0][-1] == "truncation"
        assert rows[0][-2] >= 1e-8
        assert rows[1][-1] == ""

    def test_no_cavity_decay_flags_every_row(self, caplog):
        p = ModelParams(
            n=2, j=0.3, omega_l=2.0, delta_n=-1.5, delta_a=0.4, gamma=0.1, n_max=4
        )
        with caplog.at_level(logging.WARNING, logger="bundlejc"):
            _, rows = sweep(p, [-1.0, 0.0, 0.4])
        for row in rows:
            assert row[-1].startswith("solver: degenerate steady state")
            assert all(np.isnan(row[1:-1]))
        fallback = [r for r in caplog.records if "SVD" in r.getMessage()]
        assert len(fallback) == len(rows)

    def test_non_finite_delta_a_rejected(self, dissipative_n2):
        with pytest.raises(ValueError, match="finite"):
            SteadyStateWorkspace(build_liouvillian(dissipative_n2)).solve(float("nan"))

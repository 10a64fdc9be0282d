import logging
import math
import multiprocessing
import os
import signal
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
    mcwf_trajectory,
    run_trajectories,
    schrodinger_evolve,
    steady_state,
    unvec,
    vec,
)
from bundlejc.hilbert import (
    DimensionMismatchError,
    basis_state,
    fock_annihilation,
    tls_operator,
)
from bundlejc.model import ModelParams, at_resonance, build_H_I
from bundlejc.observables import photon_distribution, sweep
from dop853 import dop853
from oracles import (
    apply_liouvillian,
    check_density_matrix,
    lu_steady_state,
    pure_density,
    trajectory_average,
)


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


def sector_indices(p, k):
    """Oracle: the vec indices of the entries rho[i, j] whose photon numbers
    m_i, m_j (the basis index is 2m + s) satisfy (m_i - m_j) mod n = k."""
    d = p.dims.total_dim
    m = np.arange(d) // 2
    return np.flatnonzero(vec((m[:, None] - m[None, :]) % p.n) == k)


def random_density(dims, seed):
    rng = np.random.default_rng(seed)
    d = dims.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def k0_part(p, op):
    """op with every entry outside the k = 0 sector of p set to 0."""
    d = p.dims.total_dim
    k0 = sector_indices(p, 0)
    x = np.zeros(d * d, dtype=complex)
    x[k0] = vec(op)[k0]
    return unvec(x, d)


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
        rho = random_density(dissipative_n2.dims, seed=3)
        h = build_H_I(dissipative_n2)
        a = fock_annihilation(dissipative_n2.dims)
        sm = tls_operator("sigma_minus", dissipative_n2.dims)

        def diss(op):
            od = op.conj().T
            return 0.5 * (2 * op @ rho @ od - rho @ od @ op - od @ op @ rho)

        direct = -1j * (h @ rho - rho @ h) + dissipative_n2.kappa * diss(a) + dissipative_n2.gamma * diss(sm)
        # L holds only its k = 0 block, so the k = 0 part is what is compared
        np.testing.assert_allclose(
            apply_liouvillian(L, rho), k0_part(dissipative_n2, direct), atol=1e-10
        )

    def test_trace_annihilated(self, dissipative_n2):
        # the trace reads only populations, all of which lie in k = 0
        L = build_liouvillian(dissipative_n2)
        for seed in range(100):
            rho = random_density(dissipative_n2.dims, seed=seed)
            assert abs(np.trace(apply_liouvillian(L, rho))) < 1e-9

    def test_evolution_preserves_trace_and_hermiticity(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho0 = pure_density(basis_state(dissipative_n2.dims, 0, 0))
        history = LiouvillePropagator(L).propagate(rho0, np.linspace(0.0, 5.0, 11))
        for rho in history:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


class TestLindbladAnalytic:
    def test_cavity_decay(self):
        p = decay_params(kappa=0.7)
        L = build_liouvillian(p)
        rho0 = pure_density(basis_state(p.dims, 3, 0))
        t_grid = np.linspace(0.0, 4.0, 9)
        history = LiouvillePropagator(L).propagate(rho0, t_grid)
        a = fock_annihilation(p.dims)
        num = a.conj().T @ a
        for t, rho in zip(t_grid, history):
            n_mean = np.trace(num @ rho).real
            assert n_mean == pytest.approx(3.0 * np.exp(-0.7 * t), abs=1e-9)

    def test_tls_decay(self):
        p = decay_params(gamma=0.4)
        L = build_liouvillian(p)
        rho0 = pure_density(basis_state(p.dims, 0, 1))
        t_grid = np.linspace(0.0, 6.0, 7)
        history = LiouvillePropagator(L).propagate(rho0, t_grid)
        proj = tls_operator("excited_projector", p.dims)
        for t, rho in zip(t_grid, history):
            assert np.trace(proj @ rho).real == pytest.approx(np.exp(-0.4 * t), abs=1e-9)

    def test_schemes_agree(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho0 = pure_density(basis_state(dissipative_n2.dims, 0, 0))
        t_grid = np.linspace(0.0, 2.0, 5)
        spectral = LiouvillePropagator(L).propagate(rho0, t_grid)
        d = dissipative_n2.dims.total_dim
        # rho0 lies in k = 0, where L acts through its block K = L.mat alone
        assert np.count_nonzero(vec(rho0)[L.idx]) == np.count_nonzero(rho0)
        adaptive = np.zeros((len(t_grid), d * d), dtype=complex)
        adaptive[:, L.idx] = dop853(L.mat, vec(rho0)[L.idx], t_grid)
        np.testing.assert_allclose([unvec(v, d) for v in adaptive], spectral, atol=1e-7)


class TestSteadyState:
    def test_pure_decay_reaches_vacuum(self):
        p = decay_params(kappa=1.0, gamma=0.2)
        rho = steady_state(build_liouvillian(p))
        expected = pure_density(basis_state(p.dims, 0, 0))
        np.testing.assert_allclose(rho, expected, atol=1e-10)

    def test_residual_and_validity(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho = steady_state(L)
        check_density_matrix(rho)
        # rho lies in k = 0, so the k = 0 part of L rho is all of it
        assert np.count_nonzero(vec(rho)[L.idx]) == np.count_nonzero(rho)
        residual = np.max(np.abs(apply_liouvillian(L, rho)))
        assert residual < 1e-8 * scipy.sparse.linalg.norm(L.mat)

    def test_agrees_with_long_time_evolution(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        rho_ss = steady_state(L)
        rho0 = pure_density(basis_state(dissipative_n2.dims, 0, 0))
        late = LiouvillePropagator(L).propagate(rho0, 400.0)[0]
        np.testing.assert_allclose(late, rho_ss, atol=1e-7)

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_matches_dense_null_vector(self, point, request):
        p = request.getfixturevalue(point)
        d = p.dims.total_dim
        _, _, vh = np.linalg.svd(dense_liouvillian(p))
        null = unvec(vh[-1].conj(), d)
        rho = steady_state(build_liouvillian(p))
        np.testing.assert_allclose(rho, null / np.trace(null), rtol=0, atol=1e-12)

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
        exact = np.array([scipy.linalg.expm(-1j * h * t) @ psi0 for t in t_grid])
        np.testing.assert_allclose(spectral, exact, rtol=0, atol=1e-10)

    def test_spectral_matches_adaptive(self, unitary_n2):
        h = build_H_I(unitary_n2)
        psi0 = basis_state(unitary_n2.dims, 0, 0)
        t_grid = np.linspace(0.0, 0.5, 6)
        spectral = schrodinger_evolve(h, psi0, t_grid)
        adaptive = dop853(-1j * h, psi0, t_grid)
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
        psi0 = basis_state(unitary_n2.dims, 0, 0)
        psi0[1] = np.nan
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
        exact = dop853(-1j * build_H_I(p), psi0, rec.times)
        assert rec.jumps == []
        # states agree up to nothing: same dynamics, no renormalization needed
        np.testing.assert_allclose(rec.states, exact, atol=1e-8)

    def test_nan_psi0_rejected(self, dissipative_n2):
        # refused up front, not left to fail as a jump time that never converges
        psi0 = basis_state(dissipative_n2.dims, 0, 0)
        psi0[1] = np.nan
        with pytest.raises(ValueError, match="psi0 must be normalized; its norm is nan"):
            mcwf_trajectory(dissipative_n2, psi0, 5.0, seed=1, sample_dt=0.5)
        with pytest.raises(ValueError, match="psi0 must be normalized; its norm is nan"):
            run_trajectories(dissipative_n2, psi0, 5.0, 0.5, n_trajectories=2, base_seed=1)

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

    @pytest.mark.parametrize("cpus", [None, 1, 2], ids=["no_affinity", "one_cpu", "two_cpus"])
    def test_ensemble_paths_match_single_runs(self, dissipative_n2, monkeypatch, cpus):
        # the affinity mask picks the path: in-process without
        # os.sched_getaffinity or with one CPU, else forked workers (5 members
        # over 2 split unevenly); either way member i is the lone trajectory
        # with seed base_seed + i, bit for bit and in seed order
        if cpus is None:
            monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(
                dynamics.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
        lone = dynamics.mcwf_trajectory

        def tagged(*args, **kwargs):  # marks the process each member ran in
            rec = lone(*args, **kwargs)
            rec.pid = os.getpid()
            return rec

        monkeypatch.setattr(dynamics, "mcwf_trajectory", tagged)
        psi0 = basis_state(dissipative_n2.dims, 0, 0)
        recs = run_trajectories(dissipative_n2, psi0, 60.0, 0.5, n_trajectories=5, base_seed=5)
        assert [rec.pid == os.getpid() for rec in recs] == [cpus != 2] * 5
        for i, rec in enumerate(recs):
            alone = lone(dissipative_n2, psi0, 60.0, seed=5 + i, sample_dt=0.5)
            assert rec.seed == alone.seed == 5 + i
            np.testing.assert_array_equal(rec.times, alone.times)
            np.testing.assert_array_equal(rec.states, alone.states)
            assert rec.jumps == alone.jumps
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_caller(self, dissipative_n2, monkeypatch):
        # a member that fails in a worker raises its own type and message in
        # the caller, and the pool's processes are gone once the call returns
        monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(dynamics, "JUMP_MAX_ITER", 1)
        psi0 = basis_state(dissipative_n2.dims, 0, 0)
        with pytest.raises(RuntimeError, match="not converged"):
            run_trajectories(dissipative_n2, psi0, 200.0, 10.0, n_trajectories=2, base_seed=1)
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_workers(self, dissipative_n2, monkeypatch):
        # Ctrl-C reaches every process in the group: here the worker of the
        # first member dies mid-member while the caller gets one
        # KeyboardInterrupt; the call must still end with no child left,
        # though that member never returns
        monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, lone = os.getpid(), dynamics.mcwf_trajectory

        def interrupted(p, psi0, t_final, seed, *args, **kwargs):
            if seed == 1:
                os.kill(caller, signal.SIGINT)
                os._exit(1)
            return lone(p, psi0, t_final, seed, *args, **kwargs)

        monkeypatch.setattr(dynamics, "mcwf_trajectory", interrupted)
        psi0 = basis_state(dissipative_n2.dims, 0, 0)

        def hung(signum, frame):
            raise TimeoutError("run_trajectories still waiting 60 s after the interrupt")

        # a background job of a non-interactive shell starts with SIGINT
        # ignored, and then the interrupt would never arrive
        previous_int = signal.signal(signal.SIGINT, signal.default_int_handler)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_trajectories(dissipative_n2, psi0, 5.0, 0.5, n_trajectories=2, base_seed=1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            signal.signal(signal.SIGINT, previous_int)
        assert multiprocessing.active_children() == []

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


class TestPropagator:
    def test_identity_at_zero_delay(self, dissipative_n2):
        L = build_liouvillian(dissipative_n2)
        op = k0_part(dissipative_n2, random_density(dissipative_n2.dims, seed=9))
        out = LiouvillePropagator(L).propagate(op, [0.0])[0]
        np.testing.assert_allclose(out, op, atol=1e-9)

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_refuses_operator_outside_k0(self, point, request):
        # a random density has support in every sector; |m=2><m=0| lies in
        # k = 2 at n = 3 alone.  Nothing is dropped without a word
        p = request.getfixturevalue(point)
        prop = LiouvillePropagator(build_liouvillian(p))
        op = random_density(p.dims, seed=9)
        with pytest.raises(ValueError, match="sector k=1"):
            prop.propagate(op, [1.0])
        if p.n == 3:
            op = np.outer(basis_state(p.dims, 2, 0), basis_state(p.dims, 0, 0))
            with pytest.raises(ValueError, match="sector k=2"):
                prop.propagate(op, [1.0])


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
        L = build_liouvillian(p)
        dense = dense_liouvillian(p)
        idx = sector_indices(p, 0)
        np.testing.assert_array_equal(L.idx, idx)
        # the two sum the same terms in a different order: equal to a few ulps
        np.testing.assert_allclose(
            L.mat.toarray(),
            dense[np.ix_(idx, idx)],
            rtol=0,
            atol=4 * np.finfo(float).eps * np.abs(dense).max(),
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kappa,gamma", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.2), (1.0, 0.2)])
    def test_k0_block_bit_for_bit(self, n, kappa, gamma):
        # against the k = 0 rows and columns of the whole L, assembled densely
        # by numpy kron in the arithmetic of build_liouvillian, from G = -i H_I
        # - (1/2) sum_c rate_c C^dag C.  Only a diagonal entry of L sums two
        # terms, G_ii + conj(G_jj), so keeping the k = 0 triplets alone moves
        # no bit
        p = oracle_point(n, kappa, gamma)
        d = p.dims.total_dim
        eye = np.eye(d)
        channels = [
            (p.kappa, fock_annihilation(p.dims)),
            (p.gamma, tls_operator("sigma_minus", p.dims)),
        ]
        jumps = [(rate, c) for rate, c in channels if rate > 0]
        g = -1j * build_H_I(p)
        for rate, c in jumps:
            g = g - 0.5 * rate * (c.conj().T @ c)
        full = np.kron(eye, g) + np.kron(g.conj(), eye)
        for rate, c in jumps:
            full = full + np.kron(c.conj(), rate * c)
        idx = sector_indices(p, 0)
        np.testing.assert_array_equal(build_liouvillian(p).mat.toarray(), full[np.ix_(idx, idx)])

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_off_sector_blocks_vanish(self, point, request):
        # the premise of building the k = 0 block alone: the sectors partition
        # the vec indices, and the dense kron L has no entry between two
        p = request.getfixturevalue(point)
        sectors = [sector_indices(p, k) for k in range(p.n)]
        np.testing.assert_array_equal(
            np.sort(np.concatenate(sectors)), np.arange(p.dims.total_dim**2)
        )
        dense = dense_liouvillian(p)
        for k, rows in enumerate(sectors):
            for k2, cols in enumerate(sectors):
                if k != k2:
                    assert not np.any(dense[np.ix_(rows, cols)])

    def test_reports_stored_bytes(self, dissipative_n2):
        mat = build_liouvillian(dissipative_n2).mat
        assert mat.nbytes == mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert mat.nbytes < 1_000_000

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_propagator_matches_expm(self, point, request):
        # against exp(L tau) of the whole dense L, not of the k = 0 block: the
        # entries outside k = 0 must stay 0, as block-diagonality promises
        p = request.getfixturevalue(point)
        L = build_liouvillian(p)
        d = p.dims.total_dim
        op = k0_part(p, random_density(p.dims, seed=11))
        assert np.count_nonzero(vec(op)) == len(L.idx)
        taus = [0.0, 0.7, 4.0]
        got = LiouvillePropagator(L).propagate(op, taus)
        lmat = dense_liouvillian(p)
        for tau, out in zip(taus, got):
            exact = unvec(scipy.linalg.expm(lmat * tau) @ vec(op), d)
            np.testing.assert_allclose(out, exact, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kappa,gamma", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.2), (1.0, 0.2)])
    def test_self_adjoint_sectors_real_in_hermitian_basis(self, n, kappa, gamma):
        p = oracle_point(n, kappa, gamma)
        L = build_liouvillian(p)
        dense = dense_liouvillian(p)
        for k in [k for k in range(n) if 2 * k % n == 0]:
            idx = sector_indices(p, k)
            t = _hermitian_basis(idx, p.dims.total_dim)
            np.testing.assert_allclose(
                (t @ t.conj().T).toarray(), np.eye(len(idx)), rtol=0, atol=1e-14
            )
            # K at k = 0; the oracle's block at k = n/2, which L does not hold
            block = L.mat if k == 0 else scipy.sparse.csr_array(dense[np.ix_(idx, idx)])
            real_form = (t @ block @ t.conj().T).toarray()
            assert not np.any(real_form.imag)
            np.testing.assert_allclose(
                real_form,
                (t @ dense[np.ix_(idx, idx)]) @ t.conj().T,
                rtol=0,
                atol=4 * np.finfo(float).eps * np.abs(dense).max(),
            )

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3", "n1"])
    def test_real_form_propagates_non_hermitian_operator(self, point, request):
        # a^n rho_ss lies in k = 0 but is not Hermitian, so only X = T^dag (T X)
        # makes the real decomposition exact for it; the k = 0 part of a random
        # density fills every k = 0 entry, and at n = 1 every entry is in k = 0
        p = oracle_point(1, 1.0, 0.2) if point == "n1" else request.getfixturevalue(point)
        L = build_liouvillian(p)
        d = p.dims.total_dim
        an = np.linalg.matrix_power(fock_annihilation(p.dims), p.n)
        regression = an @ steady_state(L)
        assert np.abs(regression - regression.conj().T).max() > 1e-3
        ops = [regression, k0_part(p, random_density(p.dims, seed=11))]
        k0 = sector_indices(p, 0)
        assert np.count_nonzero(vec(ops[1])) == len(k0)
        if p.n == 1:
            assert len(k0) == d * d
        taus = [0.0, 0.7, 4.0]
        prop = LiouvillePropagator(L)
        got = [prop.propagate(op, taus) for op in ops]
        # L is block-diagonal in k, so exp(L tau) acts on k = 0 through its block
        block = dense_liouvillian(p)[np.ix_(k0, k0)]
        for i, tau in enumerate(taus):
            step = scipy.linalg.expm(block * tau)
            for op, out in zip(ops, got):
                exact = np.zeros(d * d, dtype=complex)
                exact[k0] = step @ vec(op)[k0]
                np.testing.assert_allclose(out[i], unvec(exact, d), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_decomposes_k0_block_once(self, point, request, monkeypatch):
        # one real eig, of the k = 0 block, in the constructor
        p = request.getfixturevalue(point)
        L = build_liouvillian(p)
        shapes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: shapes.append((m.shape, m.dtype)) or eig(m))
        LiouvillePropagator(L)
        k0 = len(L.idx)
        assert shapes == [((k0, k0), np.float64)]

    def test_regression_operator_decomposes_k0_only(self, dissipative_n3, monkeypatch):
        # every bundle order's regression operator a^N rho_ss a^dagN lies in
        # k = 0, so it propagates through the constructor's one eig
        L = build_liouvillian(dissipative_n3)
        rho = steady_state(L)
        prop = LiouvillePropagator(L)
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m.shape) or eig(m))
        k0 = L.idx
        a = fock_annihilation(dissipative_n3.dims)
        for N in (1, 2, 3):
            an = np.linalg.matrix_power(a, N)
            op = an @ rho @ an.conj().T
            assert np.count_nonzero(vec(op)) == np.count_nonzero(vec(op)[k0]) > 0
            out = prop.propagate(op, [1.0, 2.0])
            assert np.all(np.isfinite(out))
        assert calls == []

    def test_complex_real_form_rejected(self, dissipative_n2, monkeypatch):
        basis = dynamics._hermitian_basis

        def rotated_basis(idx, d):
            # still unitary, but row 0 times i: the block stops being real
            t = basis(idx, d)
            t.data[t.indptr[0]:t.indptr[1]] *= 1j
            return t

        monkeypatch.setattr(dynamics, "_hermitian_basis", rotated_basis)
        with pytest.raises(RuntimeError, match="not real in the Hermitian basis"):
            LiouvillePropagator(build_liouvillian(dissipative_n2))


def dense_k0_steady_state(p):
    """Oracle: the SVD null vector of the k = 0 block of dense_liouvillian(p).

    The block holds the entries rho[i, j] whose photon numbers m_i, m_j (the
    basis index is 2m + s) satisfy (m_i - m_j) mod n = 0; the steady state
    lives there, and it costs a small fraction of the full SVD.
    """
    d = p.dims.total_dim
    k0 = sector_indices(p, 0)
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
            np.testing.assert_allclose(ws.solve(delta_a), rho, rtol=0, atol=1e-12)
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
    def assert_rewrite_reproduces_build(p, grid, atol):
        # the workspace is built at p's own delta_a and rewrites the diagonal
        # for each point; the system it factors must be, bit for bit, the
        # k = 0 block of an L built at the point with row 0 replaced by the
        # trace row, so its solve matches a workspace built there bit for bit.
        # The direct SuperLU of that block is an independent check of the
        # banded solve (here without steady_state's truncation check: n = 3
        # overflows n_max near 0)
        ws = SteadyStateWorkspace(build_liouvillian(p))
        for delta_a in grid:
            L = build_liouvillian(replace(p, delta_a=delta_a))
            got = ws.solve(delta_a)
            block = L.mat.toarray()
            np.testing.assert_array_equal(ws._block.toarray(), block)
            block[0] = vec(np.eye(p.dims.total_dim))[L.idx]
            np.testing.assert_array_equal(ws._constrained.toarray(), block)
            np.testing.assert_array_equal(SteadyStateWorkspace(L).solve(delta_a), got)
            np.testing.assert_allclose(got, lu_steady_state(L), rtol=0, atol=atol)

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_reproduces_steady_state_bit_for_bit(self, point, request):
        # the workspace rewrites the diagonal with build_liouvillian's own
        # arithmetic.  SuperLU and the refined banded LU agree to 1.2e-14
        # here, most of it SuperLU's: the banded solve is within 2e-16 of a
        # long-double reference
        p = request.getfixturevalue(point)
        self.assert_rewrite_reproduces_build(p, np.r_[self.grid(p), -p.delta_n / p.n], 1e-13)

    @pytest.mark.parametrize("point", ["dissipative_n2", "dissipative_n3"])
    def test_bit_for_bit_where_a_coherence_diagonal_vanishes(self, point, request):
        # at gamma = 0 the (0,g)/(0,e) coherence diagonal is i delta_sigma,
        # exactly 0 at delta_a = -Delta/n, where build_liouvillian stores no
        # entry and the workspace stores a zero.  The problem is worse
        # conditioned without TLS decay: the two LUs agree to 1.2e-13, and
        # the dense SVD null vector sits 8e-12 to 2e-11 from both
        p = replace(request.getfixturevalue(point), gamma=0.0)
        vanishing = -p.delta_n / p.n
        assert replace(p, delta_a=vanishing).delta_sigma == 0.0
        self.assert_rewrite_reproduces_build(
            p, [0.0, vanishing, vanishing + 0.5, vanishing], 1e-10
        )

    @pytest.mark.parametrize(
        "point, delta_a",
        [("dissipative_n2", None), ("dissipative_n3", np.linspace(-40.0, 40.0, 801)[32])],
        ids=["n2_resonance", "n3_far_detuned"],
    )
    def test_tail_populations_to_full_relative_precision(self, point, delta_a, request):
        # P_12 is 6.5e-19 at the n = 2 resonance.  The refinement step holds
        # every P_m to the relative precision of a dense LU of the same system
        # (without it the banded P_12 was 37 % off); absolute bounds cannot
        # see the tail.  At n = 3, delta_a = -36.8 (a row of criterion 4's
        # grid) P_m>3 is about 1e-11, and the sweep's g3 and g4 are ratios of
        # such tails: an absolute error of 1e-16 in each P_m can move g4 by
        # 1e-3 relative
        p = request.getfixturevalue(point)
        delta_a = p.delta_a if delta_a is None else delta_a
        ws = SteadyStateWorkspace(build_liouvillian(p))
        got = photon_distribution(ws.solve(delta_a))
        a = ws._constrained.toarray()
        b = np.zeros(len(a), dtype=complex)
        b[0] = 1.0
        x = np.linalg.solve(a, b)
        x = x + np.linalg.solve(a, b - a @ x)
        d = p.dims.total_dim
        full = np.zeros(d * d, dtype=complex)
        full[ws._idx] = x
        expected = photon_distribution(unvec(full, d))
        assert expected[-1] < 1e-18
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)
        header, rows = sweep(p, [delta_a])
        m = np.arange(len(expected))
        g = [
            np.array([math.perm(k, ell) for k in m], dtype=float) @ expected
            / (m @ expected) ** ell
            for ell in (2, 3, 4)
        ]
        g2 = header.index("g2")
        np.testing.assert_allclose(rows[0][g2 : g2 + 3], g, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_dense_oracle_at_other_photon_orders(self, n):
        # at n = 1 the k = 0 block is the whole space; at n = 4 it is a
        # quarter of it
        p = oracle_point(n, 1.0, 0.1)
        L = build_liouvillian(p)
        if n == 1:
            assert len(L.idx) == p.dims.total_dim**2
        ws = SteadyStateWorkspace(L)
        for delta_a in (-2.0, p.delta_a, 3.0):
            rho = dense_k0_steady_state(replace(p, delta_a=delta_a))
            np.testing.assert_allclose(ws.solve(delta_a), rho, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "p, null_dim",
        [
            # no drive, no coupling and no TLS decay: |0,g> and |0,e> are
            # both stationary, and the factor is exactly singular
            (ModelParams(
                n=2, j=0.0, omega_l=0.0, delta_n=0.3, delta_a=0.5, kappa=1.0, gamma=0.0,
                n_max=4,
            ), 2),
            # j and gamma at 1e-300 leave the driven TLS unrelaxed to working
            # precision: the LU returns a null vector of size 1e280, and its
            # residual overflows
            (at_resonance(ModelParams(
                n=1, j=1e-300, omega_l=46.0, delta_n=1.0, delta_a=0.0, kappa=1.0,
                gamma=1e-300, n_max=3,
            )), 2),
            # kappa = 1e-300 leaves the photon number unrelaxed to working
            # precision: the refined LU solution has residual 0, but its trace
            # row cancelled (Tr x = 3e-280 i), which only the trace check sees
            (ModelParams(
                n=2, j=2.0, omega_l=1.0, delta_n=1.0, delta_a=35.400000000000006,
                kappa=1e-300, gamma=0.0, n_max=2,
            ), 6),
        ],
        ids=["exactly_singular", "residual_overflows", "trace_lost"],
    )
    def test_singular_lu_falls_back_and_names_degeneracy(self, p, null_dim, caplog):
        # kappa > 0, so the banded LU runs; its solution fails the check, and
        # the dense SVD null space names the degeneracy
        with caplog.at_level(logging.WARNING, logger="bundlejc"):
            with pytest.raises(
                RuntimeError, match=f"degenerate steady state: null-space dimension {null_dim}"
            ):
                steady_state(build_liouvillian(p))
        assert [r.getMessage() for r in caplog.records] == [
            "steady state on the k=0 block: banded LU residual inf; "
            "falling back to a dense SVD null space"
        ]

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

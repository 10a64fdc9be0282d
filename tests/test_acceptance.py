"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The slow criteria (steady-state scans, trajectory ensembles) take a
few minutes total.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from bundlejc.dynamics import (
    LiouvillePropagator,
    SteadyStateWorkspace,
    build_liouvillian,
    mcwf_trajectory,
    run_trajectories,
    steady_state,
)
from bundlejc.hilbert import basis_state, fock_annihilation
from bundlejc.model import (
    ModelParams,
    at_resonance,
    build_H_I,
    dressed,
    dressed_state,
    jc_eigensystem,
    omega_eff_jc,
    omega_eff_mollow,
)
from bundlejc.observables import (
    g2_bundle_delayed,
    photon_distribution,
    sweep,
    tau_min,
)
from dop853 import dop853
from oracles import build_H_jc, check_density_matrix, trajectory_average


def report(num, name, ok, detail=""):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return line


def test_criterion_1_resonance_values(dissipative_n2, dissipative_n3):
    def direct(p):
        return -(p.delta_n**2 + 4.0 * p.omega_l**2) / (2.0 * p.n * p.delta_n)

    err_a = abs(dissipative_n2.delta_a / direct(dissipative_n2) - 1.0)
    err_b = abs(dissipative_n3.delta_a / direct(dissipative_n3) - 1.0)
    ok = (
        err_a < 1e-10
        and err_b < 1e-10
        and dissipative_n2.delta_a == pytest.approx(21.2841, abs=5e-5)
        and dissipative_n3.delta_a == pytest.approx(18.0802, abs=5e-5)
    )
    line = report(
        1,
        "resonance detunings 21.2841 / 18.0802",
        ok,
        f"n=2: {dissipative_n2.delta_a:.6f}, n=3: {dissipative_n3.delta_a:.6f}",
    )
    assert ok, line


def _super_rabi_peak(p):
    eff = omega_eff_mollow(p)
    t_exp = math.pi / (2.0 * abs(eff.omega_eff))
    t_grid = np.linspace(0.0, 1.4 * t_exp, 500)
    history = dop853(-1j * build_H_I(p), dressed_state(p, 0, "+"), t_grid)
    v_bot = dressed_state(p, p.n, "-")
    p_bot = np.abs(history @ v_bot.conj()) ** 2
    k = int(np.argmax(p_bot))
    return p_bot[k], t_grid[k], t_exp


def test_criterion_2_super_rabi(unitary_n2, unitary_n3):
    details = []
    ok = True
    for p in (unitary_n2, unitary_n3):
        peak, t_peak, t_exp = _super_rabi_peak(p)
        ok = ok and peak > 0.9 and abs(t_peak / t_exp - 1.0) < 0.05
        details.append(f"n={p.n}: peak {peak:.4f} at t err {abs(t_peak/t_exp-1):.2%}")
    line = report(2, "super-Rabi transfer and period", ok, "; ".join(details))
    assert ok, line


def test_criterion_3_effective_splitting(unitary_n2, unitary_n3):
    details = []
    ok = True
    for p in (unitary_n2, unitary_n3):
        evals, evecs = np.linalg.eigh(build_H_I(p))
        v0 = dressed_state(p, 0, "+")
        vn = dressed_state(p, p.n, "-")
        weight = np.abs(evecs.conj().T @ v0) ** 2 + np.abs(evecs.conj().T @ vn) ** 2
        pair = np.argsort(weight)[-2:]
        gap = abs(evals[pair[0]] - evals[pair[1]])
        target = 2.0 * abs(omega_eff_mollow(p).omega_eff)
        ok = ok and abs(gap / target - 1.0) < 0.10
        details.append(f"n={p.n}: gap/2|Omega_eff| = {gap / target:.4f}")
    line = report(3, "dressed-resonant eigenvalue splitting", ok, "; ".join(details))
    assert ok, line


def _scan(p, grid):
    """Steady-state P_m (m <= min(3n, n_max)) and equal-time g2, g3, g4 over a
    delta_a grid.

    The truncation check is per-row (flag), so resonant ladder-climbing points
    do not abort the scan; a solver failure on any row does."""
    header, rows = sweep(p, grid)
    failed = [row for row in rows if "solver:" in row[-1]]
    assert not failed, f"steady-state solver failed at {len(failed)} rows: {failed[0][-1]}"
    table = np.array([row[:-1] for row in rows], dtype=float)
    g2 = header.index("g2")  # columns: delta_a, P0.., g2, g3, g4, tail
    return table[:, 1:g2], table[:, g2 : g2 + 3]


def _has_local_extremum_near(grid, values, target, kind, step):
    sign = 1.0 if kind == "min" else -1.0
    v = sign * values
    for i in range(1, len(grid) - 1):
        if abs(grid[i] - target) <= step + 1e-9:
            if v[i] < v[i - 1] and v[i] < v[i + 1]:
                return True
    return False


GRID = np.linspace(-40.0, 40.0, 801)


@pytest.fixture(scope="module")
def scan_n2(dissipative_n2):
    return _scan(dissipative_n2, GRID)


@pytest.fixture(scope="module")
def scan_n3(dissipative_n3):
    return _scan(dissipative_n3, GRID)


def test_criterion_4_steady_scan(dissipative_n2, dissipative_n3, scan_n2, scan_n3):
    step = GRID[1] - GRID[0]
    checks = {}
    for label, p, (pops, gs) in (
        ("n=2", dissipative_n2, scan_n2),
        ("n=3", dissipative_n3, scan_n3),
    ):
        finite = gs[np.all(np.isfinite(gs), axis=1)]
        checks[f"{label} g>1"] = bool(np.all(finite > 1.0))
        g2 = gs[:, 0]
        pn = pops[:, p.n]
        for target in (0.0, p.delta_a):
            checks[f"{label} g2 dip @{target:.2f}"] = _has_local_extremum_near(
                GRID, g2, target, "min", step
            )
            checks[f"{label} P{p.n} peak @{target:.2f}"] = _has_local_extremum_near(
                GRID, pn, target, "max", step
            )
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    line = report(
        4,
        "steady-state scan: correlations and resonance dips/peaks",
        ok,
        "all sub-checks hold" if ok else f"failing: {bad}",
    )
    assert ok, line


def test_criterion_4iv_population_balance(dissipative_n2, dissipative_n3):
    # The drive and TLS decay keep the photon number, and the coupling moves it
    # by +-n, so in steady state kappa*m*P_m equals the net coherent up-flux
    # across the cut between m-1 and m photons.  Under pure n-photon injection
    # from |0> that flux is the same for every cut m <= n, so m*P_m is constant
    # there: (n-1)*P_{n-1} ~ n*P_n.
    details = []
    ok = True
    for p in (dissipative_n2, dissipative_n3):
        rho = SteadyStateWorkspace(build_liouvillian(p)).solve(p.delta_a)
        pops = photon_distribution(rho)
        n = p.n
        lower, upper = (n - 1) * pops[n - 1], n * pops[n]
        ok = ok and abs(lower - upper) < 0.3 * upper
        details.append(
            f"n={n}: P{n}={pops[n]:.3e}, P{n - 1}={pops[n - 1]:.3e}, "
            f"{n - 1}P{n - 1}/({n}P{n})={lower / upper:.3f}"
        )
    line = report(
        "4iv", "cascade balance (n-1)P_{n-1} ~ n P_n within 30% at resonance", ok,
        "; ".join(details),
    )
    assert ok, line


def test_criterion_5_bundle_ordering(dissipative_n2, dissipative_n3):
    checks = {}
    for p_res in (dissipative_n2, dissipative_n3):
        for da, regime in ((p_res.delta_a, "resonant"), (0.0, "detuned")):
            p = replace(p_res, delta_a=da)
            L = build_liouvillian(p)
            rho = SteadyStateWorkspace(L).solve(p.delta_a)
            prop = LiouvillePropagator(L)
            n = p.n
            t0 = tau_min(n, p.kappa)
            curve = g2_bundle_delayed(
                p, n, np.array([t0, 100.0 / p.kappa]), propagator=prop, rho_ss=rho
            )
            short, long_ = curve.values
            key = f"n={n} {regime}"
            if regime == "resonant":
                checks[f"{key} bundle antibunching"] = short < (1.0 - 0.05) * long_
            else:
                checks[f"{key} bundle bunching"] = short > long_
            g1_grid = np.concatenate(([0.0], np.geomspace(0.05, 30.0, 15) / p.kappa))
            g1 = g2_bundle_delayed(p, 1, g1_grid, propagator=prop, rho_ss=rho)
            checks[f"{key} photon bunching"] = bool(
                np.all(g1.values[0] > g1.values[1:])
            )
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    line = report(
        5,
        "bundle correlation ordering in all four regimes",
        ok,
        "all orderings hold" if ok else f"failing: {bad}",
    )
    assert ok, line


def test_criterion_6_trajectory_consistency(dissipative_n2):
    p = dissipative_n2
    psi0 = basis_state(p.dims, 0, 0)
    recs = run_trajectories(
        p, psi0, 10.0, 0.5, n_trajectories=2000, base_seed=11
    )
    a = fock_annihilation(p.dims)
    num = a.conj().T @ a
    times, mean, stderr = trajectory_average(recs, num)
    prop = LiouvillePropagator(build_liouvillian(p))
    exact_hist = prop.propagate(np.outer(psi0, psi0.conj()), times)
    exact = np.array([np.trace(num @ rho).real for rho in exact_hist])
    dev = np.abs(mean - exact)
    within = bool(np.all(dev <= 4.0 * np.maximum(stderr, 1e-12)))
    max_sigma = float(np.max(dev[1:] / stderr[1:]))

    decay = ModelParams(
        n=1, j=0.0, omega_l=0.0, delta_n=0.0, delta_a=0.0, kappa=1.0, n_max=2
    )
    jump_times = []
    for seed in range(1000, 1500):
        rec = mcwf_trajectory(decay, basis_state(decay.dims, 1, 0), 20.0, seed, 1.0)
        jump_times.extend(t for t, _ in rec.jumps)
    pvalue = kstest(jump_times, "expon", args=(0.0, 1.0)).pvalue

    ok = within and pvalue > 0.01
    line = report(
        6,
        "MCWF ensemble matches master equation; jump times exponential",
        ok,
        f"max deviation {max_sigma:.2f} sigma over {len(times)} samples; "
        f"KS p = {pvalue:.3f}",
    )
    assert ok, line


def test_criterion_7_bundle_cascade(dissipative_n2):
    p = dissipative_n2
    psi0 = basis_state(p.dims, 0, 0)
    window = 3.0 / p.kappa
    t_final = 3.0e4 / p.kappa
    recs = run_trajectories(
        p, psi0, t_final, 10.0, n_trajectories=10, base_seed=2
    )
    waits = []
    for rec in recs:
        cav = [t for t, ch in rec.jumps if ch == "cavity"]
        waits.extend(np.diff(cav))
    waits = np.asarray(waits)
    n_jumps = len(waits)
    assert n_jumps >= 10_000
    frac = float(np.mean(waits < window))
    rate = n_jumps / (len(recs) * t_final)
    frac_poisson = 1.0 - math.exp(-rate * window)
    sigma = math.sqrt(frac_poisson * (1.0 - frac_poisson) / n_jumps)
    z = (frac - frac_poisson) / sigma
    ok = z > 5.0
    line = report(
        7,
        "cascaded partner emission beats rate-matched Poisson",
        ok,
        f"{n_jumps} jumps: fraction {frac:.3f} vs Poisson {frac_poisson:.3f}, "
        f"z = {z:.1f}",
    )
    assert ok, line


def test_criterion_8_jc_regime():
    p = ModelParams(
        n=2, j=1.0, omega_l=0.1, delta_n=-165.0, delta_a=41.268234, n_max=8
    )
    direct = (
        p.j
        * math.sqrt(math.factorial(p.n))
        * p.omega_l**2
        / (p.n * p.delta_a * p.delta_sigma - math.factorial(p.n) * p.j**2)
    )
    val = omega_eff_jc(p)
    formula_ok = val == pytest.approx(direct, rel=1e-12)
    magnitude_ok = abs(val) == pytest.approx(2.1e-6, rel=0.05)

    eig = jc_eigensystem(p)
    dense = np.sort(np.linalg.eigvalsh(build_H_jc(p)))
    leftovers = [
        m * p.delta_a + p.delta_sigma for m in range(p.n_max - p.n + 1, p.n_max + 1)
    ]
    analytic = np.sort(
        np.concatenate([eig.bare_energies, eig.e_plus, eig.e_minus, leftovers])
    )
    spectrum_ok = bool(np.max(np.abs(dense - analytic)) < 1e-9)

    damped = replace(p, kappa=0.1, gamma=0.01, n_max=6)
    rho = steady_state(build_liouvillian(damped))
    p_n = float(photon_distribution(rho)[p.n])
    population_ok = p_n < 1e-4

    ok = formula_ok and magnitude_ok and spectrum_ok and population_ok
    line = report(
        8,
        "JC-regime effective coupling, spectrum, and suppressed bundles",
        ok,
        f"|omega_eff_jc| = {abs(val):.3e}, P_{p.n} = {p_n:.1e}",
    )
    assert ok, line


def test_criterion_9_invariant_fuzz():
    rng = np.random.default_rng(2024)
    n_algebra = 500
    n_steady = 60
    failures = []

    for i in range(n_algebra):
        p = ModelParams(
            n=int(rng.integers(1, 4)),
            j=float(rng.uniform(0.05, 2.0)),
            omega_l=float(rng.uniform(0.5, 100.0)),
            delta_n=float(rng.uniform(-300.0, -5.0)),
            delta_a=float(rng.uniform(-50.0, 50.0)),
            n_max=5,
        )
        d = dressed(p)
        if abs(d.c_plus**2 + d.c_minus**2 - 1.0) > 1e-12:
            failures.append(f"sample {i}: c+^2 + c-^2 off")
        if abs(np.linalg.norm(dressed_state(p, 2, "+")) - 1.0) > 1e-12:
            failures.append(f"sample {i}: dressed state not normalized")
        p_res = at_resonance(p)
        d_res = dressed(p_res)
        if abs(abs(p.n * p_res.delta_a) / d_res.omega - 1.0) > 1e-10:
            failures.append(f"sample {i}: |n delta_a| != Omega at resonance")

    for i in range(n_steady):
        p = ModelParams(
            n=int(rng.integers(1, 3)),
            j=float(rng.uniform(0.05, 0.5)),
            omega_l=float(rng.uniform(0.2, 2.0)),
            delta_n=float(rng.uniform(-20.0, -2.0)),
            delta_a=float(rng.uniform(-5.0, 5.0)),
            kappa=float(rng.uniform(0.5, 2.0)),
            gamma=float(rng.uniform(0.0, 0.5)),
            n_max=5,
        )
        try:
            rho = SteadyStateWorkspace(build_liouvillian(p)).solve(p.delta_a)
            check_density_matrix(rho)
        except Exception as exc:  # noqa: BLE001 - any invariant break counts
            failures.append(f"steady sample {i}: {exc}")

    ok = not failures
    line = report(
        9,
        f"invariant fuzz over {n_algebra + n_steady} samples",
        ok,
        "no violations" if ok else f"{len(failures)} violations, first: {failures[0]}",
    )
    assert ok, line

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


@pytest.fixture(scope="module")
def cascade_records(dissipative_n2):
    """Criterion 7's ensemble: 10 trajectories of 3e4/kappa from |0, g>."""
    p = dissipative_n2
    return run_trajectories(
        p, basis_state(p.dims, 0, 0), 3.0e4 / p.kappa, 10.0, n_trajectories=10, base_seed=2
    )


def test_criterion_7_bundle_cascade(dissipative_n2, cascade_records):
    p = dissipative_n2
    window = 3.0 / p.kappa
    recs = cascade_records
    t_final = recs[0].times[-1]
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


# cavity-jump pair delays: 0 to 0.05/kappa, then 15 log bins to 30/kappa
PAIR_EDGES = np.r_[0.0, np.geomspace(0.05, 30.0, 16)]


def jump_pair_histogram(recs, kappa):
    """Counts of the delays t_j - t_i (j > i) between cavity jumps, binned by
    PAIR_EDGES / kappa, over the first jumps i past the relaxation from |0, g>
    (50/kappa) and at least the last edge before the end of their record, so
    every partner is seen; returns (counts, number of such first jumps)."""
    edges = PAIR_EDGES / kappa
    counts = np.zeros(len(edges) - 1)
    n_first = 0
    for rec in recs:
        t = np.array([s for s, channel in rec.jumps if channel == "cavity"])
        first = (t >= 50.0 / kappa) & (t <= rec.times[-1] - edges[-1])
        n_first += int(first.sum())
        for lag in range(1, len(t)):
            delays = (t[lag:] - t[:-lag])[first[:-lag]]
            if not np.any(delays < edges[-1]):
                break  # t is sorted: no longer lag comes closer
            counts += np.histogram(delays, edges)[0]
    return counts, n_first


def expected_pair_counts(p, n_first):
    """N kappa nbar int_bin g^(2)(tau) dtau per bin of PAIR_EDGES / kappa, from
    the quantum-regression g^(2)(tau) of p (trapezoid rule, 41 points a bin),
    and the same for a Poisson g^(2) = 1."""
    L = build_liouvillian(p)
    rho = steady_state(L)
    pops = photon_distribution(rho)
    rate = p.kappa * float(np.arange(len(pops)) @ pops)
    edges = PAIR_EDGES / p.kappa
    taus = np.linspace(edges[:-1], edges[1:], 41, axis=1)
    g2 = g2_bundle_delayed(
        p, 1, taus.ravel(), propagator=LiouvillePropagator(L), rho_ss=rho
    ).values.reshape(taus.shape)
    integral = np.sum((g2[:, 1:] + g2[:, :-1]) / 2 * np.diff(taus, axis=1), axis=1)
    return n_first * rate * integral, n_first * rate * np.diff(edges)


def test_criterion_7ii_g2_tau_matches_jump_pairs(dissipative_n2, cascade_records):
    # In the quantum-jump unraveling, cavity jumps separated by tau occur at
    # the rate (kappa nbar)^2 g^(2)(tau), so the pair-delay histogram of
    # criterion 7's records checks the regression curve at every tau, not
    # only at 0 and infinity.  Pair counts overlap, so chi^2 over the 16 bins
    # is not chi^2_16: over 23 ensembles of this size (base seeds 2 and
    # 100-121) it read 10.1 to 35.6, mean 21.4, sd 7.9; a chi^2 matched to
    # those two moments puts the false-alarm rate of the bound 80 near 1e-6.
    # Each wrong curve read over 1000 in every one of those ensembles
    p = dissipative_n2
    counts, n_first = jump_pair_histogram(cascade_records, p.kappa)
    assert n_first >= 10_000

    def chi2(expected):
        return float(np.sum((counts - expected) ** 2 / expected))

    expected, poisson = expected_pair_counts(p, n_first)
    wrong = {
        "gamma doubled": replace(p, gamma=2 * p.gamma),
        "delta_a moved 2 %": replace(p, delta_a=1.02 * p.delta_a),
        "delta_a = 0": replace(p, delta_a=0.0),
    }
    controls = {name: chi2(expected_pair_counts(q, n_first)[0]) for name, q in wrong.items()}
    controls["Poisson"] = chi2(poisson)
    ok = chi2(expected) <= 80.0 and all(value > 80.0 for value in controls.values())
    line = report(
        "7ii",
        "cavity-jump pair delays follow the regression g2(tau)",
        ok,
        f"{n_first} first jumps, {int(counts.sum())} pairs: chi2 = {chi2(expected):.1f} "
        "(bound 80); wrong curves "
        + ", ".join(f"{name} {value:.0f}" for name, value in controls.items()),
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

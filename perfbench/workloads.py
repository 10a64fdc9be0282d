"""The four benchmark workloads, one per figure family of the paper.

Each workload makes its inputs from the seed, produces its datasets through
the public ``bundlejc`` API (one call to ``produce`` is one timed pass),
reads them back, and checks them against ``oracle``.  ``corrupt`` returns a
deliberately wrong copy of the datasets that ``check`` must reject, so that
no check is vacuous.

The library is reached through module attributes (``cli.run_preset``, not a
name bound here at import) so that the tracer sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from bundlejc import cli, dynamics, hilbert
from oracle import Point

# Dissipative resonance points of tests/conftest.py (rates in units of kappa)
# and the unitary n=2 super-Rabi point of tests/test_cli.py (units of J).
N2 = Point(n=2, j=0.3, omega_l=21.0, delta_n=-49.5, n_max=12, kappa=1.0, gamma=0.1)
N3 = Point(n=3, j=0.3, omega_l=24.0, delta_n=-79.5, n_max=15, kappa=1.0, gamma=0.1)
UNITARY_N2 = Point(n=2, j=1.0, omega_l=70.0, delta_n=-165.0, n_max=8)


@dataclass
class Datasets:
    """What one pass produced, read back from disk (and memory)."""

    attempted: int  # operations in the pass that can fail on their own
    failed: int
    ops: int  # unit operations behind ops_per_s
    digest: str  # sha256 over every dataset byte
    tables: dict


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _digest(paths, *arrays) -> str:
    """sha256 over the CSVs and the given arrays.  Sidecars are left out:
    they record the output directory, which differs between passes."""
    h = hashlib.sha256()
    for path in sorted(str(p) for p in paths if str(p).endswith(".csv")):
        h.update(Path(path).read_bytes())
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _close(value, ref, rtol, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(value) - ref) <= atol + rtol * np.abs(ref)))


def _run(configs) -> list[Path]:
    """Parse and run each (preset, config text); returns every path written."""
    return [Path(p) for preset, text in configs for p in cli.run_preset(cli.parse_config(text, preset))]


class Steadyscan:
    """P_m and g^(2..4)(0) over a delta_a grid at the n=2 and n=3 points."""

    name = "steadyscan"
    kernel = "kron_solve"  # calibrate.Kernel

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # n=2: symmetric grid with an odd point count, so delta_a = 0 is a row.
        x2 = N2.resonance + 2.0 + 6.0 * rng.random()
        # n=3: n_max=15 cannot hold |delta_a| < ~1.2 (the sweep flags those
        # rows 'truncation'), so this grid starts above that window.
        lo3 = 2.0 + 2.0 * rng.random()
        hi3 = N3.resonance + 3.0 + 6.0 * rng.random()
        self.scans = [(N2, -x2, x2, 7), (N3, lo3, hi3, 5)]

    def configs(self, out_dir: Path) -> list[tuple[str, str]]:
        return [
            (
                "steadyscan",
                pt.model_section()
                + f"[scan]\nmin = {lo!r}\nmax = {hi!r}\npoints = {points}\n"
                + f"[output]\ndirectory = {out_dir / f'n{pt.n}'}\n",
            )
            for pt, lo, hi, points in self.scans
        ]

    def produce(self, out_dir: Path):
        return _run(self.configs(out_dir)), None

    def read(self, paths) -> Datasets:
        tables = {}
        for pt, *_ in self.scans:
            csv_path = next(p for p in paths if p.parent.name == f"n{pt.n}" and p.suffix == ".csv")
            header, rows = _read_csv(csv_path)
            n_p = sum(1 for h in header if h.startswith("P"))
            num = np.array([[float(x) for x in r[: 1 + n_p + 3]] for r in rows])
            tables[pt.n] = {
                "delta_a": num[:, 0],
                "P": num[:, 1 : 1 + n_p],
                "g": num[:, 1 + n_p :],
                "flag": [r[-1] for r in rows],
            }
        n_rows = sum(len(t["flag"]) for t in tables.values())
        failed = sum(1 for t in tables.values() for f in t["flag"] if f)
        return Datasets(n_rows, failed, n_rows, _digest(paths), tables)

    def reference(self, data: Datasets) -> dict:
        """Oracle P_m and g^(2..4) at the rows nearest delta_a = 0 and nearest
        the resonance of each grid."""
        ref = {}
        for pt, lo, hi, points in self.scans:
            grid = np.linspace(lo, hi, points)
            for i in sorted({int(np.argmin(np.abs(grid))), int(np.argmin(np.abs(grid - pt.resonance)))}):
                pops = oracle.photon_distribution(
                    oracle.steady_state(oracle.liouvillian(pt, grid[i]))
                )
                gs = [oracle.g_equal_time(pops, ell) for ell in (2, 3, 4)]
                ref[(pt.n, i)] = (grid[i], pops, np.array(gs))
        return ref

    def check(self, data: Datasets, ref: dict) -> list[str]:
        bad = []
        for pt, lo, hi, points in self.scans:
            t = data.tables[pt.n]
            tag = f"n={pt.n}"
            if not _close(t["delta_a"], np.linspace(lo, hi, points), 1e-8, 1e-12):
                bad.append(f"{tag}: delta_a column is not the configured grid")
            if any(t["flag"]):
                bad.append(f"{tag}: flagged rows {[f for f in t['flag'] if f]}")
            if not np.all(t["P"] >= 0.0):
                bad.append(f"{tag}: negative P_m")
            if not np.all(t["P"].sum(axis=1) <= 1.0 + 1e-9):
                bad.append(f"{tag}: sum of P_m exceeds 1")
        for (n, i), (delta_a, pops, gs) in ref.items():
            t = data.tables[n]
            p_row = t["P"][i]
            # 1e-12 absolute covers the LU-vs-SVD difference (< 3e-14 measured);
            # 1e-7 relative covers the 9 significant digits of the CSV.
            if not _close(p_row, pops[: len(p_row)], 1e-7, 1e-12):
                bad.append(f"n={n} delta_a={delta_a:.4f}: P_m differ from the SVD null space")
            if not _close(t["g"][i], gs, 1e-4):
                bad.append(f"n={n} delta_a={delta_a:.4f}: g(2..4) {t['g'][i]} vs oracle {gs}")
        return bad

    def corrupt(self, data: Datasets) -> Datasets:
        """Populations redrawn as a Poisson distribution with the same <N>."""
        tables = {}
        for n, t in data.tables.items():
            m = np.arange(t["P"].shape[1])
            mean = t["P"] @ m
            poisson = np.exp(-mean[:, None]) * mean[:, None] ** m / np.array(
                [math.factorial(k) for k in m]
            )
            tables[n] = {**t, "P": poisson}
        return Datasets(data.attempted, data.failed, data.ops, "", tables)


class G2tau:
    """g^(2)(tau) and the bundle g_N^(2)(tau) at both resonance points."""

    name = "g2tau"
    kernel = "lapack"  # calibrate.Kernel
    points = (N2, N3)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.tau_max = 20.0 + 20.0 * rng.random()
        self.tau_points = 200
        # rows recomputed with expm, per point: the first and the last row
        # (tau_max) of both curves, and one seeded short-delay row of the g1
        # curve (0 < tau < ~0.1/kappa)
        self.g1_row = {pt.n: int(rng.integers(1, 51)) for pt in self.points}

    def configs(self, out_dir: Path) -> list[tuple[str, str]]:
        return [
            (
                "g2tau",
                pt.model_section()
                + f"[scan]\ntau_points = {self.tau_points}\ntau_max = {self.tau_max!r}\n"
                + f"[output]\ndirectory = {out_dir / f'n{pt.n}'}\n",
            )
            for pt in self.points
        ]

    def produce(self, out_dir: Path):
        return _run(self.configs(out_dir)), None

    def read(self, paths) -> Datasets:
        tables = {}
        for pt in self.points:
            mine = [p for p in paths if p.parent.name == f"n{pt.n}"]
            _, rows = _read_csv(next(p for p in mine if p.suffix == ".csv"))
            meta = json.loads(next(p for p in mine if p.suffix == ".json").read_text())
            curves = {}
            for curve, tau, value in rows:
                curves.setdefault(curve, []).append((float(tau), float(value)))
            tables[pt.n] = {
                "g1": np.array(curves["g1"]),
                "bundle": np.array(curves[f"g{pt.n}_bundle"]),
                "meta": meta,
            }
        values = np.concatenate([t[c][:, 1] for t in tables.values() for c in ("g1", "bundle")])
        failed = int(np.sum(~np.isfinite(values)))
        return Datasets(len(values), failed, len(values), _digest(paths), tables)

    def reference(self, data: Datasets) -> dict:
        ref = {}
        for pt in self.points:
            t = data.tables[pt.n]
            lmat = oracle.liouvillian(pt, pt.resonance)
            rho = oracle.steady_state(lmat)
            rows = {"bundle": [0, len(t["bundle"]) - 1], "g1": [self.g1_row[pt.n], len(t["g1"]) - 1]}
            orders = {"bundle": pt.n, "g1": 1}
            # one call, so that the two tau_max rows share one expm
            values = oracle.g_bundle(
                lmat, rho, pt, [(orders[c], t[c][i, 0]) for c in rows for i in rows[c]]
            )
            ref[pt.n] = {
                "g2_0": oracle.g_equal_time(oracle.photon_distribution(rho), 2),
                "tau_min": sum(1.0 / (m * pt.kappa) for m in range(1, pt.n + 1)),
                "bundle": (rows["bundle"], values[:2]),
                "g1": (rows["g1"], values[2:]),
            }
        return ref

    def check(self, data: Datasets, ref: dict) -> list[str]:
        bad = []
        for pt in self.points:
            t, r, tag = data.tables[pt.n], ref[pt.n], f"n={pt.n}"
            g1, bundle = t["g1"], t["bundle"]
            if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(bundle))):
                bad.append(f"{tag}: non-finite values")
            if g1[0, 0] != 0.0 or not _close(g1[0, 1], t["meta"]["g_equal_time_2"], 1e-8):
                bad.append(f"{tag}: g(2)(0) {g1[0, 1]} != sidecar g_equal_time_2")
            if not _close(t["meta"]["g_equal_time_2"], r["g2_0"], 1e-6):
                bad.append(f"{tag}: sidecar g_equal_time_2 differs from the oracle {r['g2_0']}")
            if not _close(bundle[0, 0], r["tau_min"], 1e-8):
                bad.append(f"{tag}: bundle curve does not start at tau_min")
            if not _close(np.array([g1[-1, 0], bundle[-1, 0]]), self.tau_max / pt.kappa, 1e-8):
                bad.append(f"{tag}: curves do not end at tau_max")
            if not bundle[0, 1] < bundle[-1, 1]:
                bad.append(f"{tag}: bundle curve not antibunched: {bundle[0, 1]} >= {bundle[-1, 1]}")
            for curve in ("bundle", "g1"):
                rows, values = r[curve]
                # 1e-6 relative: the CSV carries 9 digits, expm and the
                # spectral propagator agree to ~1e-11
                if not _close(t[curve][rows, 1], values, 1e-6, 1e-12):
                    bad.append(f"{tag}: {curve} rows {rows} {t[curve][rows, 1]} vs expm {values}")
        return bad

    def corrupt(self, data: Datasets) -> Datasets:
        """Bundle curves scaled by 1.1."""
        tables = {
            n: {**t, "bundle": t["bundle"] * np.array([1.0, 1.1])} for n, t in data.tables.items()
        }
        return Datasets(data.attempted, data.failed, data.ops, "", tables)


class Trajectories:
    """An MCWF ensemble through run_trajectories at the n=2 point, plus one
    trajectory preset run (dressed populations of a single trajectory)."""

    name = "trajectories"
    kernel = "small_numpy"  # calibrate.Kernel
    n_trajectories = 8
    t_final = 6000.0  # 1/kappa; about 4400 jumps over the ensemble
    sample_dt = 10.0
    preset_t_final = 50.0
    preset_sample_dt = 0.05
    # per-trajectory rates scatter by ~7 % (super-Poissonian bundles); with
    # 8 trajectories, 7 standard errors of the mean leave a chance of about
    # 2e-4 (Student t, 7 degrees of freedom) of a false alarm per run
    rate_sigmas = 7.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.preset_seed = int(rng.integers(0, 2**31))
        self.base_seed = int(rng.integers(0, 2**31))

    def configs(self, out_dir: Path) -> list[tuple[str, str]]:
        return [
            (
                "trajectory",
                N2.model_section()
                + f"[integrator]\nt_final = {self.preset_t_final!r}\n"
                + f"sample_dt = {self.preset_sample_dt!r}\n"
                + f"[seeds]\nbase_seed = {self.preset_seed}\n"
                + f"[output]\ndirectory = {out_dir}\n",
            )
        ]

    def produce(self, out_dir: Path):
        (preset, text), = self.configs(out_dir)
        cfg = cli.parse_config(text, preset)
        paths = [Path(p) for p in cli.run_preset(cfg)]
        psi0 = hilbert.basis_state(cfg.model.dims, 0, 0)
        start = time.perf_counter()
        records = dynamics.run_trajectories(
            cfg.model, psi0, self.t_final, self.sample_dt,
            self.n_trajectories, self.base_seed,
        )
        return (paths, records), time.perf_counter() - start

    def read(self, produced) -> Datasets:
        paths, records = produced
        _, pop_rows = _read_csv(next(p for p in paths if p.name == "trajectory_populations.csv"))
        _, jump_rows = _read_csv(next(p for p in paths if p.name == "trajectory_jumps.csv"))
        meta = json.loads(next(p for p in paths if p.suffix == ".json").read_text())
        jumps = [
            (np.array([t for t, _ in r.jumps]), [c for _, c in r.jumps]) for r in records
        ]
        arrays = [a for r in records for a in (r.times, r.states)]
        arrays += [t for t, _ in jumps] + [np.array([c == "cavity" for c in cs]) for _, cs in jumps]
        populations = np.array([[float(x) for x in r] for r in pop_rows])
        failed = sum(1 for r in records if not np.all(np.isfinite(r.states)))
        failed += int(not np.all(np.isfinite(populations)))
        tables = {
            "records": records,
            "jumps": jumps,
            "populations": populations,
            "preset_jumps": [(float(t), c) for t, c in jump_rows],
            "meta": meta,
        }
        n_jumps = sum(len(t) for t, _ in jumps)
        return Datasets(len(records) + 1, failed, n_jumps, _digest(paths, *arrays), tables)

    def reference(self, data: Datasets) -> dict:
        rho = oracle.steady_state(oracle.liouvillian(N2, N2.resonance))
        pops = oracle.photon_distribution(rho)
        return {"cavity_rate": N2.kappa * float(np.arange(len(pops)) @ pops)}

    @staticmethod
    def _rising(times, t_final) -> bool:
        times = np.asarray(times)
        return bool(
            np.all(np.diff(times) > 0) and (len(times) == 0 or (times[0] >= 0 and times[-1] <= t_final))
        )

    def check(self, data: Datasets, ref: dict) -> list[str]:
        bad = []
        t = data.tables
        grid = np.arange(0.0, self.t_final + self.sample_dt / 2, self.sample_dt)
        for rec, (times, channels) in zip(t["records"], t["jumps"]):
            if not np.array_equal(rec.times, grid):
                bad.append(f"seed {rec.seed}: sample times are not the configured grid")
            if not _close(np.linalg.norm(rec.states, axis=1), 1.0, 0.0, 1e-10):
                bad.append(f"seed {rec.seed}: states not normalised")
            if not self._rising(times, self.t_final):
                bad.append(f"seed {rec.seed}: jump times do not rise within [0, t_final]")
            if not set(channels) <= {"cavity", "tls"}:
                bad.append(f"seed {rec.seed}: unknown jump channel")
        rates = np.array(
            [sum(c == "cavity" for c in cs) / self.t_final for _, cs in t["jumps"]]
        )
        stderr = rates.std(ddof=1) / math.sqrt(len(rates))
        if not abs(rates.mean() - ref["cavity_rate"]) <= self.rate_sigmas * stderr:
            bad.append(
                f"ensemble cavity-jump rate {rates.mean():.5f} +- {stderr:.5f} vs "
                f"kappa<a^dag a> = {ref['cavity_rate']:.5f}"
            )
        pops = t["populations"]
        preset_grid = np.arange(0.0, self.preset_t_final + self.preset_sample_dt / 2, self.preset_sample_dt)
        if not _close(pops[:, 0], preset_grid, 1e-8, 1e-12):
            bad.append("trajectory preset: time column is not the configured grid")
        if not (np.all(pops[:, 1:] >= 0.0) and np.all(pops[:, 1:].sum(axis=1) <= 1.0 + 1e-9)):
            bad.append("trajectory preset: dressed populations are not probabilities")
        if not _close(pops[0, 1], 1.0, 0.0, 1e-9):
            bad.append("trajectory preset: does not start in |0>|+>")
        preset_times = [tj for tj, _ in t["preset_jumps"]]
        if not self._rising(preset_times, self.preset_t_final):
            bad.append("trajectory preset: jump times do not rise within [0, t_final]")
        if len(preset_times) != t["meta"]["n_jumps"]:
            bad.append("trajectory preset: jump log disagrees with the sidecar n_jumps")
        return bad

    def corrupt(self, data: Datasets) -> Datasets:
        """Ensemble jump records thinned by half."""
        jumps = [(times[::2], channels[::2]) for times, channels in data.tables["jumps"]]
        return Datasets(data.attempted, data.failed, data.ops, "", {**data.tables, "jumps": jumps})


class Superrabi:
    """Coherent |0>|+> <-> |n>|-> transfer at the unitary n=2 point."""

    name = "superrabi"
    kernel = "small_numpy"  # calibrate.Kernel
    # 1.0/J carries a third of the population across (the transfer peaks
    # near 2.65/J); it is short so that a run holds six or more passes, whose
    # median rides out this host's pass-to-pass noise.  The sample step is that of
    # tests/test_cli.py.  Nothing here is random: the RK4 work is fixed by
    # the model point and t_final, so every seed runs the same inputs.
    t_final = 1.0
    sample_dt = 0.05

    def __init__(self, seed: int):
        self.grid = np.linspace(0.0, self.t_final, round(self.t_final / self.sample_dt) + 1)

    def configs(self, out_dir: Path) -> list[tuple[str, str]]:
        return [
            (
                "superrabi",
                UNITARY_N2.model_section()
                + f"[integrator]\nt_final = {self.t_final!r}\n"
                + f"sample_dt = {self.sample_dt!r}\n"
                + f"[output]\ndirectory = {out_dir}\n",
            )
        ]

    def produce(self, out_dir: Path):
        return _run(self.configs(out_dir)), None

    def read(self, paths) -> Datasets:
        _, rows = _read_csv(next(p for p in paths if p.suffix == ".csv"))
        table = np.array([[float(x) for x in r] for r in rows])
        failed = int(np.sum(~np.all(np.isfinite(table), axis=1)))
        return Datasets(len(table), failed, len(table), _digest(paths), {"table": table})

    def reference(self, data: Datasets) -> dict:
        pt = UNITARY_N2
        delta_a = pt.resonance
        plus, minus = oracle.dressed_pair(pt, delta_a)
        top, bottom = oracle.fock_tls(pt, 0, plus), oracle.fock_tls(pt, pt.n, minus)
        history = oracle.unitary_history(oracle.hamiltonian(pt, delta_a), top.astype(complex), self.grid)
        return {"P_0_plus": np.abs(history @ top) ** 2, "P_n_minus": np.abs(history @ bottom) ** 2}

    def check(self, data: Datasets, ref: dict) -> list[str]:
        table = data.tables["table"]
        bad = []
        if not _close(table[:, 0], self.grid, 1e-8, 1e-12):
            bad.append("time column is not the configured grid")
        for col, name in ((1, "P_0_plus"), (2, "P_n_minus")):
            err = float(np.max(np.abs(table[:, col] - ref[name])))
            if err > 1e-6:
                bad.append(f"{name} differs from exact exp(-iHt) by {err:.2e}")
        return bad

    def corrupt(self, data: Datasets) -> Datasets:
        """Population record shifted by one sample."""
        table = data.tables["table"].copy()
        table[1:, 1:] = table[:-1, 1:]
        return Datasets(data.attempted, data.failed, data.ops, "", {"table": table})


WORKLOADS = {w.name: w for w in (Steadyscan, G2tau, Trajectories, Superrabi)}

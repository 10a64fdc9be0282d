"""Best-of-3 timings of the Liouvillian layers at three model points.

Run from the repository root:

    python3 perfbench/layer_table.py

Prints one Markdown row per point: Liouvillian assembly, steady-state solve,
eigendecomposition plus inverse (``LiouvillePropagator``) and g_N(tau) on 200
delays.  It is a reference table for ``perfbench/README.md``, not part of the
timed runs.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3


def best_of(fn):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(min(2, len(os.sched_getaffinity(0)))))
    sys.path.insert(0, str(ROOT / "src"))
    from bundlejc import (
        LiouvillePropagator, ModelParams, at_resonance, build_liouvillian,
        g2_bundle_delayed, steady_state,
    )

    points = [
        ModelParams(n=2, j=0.3, omega_l=21.0, delta_n=-49.5, delta_a=0.0, kappa=1.0, gamma=0.1, n_max=12),
        ModelParams(n=3, j=0.3, omega_l=24.0, delta_n=-79.5, delta_a=0.0, kappa=1.0, gamma=0.1, n_max=15),
        ModelParams(n=2, j=0.3, omega_l=21.0, delta_n=-49.5, delta_a=0.0, kappa=1.0, gamma=0.1, n_max=20),
    ]
    print("| point | D | build L | steady state | eig+inv of L | g_N(tau), 200 tau |")
    print("|---|---|---|---|---|---|")
    for p in map(at_resonance, points):
        t_build, L = best_of(lambda: build_liouvillian(p))
        t_ss, rho = best_of(lambda: steady_state(L))
        t_eig, prop = best_of(lambda: LiouvillePropagator(L))
        t_g, _ = best_of(lambda: g2_bundle_delayed(p, p.n, propagator=prop, rho_ss=rho))
        ms = " | ".join(f"{1e3 * t:.0f} ms" for t in (t_build, t_ss, t_eig, t_g))
        print(f"| n={p.n}, n_max={p.n_max} | {L.mat.shape[0]} | {ms} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Adaptive DOP853 integration of dy/dt = M y: the independent oracle for the
spectral propagators of bundlejc.dynamics.  M is -i H for the Schrodinger
equation and the Liouvillian matrix for the master equation on vec(rho)."""

import numpy as np
from scipy.integrate import solve_ivp


def dop853(generator, y0, t_grid) -> np.ndarray:
    """y at each grid time, one row per time, from y(t_grid[0]) = y0."""
    t_grid = np.asarray(t_grid, dtype=float)
    sol = solve_ivp(
        lambda t, y: generator @ y,
        (t_grid[0], t_grid[-1]),
        np.asarray(y0, dtype=complex),
        t_eval=t_grid,
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 failed: {sol.message}")
    return sol.y.T

"""Per-time reference loops for the blocked data evaluations in ``irrev.model``.

These are the loops ``discretize_time`` and ``default_lower_envelope`` ran
before they evaluated the data over arrays of times: one profile call per
time point.  The blocked versions must reproduce them to the last bit.
"""

from __future__ import annotations

import numpy as np


def per_step_averages(profile, x: np.ndarray, times: np.ndarray, tau: float,
                      quad_pts: int) -> np.ndarray:
    """Midpoint-rule interval averages of ``profile``, one call per point."""
    m = times.size - 1
    out = np.empty((m, x.size))
    for k in range(1, m + 1):
        pts = times[k - 1] + (np.arange(quad_pts) + 0.5) * (tau / quad_pts)
        acc = np.zeros(x.size)
        for t in pts:
            acc += profile(x, t)
        out[k - 1] = acc / quad_pts
    return out


def per_time_envelope(data, n_quad: int) -> np.ndarray:
    """``source(x, 0) - integral_0^T |d/dt source| dt``, one call per point."""
    x = data.grid.nodes
    T = data.horizon
    pts = (np.arange(n_quad) + 0.5) * (T / n_quad)
    acc = np.zeros(x.size)
    for t in pts:
        acc += np.abs(data.source.dt(x, t))
    return data.source(x, 0.0) - acc * (T / n_quad)


def per_step_balance(traj, data, nl, quad_pts: int) -> np.ndarray:
    """Energy-balance residual of each step, one call per quadrature point."""
    x = traj.grid.nodes
    h = traj.grid.h
    residuals = np.empty(traj.m)
    for k in range(1, traj.m + 1):
        t0, t1 = traj.times[k - 1], traj.times[k]
        z = traj.states[k]
        gz = np.asarray(nl.primitive(z), float)
        pts = t0 + (np.arange(quad_pts) + 0.5) * ((t1 - t0) / quad_pts)
        rhs = 0.0
        for t in pts:
            rhs += h * float(np.dot(data.weight.dt(x, t), gz))
            rhs -= h * float(np.dot(data.source.dt(x, t), z))
        rhs *= (t1 - t0) / quad_pts
        residuals[k - 1] = (traj.energies[k] - traj.energies[k - 1]) - rhs
    return residuals

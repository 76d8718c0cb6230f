"""Per-time and per-step reference loops for the stacked evaluations in ``irrev``.

Two are the loops ``discretize_time`` and ``default_lower_envelope`` would
run with one profile call per time point, where they evaluate the data over
arrays of times.  The third evaluates each step's energy bracket on its own.  The
stacked versions must reproduce them to the last bit.
"""

from __future__ import annotations

import numpy as np

from irrev import step_energy


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
    """``source(x, 0)`` minus the variation of the source sampled at
    ``linspace(0, T, n_quad + 1)``, one call per time."""
    x = data.grid.nodes
    last = data.source(x, 0.0)
    acc = np.zeros(x.size)
    for t in np.linspace(0.0, data.horizon, n_quad + 1)[1:]:
        value = data.source(x, t)
        acc += np.abs(value - last)
        last = value
    return data.source(x, 0.0) - acc


def per_step_bracket(traj, nl, lam: float) -> np.ndarray:
    """Rows ``lower, rise, upper, scale`` of each step's energy bracket, one
    step at a time: ``J`` from :func:`irrev.step_energy` with the data of
    the two stamps (``J_0`` with the data at ``t = 0``) and the quadratic
    part from the same call with zero data."""
    g, h, disc = traj.grid, traj.grid.h, traj.disc
    f = [disc.source_init, *disc.source_avg]
    w = [disc.weight_init, *disc.weight_avg]
    z = traj.states
    zero = np.zeros(g.n)

    def size(j):
        p = np.asarray(nl.primitive(z[j]), float)
        return (step_energy(g, z[j], zero, zero, lam, nl) + h * np.vecdot(np.abs(w[j]), np.abs(p))
                + h * np.vecdot(np.abs(f[j]), np.abs(z[j])))

    def work(k, u):
        p = np.asarray(nl.primitive(u), float)
        return h * np.vecdot(w[k] - w[k - 1], p) - h * np.vecdot(f[k] - f[k - 1], u)

    out = np.empty((4, traj.m))
    for k in range(1, traj.m + 1):
        out[:, k - 1] = (work(k, z[k]),
                         step_energy(g, z[k], f[k], w[k], lam, nl)
                         - step_energy(g, z[k - 1], f[k - 1], w[k - 1], lam, nl),
                         work(k, z[k - 1]), max(size(k - 1), size(k)))
    return out

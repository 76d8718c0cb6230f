"""Stationary obstacle problem and long-horizon relaxation toward it.

The long-time limit of a run whose source settles (and whose weight never
depended on time) solves the stationary problem with the *initial* state as
obstacle:

    z_inf <= z0,   -z_inf'' + lam*z_inf + w*fn(z_inf) <= f_inf,
    (z_inf - z0) * ( -z_inf'' + lam*z_inf + w*fn(z_inf) - f_inf ) = 0.

That is structurally the same KKT system as one implicit step, so the solve
delegates to the step solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .evolution import run_evolution
from .grid import Grid, norm_h1
from .model import QUAD_PTS, Nonlinearity, ProblemData, time_blocks
from .obstacle import ObstacleResult, SolverOptions, solve_step

M_PER_UNIT = 16            # steps per unit time of a long run
JITTER_TOL = 1e-10         # largest upward step of a gap series still called monotone
SANDWICH_TOL = 1e-10       # largest amount the limit may exceed a state


@dataclass(frozen=True)
class StationaryProblem:
    grid: Grid
    obstacle: np.ndarray    # (n,): the initial state of the evolution it limits
    source: np.ndarray      # (n,): settled source
    weight: np.ndarray      # (n,): time-independent weight
    lam: float
    nl: Nonlinearity


def solve_stationary(p: StationaryProblem,
                     opts: Optional[SolverOptions] = None) -> ObstacleResult:
    """Solve the stationary problem; same contract as one implicit step,
    including :class:`~irrev.obstacle.CoercivityLost` for a convexity margin
    below the floor.  There is no contact-set guess, so a solve whose first
    sweep does not settle starts its second from a coarser grid (nested
    iteration, :func:`~irrev.obstacle.solve_step`)."""
    return solve_step(p.grid, p.obstacle, p.source, p.weight, p.lam, p.nl, opts=opts)


@dataclass(frozen=True)
class LongtimeResult:
    traj: object                     # Trajectory of the long run
    stationary: ObstacleResult       # the limit problem's solution
    gaps: np.ndarray                 # H1 gap to the limit at every stamp
    final_gap: float
    max_gap_increase: float          # worst upward jitter of the gap series
    gap_monotone: bool
    sandwich_violation: float        # worst nodewise amount the limit exceeds a state
    sandwich_ok: bool
    weight_time_independent: bool
    source_above_limit: bool


def run_longtime(data: ProblemData, nl: Nonlinearity, horizon: float,
                 m_per_unit: int = M_PER_UNIT, opts: Optional[SolverOptions] = None,
                 quad_pts: int = QUAD_PTS) -> LongtimeResult:
    """Run to a long horizon and compare against the stationary solution.

    Preconditions for the limit characterization, flagged in the result
    rather than enforced: the weight must not depend on time and the source
    must stay above its limit.  The limit source is the profile's known
    ``limit`` when it has one, and otherwise the source sampled at the
    horizon (adequate whenever the decay has died out by then).

    The gap series ``|z_k - z_inf|_H1`` is checked for monotone decay up to
    ``JITTER_TOL`` and the limit is checked to stay below every state up to
    ``SANDWICH_TOL``.
    """
    g = data.grid
    x = g.nodes
    m = int(round(horizon * m_per_unit))
    if m < 1:
        raise ValueError("horizon * m_per_unit must be at least one step")

    # the run validates the data on [0, horizon], the source at the horizon included
    traj = run_evolution(replace(data, horizon=float(horizon)), nl, m, opts=opts,
                         quad_pts=quad_pts)
    f_inf = data.source.limit if data.source.limit is not None else data.source(x, horizon)

    # precondition flags
    t_samples = np.linspace(0.0, horizon, 33)
    w0 = data.weight(x, 0.0)
    blocks = time_blocks(t_samples.size, g.n)
    w_dev = max(float(np.abs(data.weight(x, t_samples[sl]) - w0).max()) for sl in blocks)
    f_above = min(float((data.source(x, t_samples[sl]) - f_inf).min())
                  for sl in blocks)

    limit = solve_stationary(
        StationaryProblem(grid=g, obstacle=data.initial, source=f_inf,
                          weight=w0, lam=data.lam, nl=nl), opts=opts)

    zinf = limit.z
    gaps = norm_h1(g, traj.states - zinf)
    increases = np.diff(gaps)
    max_inc = float(increases.max(initial=0.0))
    sandwich = float((zinf[None, :] - traj.states).max())

    return LongtimeResult(
        traj=traj, stationary=limit, gaps=gaps, final_gap=float(gaps[-1]),
        max_gap_increase=max(max_inc, 0.0), gap_monotone=max_inc <= JITTER_TOL,
        sandwich_violation=max(sandwich, 0.0), sandwich_ok=sandwich <= SANDWICH_TOL,
        weight_time_independent=w_dev <= 1e-12,
        source_above_limit=f_above >= -1e-12)

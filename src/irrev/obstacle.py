"""One implicit step: the elliptic obstacle problem under the previous state.

Each step solves, for a given upper obstacle ``psi`` (the previous state),
interval-averaged data ``f``/``w`` and coefficient ``lam``:

    find z <= psi with   eta := f - (-z'' + lam*z + w*fn(z)) >= 0
    and                  eta * (psi - z) = 0   nodewise.

Equivalently z minimizes the strictly convex step energy

    E(u) = 0.5*|D+ u|^2 + 0.5*lam*|u|^2 + sum w*primitive(u) - (f, u)

over ``{u <= psi}``; strict convexity requires the margin
``lam - slope_bound * max(w) > 0``, which every entry point checks against
the one floor :data:`~irrev.model.MARGIN_FLOOR`.

The solver is a primal-dual active-set iteration with a damped-Newton inner
solve (:func:`solve_step`); each result carries its KKT certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import Grid, forward_jumps, laplacian_diagonals
from .model import MARGIN_FLOOR, Nonlinearity, _step_residual


class ObstacleError(RuntimeError):
    """Base class for per-step solver failures."""


class CoercivityLost(ObstacleError):
    """The convexity margin ``lam - L*max(weight)`` is below ``MARGIN_FLOOR``;
    the margin is kept in ``margin``."""

    def __init__(self, margin: float):
        super().__init__(f"convexity margin lam - L*max(weight) = {margin:.6g} "
                         f"is below the floor {MARGIN_FLOOR:.3g}")
        self.margin = margin


class MaxIterations(ObstacleError):
    """No stable active set / no convergence within the iteration budget.

    Carries the best iterate found in ``result``.
    """

    def __init__(self, msg: str, result: Optional["ObstacleResult"] = None):
        super().__init__(msg)
        self.result = result


class NewtonFailure(ObstacleError):
    """The inner Newton solve stalled after reaching the damping floor."""


NEWTON_DAMPING = 0.5       # backtracking shrink factor
MAX_NEWTON = 60            # Newton iterations per inner solve


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-10
    max_outer: int = 100

    def __post_init__(self) -> None:
        if not self.tol_kkt > 0 or self.max_outer < 1:
            raise ValueError("solver.tol_kkt must be positive and solver.max_outer at least 1")


@dataclass(frozen=True)
class ObstacleResult:
    """Solution of one step with its KKT certificate.

    ``eta`` is the multiplier of the rate constraint for the step inclusion
    written per unit step (not scaled by the step size; the admissible-cone
    multiplier is invariant under that scaling).  ``z`` and ``eta`` are
    nodal arrays of shape ``(n,)``.  ``active`` holds the node
    indices where the solution sits on the obstacle, ``kkt_residual`` the
    worst nodewise value of ``|min(eta, psi - z)|`` with ``eta`` recomputed
    from the returned state.
    """

    z: np.ndarray
    eta: np.ndarray
    active: np.ndarray
    iters: int
    kkt_residual: float


# --------------------------------------------------------------------------
# step energy
# --------------------------------------------------------------------------

def step_energy(grid: Grid, u, source, weight, lam: float, nl: Nonlinearity) -> float:
    """Frozen-data convex energy whose constrained minimizer is the step solution."""
    uv = np.asarray(u, dtype=float)
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    du = forward_jumps(grid, uv)
    h = grid.h
    quad = 0.5 * h * float(np.dot(du, du)) + 0.5 * lam * h * float(np.dot(uv, uv))
    react = h * float(np.dot(wv, np.asarray(nl.primitive(uv), float)))
    work = h * float(np.dot(fv, uv))
    return quad + react - work


def _require_coercive(wv: np.ndarray, lam: float, nl: Nonlinearity) -> None:
    margin = nl.convexity_margin(lam, wv)
    if not margin >= MARGIN_FLOOR:
        raise CoercivityLost(margin)


def _natural_residual(eta: np.ndarray, slack: np.ndarray) -> float:
    """Worst nodewise |min(eta, slack)|; zero exactly at a KKT point."""
    return float(np.abs(np.minimum(eta, slack)).max())


# --------------------------------------------------------------------------
# Newton inner solve on a node subset
# --------------------------------------------------------------------------

def _solve_free_jacobian(lap: tuple[np.ndarray, np.ndarray, np.ndarray],
                         idx: np.ndarray, jd: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the Newton system on the free nodes ``idx`` (sorted).

    The matrix has the diagonal ``jd`` and, between adjacent free nodes, the
    Laplacian's off-diagonals from ``lap``; non-adjacent free nodes decouple.
    The system goes straight to LAPACK's ``dgtsv``, the routine
    ``scipy.linalg.solve_banded`` calls for one band on either side, without
    that wrapper's checks and copies; one free node is a division.  ``jd``
    and ``rhs`` are overwritten.
    """
    if idx.size == 1:
        return rhs / jd
    sub, _, sup = lap
    consec = (idx[1:] - idx[:-1]) == 1
    dl = np.where(consec, sub[idx[:-1]], 0.0)
    du = np.where(consec, sup[idx[:-1]], 0.0)
    _, _, _, x, info = dgtsv(dl, jd, du, rhs, overwrite_dl=1, overwrite_d=1,
                             overwrite_du=1, overwrite_b=1)
    if info != 0:  # pragma: no cover - SPD by margin
        raise NewtonFailure(f"singular step Jacobian (dgtsv info={info})")
    return x


def _newton_on_subset(u: np.ndarray, free: np.ndarray,
                      fv: np.ndarray, wv: np.ndarray, lam: float,
                      nl: Nonlinearity,
                      lap: tuple[np.ndarray, np.ndarray, np.ndarray],
                      tol: float) -> np.ndarray:
    """Solve G(u) = 0 on the nodes flagged by ``free``, the rest held fixed.

    The Jacobian is the tridiagonal matrix -Lap + lam + w*fn'(u); its
    restriction to the free nodes stays tridiagonal and is solved by
    :func:`_solve_free_jacobian`.  Damped Newton with multiplicative
    backtracking.  A residual that is not finite at the start (non-finite
    data or state) raises :class:`NewtonFailure` at once.
    """
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return u

    G = _step_residual(u, fv, wv, lam, nl, lap)
    r = float(np.abs(G[idx]).max())
    if not math.isfinite(r):
        raise NewtonFailure(f"non-finite residual {r} on the free nodes: "
                            "the step data or state is not finite")
    alpha_floor = NEWTON_DAMPING ** 40

    for _ in range(MAX_NEWTON):
        if r <= tol:
            return u
        jd = lap[1][idx] + lam + wv[idx] * nl.deriv(u[idx])
        delta = _solve_free_jacobian(lap, idx, jd, -G[idx])

        alpha = 1.0
        while True:
            u_try = u.copy()
            u_try[idx] += alpha * delta
            G_try = _step_residual(u_try, fv, wv, lam, nl, lap)
            r_try = float(np.abs(G_try[idx]).max())
            if r_try <= (1.0 - 1e-4 * alpha) * r or r_try <= tol:
                u, G, r = u_try, G_try, r_try
                break
            alpha *= NEWTON_DAMPING
            if alpha < alpha_floor:
                raise NewtonFailure(
                    f"Newton stalled at residual {r:.3g} (damping floor reached)")
    if r <= tol:
        return u
    raise NewtonFailure(f"Newton did not reach tolerance {tol:.3g}; residual {r:.3g}")


def solve_unconstrained(grid: Grid, source, weight, lam: float, nl: Nonlinearity,
                        opts: Optional[SolverOptions] = None) -> np.ndarray:
    """Plain Newton solve of -u'' + lam*u + w*fn(u) = f on all nodes."""
    opts = opts or SolverOptions()
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    _require_coercive(wv, lam, nl)
    lap = laplacian_diagonals(grid)
    return _newton_on_subset(np.zeros(grid.n), np.ones(grid.n, bool), fv, wv, lam, nl,
                             lap, tol=0.1 * opts.tol_kkt)


# --------------------------------------------------------------------------
# primal-dual active set
# --------------------------------------------------------------------------

def solve_step(grid: Grid, obstacle, source, weight, lam: float, nl: Nonlinearity,
               opts: Optional[SolverOptions] = None,
               initial_active: Optional[np.ndarray] = None) -> ObstacleResult:
    """Primal-dual active-set solve of one obstacle step.

    Starting from the obstacle (or from a caller-supplied active-set guess;
    :func:`irrev.evolution.run_evolution` passes the previous step's
    contact set, from which a sweep or two usually suffice), each sweep
    fixes the active nodes on the obstacle, Newton-solves the force balance
    on the rest, recovers the multiplier on the active set and
    re-predicts it from ``eta + (u - psi) > 0`` (only signs enter, so a
    scaling constant on ``u - psi`` would select the same set).  Terminates when the set
    is stable and the recomputed KKT residual is within ``tol_kkt``.

    A node sitting exactly on the obstacle with zero multiplier is
    classified inactive (the predictor uses a strict inequality), matching
    the convention that the rate constraint's multiplier vanishes off
    contact.
    """
    opts = opts or SolverOptions()
    psi = np.asarray(obstacle, dtype=float)
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    _require_coercive(wv, lam, nl)
    lap = laplacian_diagonals(grid)
    tol_inner = 0.1 * opts.tol_kkt

    n = grid.n
    if initial_active is None:
        active = np.zeros(n, bool)
    else:
        active = np.zeros(n, bool)
        active[np.asarray(initial_active, dtype=int)] = True

    u = psi.copy()
    best: Optional[ObstacleResult] = None
    for outer in range(1, opts.max_outer + 1):
        u[active] = psi[active]
        u = _newton_on_subset(u, ~active, fv, wv, lam, nl, lap, tol_inner)
        G = _step_residual(u, fv, wv, lam, nl, lap)
        eta = np.where(active, -G, 0.0)
        kkt = _natural_residual(-G, psi - u)
        # the next sweep writes into u, and the best result must keep its own
        result = ObstacleResult(
            z=u.copy(), eta=eta,
            active=np.flatnonzero(active), iters=outer, kkt_residual=kkt)
        if best is None or kkt < best.kkt_residual:
            best = result
        new_active = (eta + (u - psi)) > 0.0
        if np.array_equal(new_active, active) and kkt <= opts.tol_kkt:
            return result
        active = new_active
    raise MaxIterations(
        f"no stable active set within {opts.max_outer} sweeps "
        f"(best KKT residual {best.kkt_residual:.3g})", result=best)

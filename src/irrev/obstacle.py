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
solve (:func:`solve_step`); each result carries its KKT certificate.  A
solve with no contact-set guess whose first sweep does not settle takes its
guess from the same problem on a grid of half as many nodes (nested
iteration), so a cold solve needs a number of sweeps that does not grow
with ``n``.

Most steps of a long run keep the contact set of the step before, often an
empty one.  A sweep with an empty active set Newton-solves on every node and
works on whole arrays, with no gather, scatter or index build, doing the same
floating-point operations in the same order as the index path would, so the
outputs do not depend on the path to the last bit.  While a set holds, its
nodes stay on the obstacle and a step's free-node problem does not depend on
the step before: a stretch of such steps is one stack of rows for the same
Newton (:func:`solve_held_steps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import Grid, forward_jumps, laplacian_diagonals
from .model import MARGIN_FLOOR, Nonlinearity, _step_residual, rounding_floor


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


TOL_KKT = 1e-10            # KKT residual a step certifies, or its rounding floor if larger
TOL_NEWTON = 0.1 * TOL_KKT  # free-node residual an inner Newton solve stops at
NEWTON_DAMPING = 0.5       # backtracking shrink factor
MAX_NEWTON = 60            # Newton iterations per inner solve
COARSEST_N = 3             # fewest nodes of a grid a cold solve nests down to


@dataclass(frozen=True)
class SolverOptions:
    max_outer: int = 100

    def __post_init__(self) -> None:
        if self.max_outer < 1:
            raise ValueError("solver.max_outer must be at least 1")


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

def step_energy(grid: Grid, u, source, weight, lam: float, nl: Nonlinearity):
    """Frozen-data convex energy whose constrained minimizer is the step
    solution; a float for one state ``(n,)``, per row of a stack ``(k, n)``
    (data ``(n,)`` or ``(k, n)``) an array equal to the one-row calls to the
    last bit."""
    uv = np.asarray(u, dtype=float)
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    du = forward_jumps(grid, uv)
    h = grid.h
    quad = 0.5 * h * np.vecdot(du, du) + 0.5 * lam * h * np.vecdot(uv, uv)
    react = h * np.vecdot(wv, np.asarray(nl.primitive(uv), float))
    work = h * np.vecdot(fv, uv)
    out = quad + react - work
    return float(out) if out.ndim == 0 else out


def _require_coercive(wv: np.ndarray, lam: float, nl: Nonlinearity) -> None:
    margin = nl.convexity_margin(lam, wv)
    if not margin >= MARGIN_FLOOR:
        raise CoercivityLost(margin)


def _sup_norm(v: np.ndarray) -> float:
    """Worst |v| over every axis, through the ufunc (``ndarray.max`` wraps it in Python)."""
    return float(np.maximum.reduce(np.abs(v), axis=None, initial=0.0))


# --------------------------------------------------------------------------
# Newton inner solve on a node subset
# --------------------------------------------------------------------------

#: ``free`` of :func:`_newton_on_subset` when every node is free
_EVERY_NODE = slice(None)
#: the contact set of a step that starts from none
_NO_NODE = np.zeros(0, np.intp)


def _solve_free_jacobian(lap: tuple[np.ndarray, np.ndarray, np.ndarray],
                         idx: np.ndarray | slice, jd: np.ndarray,
                         rhs: np.ndarray) -> np.ndarray:
    """Solve the Newton system on the free nodes ``idx`` (sorted indices, or
    :data:`_EVERY_NODE`).

    The matrix has the diagonal ``jd`` and, between adjacent free nodes, the
    Laplacian's off-diagonals from ``lap``; non-adjacent free nodes decouple.
    The system goes straight to LAPACK's ``dgtsv``, the routine
    ``scipy.linalg.solve_banded`` calls for one band on either side, without
    that wrapper's checks and copies; one free node is a division.  Stacks
    ``jd`` and ``rhs`` ``(k, len(idx))`` are one system of ``k*len(idx)``
    unknowns, with zero off-diagonals at the seams, so the rows decouple.
    ``jd`` and ``rhs`` are overwritten.
    """
    if jd.size == 1:
        return rhs / jd
    sub, _, sup = lap
    if isinstance(idx, slice):
        dl, du = sub.copy(), sup.copy()   # dgtsv overwrites them
    else:
        consec = (idx[1:] - idx[:-1]) == 1
        dl, du = (np.where(consec, d[idx[:-1]], 0.0) for d in (sub, sup))
    shape = rhs.shape
    if jd.ndim == 2:   # one system, with zero off-diagonals at the seams
        dl, du = (np.tile(np.append(d, 0.0), len(jd))[:-1] for d in (dl, du))
        jd, rhs = jd.ravel(), rhs.ravel()
    _, _, _, x, info = dgtsv(dl, jd, du, rhs, overwrite_dl=1, overwrite_d=1,
                             overwrite_du=1, overwrite_b=1)
    if info != 0:  # pragma: no cover - SPD by margin
        raise NewtonFailure(f"singular step Jacobian (dgtsv info={info})")
    return x.reshape(shape)


def _newton_on_subset(u: np.ndarray, free: np.ndarray | slice,
                      fv: np.ndarray, wv: np.ndarray, lam: float, nl: Nonlinearity,
                      lap: tuple[np.ndarray, np.ndarray, np.ndarray]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Solve G(u) = 0 on the nodes ``free``, the rest held fixed.

    ``free`` is a sorted index array, or :data:`_EVERY_NODE` for every node,
    where nothing is gathered or scattered and the floating-point operations
    are those of the index array ``arange(n)``.  ``u`` and the data may be
    stacks ``(k, n)``, whose rows hold the same nodes and decouple but share
    one residual norm, damping and stop.  The Jacobian is the tridiagonal
    matrix -Lap + lam + w*fn'(u); its restriction to the free nodes stays
    tridiagonal and is solved by :func:`_solve_free_jacobian`.  Damped Newton
    with multiplicative backtracking down to :data:`TOL_NEWTON`; a state
    within its :func:`~irrev.model.rounding_floor` is accepted where a full
    step fails the Armijo test or Newton stops short.  Returns the accepted
    state and its residual on all nodes.
    A residual that is not finite at the start (non-finite data or state)
    raises :class:`NewtonFailure` at once.
    """
    G = _step_residual(u, fv, wv, lam, nl, lap)
    g_free = G[..., free]
    if g_free.size == 0:
        return u, G
    r = _sup_norm(g_free)
    if not math.isfinite(r):
        raise NewtonFailure(f"non-finite residual {r} on the free nodes: "
                            "the step data or state is not finite")
    if r <= TOL_NEWTON:
        return u, G
    # the Jacobian's diagonal is (lap + lam) + w*fn'(u), added in that order
    jd_fixed = lap[1][free] + lam
    w_free = wv[..., free]
    alpha_floor = NEWTON_DAMPING ** 40

    for _ in range(MAX_NEWTON):
        jd = jd_fixed + w_free * nl.deriv(u[..., free])
        delta = _solve_free_jacobian(lap, free, jd, -G[..., free])

        alpha = 1.0
        while alpha >= alpha_floor:
            u_try = u.copy()
            u_try[..., free] += delta if alpha == 1.0 else alpha * delta
            G_try = _step_residual(u_try, fv, wv, lam, nl, lap)
            r_try = _sup_norm(G_try[..., free])
            if r_try <= (1.0 - 1e-4 * alpha) * r or r_try <= TOL_NEWTON:
                u, G, r = u_try, G_try, r_try
                break
            if alpha == 1.0 and r <= rounding_floor(u, fv, wv, lam, nl, lap):
                return u, G   # rounding alone is left: no shorter step would pass
            alpha *= NEWTON_DAMPING
        else:
            failure = f"Newton stalled at residual {r:.3g} (damping floor reached)"
            break
        if r <= TOL_NEWTON:
            return u, G
    else:
        failure = f"Newton did not reach tolerance {TOL_NEWTON:.3g}; residual {r:.3g}"
    if r <= rounding_floor(u, fv, wv, lam, nl, lap):
        return u, G
    raise NewtonFailure(failure)


def solve_unconstrained(grid: Grid, source, weight, lam: float, nl: Nonlinearity) -> np.ndarray:
    """Plain Newton solve of -u'' + lam*u + w*fn(u) = f on all nodes."""
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    _require_coercive(wv, lam, nl)
    lap = laplacian_diagonals(grid)
    return _newton_on_subset(np.zeros(grid.n), _EVERY_NODE, fv, wv, lam, nl, lap)[0]


# --------------------------------------------------------------------------
# primal-dual active set
# --------------------------------------------------------------------------

def solve_step(grid: Grid, obstacle, source, weight, lam: float, nl: Nonlinearity,
               opts: Optional[SolverOptions] = None,
               initial_active: Optional[np.ndarray] = None) -> ObstacleResult:
    """Primal-dual active-set solve of one obstacle step.

    Starting from a caller-supplied active-set guess
    (:func:`irrev.evolution.run_evolution` passes the previous step's
    contact set, from which a sweep or two usually suffice) or from none,
    each sweep fixes the active nodes on the obstacle, Newton-solves the
    force balance on the rest, recovers the multiplier on the active set and
    re-predicts it from ``eta + (u - psi) > 0`` (only signs enter, so a
    scaling constant on ``u - psi`` would select the same set).  Terminates
    when the set is stable and the KKT residual of the accepted state (from
    Newton's residual) is within :data:`TOL_KKT` or the state's rounding floor.

    A sweep's bookkeeping comes from one ``-G`` and one ``slack = psi - u``:
    the KKT residual, the multiplier, and the predictor, evaluated as
    ``eta - slack > 0``, which equals ``eta + (u - psi)`` to the last bit.
    A sweep with no active node runs the Newton solve on whole arrays
    (every node free), its multiplier is zero and its predictor reduces to
    ``slack < 0``.

    From an empty set the contact boundary moves about one node per sweep.
    So when the first sweep from an empty set does not settle, the second
    starts from the contact set of the same step on a grid of ``(n-1)//2``
    nodes instead (nested iteration, :func:`_coarse_active`), down to
    :data:`COARSEST_N` nodes.  Only the set crosses grids, so the result is
    certified on its own grid, and ``max_outer`` counts the sweeps there.

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

    # the mask is read only while the set is not empty
    active, act = None, _NO_NODE
    if initial_active is not None and len(initial_active):
        active = np.zeros(grid.n, bool)
        active[np.asarray(initial_active, dtype=int)] = True
        act = active.nonzero()[0]

    u = psi.copy()
    best: Optional[ObstacleResult] = None
    for outer in range(1, opts.max_outer + 1):
        if act.size:
            u[act] = psi[act]
            free = (~active).nonzero()[0]
        else:
            free = _EVERY_NODE
        u, G = _newton_on_subset(u, free, fv, wv, lam, nl, lap)
        neg_g = -G
        slack = psi - u
        kkt = _sup_norm(np.minimum(neg_g, slack))
        # eta - slack is eta + (u - psi) to the last bit: rounding is sign-symmetric
        if act.size:
            eta = np.where(active, neg_g, 0.0)
            new_active = (eta - slack) > 0.0
        else:
            eta = np.zeros(grid.n)
            new_active = slack < 0.0
        new_act = new_active.nonzero()[0]
        stable = new_act.size == act.size and (not act.size or (new_act == act).all())
        if stable and (kkt <= TOL_KKT or kkt <= rounding_floor(u, fv, wv, lam, nl, lap)):
            return ObstacleResult(z=u, eta=eta, active=act, iters=outer, kkt_residual=kkt)
        if best is None or kkt < best.kkt_residual:
            # the next sweep writes into u, and the best result must keep its own
            best = ObstacleResult(z=u.copy(), eta=eta, active=act, iters=outer,
                                  kkt_residual=kkt)
        if (outer == 1 and opts.max_outer > 1 and (grid.n - 1) // 2 >= COARSEST_N
                and not act.size):
            new_active = _coarse_active(grid, psi, fv, wv, lam, nl, opts, new_active)
            new_act = new_active.nonzero()[0]
        active, act = new_active, new_act
    raise MaxIterations(
        f"no stable active set within {opts.max_outer} sweeps "
        f"(best KKT residual {best.kkt_residual:.3g})", result=best)


def solve_held_steps(grid: Grid, start, active, sources, weights, lam: float,
                     nl: Nonlinearity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the steps whose data are the rows of ``sources`` and ``weights``
    ``(k, n)``, the first from the state ``start``, as if each kept the
    contact set ``active`` (sorted node indices) of the step before.

    A held contact node stays on its obstacle, so such a step's free-node
    problem does not depend on the step before: every row starts from
    ``start``, with ``active`` held there, in one Newton on the free nodes of
    the stack (every node if ``active`` is empty).  Returns the states,
    multipliers and KKT residuals of the leading rows that pass the test of
    :func:`solve_step`'s first sweep from ``active``: the convexity margin
    (rows from the first without it are not solved), the predictor giving
    ``active`` against the row before, and the KKT residual within
    :data:`TOL_KKT` or its rounding floor.
    """
    fv, wv = np.asarray(sources, dtype=float), np.asarray(weights, dtype=float)
    psi = np.asarray(start, dtype=float)
    held = np.zeros(grid.n, bool)
    held[active] = True
    free = (~held).nonzero()[0] if len(active) else _EVERY_NODE
    k = int(np.logical_and.accumulate(nl.convexity_margin(lam, wv) >= MARGIN_FLOOR).sum())
    lap = laplacian_diagonals(grid)
    Z, G = _newton_on_subset(np.repeat(psi[None], k, axis=0), free,
                             fv[:k], wv[:k], lam, nl, lap)
    slack = np.concatenate([psi[None], Z])[:-1] - Z
    kkt = np.maximum.reduce(np.abs(np.minimum(-G, slack)), axis=-1, initial=0.0)
    eta = np.where(held, -G, 0.0)
    same = ((eta - slack > 0.0) == held).all(axis=-1)
    ok = same & (kkt <= TOL_KKT)
    for j in np.flatnonzero(~ok):   # the rest pass only within their rounding floor
        ok[j] = same[j] and kkt[j] <= rounding_floor(Z[j], fv[j], wv[j], lam, nl, lap)
        if not ok[j]:
            break
    keep = int(np.logical_and.accumulate(ok).sum())   # the leading rows that pass
    return Z[:keep], eta[:keep], kkt[:keep]


def _coarse_active(grid: Grid, psi: np.ndarray, fv: np.ndarray, wv: np.ndarray,
                   lam: float, nl: Nonlinearity, opts: SolverOptions,
                   fallback: np.ndarray) -> np.ndarray:
    """Contact-set guess on ``grid`` from the cold solve of the same step on
    the grid of ``(n-1)//2`` nodes, the same interval and endpoint conditions
    (for odd ``n`` every other node): a node is active iff the linear
    interpolant of the coarse set's indicator is at least 1/2 there.  The
    data are interpolated linearly, so the coarse weight never exceeds the
    fine one's maximum and the coarse solve keeps the convexity margin.  A
    coarse :class:`MaxIterations` gives its best iterate's set; any other
    :class:`ObstacleError` gives ``fallback``, the fine predictor's set."""
    coarse = Grid(grid.a, grid.b, (grid.n - 1) // 2, grid.bc_left, grid.bc_right)
    xf, xc = grid.nodes, coarse.nodes
    try:
        res = solve_step(coarse, np.interp(xc, xf, psi), np.interp(xc, xf, fv),
                         np.interp(xc, xf, wv), lam, nl, opts)
    except MaxIterations as exc:
        res = exc.result
    except ObstacleError:
        return fallback
    indicator = np.zeros(coarse.n)
    indicator[res.active] = 1.0
    return np.interp(xf, xc, indicator) >= 0.5

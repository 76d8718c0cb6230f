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

Every sweep and every stack of steps runs the same Newton on whole arrays,
a held node being an identity row (:func:`_newton_on_subset`); a stretch of
steps that keep their contact set is one stack of rows for it
(:func:`solve_held_steps`), certified by the same sweep test as
:func:`solve_step`.
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


def _sup_norm(v: np.ndarray, where=True) -> float:
    """Worst |v| over every axis, on the entries ``where`` flags, through the
    ufunc (``ndarray.max`` wraps it in Python)."""
    return float(np.maximum.reduce(np.abs(v), axis=None, initial=0.0, where=where))


# --------------------------------------------------------------------------
# Newton inner solve on a node subset
# --------------------------------------------------------------------------

def _solve_free_jacobian(off: np.ndarray, jd: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the Newton system on whole arrays: the diagonal ``jd``, and both
    off-diagonals ``off``, the Laplacian's between adjacent free nodes and
    zero elsewhere, so a held node is a row of its own.

    LAPACK's ``dgtsv`` (what ``scipy.linalg.solve_banded`` calls for one band
    on either side, without its checks and copies) carries nothing across a
    zero off-diagonal: the free nodes get the operations of their own
    subsystem, and a held row with ``jd`` 1 and ``rhs`` 0 solves to 0.  One
    node is a division.  A stack ``(k, n)`` is one system whose ``off`` is
    zero at the seams, so the rows decouple.  ``jd`` and ``rhs`` are
    overwritten; ``dgtsv`` gets a copy of ``off``, which Newton reuses.
    """
    if jd.size == 1:
        return rhs / jd
    _, _, _, x, info = dgtsv(off, jd.ravel(), off, rhs.ravel(), overwrite_d=1, overwrite_b=1)
    if info != 0:  # pragma: no cover - SPD by margin
        raise NewtonFailure(f"singular step Jacobian (dgtsv info={info})")
    return x.reshape(rhs.shape)


def _newton_on_subset(u: np.ndarray, free: np.ndarray,
                      fv: np.ndarray, wv: np.ndarray, lam: float, nl: Nonlinearity,
                      lap: tuple[np.ndarray, np.ndarray, np.ndarray]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Solve G(u) = 0 on the nodes the mask ``free`` flags, the rest held.

    ``u`` and the data may be stacks ``(k, n)``, whose rows decouple but
    share one residual norm, damping and stop.  The Jacobian is the
    tridiagonal -Lap + lam + w*fn'(u) on free nodes and the identity, with
    a zero right-hand side, on held ones (:func:`_solve_free_jacobian`);
    updates go through the mask, so a held node keeps its bits, ``-0.0``
    included.  Damped Newton with multiplicative backtracking down to
    :data:`TOL_NEWTON` in the free-node residual; a state within its
    :func:`~irrev.model.rounding_floor` is accepted where a full step fails
    the Armijo test or Newton stops short.  Returns the accepted state and
    its residual on all nodes.  A free-node residual that is not finite at
    the start (non-finite data or state) raises :class:`NewtonFailure` at once.
    """
    G = _step_residual(u, fv, wv, lam, nl, lap)
    r = _sup_norm(G, free)
    if not math.isfinite(r):
        raise NewtonFailure(f"non-finite residual {r} on the free nodes: "
                            "the step data or state is not finite")
    if r <= TOL_NEWTON:
        return u, G
    # the Jacobian's diagonal is (lap + lam) + w*fn'(u), added in that order
    jd_fixed = lap[1] + lam
    # the off-diagonals (lap's sub and sup are one array) depend only on the mask
    off = np.where(free[1:] & free[:-1], lap[0], 0.0)
    if u.ndim == 2:   # one system of the stack's rows, with zeros at the seams
        off = np.tile(np.append(off, 0.0), len(u))[:-1]
    alpha_floor = NEWTON_DAMPING ** 40

    for _ in range(MAX_NEWTON):
        jd = np.where(free, jd_fixed + wv * nl.deriv(u), 1.0)
        delta = _solve_free_jacobian(off, jd, np.where(free, -G, 0.0))

        alpha = 1.0
        while alpha >= alpha_floor:
            u_try = np.where(free, u + (delta if alpha == 1.0 else alpha * delta), u)
            G_try = _step_residual(u_try, fv, wv, lam, nl, lap)
            r_try = _sup_norm(G_try, free)
            if r_try <= (1.0 - 1e-4 * alpha) * r or r_try <= TOL_NEWTON:
                u, G, r = u_try, G_try, r_try
                break
            if alpha == 1.0 and r <= rounding_floor(u, fv, wv, lam, nl, lap):
                return u, G   # rounding alone is left: no shorter step would pass
            alpha *= NEWTON_DAMPING
        else:   # the full step's test already found u beyond its floor
            raise NewtonFailure(f"Newton stalled at residual {r:.3g} (damping floor reached)")
        if r <= TOL_NEWTON:
            return u, G
    if r <= rounding_floor(u, fv, wv, lam, nl, lap):
        return u, G
    raise NewtonFailure(f"Newton did not reach tolerance {TOL_NEWTON:.3g}; residual {r:.3g}")


def solve_unconstrained(grid: Grid, source, weight, lam: float, nl: Nonlinearity) -> np.ndarray:
    """Plain Newton solve of -u'' + lam*u + w*fn(u) = f on all nodes."""
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    _require_coercive(wv, lam, nl)
    lap = laplacian_diagonals(grid)
    return _newton_on_subset(np.zeros(grid.n), np.ones(grid.n, bool), fv, wv, lam, nl, lap)[0]


# --------------------------------------------------------------------------
# primal-dual active set
# --------------------------------------------------------------------------

def _sweep_certificate(u: np.ndarray, G: np.ndarray, psi: np.ndarray, held
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sweep's multiplier, KKT residual and predicted contact set, from the
    state ``u`` (or a stack ``(k, n)``), its residual ``G``, the obstacle
    ``psi`` and the mask ``held`` of the nodes held on it (``False`` for
    none).

    All come from one ``-G`` and one ``slack = psi - u``: the multiplier is
    ``-G`` on held nodes and 0 elsewhere, the KKT residual the worst
    ``|min(-G, slack)|`` per row (a 0-d array for one state), and the
    predicted set ``eta - slack > 0``, which equals ``eta + (u - psi) > 0``
    to the last bit, rounding being sign-symmetric.
    """
    neg_g = -G
    slack = psi - u
    kkt = np.maximum.reduce(np.abs(np.minimum(neg_g, slack)), axis=-1, initial=0.0)
    eta = np.where(held, neg_g, 0.0)
    return eta, kkt, (eta - slack) > 0.0


def _settled(kkt: float, u: np.ndarray, fv: np.ndarray, wv: np.ndarray, lam: float,
             nl: Nonlinearity, lap: tuple[np.ndarray, np.ndarray, np.ndarray]) -> bool:
    """Whether the KKT residual ``kkt`` of the state ``u`` is within
    :data:`TOL_KKT` or the rounding floor of the state and its data."""
    return kkt <= TOL_KKT or kkt <= rounding_floor(u, fv, wv, lam, nl, lap)


def solve_step(grid: Grid, obstacle, source, weight, lam: float, nl: Nonlinearity,
               opts: Optional[SolverOptions] = None,
               initial_active: Optional[np.ndarray] = None) -> ObstacleResult:
    """Primal-dual active-set solve of one obstacle step.

    Starting from a caller-supplied active-set guess
    (:func:`irrev.evolution.run_evolution` passes the previous step's
    contact set, from which a sweep or two usually suffice) or from none,
    each sweep holds the active nodes on the obstacle, Newton-solves the
    force balance on the rest, and takes the multiplier, the KKT residual
    and the next set (re-predicted from ``eta + (u - psi) > 0``; only signs
    enter, so a scaling constant on ``u - psi`` would select the same set)
    from :func:`_sweep_certificate`.  Terminates when the set is stable and
    the KKT residual of the accepted state is within :data:`TOL_KKT` or the
    state's rounding floor (:func:`_settled`).

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

    held = np.zeros(grid.n, bool)
    if initial_active is not None:
        held[np.asarray(initial_active, dtype=int)] = True

    u = psi
    best: Optional[ObstacleResult] = None
    for outer in range(1, opts.max_outer + 1):
        # a fresh state every sweep, so a result keeps its own
        u, G = _newton_on_subset(np.where(held, psi, u), ~held, fv, wv, lam, nl, lap)
        eta, kkt, new_held = _sweep_certificate(u, G, psi, held)
        result = ObstacleResult(z=u, eta=eta, active=held.nonzero()[0], iters=outer,
                                kkt_residual=float(kkt))
        if (new_held == held).all() and _settled(result.kkt_residual, u, fv, wv, lam, nl, lap):
            return result
        if best is None or result.kkt_residual < best.kkt_residual:
            best = result
        if (outer == 1 and opts.max_outer > 1 and (grid.n - 1) // 2 >= COARSEST_N
                and not held.any()):
            new_held = _coarse_active(grid, psi, fv, wv, lam, nl, opts, new_held)
        held = new_held
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
    ``start``, with ``active`` held there, in one Newton on the stack.
    Returns the states, multipliers and KKT residuals of the leading rows
    that pass the test of :func:`solve_step`'s first sweep from ``active``:
    the convexity margin (rows from the first without it are not solved),
    and, from :func:`_sweep_certificate` against the row before, the
    predictor giving ``active`` and the KKT residual :func:`_settled`, whose
    rounding floor is computed only at a row beyond :data:`TOL_KKT`.
    """
    fv, wv = np.asarray(sources, dtype=float), np.asarray(weights, dtype=float)
    psi = np.asarray(start, dtype=float)
    held = np.zeros(grid.n, bool)
    held[active] = True
    k = int(np.logical_and.accumulate(nl.convexity_margin(lam, wv) >= MARGIN_FLOOR).sum())
    lap = laplacian_diagonals(grid)
    Z, G = _newton_on_subset(np.repeat(psi[None], k, axis=0), ~held,
                             fv[:k], wv[:k], lam, nl, lap)
    eta, kkt, predicted = _sweep_certificate(Z, G, np.concatenate([psi[None], Z])[:-1], held)
    same = (predicted == held).all(axis=-1)
    passed = same & (kkt <= TOL_KKT)
    keep = int(np.logical_and.accumulate(passed).sum())   # the leading rows that pass
    while keep < k and same[keep] and _settled(kkt[keep], Z[keep], fv[keep], wv[keep],
                                               lam, nl, lap):
        keep += 1 + int(np.logical_and.accumulate(passed[keep + 1:]).sum())
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

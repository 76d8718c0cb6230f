"""Continuum problem description, hypothesis validation and time discretization.

The evolution being simulated is

    (rate constraint)  dz/dt <= 0,
    (force balance)    -z'' + lam*z + weight(x,t)*fn(z) <= source(x,t),
    (complementarity)  dz/dt * ( -z'' + lam*z + weight*fn(z) - source ) = 0,

with homogeneous endpoint conditions carried by the grid tags.  This module
houses the data of that problem (coefficients, source, initial state), checks
the solvability hypotheses before any solver runs, and produces the
interval-averaged data used by the implicit stepping scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Optional

import numpy as np

from .grid import Grid, laplacian_diagonals

#: tolerance of the initial state's admissibility, unless its rounding floor is larger
TOL_ADMISS = 1e-9
#: smallest convexity margin ``lam - L*max(weight)`` accepted; every check
#: of the margin (validation, the step solver, the front ends) uses this one
MARGIN_FLOOR = 1e-12
#: time samples of the weight and the source in :func:`validate`
N_TIME_SAMPLES = 65
#: the structural bounds on ``fn`` are checked on ``SAMPLE_POINTS`` equally
#: spaced points of ``[-SAMPLE_RANGE, SAMPLE_RANGE]`` (spacing 0.05)
SAMPLE_RANGE = 10.0
SAMPLE_POINTS = 401
#: midpoint-rule subintervals per step for every time average of the data
QUAD_PTS = 8
#: most (time, node) values one evaluation of the data holds; see :class:`TimeProfile`
EVAL_BLOCK = 16384


class ValidationError(RuntimeError):
    """Raised by drivers when a problem fails its hypothesis checks."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(item.name for item in report.items if not item.passed)
        super().__init__(f"problem data failed validation: {failed}")


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar reaction term with the structure the step problems rely on.

    Attributes
    ----------
    fn : callable
        Vectorized evaluator ``s -> fn(s)``.
    primitive : callable
        Antiderivative of ``fn`` with ``primitive(0) == 0``.
    slope_bound : float
        Constant ``L >= 0`` such that ``s -> fn(s) + L*s`` is nondecreasing
        (one-sided slope bound from below).  Enters the convexity margin
        ``lam - L*sup(weight)`` that every solve requires to reach
        :data:`MARGIN_FLOOR`.
    growth : float
        Constant ``C > 0`` with ``|fn(s)| <= C*(|s|+1)`` for all ``s``.
    deriv : callable
        Vectorized derivative, used by the Newton inner solver and by
        :meth:`structural_violations`.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]
    slope_bound: float
    growth: float
    deriv: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.slope_bound < 0:
            raise ValueError("slope_bound must be >= 0")
        if self.growth <= 0:
            raise ValueError("growth must be > 0")

    def convexity_margin(self, lam: float, weight):
        """``lam - L*max(weight, 0)`` over the last axis (one per row of a stack),
        which every step solve requires to reach :data:`MARGIN_FLOOR`."""
        return lam - self.slope_bound * np.maximum.reduce(weight, axis=-1, initial=0.0)

    def structural_violations(self) -> tuple[float, float]:
        """Worst violations of ``deriv(s) + L >= 0`` and of ``|fn(s)| <=
        C*(|s|+1)`` on the :data:`SAMPLE_POINTS` grid points of
        ``[-SAMPLE_RANGE, SAMPLE_RANGE]``, divided by ``1 + L`` and ``1 + C``.

        ``deriv + L`` cancels terms of size ``L``, so at a minimizer of
        ``deriv`` it reads a few ulp of ``L`` below 0; the relative reading
        is what a fixed tolerance can judge.  A non-finite value reads nan.

        This is a check on the grid only: a worst point between two grid
        points or beyond ``SAMPLE_RANGE`` goes unseen.  The presets' bounds
        are proved on the whole line, at their analytic extrema, by the test
        suite; a hand-built :class:`Nonlinearity` is checked here alone.
        """
        s = np.linspace(-SAMPLE_RANGE, SAMPLE_RANGE, SAMPLE_POINTS)
        slope = np.min(np.asarray(self.deriv(s), float) + self.slope_bound)
        growth = np.min(self.growth * (np.abs(s) + 1.0) - np.abs(np.asarray(self.fn(s), float)))
        return (0.0 if slope >= 0 else -float(slope) / (1.0 + self.slope_bound),
                0.0 if growth >= 0 else -float(growth) / (1.0 + self.growth))


def _step_residual(u: np.ndarray, f, w, lam: float, nl: Nonlinearity,
                   lap: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """G(u) = -Lap u + lam*u + w*fn(u) - f, the l2 gradient of the step energy,
    with ``lap`` from :func:`~irrev.grid.laplacian_diagonals`.  The solver,
    :func:`validate` and the step verdicts all evaluate it here, on one state
    ``(n,)`` or on a stack ``(k, n)`` whose rows match single states bit for bit.
    """
    sub, diag, sup = lap
    out = diag * u
    out[..., :-1] += sup * u[..., 1:]
    out[..., 1:] += sub * u[..., :-1]
    out += lam * u + w * np.asarray(nl.fn(u), float) - f
    return out


def rounding_floor(u, f, w, lam: float, nl: Nonlinearity,
                   lap: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """Machine epsilon times ``(2*max(diag) + lam)*|u| + |w*fn(u)| + |f|`` (sup
    norms over one state or a stack), the residual rounding alone leaves; it
    grows as ``h^-2``: 9e-12 for a unit state at ``n = 101``, 9e-8 at 10001."""
    return floor_of_sizes(rounding_sizes(u, f, w, nl), lam, lap)


def rounding_sizes(u, f, w, nl: Nonlinearity) -> list[float]:
    """The sup norms ``|u|, |w*fn(u)|, |f|`` of :func:`rounding_floor`; those of
    a stack are the elementwise max of those of its blocks."""
    return [float(np.abs(v).max(initial=0.0)) for v in (u, w * np.asarray(nl.fn(u), float), f)]


def floor_of_sizes(sizes, lam: float, lap: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """:func:`rounding_floor` from its :func:`rounding_sizes`."""
    return float(np.finfo(float).eps * ((2.0 * lap[1].max() + lam) * sizes[0]
                                        + sizes[1] + sizes[2]))


def _zeros(s):
    return np.zeros_like(np.asarray(s, dtype=float))


ZERO_NONLINEARITY = Nonlinearity(fn=_zeros, primitive=_zeros, deriv=_zeros,
                                 slope_bound=0.0, growth=1.0)


class TimeProfile:
    """Space-time coefficient ``(x, t) -> value``, given by its values alone.

    ``profile(x, t)`` takes 1-D node coordinates ``x`` of length ``n``.  A
    scalar ``t`` gives shape ``(n,)``; a 1-D array of times gives one row
    per time, shape ``(len(t), n)``.  Both go through one code path:
    ``evaluator(x, t)`` receives ``x`` and ``t`` broadcast to the shape of
    the result and works elementwise, so a pointwise formula such as
    ``np.full(np.shape(x), f(t))`` serves both, and row ``i`` of an array
    evaluation equals the evaluation at ``t[i]`` to the last bit.

    As ``x`` varies only along the last axis and ``t`` only along the
    leading ones, an evaluator may compute a space factor once on
    :func:`node_row` and a time factor once per time on :func:`time_column`,
    with the bytes of the elementwise formula; a result that broadcasts to
    the shape of ``x``, such as a node row, is broadcast to it.

    A profile may instead be given by ``terms``, ``(space, time)`` pairs:
    ``space`` maps the node row to values (or a number), ``time`` maps times
    elementwise to a factor, ``None`` standing for 1.  The profile is
    ``sum_i space_i*time_i``.  :func:`discretize_time` and
    :func:`default_lower_envelope` then work on the time factors alone, at
    their usual time points and never in closed form, to keep the scheme's
    midpoint rule (an exact average of ``exp(-r*t)`` is 1e-6 off at tau 1/16).

    No stage reads a time derivative of the data: the scheme averages
    values over the steps, and the lower envelope bounds the source by its
    variation between sampled times.

    One call holds every value it returns.  The stages that walk long time
    arrays therefore evaluate them in blocks of at most :data:`EVAL_BLOCK`
    (time, node) values, the slices of :func:`time_blocks`: that bounds the
    evaluators' temporaries and so the peak memory of a long run.

    Evaluators must be pure functions: no hidden state, same output for the
    same input.  That contract is what makes problem data shareable across
    threads and runs reproducible.
    """

    def __init__(self, evaluator: Optional[Callable] = None, *, limit=None, terms=()):
        #: the factored form, ``()`` when the evaluator is given
        self.terms = tuple(terms)
        if self.terms:
            evaluator = partial(_sum_terms, self.terms)
        self._eval = evaluator
        #: known t -> infinity limit on the grid nodes, when the profile has one
        self.limit = None if limit is None else np.asarray(limit, dtype=float)

    def __call__(self, x: np.ndarray, t) -> np.ndarray:
        return _evaluate(self._eval, x, t)


def _sum_terms(terms, x: np.ndarray, t: np.ndarray):
    """Evaluator of factored ``terms``."""
    xr, tc = node_row(x), time_column(t)
    return _combine([(space(xr), None if time is None else time(tc)) for space, time in terms])


def _combine(pairs):
    """``sum space*factor`` over ``(space, factor)`` pairs in order, ``None`` being 1."""
    values = [space if factor is None else space * factor for space, factor in pairs]
    return reduce(np.add, values) if values else 0.0


def _evaluate(fn, x, t) -> np.ndarray:
    """``fn`` on ``x`` and ``t`` broadcast to ``t.shape + x.shape``; an
    evaluation at no time calls nothing."""
    xb, tb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(t, dtype=float)[..., None])
    out = np.asarray(fn(xb, tb) if xb.size else 0.0, dtype=float)
    return np.broadcast_to(out, xb.shape).astype(float, copy=False)


def node_row(x: np.ndarray) -> np.ndarray:
    """The node coordinates of an evaluator's broadcast ``x``, shape ``(n,)``:
    its first row, a view."""
    return x[(0,) * (x.ndim - 1)]


def time_column(t: np.ndarray) -> np.ndarray:
    """The times of an evaluator's broadcast ``t``, one per row, as a column
    (shape ``(k, 1)``, or ``(1,)`` for a single time) that broadcasts
    against a node row."""
    return t[..., :1]


def time_blocks(n_times: int, n_nodes: int) -> list[slice]:
    """Consecutive slices of ``range(n_times)`` holding ``EVAL_BLOCK //
    n_nodes`` times each (at least one), so that evaluating a profile over
    one slice holds at most :data:`EVAL_BLOCK` values, unless one time row
    alone is larger."""
    step = max(1, EVAL_BLOCK // max(n_nodes, 1))
    return [slice(i, min(i + step, n_times)) for i in range(0, n_times, step)]


def constant_profile(value: float) -> TimeProfile:
    v = float(value)
    return TimeProfile(terms=[(lambda x: v, None)])


@dataclass(frozen=True)
class ProblemData:
    """Everything that defines one evolution run.

    Attributes
    ----------
    grid : Grid
    lam : float
        Zeroth-order coefficient, ``>= 0``.
    weight : TimeProfile
        Nonnegative coefficient multiplying the nonlinearity.
    source : TimeProfile
        Right-hand side.
    initial : ndarray, shape ``(n,)``
        Starting state; must be admissible (checked by :func:`validate`).
    horizon : float
        Final time ``T > 0``.
    source_floor : ndarray, shape ``(n,)``, optional
        Lower envelope of the source in time.  ``None`` means "use the
        default envelope" computed by :func:`default_lower_envelope`.
    """

    grid: Grid
    lam: float
    weight: TimeProfile
    source: TimeProfile
    initial: np.ndarray
    horizon: float
    source_floor: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        for name in ("initial", "source_floor"):
            vals = getattr(self, name)
            if vals is not None:
                vals = np.asarray(vals, dtype=float)
                if vals.shape != (self.grid.n,):
                    raise ValueError(f"{name} has shape {vals.shape}, not ({self.grid.n},)")
                object.__setattr__(self, name, vals)


@dataclass(frozen=True)
class DiscretizedData:
    """Interval averages of the time-dependent data on a uniform step grid.

    ``source_avg[k-1]`` and ``weight_avg[k-1]`` hold the averages over
    ``(t_{k-1}, t_k]`` for ``k = 1..m``; ``source_init``/``weight_init`` are
    the exact values at ``t = 0``.
    """

    m: int
    tau: float
    times: np.ndarray            # (m+1,), t_k = k*tau
    source_avg: np.ndarray       # (m, n)
    weight_avg: np.ndarray       # (m, n)
    source_init: np.ndarray      # (n,)
    weight_init: np.ndarray      # (n,)


@dataclass(frozen=True)
class CheckItem:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    items: tuple
    lambda0: float
    admissibility_residual: float

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        out = []
        for it in self.items:
            status = "PASS" if it.passed else "FAIL"
            note = f"  ({it.note})" if it.note else ""
            out.append(f"{status}  {it.name}: value={it.value:.6g} tol={it.tolerance:.3g}{note}")
        return out


def validate(data: ProblemData, nl: Nonlinearity) -> ValidationReport:
    """Check the solvability hypotheses; report, never abort.

    Items checked:

    * ``data_finite``: the weight and the source at the sampled times.  If a
      sampled value is not finite, this failed item is the whole report,
      with ``lambda0`` and the residual ``nan``.
    * ``coercivity_margin``: :meth:`Nonlinearity.convexity_margin` of the
      weight sampled over (x, t) must be at least :data:`MARGIN_FLOOR`,
      otherwise the per-step minimization is not safely convex and the step
      solver refuses to run.
    * ``initial_admissibility``: nodewise residual of the force balance at
      the initial state, ``max(-z0'' + lam*z0 + weight(.,0)*fn(z0) -
      source(.,0))``, within :data:`TOL_ADMISS` or its :func:`rounding_floor`.
    * ``weight_nonnegative`` and ``source_above_floor``: sampled sign and
      envelope conditions on the data.
    * ``nonlinearity_one_sided`` / ``nonlinearity_growth``: the structural
      bounds on ``fn`` on a fixed grid, relative to the size of the bound
      (:meth:`Nonlinearity.structural_violations`).

    Callers decide whether to abort on failure; drivers raise
    :class:`ValidationError` when the report is not clean.
    """
    g = data.grid
    x = g.nodes
    ts = np.linspace(0.0, data.horizon, N_TIME_SAMPLES)

    blocks = time_blocks(ts.size, g.n)
    w_samples = np.concatenate([data.weight(x, ts[sl]) for sl in blocks])
    f_samples = np.concatenate([data.source(x, ts[sl]) for sl in blocks])
    finite = np.all(np.isfinite(w_samples) & np.isfinite(f_samples), axis=1)
    if not finite.all():
        item = CheckItem("data_finite", float(ts[~finite][0]), 0.0, False,
                         "first sampled time with a non-finite weight or source value")
        return ValidationReport(items=(item,), lambda0=np.nan, admissibility_residual=np.nan)

    lambda0 = float(nl.convexity_margin(data.lam, w_samples).min())

    # ts[0] == 0, so the first sampled rows are the data at t = 0
    z0_data = (data.initial, f_samples[0], w_samples[0], data.lam, nl, laplacian_diagonals(g))
    r = float(_step_residual(*z0_data).max())
    tol_admiss = TOL_ADMISS if r <= TOL_ADMISS else max(TOL_ADMISS, rounding_floor(*z0_data))

    if data.source_floor is not None:
        floor = data.source_floor
        floor_tol = 1e-12
        floor_note = "user-supplied floor"
    else:
        # the default envelope is exact only up to its own quadrature error,
        # and it is tight for monotone decay; compare at quadrature scale
        n_quad = max(1024, int(256 * data.horizon))
        floor = default_lower_envelope(data, n_quad=n_quad)
        floor_tol = (100.0 * (data.horizon / n_quad) ** 2
                     * (1.0 + float(np.abs(f_samples).max())) + 1e-12)
        floor_note = "default envelope, quadrature-scale tolerance"
    floor_gap = float((f_samples - floor[None, :]).min())
    w_min = float(w_samples.min())

    one_sided, growth = nl.structural_violations()
    sampled = f"sampled on [{-SAMPLE_RANGE}, {SAMPLE_RANGE}]"

    items = (
        CheckItem("coercivity_margin", lambda0, MARGIN_FLOOR, lambda0 >= MARGIN_FLOOR,
                  "lam - L*sup(weight) must reach the floor"),
        CheckItem("initial_admissibility", r, tol_admiss, r <= tol_admiss,
                  "force-balance residual of the initial state"),
        CheckItem("weight_nonnegative", w_min, 0.0, w_min >= -1e-14),
        CheckItem("source_above_floor", floor_gap, floor_tol,
                  floor_gap >= -floor_tol, floor_note),
        CheckItem("nonlinearity_one_sided", one_sided, 1e-12, one_sided <= 1e-12, sampled),
        CheckItem("nonlinearity_growth", growth, 1e-12, growth <= 1e-12, sampled),
    )
    return ValidationReport(items=items, lambda0=lambda0, admissibility_residual=r)


def discretize_time(data: ProblemData, m: int, quad_pts: int = QUAD_PTS) -> DiscretizedData:
    """Average the time-dependent data over the step intervals.

    ``source_avg[k-1](x) = (1/tau) * integral of source(x, .) over
    (t_{k-1}, t_k]`` by the composite midpoint rule with ``quad_pts``
    subintervals, which is exact for data linear in t.  A factored profile
    averages each time factor over the midpoints and evaluates each space
    factor once; any other is evaluated at every midpoint.  Aborts with the
    offending location if an evaluator returns a non-finite value.
    """
    if m < 1:
        raise ValueError("need at least one time step")
    if quad_pts < 1:
        raise ValueError("need at least one quadrature point")
    g = data.grid
    x = g.nodes
    tau = data.horizon / m
    times = tau * np.arange(m + 1)
    # row j holds quadrature point j of every step
    pts = times[:-1] + (np.arange(quad_pts)[:, None] + 0.5) * (tau / quad_pts)

    def averages(profile: TimeProfile, label: str) -> np.ndarray:
        if profile.terms:
            out = np.broadcast_to(_combine([(space(x), None if time is None else
                                             (sum(time(pts)) / quad_pts)[:, None])
                                            for space, time in profile.terms]), (m, g.n))
            if np.all(np.isfinite(out)):
                return out.copy()
        # otherwise, and to locate a non-finite value, one call per row of
        # points and block of steps, summed in order as a per-step loop would
        out = np.zeros((m, g.n))
        for sl in time_blocks(m, g.n):
            for ts in pts[:, sl]:
                v = profile(x, ts)
                if not np.all(np.isfinite(v)):
                    i, bad = np.unravel_index(int(np.flatnonzero(~np.isfinite(v))[0]),
                                              v.shape)
                    raise ValueError(
                        f"{label} evaluator returned a non-finite value at "
                        f"x={x[bad]:.6g}, t={ts[i]:.6g}")
                out[sl] += v
        out /= quad_pts
        return out

    f0 = data.source(x, 0.0)
    w0 = data.weight(x, 0.0)
    if not (np.all(np.isfinite(f0)) and np.all(np.isfinite(w0))):
        raise ValueError("source/weight evaluator returned non-finite values at t=0")

    return DiscretizedData(
        m=m, tau=tau, times=times,
        source_avg=averages(data.source, "source"),
        weight_avg=averages(data.weight, "weight"),
        source_init=f0, weight_init=w0,
    )


def default_lower_envelope(data: ProblemData, n_quad: int = 1024) -> np.ndarray:
    """Default lower envelope of the source in time: ``source(x, 0)`` minus
    the variation of the source sampled at ``linspace(0, T, n_quad + 1)``,
    a bound at those times by the triangle inequality that also sees a jump
    (``step_t``) or a kink (``tabulated``).

    A factored source takes ``sum_i |space_i(x)|*V_i`` for its variation,
    with ``V_i`` the sampled variation of ``time_i``, and evaluates each
    space factor once.  Any other source is sampled at every node, in the
    blocks of :func:`time_blocks`, each block continuing from the last row
    of the block before, and its increments are summed in time order, as a
    per-time loop would.  A non-finite sample raises ``ValueError`` with its
    time, for a factored source too.
    """
    g = data.grid
    x = g.nodes
    s = np.linspace(0.0, data.horizon, n_quad + 1)
    f0 = data.source(x, 0.0)
    if data.source.terms:
        with np.errstate(invalid="ignore"):   # inf - inf: located below
            env = f0 - _combine([(np.abs(space(x)), np.abs(np.diff(time(s))).sum())
                                 for space, time in data.source.terms if time is not None])
        if np.all(np.isfinite(env)):
            return env
        # the samples below locate the non-finite value
    blocks = time_blocks(s.size, g.n)
    # row 0 carries the variation so far, the rows after it one block's
    # |increments|; the first, from s[0] = 0 to itself, is 0
    rows = np.zeros((blocks[0].stop + 1, g.n))
    last = f0
    for sl in blocks:
        v = data.source(x, s[sl])
        finite = np.all(np.isfinite(v), axis=1)
        if not finite.all():
            raise ValueError(f"source non-finite at t={s[sl][np.argmin(finite)]:.6g}")
        d = rows[:len(v) + 1]
        np.subtract(v[0], last, out=d[1])
        np.subtract(v[1:], v[:-1], out=d[2:])
        np.abs(d[1:], out=d[1:])
        last = v[-1]
        # add the rows one after another, as a per-time loop would: numpy
        # reduces the rows of a (k, n) array with n > 1 node by node in row
        # order, but sums a single column pairwise, so one node takes cumsum
        rows[0] = np.add.reduce(d, axis=0) if g.n > 1 else np.cumsum(d, axis=0)[-1]
    return f0 - rows[0]

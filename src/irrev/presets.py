"""Named building blocks the configuration front end assembles problems from.

Every factory takes a spec dict with a ``preset`` key plus preset-specific
parameters and rejects unknown keys (fail-closed, like the rest of the
configuration machinery).
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .model import (ZERO_NONLINEARITY, Nonlinearity, TimeProfile, constant_profile,
                    node_row, time_column)
from .obstacle import solve_unconstrained


class PresetError(ValueError):
    pass


def _take(spec: dict, where: str, required=(), optional=()) -> dict:
    out = dict(spec)
    kind = out.pop("preset", None)
    missing = [k for k in required if k not in out]
    if missing:
        raise PresetError(f"{where}: missing keys {missing}")
    unknown = [k for k in out if k not in set(required) | set(optional)]
    if unknown:
        raise PresetError(f"{where}: unknown keys {unknown}")
    return out


def _number(p: dict, key: str, where: str, default=None, integer: bool = False):
    """``p[key]`` (``default`` when absent), a finite number or a (nested) list
    of them, as floats, or as an int with ``integer``.  A boolean, a string, a
    non-integer where an integer is asked, ``inf`` and ``nan`` are refused:
    ``float()`` would take the first two and ``int()`` truncate the third."""
    v = p.get(key, default)
    if np.asarray(v).dtype.kind not in ("iu" if integer else "iuf"):
        raise PresetError(f"{where}: {key} must be {'an integer' if integer else 'numeric'}, "
                          f"got {v!r:.40}")
    if not np.all(np.isfinite(v)):
        raise PresetError(f"{where}: non-finite {key} {v!r:.40}")
    return int(v) if integer else (float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float))


# --------------------------------------------------------------------------
# nonlinearities
# --------------------------------------------------------------------------

def nonlinearity(spec: dict) -> Nonlinearity:
    """Presets: ``zero``, ``linear`` (slope), ``tanh`` (amplitude), ``at``
    (eps, delta).  Every preset's slope bound holds on the whole real line."""
    kind = spec.get("preset")
    if kind == "zero":
        _take(spec, "gamma:zero")
        return ZERO_NONLINEARITY
    if kind == "linear":
        p = _take(spec, "gamma:linear", required=("slope",))
        g = _number(p, "slope", "gamma:linear")
        return Nonlinearity(
            fn=lambda s: g * np.asarray(s, dtype=float),
            primitive=lambda s: 0.5 * g * np.asarray(s, dtype=float) ** 2,
            deriv=lambda s: np.full_like(np.asarray(s, dtype=float), g),
            slope_bound=max(0.0, -g), growth=max(abs(g), 1e-12))
    if kind == "tanh":
        p = _take(spec, "gamma:tanh", required=("amplitude",))
        a = _number(p, "amplitude", "gamma:tanh")
        if a < 0:
            raise PresetError("gamma:tanh amplitude must be >= 0")
        def log_cosh(s):
            s = np.abs(np.asarray(s, dtype=float))
            return s + np.log1p(np.exp(-2.0 * s)) - np.log(2.0)

        return Nonlinearity(
            fn=lambda s: a * np.tanh(np.asarray(s, dtype=float)),
            primitive=lambda s: a * log_cosh(s),
            deriv=lambda s: a / np.cosh(np.minimum(np.abs(np.asarray(s, dtype=float)), 350.0)) ** 2,
            slope_bound=0.0, growth=max(a, 1e-12))
    if kind == "at":
        from .fracture import ATParams, at_nonlinearity
        p = _take(spec, "gamma:at", required=("eps", "delta"))
        eps, delta = (_number(p, key, "gamma:at") for key in ("eps", "delta"))
        params = ATParams(eps=eps, delta=delta, load=constant_profile(0.0))
        return at_nonlinearity(params)
    raise PresetError(f"unknown gamma preset {kind!r}")


# --------------------------------------------------------------------------
# space profiles (plain nodal arrays)
# --------------------------------------------------------------------------

def space_values(grid: Grid, spec: dict, where: str = "space") -> np.ndarray:
    """Presets: ``zero``, ``constant`` (value), ``bump`` (amplitude, center,
    width), ``sine`` (amplitude, mode), ``values`` (explicit nodal list).
    Every nodal array of a configuration passes here; non-finite ones are refused."""
    kind = spec.get("preset")
    x = grid.nodes
    if kind == "zero":
        _take(spec, f"{where}:zero")
        vals = np.zeros(grid.n)
    elif kind == "constant":
        p = _take(spec, f"{where}:constant", required=("value",))
        vals = np.full(grid.n, _number(p, "value", f"{where}:constant"))
    elif kind == "bump":
        p = _take(spec, f"{where}:bump", required=("amplitude",),
                  optional=("center", "width"))
        c = _number(p, "center", f"{where}:bump", 0.5 * (grid.a + grid.b))
        w = _number(p, "width", f"{where}:bump", 0.2 * (grid.b - grid.a))
        amplitude = _number(p, "amplitude", f"{where}:bump")
        with np.errstate(divide="ignore", invalid="ignore"):  # width 0: refused below
            vals = amplitude * np.exp(-((x - c) / w) ** 2)
    elif kind == "sine":
        p = _take(spec, f"{where}:sine", required=("amplitude",), optional=("mode",))
        amplitude = _number(p, "amplitude", f"{where}:sine")
        mode = _number(p, "mode", f"{where}:sine", 1, integer=True)
        vals = amplitude * np.sin(mode * np.pi * (x - grid.a) / (grid.b - grid.a))
    elif kind == "values":
        p = _take(spec, f"{where}:values", required=("values",))
        vals = _number(p, "values", f"{where}:values")
        if vals.shape != (grid.n,):
            raise PresetError(f"{where}: need exactly {grid.n} nodal values")
    else:
        raise PresetError(f"unknown {where} preset {kind!r}")
    if not np.all(np.isfinite(vals)):
        raise PresetError(f"{where}: the {kind} preset gives non-finite values")
    return vals


# --------------------------------------------------------------------------
# time profiles
# --------------------------------------------------------------------------

def time_profile(grid: Grid, spec: dict, where: str = "profile") -> TimeProfile:
    """Presets: ``constant`` (value or space), ``linear_t`` (base, rate),
    ``exp_relax`` (limit, bump, optional rate), ``step_t`` (before, after,
    t_switch), ``tabulated`` (times, values).

    Every preset but ``tabulated`` is factored (:class:`TimeProfile`
    ``terms``), with the bits of its pointwise formula, and every preset
    has its exact time derivative.  ``tabulated`` is linear in t between
    its knots and constant outside them, so its derivative is piecewise
    constant: at a knot the slope of the interval to its right applies,
    and at the last knot and beyond it is 0."""
    kind = spec.get("preset")
    x_nodes = grid.nodes

    def table(name: str, p: dict):
        vals = space_values(grid, p[name], f"{where}.{name}")
        return lambda x: np.interp(x, x_nodes, vals)

    if kind == "constant":
        p = _take(spec, f"{where}:constant", optional=("value", "space"))
        v = _number(p, "value", f"{where}:constant", 0.0)
        space = table("space", p) if "space" in p else (lambda x: v)
        return TimeProfile(terms=[(space, None, None)], limit=np.full(grid.n, space(x_nodes)))

    if kind == "linear_t":
        p = _take(spec, f"{where}:linear_t", required=("base", "rate"))
        return TimeProfile(terms=[(table("base", p), None, None),
                                  (table("rate", p), lambda t: t, lambda t: 1.0)])

    if kind == "exp_relax":
        p = _take(spec, f"{where}:exp_relax", required=("limit", "bump"),
                  optional=("rate",))
        limit, bump = table("limit", p), table("bump", p)
        r = _number(p, "rate", f"{where}:exp_relax", 1.0)
        return TimeProfile(terms=[(limit, None, None), (bump, lambda t: np.exp(-r * t),
                                                        lambda t: -r * np.exp(-r * t))],
                           limit=limit(x_nodes))

    if kind == "step_t":
        p = _take(spec, f"{where}:step_t", required=("before", "after", "t_switch"))
        before, after, ts = (_number(p, key, f"{where}:step_t")
                             for key in ("before", "after", "t_switch"))
        # no dtime, as the derivative is 0 off the switch; the jump carries the
        # change, which the lower envelope sees in the sampled time factor
        return TimeProfile(terms=[(lambda x: 1.0, lambda t: np.where(t > ts, after, before),
                                   None)], limit=np.full(grid.n, after))

    if kind == "tabulated":
        p = _take(spec, f"{where}:tabulated", required=("times", "values"))
        times = _number(p, "times", f"{where}:tabulated")
        table = _number(p, "values", f"{where}:tabulated")
        if times.ndim != 1 or table.shape != (times.size, grid.n):
            raise PresetError(
                f"{where}: tabulated values must be (len(times), n) = "
                f"({times.size}, {grid.n})")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise PresetError(f"{where}: tabulated times must be at least two, increasing")

        def bracket(x, t):
            """Each time clamped to the table (a column), the index j of its
            interval [times[j], times[j+1]), and rows j and j+1 interpolated
            at the nodes, once per distinct j."""
            tc = np.clip(time_column(t), times[0], times[-1])
            j = np.clip(np.searchsorted(times, tc, side="right") - 1, 0, times.size - 2)
            rows, which = np.unique(j[..., 0], return_inverse=True)
            xr = node_row(x)
            lo, hi = np.empty((2, rows.size, xr.size))
            for i, u in enumerate(rows):
                lo[i] = np.interp(xr, x_nodes, table[u])
                hi[i] = np.interp(xr, x_nodes, table[u + 1])
            return tc, j, lo[which], hi[which]

        def ev(x, t):
            tc, j, lo, hi = bracket(x, t)
            theta = (tc - times[j]) / (times[j + 1] - times[j])
            return (1 - theta) * lo + theta * hi

        def dev(x, t):
            _, j, lo, hi = bracket(x, t)
            tq = time_column(t)
            inside = (tq >= times[0]) & (tq < times[-1])
            return np.where(inside, (hi - lo) / (times[j + 1] - times[j]), 0.0)

        return TimeProfile(ev, dev, limit=table[-1])

    raise PresetError(f"unknown {where} preset {kind!r}")


# --------------------------------------------------------------------------
# initial states
# --------------------------------------------------------------------------

def initial_state(grid: Grid, spec: dict, lam: float, nl: Nonlinearity,
                  source: TimeProfile, weight: TimeProfile) -> np.ndarray:
    """Presets: any space preset, plus ``equilibrium`` (the unconstrained
    solve of the force balance at t=0, admissible with zero margin)."""
    if spec.get("preset") == "equilibrium":
        _take(spec, "z0:equilibrium")
        x = grid.nodes
        return solve_unconstrained(grid, source(x, 0.0), weight(x, 0.0), lam, nl)
    return space_values(grid, spec, "z0")


# --------------------------------------------------------------------------
# fracture loads
# --------------------------------------------------------------------------

def fracture_load(spec: dict) -> TimeProfile:
    """Presets: ``zero``; ``ramp_linear`` (scale, ramp_time) giving
    ``scale*min(t/ramp_time, 1)*x``; ``ramp_sine`` (scale, ramp_time) giving
    the same ramp times ``sin(pi*x)``.  All are odd in x, hence zero-average
    on the symmetric interval."""
    kind = spec.get("preset")
    if kind == "zero":
        _take(spec, "load:zero")
        return constant_profile(0.0)
    if kind in ("ramp_linear", "ramp_sine"):
        p = _take(spec, f"load:{kind}", required=("scale",), optional=("ramp_time",))
        scale = _number(p, "scale", f"load:{kind}")
        ramp = _number(p, "ramp_time", f"load:{kind}", 1.0)
        if ramp <= 0:
            raise PresetError("load ramp_time must be positive")
        shape = (lambda x: x) if kind == "ramp_linear" else (lambda x: np.sin(np.pi * x))
        return TimeProfile(terms=[(shape, lambda t: scale * np.minimum(t / ramp, 1.0),
                                   lambda t: np.where(t < ramp, scale / ramp, 0.0))])
    raise PresetError(f"unknown load preset {kind!r}")

"""Named building blocks the configuration front end assembles problems from.

Every factory takes a spec dict with a ``preset`` key plus preset-specific
parameters and rejects unknown keys (fail-closed, like the rest of the
configuration machinery).
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .model import ZERO_NONLINEARITY, Nonlinearity, TimeProfile, constant_profile
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
        g = float(p["slope"])
        return Nonlinearity(
            fn=lambda s: g * np.asarray(s, dtype=float),
            primitive=lambda s: 0.5 * g * np.asarray(s, dtype=float) ** 2,
            deriv=lambda s: np.full_like(np.asarray(s, dtype=float), g),
            slope_bound=max(0.0, -g), growth=max(abs(g), 1e-12))
    if kind == "tanh":
        p = _take(spec, "gamma:tanh", required=("amplitude",))
        a = float(p["amplitude"])
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
        params = ATParams(eps=float(p["eps"]), delta=float(p["delta"]),
                          load=constant_profile(0.0))
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
        vals = np.full(grid.n, float(p["value"]))
    elif kind == "bump":
        p = _take(spec, f"{where}:bump", required=("amplitude",),
                  optional=("center", "width"))
        c = float(p.get("center", 0.5 * (grid.a + grid.b)))
        w = float(p.get("width", 0.2 * (grid.b - grid.a)))
        vals = float(p["amplitude"]) * np.exp(-((x - c) / w) ** 2)
    elif kind == "sine":
        p = _take(spec, f"{where}:sine", required=("amplitude",), optional=("mode",))
        mode = int(p.get("mode", 1))
        vals = float(p["amplitude"]) * np.sin(mode * np.pi * (x - grid.a) / (grid.b - grid.a))
    elif kind == "values":
        p = _take(spec, f"{where}:values", required=("values",))
        vals = np.asarray(p["values"], dtype=float)
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

    Every preset has its exact time derivative.  ``tabulated`` is linear in
    t between its knots and constant outside them, so its derivative is
    piecewise constant: at a knot the slope of the interval to its right
    applies, and at the last knot and beyond it is 0."""
    kind = spec.get("preset")
    x_nodes = grid.nodes

    if kind == "constant":
        p = _take(spec, f"{where}:constant", optional=("value", "space"))
        if "space" in p:
            vals = space_values(grid, p["space"], f"{where}.space")
            interp = lambda x, t: np.interp(np.asarray(x, float), x_nodes, vals)
            return TimeProfile(interp, lambda x, t: np.zeros(np.shape(x)), limit=vals)
        v = float(p.get("value", 0.0))
        return TimeProfile(lambda x, t: np.full(np.shape(x), v),
                           lambda x, t: np.zeros(np.shape(x)),
                           limit=np.full(grid.n, v))

    if kind == "linear_t":
        p = _take(spec, f"{where}:linear_t", required=("base", "rate"))
        base = space_values(grid, p["base"], f"{where}.base")
        rate = space_values(grid, p["rate"], f"{where}.rate")

        def ev(x, t):
            xq = np.asarray(x, float)
            return np.interp(xq, x_nodes, base) + t * np.interp(xq, x_nodes, rate)

        return TimeProfile(ev, lambda x, t: np.interp(np.asarray(x, float), x_nodes, rate))

    if kind == "exp_relax":
        p = _take(spec, f"{where}:exp_relax", required=("limit", "bump"),
                  optional=("rate",))
        lim = space_values(grid, p["limit"], f"{where}.limit")
        bump = space_values(grid, p["bump"], f"{where}.bump")
        r = float(p.get("rate", 1.0))

        def ev(x, t):
            xq = np.asarray(x, float)
            return np.interp(xq, x_nodes, lim) + np.exp(-r * t) * np.interp(xq, x_nodes, bump)

        def dev(x, t):
            return -r * np.exp(-r * t) * np.interp(np.asarray(x, float), x_nodes, bump)

        return TimeProfile(ev, dev, limit=lim)

    if kind == "step_t":
        p = _take(spec, f"{where}:step_t", required=("before", "after", "t_switch"))
        before, after = float(p["before"]), float(p["after"])
        ts = float(p["t_switch"])

        def ev(x, t):
            return np.where(t > ts, after, before)

        # derivative is zero away from the switch; the jump itself carries
        # the change and is invisible to pointwise sampling
        return TimeProfile(ev, lambda x, t: np.zeros(np.shape(x)),
                           limit=np.full(grid.n, after))

    if kind == "tabulated":
        p = _take(spec, f"{where}:tabulated", required=("times", "values"))
        times = np.asarray(p["times"], dtype=float)
        table = np.asarray(p["values"], dtype=float)
        if times.ndim != 1 or table.shape != (times.size, grid.n):
            raise PresetError(
                f"{where}: tabulated values must be (len(times), n) = "
                f"({times.size}, {grid.n})")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise PresetError(f"{where}: tabulated times must be at least two, increasing")

        def bracket(x, t):
            """Each t clamped to the table, the index j of its interval
            [times[j], times[j+1]), and rows j and j+1 interpolated at x."""
            tc = np.clip(t, times[0], times[-1])
            j = np.clip(np.searchsorted(times, tc, side="right") - 1, 0, times.size - 2)
            lo, hi = np.empty(np.shape(x)), np.empty(np.shape(x))
            for u in np.unique(j):
                sel = j == u
                lo[sel] = np.interp(x[sel], x_nodes, table[u])
                hi[sel] = np.interp(x[sel], x_nodes, table[u + 1])
            return tc, j, lo, hi

        def ev(x, t):
            tc, j, lo, hi = bracket(x, t)
            theta = (tc - times[j]) / (times[j + 1] - times[j])
            return (1 - theta) * lo + theta * hi

        def dev(x, t):
            # piecewise constant: at a knot the slope of the interval that
            # starts there applies; 0 before the first time and from the
            # last time on, where the table is held constant
            _, j, lo, hi = bracket(x, t)
            inside = (t >= times[0]) & (t < times[-1])
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
        scale = float(p["scale"])
        ramp = float(p.get("ramp_time", 1.0))
        if ramp <= 0:
            raise PresetError("load ramp_time must be positive")
        shape = (lambda x: np.asarray(x, float)) if kind == "ramp_linear" \
            else (lambda x: np.sin(np.pi * np.asarray(x, float)))

        def ev(x, t):
            return scale * np.minimum(t / ramp, 1.0) * shape(x)

        def dev(x, t):
            return np.where(t < ramp, scale / ramp, 0.0) * shape(x)

        return TimeProfile(ev, dev)
    raise PresetError(f"unknown load preset {kind!r}")

"""The three workloads: the CLI configuration each one feeds ``irrev`` and the
closed-form data the outside checks recompute the scheme from.

Every workload stores its full trajectory (stride 1) so that every step can
be checked.  The data closures below are written from the formulas of the
presets, not by calling ``irrev``: the checks stay independent of the
program they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

#: the solver's default KKT tolerance, which each step certifies
TOL_KKT = 1e-10
#: midpoint-rule points per interval, in every workload's config
QUAD_PTS = 8


@dataclass
class Scheme:
    """Closed-form description of one scalar evolution on a Dirichlet grid.

    ``source(x, t)`` and ``weight(x, t)`` take node coordinates and an array
    of times (broadcast as ``t[..., None]``) and return values per node.
    ``primitive_size(s)`` bounds the magnitude of the terms ``primitive(s)``
    sums, which sets the rounding error of one evaluation.
    """

    a: float
    b: float
    n: int
    lam: float
    horizon: float
    m: int
    source: Callable[[np.ndarray, np.ndarray], np.ndarray]
    weight: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fn: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]
    primitive_size: Callable[[np.ndarray], np.ndarray]

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    @property
    def x_full(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n + 2)

    @property
    def x(self) -> np.ndarray:
        return self.x_full[1:-1]

    @property
    def tau(self) -> float:
        return self.horizon / self.m

    def averages(self) -> tuple[np.ndarray, np.ndarray]:
        """Interval averages ``(source, weight)``, each of shape ``(m, n)``.

        The scheme defines the step data as the composite midpoint rule with
        ``QUAD_PTS`` subintervals on each ``(t_{k-1}, t_k]``; this evaluates
        that rule from the closed-form data.
        """
        tau = self.tau
        starts = tau * np.arange(self.m)
        pts = starts[:, None] + (np.arange(QUAD_PTS) + 0.5) * (tau / QUAD_PTS)
        return (self.source(self.x, pts).mean(axis=1),
                self.weight(self.x, pts).mean(axis=1))


@dataclass
class Workload:
    name: str
    command: str                      # irrev subcommand
    config: dict
    scheme: Scheme
    #: config of the ``irrev stationary`` run that exposes the limit state
    stationary_config: Optional[dict] = None
    #: fracture: (scale, ramp_time, delta) of the ramp_sine load
    load: Optional[tuple] = None
    #: longtime: the settled source level
    limit: Optional[float] = None
    #: the FAIL verdicts the command prints, with exit 1, because of a known
    #: fault in the program; any other failure makes the run incorrect
    known_fault: Optional[list] = None


def _tanh_nl(amp: float):
    def fn(s):
        return amp * np.tanh(s)

    def primitive(s):
        s = np.abs(s)
        return amp * (s + np.log1p(np.exp(-2.0 * s)) - math.log(2.0))

    def primitive_size(s):
        return amp * (np.abs(s) + 2.0 * math.log(2.0))

    return fn, primitive, primitive_size


def run_contact(seed: int) -> Workload:
    """``irrev run``: the source rises on (0, 1/2) and falls on (1/2, 1).

    The inputs do not depend on the seed.  This command exits 1 on every
    run because of the minimality fault described in the README, and a
    failing operation may only be kept when its inputs are the same in
    every run.  The seed drives the outside checks' competitor draws.
    """
    del seed
    n, m, T, amp = 301, 50, 1.0, 1.0
    config = {
        "problem": {
            "grid": {"n": n, "a": 0.0, "b": 1.0},
            "lambda": 1.0,
            "gamma": {"preset": "tanh", "amplitude": amp},
            "sigma": {"preset": "constant", "value": 1.0},
            "f": {"preset": "linear_t", "base": {"preset": "constant", "value": 1.0},
                  "rate": {"preset": "sine", "amplitude": 1.0, "mode": 2}},
            "z0": {"preset": "equilibrium"},
            "T": T, "m": m, "quad_pts": QUAD_PTS},
        "output": {"stride": 1},
        "seed": 0,
    }
    fn, prim, size = _tanh_nl(amp)

    def source(x, t):
        t = np.asarray(t, float)[..., None]
        return 1.0 + t * np.sin(2.0 * np.pi * x)

    def weight(x, t):
        return np.ones(np.shape(t) + np.shape(x))

    scheme = Scheme(0.0, 1.0, n, 1.0, T, m, source, weight, fn, prim, size)
    return Workload("run-contact", "run", config, scheme,
                    known_fault=["unilateral_minimality"])


def longtime_relax(seed: int) -> Workload:
    """``irrev longtime``: a source that decays toward its limit everywhere.

    The seed draws the bump and the limit level; none of them changes the
    amount of work (one sweep per step, 640 steps on 41 nodes).
    """
    rng = np.random.default_rng([seed, 1])
    n, horizon, per_unit = 41, 40.0, 16
    amp = float(rng.uniform(0.3, 0.7))
    limit = float(rng.uniform(0.3, 0.7))
    bump = float(rng.uniform(0.8, 1.2))
    center = float(rng.uniform(0.3, 0.7))
    width = float(rng.uniform(0.15, 0.25))
    rate = float(rng.uniform(0.7, 1.0))
    limit_spec = {"preset": "constant", "value": limit}
    problem = {
        "grid": {"n": n, "a": 0.0, "b": 1.0},
        "lambda": 1.0,
        "gamma": {"preset": "tanh", "amplitude": amp},
        "sigma": {"preset": "constant", "value": 1.0},
        "f": {"preset": "exp_relax", "limit": limit_spec,
              "bump": {"preset": "bump", "amplitude": bump, "center": center,
                       "width": width},
              "rate": rate},
        "z0": {"preset": "equilibrium"},
        "T": 1.0, "quad_pts": QUAD_PTS}
    config = {"problem": problem,
              "longtime": {"horizon": horizon, "m_per_unit": per_unit},
              "output": {"stride": 1}, "seed": 0}
    stationary = {"problem": problem, "stationary": {"f_inf": limit_spec},
                  "seed": 0}
    fn, prim, size = _tanh_nl(amp)

    def source(x, t):
        t = np.asarray(t, float)[..., None]
        return limit + np.exp(-rate * t) * bump * np.exp(-((x - center) / width) ** 2)

    def weight(x, t):
        return np.ones(np.shape(t) + np.shape(x))

    m = int(round(horizon * per_unit))
    scheme = Scheme(0.0, 1.0, n, 1.0, horizon, m, source, weight, fn, prim, size)
    return Workload("longtime-relax", "longtime", config, scheme,
                    stationary_config=stationary, limit=limit)


def fracture_ramp(seed: int) -> Workload:
    """``irrev fracture``: a ``ramp_sine`` load just below the convexity bound.

    At eps=0.1, delta=1e-3 the bound on the load scale is pi*sqrt(1e-5),
    about 0.00993; the seed draws the scale in [0.0090, 0.0097] and the ramp
    time in [0.4, 0.6].  The phase field barely moves for any of them.
    """
    rng = np.random.default_rng([seed, 2])
    eps, delta, n, T, m = 0.1, 1e-3, 201, 1.0, 100
    scale = float(rng.uniform(0.0090, 0.0097))
    ramp = float(rng.uniform(0.4, 0.6))
    config = {
        "fracture": {"eps": eps, "delta_eps": delta,
                     "load": {"preset": "ramp_sine", "scale": scale, "ramp_time": ramp},
                     "n": n, "T": T, "m": m, "quad_pts": QUAD_PTS},
        "output": {"stride": 1},
        "seed": 0,
    }
    lam = 1.0 / eps ** 2
    h = 2.0 / (n + 1)
    x_full = -1.0 + h * np.arange(n + 2)
    # the reduction's weight is the square of the trapezoid-integrated load
    shape_cum = cumulative_trapezoid(np.sin(np.pi * x_full), x_full, initial=0)[1:-1]

    def ramp_of(t):
        return np.minimum(np.asarray(t, float) / ramp, 1.0)

    def source(x, t):
        return np.full(np.shape(t) + np.shape(x), lam)

    def weight(x, t):
        return (scale * ramp_of(t)[..., None] * shape_cum) ** 2

    def fn(s):
        return s / (eps * (s * s + delta) ** 2)

    def primitive(s):
        return 1.0 / (2.0 * eps * delta) - 1.0 / (2.0 * eps * (s * s + delta))

    def primitive_size(s):
        return 1.0 / (2.0 * eps * delta) + 1.0 / (2.0 * eps * (s * s + delta))

    scheme = Scheme(-1.0, 1.0, n, lam, T, m, source, weight, fn, primitive,
                    primitive_size)
    return Workload("fracture-ramp", "fracture", config, scheme,
                    load=(scale, ramp, delta))


WORKLOADS = {"run-contact": run_contact, "longtime-relax": longtime_relax,
             "fracture-ramp": fracture_ramp}

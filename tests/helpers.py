"""Shared instance generators for the randomized suites."""

from __future__ import annotations

import numpy as np

from irrev import Grid, Nonlinearity
from irrev.presets import nonlinearity


def smooth_values(rng: np.random.Generator, grid: Grid, amplitude: float = 1.0,
                  offset: float = 0.0) -> np.ndarray:
    """Random smooth nodal values: a few sine modes plus a constant."""
    x = (grid.nodes - grid.a) / (grid.b - grid.a)
    out = np.full(grid.n, offset)
    for mode in range(1, 4):
        out += rng.normal(scale=amplitude / mode) * np.sin(mode * np.pi * x)
    return out


def random_nonlinearity(rng: np.random.Generator) -> Nonlinearity:
    kind = int(rng.integers(3))
    if kind == 0:
        return nonlinearity({"preset": "zero"})
    if kind == 1:
        return nonlinearity({"preset": "linear", "slope": float(rng.uniform(-0.4, 0.6))})
    return nonlinearity({"preset": "tanh", "amplitude": float(rng.uniform(0.0, 0.5))})


def random_step_instance(seed: int, n_max: int = 10, margin: float = 0.3):
    """One well-posed obstacle step: grid, obstacle, source, weight, lam, nl.

    The weight is scaled so the convexity margin ``lam - L*max(weight)``
    stays at least ``margin``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    bcs = ("dirichlet", "neumann")
    grid = Grid(0.0, float(rng.uniform(0.8, 1.6)), n,
                bcs[rng.integers(2)], bcs[rng.integers(2)])
    lam = float(rng.uniform(0.7, 2.0))
    nl = random_nonlinearity(rng)

    weight = np.abs(smooth_values(rng, grid, amplitude=0.6, offset=0.4))
    if nl.slope_bound > 0:
        cap = (lam - margin) / nl.slope_bound
        top = float(weight.max())
        if top > 0 and top > cap:
            weight *= cap / top
    source = smooth_values(rng, grid, amplitude=1.2, offset=float(rng.uniform(-1, 1)))
    obstacle = smooth_values(rng, grid, amplitude=0.4)
    return grid, obstacle, source, weight, lam, nl

"""1-D uniform interval mesh with per-endpoint boundary tags and discrete operators.

Only the interior nodes carry unknowns.  A Dirichlet endpoint is eliminated
(ghost value 0); a Neumann endpoint uses a mirror ghost node, i.e. the ghost
value equals the adjacent interior value.  Both conventions keep the
second-difference operator symmetric and positive semidefinite with respect
to the trapezoid-free nodal inner product ``h * sum(u_i v_i)``, which the
obstacle solver and all energy evaluations rely on.

A nodal state is a plain float array ``(n,)`` (a stack of states ``(k, n)``),
always passed together with its grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class BC(str, Enum):
    """Homogeneous endpoint condition: value pinned to 0, or zero flux."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on ``[a, b]`` with ``n`` interior nodes.

    Attributes
    ----------
    a, b : float
        Endpoints of the interval, ``a < b``.
    n : int
        Number of interior nodes (``>= 1``).  Spacing is ``h = (b-a)/(n+1)``
        and the interior nodes sit at ``x_i = a + i*h``, ``i = 1..n``.
    bc_left, bc_right : BC
        Endpoint condition tags.
    """

    a: float
    b: float
    n: int
    bc_left: BC = BC.DIRICHLET
    bc_right: BC = BC.DIRICHLET

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"invalid interval [{self.a}, {self.b}]")
        if self.n < 1:
            raise ValueError(f"need at least one interior node, got n={self.n}")
        object.__setattr__(self, "bc_left", BC(self.bc_left))
        object.__setattr__(self, "bc_right", BC(self.bc_right))

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates, shape ``(n,)``."""
        return self.a + self.h * np.arange(1, self.n + 1)

    @property
    def nodes_full(self) -> np.ndarray:
        """All node coordinates, shape ``(n+2,)``: exactly ``a``, the interior
        :attr:`nodes`, exactly ``b`` (``a + (n+1)*h`` can miss ``b`` by an ulp)."""
        return np.concatenate(([self.a], self.nodes, [self.b]))


def full_values(grid: Grid, u) -> np.ndarray:
    """Values on all ``n+2`` nodes, of one state ``(n,)`` or of each row of a
    stack ``(k, n)``; the ghost value is 0 at a Dirichlet end and the
    adjacent interior value at a Neumann end."""
    vals = np.asarray(u, dtype=float)
    if vals.shape[-1] != grid.n:
        raise ValueError(f"rows of {vals.shape[-1]} values, {grid.n} interior nodes")
    out = np.empty(vals.shape[:-1] + (grid.n + 2,))
    out[..., 1:-1] = vals
    out[..., 0] = 0.0 if grid.bc_left is BC.DIRICHLET else vals[..., 0]
    out[..., -1] = 0.0 if grid.bc_right is BC.DIRICHLET else vals[..., -1]
    return out


@lru_cache(maxsize=16)
def laplacian_diagonals(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal matrix of the second-difference operator.

    Returns ``(sub, diag, sup)`` with ``sub``/``sup`` of length ``n-1``
    (empty for ``n == 1``); the one operator encoding of the endpoint rule.
    Built once per grid and read-only, since equal grids share them.
    """
    h2 = grid.h ** 2
    diag = np.full(grid.n, 2.0 / h2)
    # mirror ghost removes one neighbor contribution; with n == 1 both ends
    # touch the same node, so subtract rather than assign
    if grid.bc_left is BC.NEUMANN:
        diag[0] -= 1.0 / h2
    if grid.bc_right is BC.NEUMANN:
        diag[-1] -= 1.0 / h2
    off = np.full(max(grid.n - 1, 0), -1.0 / h2)
    diag.flags.writeable = off.flags.writeable = False
    return off, diag, off


def forward_jumps(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Forward differences ``(u_{i+1} - u_i)/h`` including the boundary jumps.

    Returns ``n+1`` values.  Ghost values follow :func:`full_values`: zero
    beyond a Dirichlet endpoint (so the boundary jump is ``u_1/h`` resp.
    ``-u_n/h``), mirror beyond a Neumann endpoint (zero jump there).
    """
    return np.diff(full_values(grid, u)) / grid.h


def norm_h1(grid: Grid, u: np.ndarray) -> float | np.ndarray:
    """Discrete H1 norm: sqrt of (squared jump norm + squared L2 norm); a
    float for one state ``(n,)``, per row of a stack ``(k, n)`` an array
    equal to the one-row calls to the last bit."""
    vals = np.asarray(u, dtype=float)
    du = forward_jumps(grid, vals)
    s = np.sqrt(grid.h * (np.vecdot(du, du) + np.vecdot(vals, vals)))
    return float(s) if s.ndim == 0 else s

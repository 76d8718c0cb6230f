"""1-D uniform interval mesh with per-endpoint boundary tags and discrete operators.

Only the interior nodes carry unknowns.  A Dirichlet endpoint is eliminated
(ghost value 0); a Neumann endpoint uses a mirror ghost node, i.e. the ghost
value equals the adjacent interior value.  Both conventions keep the
second-difference operator symmetric and positive semidefinite with respect
to the trapezoid-free nodal inner product ``h * sum(u_i v_i)``, which the
obstacle solver and all energy evaluations rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class BC(str, Enum):
    """Homogeneous endpoint condition: value pinned to 0, or zero flux."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class GridMismatchError(ValueError):
    """Raised when an operation mixes fields living on different grids."""


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
        """All node coordinates including the two endpoints, shape ``(n+2,)``."""
        return self.a + self.h * np.arange(self.n + 2)


@dataclass(frozen=True)
class Field:
    """Nodal values on the interior nodes of a grid.

    Values are stored as a read-only float array of length ``grid.n``; all
    entries must be finite.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"field has {vals.size} values, grid has {self.grid.n} interior nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def as_values(grid: Grid, u) -> np.ndarray:
    """Coerce a Field or array-like to a plain value array on ``grid``."""
    if isinstance(u, Field):
        if u.grid != grid:
            raise GridMismatchError("field does not live on the given grid")
        return u.values
    vals = np.asarray(u, dtype=float).reshape(-1)
    if vals.shape != (grid.n,):
        raise GridMismatchError(
            f"got {vals.size} values for a grid with {grid.n} interior nodes"
        )
    return vals


def full_values(grid: Grid, u: Field | np.ndarray) -> np.ndarray:
    """Values on all ``n+2`` nodes, of one state or of each row of a stack
    ``(k, n)``; the ghost value is 0 at a Dirichlet end and the adjacent
    interior value at a Neumann end."""
    vals = u if isinstance(u, np.ndarray) and u.ndim == 2 else as_values(grid, u)
    if vals.shape[-1] != grid.n:
        raise GridMismatchError(f"rows of {vals.shape[-1]} values, {grid.n} interior nodes")
    out = np.empty(vals.shape[:-1] + (grid.n + 2,))
    out[..., 1:-1] = vals
    out[..., 0] = 0.0 if grid.bc_left is BC.DIRICHLET else vals[..., 0]
    out[..., -1] = 0.0 if grid.bc_right is BC.DIRICHLET else vals[..., -1]
    return out


def neg_laplacian(grid: Grid, u: Field | np.ndarray) -> Field:
    """Second-difference operator ``(-u_{i-1} + 2 u_i - u_{i+1}) / h^2``:
    the tridiagonal matrix of :func:`laplacian_diagonals` applied to ``u``,
    so its endpoint rule is that function's."""
    vals = as_values(grid, u)
    sub, diag, sup = laplacian_diagonals(grid)
    out = diag * vals
    out[:-1] += sup * vals[1:]
    out[1:] += sub * vals[:-1]
    return Field(grid, out)


def laplacian_diagonals(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal matrix of the second-difference operator.

    Returns ``(sub, diag, sup)`` with ``sub``/``sup`` of length ``n-1``
    (empty for ``n == 1``); the one operator encoding of the endpoint rule.
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
    return off, diag, off.copy()


def inner_l2(grid: Grid, u: Field | np.ndarray, v: Field | np.ndarray) -> float:
    """Discrete L2 pairing ``h * sum(u_i v_i)`` over the interior nodes."""
    uv = as_values(grid, u)
    vv = as_values(grid, v)
    return grid.h * float(np.dot(uv, vv))


def forward_jumps(grid: Grid, u: Field | np.ndarray) -> np.ndarray:
    """Forward differences ``(u_{i+1} - u_i)/h`` including the boundary jumps.

    Returns ``n+1`` values.  Ghost values follow :func:`full_values`: zero
    beyond a Dirichlet endpoint (so the boundary jump is ``u_1/h`` resp.
    ``-u_n/h``), mirror beyond a Neumann endpoint (zero jump there).
    """
    return np.diff(full_values(grid, u)) / grid.h


def grad_inner(grid: Grid, u: Field | np.ndarray, v: Field | np.ndarray) -> float:
    """Discrete Dirichlet form ``h * sum(D+u * D+v)`` over all jumps.

    Summation by parts makes this identical to ``inner_l2(neg_laplacian(u), v)``
    up to rounding, for every combination of endpoint tags.
    """
    du = forward_jumps(grid, u)
    dv = forward_jumps(grid, v)
    return grid.h * float(np.dot(du, dv))


def norm_h1(grid: Grid, u: Field | np.ndarray) -> float:
    """Discrete H1 norm: sqrt of (squared jump norm + squared L2 norm)."""
    du = forward_jumps(grid, u)
    vals = as_values(grid, u)
    s = grid.h * (float(np.dot(du, du)) + float(np.dot(vals, vals)))
    return float(np.sqrt(max(s, 0.0)))

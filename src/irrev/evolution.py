"""Implicit stepping driver: iterate the obstacle step and keep the history.

Each step's obstacle is the previous state, so the discrete trajectory is
nonincreasing in time by construction.  Because the evolution is
irreversible, the contact set changes little from one step to the next, so
every active-set solve after the first starts from the previous step's
contact set.  The steps after one without contact are solved in stacks
(:func:`irrev.obstacle.solve_free_steps`) until one has contact; that one
goes to a solve with no set to start from, which, unless it settles in one
sweep, takes its start from a coarser grid (nested iteration).
The full history (states, multipliers, energies, per-step solver metadata)
is kept in memory -- these are desk-scale runs -- and can be thinned only at
serialization time, which writes every number in the shortest text that
reloads to its bits, so verdicts on a reloaded run see the run itself.  The
per-run work (the grid's operator, the stored energies) is done once, not
per step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import orjson

from .grid import BC, Grid
from .model import (QUAD_PTS, DiscretizedData, Nonlinearity, ProblemData,
                    ValidationError, discretize_time, time_blocks, validate)
from .obstacle import ObstacleError, SolverOptions, solve_free_steps, solve_step


class EvolutionError(RuntimeError):
    """A step solve failed; carries the step index and the partial history."""

    def __init__(self, step: int, partial: "Trajectory", cause: ObstacleError):
        self.step = step
        self.partial = partial
        super().__init__(f"step {step} failed: {cause}")


@dataclass(frozen=True)
class StepMeta:
    k: int
    iters: int
    kkt_residual: float
    n_active: int


@dataclass(frozen=True)
class Trajectory:
    """Discrete history of one run.

    ``states[k]`` is the state at ``times[k]`` (``k = 0..m``),
    ``multipliers[k-1]`` the step multiplier produced on ``(t_{k-1}, t_k]``,
    ``energies[k]`` the energy at ``(states[k], times[k])``, equal to the
    last bit to :func:`irrev.diagnostics.energy`.
    """

    grid: Grid
    times: np.ndarray          # (m+1,)
    states: np.ndarray         # (m+1, n)
    multipliers: np.ndarray    # (m, n)
    energies: np.ndarray       # (m+1,)
    tau: float
    step_meta: tuple
    disc: Optional[DiscretizedData] = None

    @property
    def m(self) -> int:
        return self.times.size - 1

    def max_movement(self) -> float:
        """Largest nodewise total movement over the run."""
        return float(np.abs(self.states - self.states[0]).max())


def run_evolution(data: ProblemData, nl: Nonlinearity, m: int,
                  opts: Optional[SolverOptions] = None, quad_pts: int = QUAD_PTS,
                  validate_first: bool = True) -> Trajectory:
    """Run the implicit scheme for ``m`` uniform steps up to the horizon.

    Validates the problem data first (raise :class:`ValidationError` on any
    failed hypothesis), averages the data over the step intervals, then
    solves one obstacle step per interval with the previous state as the
    obstacle.  Each active-set solve after the first starts from the
    contact set of the step before; the first has none, so unless its first
    sweep settles it takes its start from a coarser grid (nested iteration,
    :func:`~irrev.obstacle.solve_step`).  After a step without contact the
    next ones go to :func:`~irrev.obstacle.solve_free_steps` in stacks of
    2, 4, 8, ... rows, up to one time block; a kept row counts one sweep,
    and the first row not kept is solved with no set to start from, the
    stacks starting again at 2.  On a per-step solver failure the partial
    trajectory built so far is attached to the raised :class:`EvolutionError`.
    The stored energies are evaluated after the steps, one stacked pass per
    block of times, data and energy alike.
    """
    from .diagnostics import energies

    if validate_first:
        report = validate(data, nl)
        if not report.ok:
            raise ValidationError(report)

    disc = discretize_time(data, m, quad_pts)
    g = data.grid
    n = g.n

    states = np.empty((m + 1, n))
    multipliers = np.zeros((m, n))
    meta: list[StepMeta] = []

    states[0] = data.initial

    cap = time_blocks(m, n)[0].stop   # the most rows of one stack
    active, block, k = None, 0, 1     # block: rows of the next stack, 0 after contact
    while k <= m:
        rows = slice(k - 1, min(k - 1 + block, m))
        if block:
            try:
                Z, kkt = solve_free_steps(g, states[k - 1], disc.source_avg[rows],
                                          disc.weight_avg[rows], data.lam, nl)
            except ObstacleError:   # solve_step raises it again, or recovers
                Z, kkt = states[:0], np.empty(0)
            states[k:k + len(Z)] = Z
            meta += [StepMeta(k=k + j, iters=1, kkt_residual=r, n_active=0)
                     for j, r in enumerate(kkt.tolist())]
            k += len(Z)
            if k == rows.stop + 1:
                block = min(2 * block, cap)
                continue
        try:
            res = solve_step(g, states[k - 1], disc.source_avg[k - 1],
                             disc.weight_avg[k - 1], data.lam, nl, opts,
                             initial_active=active)
        except ObstacleError as exc:
            partial = Trajectory(
                grid=g, times=disc.times[:k], states=states[:k].copy(),
                multipliers=multipliers[:k - 1].copy(),
                energies=energies(data, nl, states, disc.times[:k]),
                tau=disc.tau, step_meta=tuple(meta), disc=disc)
            raise EvolutionError(k, partial, exc) from exc
        active = res.active
        states[k] = res.z
        multipliers[k - 1] = res.eta
        meta.append(StepMeta(k=k, iters=res.iters, kkt_residual=res.kkt_residual,
                             n_active=int(res.active.size)))
        block = 0 if active.size else min(2, cap)
        k += 1

    return Trajectory(grid=g, times=disc.times, states=states,
                      multipliers=multipliers,
                      energies=energies(data, nl, states, disc.times),
                      tau=disc.tau, step_meta=tuple(meta), disc=disc)


# --------------------------------------------------------------------------
# interpolants
# --------------------------------------------------------------------------

def _locate(traj: Trajectory, t: float) -> int:
    """Index k with t in (t_{k-1}, t_k]; 0 for t == 0."""
    T = traj.times[-1]
    if t < -1e-12 * max(1.0, T) or t > T * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"time {t} outside [0, {T}]")
    t = min(max(t, 0.0), T)
    if t == 0.0:
        return 0
    k = int(np.searchsorted(traj.times, t, side="left"))
    return min(max(k, 1), traj.m)


def interp_constant(traj: Trajectory, t: float) -> np.ndarray:
    """Piecewise constant interpolant: the value on ``(t_{k-1}, t_k]`` is
    the row ``states[k]``.  At ``t == 0`` the initial state is returned (the
    natural left-end extension; the stepping scheme leaves that instant
    undefined).
    """
    return traj.states[_locate(traj, t)]


# --------------------------------------------------------------------------
# serialization: long CSV + JSON manifest
# --------------------------------------------------------------------------

def _csv_rows(table: np.ndarray) -> bytes:
    """The rows of a float table (its last axis) as CSV text: every value in
    the shortest decimal that reloads to its bits (``nan``, ``inf`` and
    ``-inf`` for the non-finite ones), cells joined by ``,`` and every row
    ended by ``\\n``; ``b""`` for an empty table.

    orjson formats the flat values in one C pass (Ryu shortest round trip);
    numpy then turns every row's last separator and the closing bracket of
    the dump into line ends, so no value passes through Python.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.size == 0:
        return b""
    width = table.shape[-1]
    chars = np.frombuffer(bytearray(orjson.dumps(table.ravel(),
                                                 option=orjson.OPT_SERIALIZE_NUMPY)), np.uint8)
    chars[np.flatnonzero(chars == ord(","))[width - 1::width]] = ord("\n")
    chars[-1] = ord("\n")                    # the closing "]"
    text = chars[1:].tobytes()               # after the opening "["
    finite = np.isfinite(table)
    if not finite.all():
        # orjson spells every non-finite value "null": put back each one's name
        bad = table[~finite]
        names = map((b"nan", b"inf", b"-inf").__getitem__, ((bad > 0) + 2 * (bad < 0)).tolist())
        parts = text.split(b"null")
        text = b"".join(chain.from_iterable(zip(parts, names))) + parts[-1]
    return text


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write a flat table: a header line, then one row per entry of the
    equal-length float ``columns``, each value in the shortest text that
    reloads to its bits (:func:`_csv_rows`); lines end in ``\\n``."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(_csv_rows(np.column_stack(columns)))


def write_long_csv(path: str | Path, times: np.ndarray, x: np.ndarray,
                   fields: dict[str, Sequence[np.ndarray]]) -> None:
    """Write a long table with the header ``t,x,<field names>`` and one row
    ``t_k, x_i, fields[name][k][i]...`` per stamp ``k`` and node ``i``.

    ``fields`` maps each column name to its rows, one ``(x.size,)`` array
    per stamp.  Values are written as by :func:`write_csv`.  The stamps are
    taken in the blocks of :func:`~irrev.model.time_blocks`, counted in
    values, not rows: each block's rows are filled into one table and
    written in one call, so the text held in memory is one block's.
    """
    n, width = len(x), 2 + len(fields)
    with open(path, "wb") as fh:
        fh.write((",".join(["t", "x", *fields]) + "\n").encode())
        for sl in time_blocks(len(times), n * width):
            table = np.empty((sl.stop - sl.start, n, width))
            table[..., 0] = times[sl, None]
            table[..., 1] = x
            for j, rows in enumerate(fields.values(), 2):
                table[..., j] = rows[sl]
            fh.write(_csv_rows(table))


def save_trajectory(traj: Trajectory, directory: str | Path,
                    stride: int = 1) -> tuple[Path, Path]:
    """Write ``trajectory.csv`` (long format: t, x, z, eta) and ``trajectory.json``.

    The CSV is written by :func:`write_long_csv`, one block of stamps at a
    time, every value in the shortest text that reloads to its bits, so a
    round trip through :func:`load_trajectory` reproduces the trajectory to
    the last bit.  ``stride`` thins the stored time stamps (the initial and
    final stamps are always kept).  Multiplier entries at ``t == 0`` are
    written as ``nan`` (no step produced them).  The manifest is one line of
    JSON with sorted keys, encoded by orjson in one C call; orjson writes a
    non-finite number (an energy that overflowed) as ``null``, which
    :func:`load_trajectory` reads back as ``nan``.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "trajectory.csv"
    json_path = directory / "trajectory.json"

    keep = sorted(set(range(0, traj.m + 1, stride)) | {0, traj.m})
    no_eta = np.full(traj.grid.n, np.nan)
    write_long_csv(csv_path, traj.times[keep], traj.grid.nodes,
                   {"z": [traj.states[k] for k in keep],
                    "eta": [traj.multipliers[k - 1] if k else no_eta for k in keep]})

    manifest = {
        "grid": {"a": traj.grid.a, "b": traj.grid.b, "n": traj.grid.n,
                 "bc_left": traj.grid.bc_left.value, "bc_right": traj.grid.bc_right.value},
        "tau": traj.tau,
        "m": traj.m,
        "stride": stride,
        "kept_stamps": keep,
        "times": [float(t) for t in traj.times[keep]],
        "energies": [float(e) for e in traj.energies[keep]],
        "step_meta": [vars(s) for s in traj.step_meta],   # asdict would deep-copy
    }
    json_path.write_bytes(orjson.dumps(manifest, option=orjson.OPT_SORT_KEYS
                                       | orjson.OPT_SERIALIZE_NUMPY) + b"\n")
    return csv_path, json_path


def load_trajectory(directory: str | Path) -> Trajectory:
    """Rebuild a trajectory from :func:`save_trajectory` output.

    Only the serialized content is restored (no problem data, no interval
    averages); a thinned save loads as a trajectory over the kept stamps.
    """
    directory = Path(directory)
    with open(directory / "trajectory.json") as fh:
        manifest = json.load(fh)
    gspec = manifest["grid"]
    grid = Grid(a=gspec["a"], b=gspec["b"], n=gspec["n"],
                bc_left=BC(gspec["bc_left"]), bc_right=BC(gspec["bc_right"]))

    times = np.asarray(manifest["times"], dtype=float)
    n, m1 = grid.n, times.size
    rows = np.loadtxt(directory / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (m1 * n, 4):
        raise ValueError("trajectory CSV does not match the manifest")
    states = rows[:, 2].reshape(m1, n).copy()
    multipliers = rows[n:, 3].reshape(m1 - 1, n).copy()

    meta = tuple(StepMeta(**s) for s in manifest["step_meta"])
    return Trajectory(grid=grid, times=times, states=states, multipliers=multipliers,
                      energies=np.asarray(manifest["energies"], dtype=float),
                      tau=manifest["tau"], step_meta=meta, disc=None)

"""Implicit stepping driver: iterate the obstacle step and keep the history.

Each step's obstacle is the previous state, so the discrete trajectory is
nonincreasing in time by construction.  Because the evolution is
irreversible, the contact set changes little from one step to the next: each
solve starts from the set of the step before, stretches that keep it are
solved in stacks, and a step whose data repeat the step before's copies its
state (:func:`run_evolution`).  The full history (states, multipliers,
energies, and the solver's record of every step as columns,
:class:`StepTrace`) is kept in memory -- these are desk-scale runs -- and
can be thinned only at serialization time, which writes every number in the
shortest text that reloads to its bits, so verdicts on a reloaded run see
the run itself; a stamp whose field rows repeat the stamp before's, as a
held step's do, is written from that stamp's text with only its time put
in.  The per-run work (the grid's operator, the stored energies) is done
once, not per step.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np
import orjson

from .grid import Grid, laplacian_diagonals
from .model import (QUAD_PTS, DiscretizedData, Nonlinearity, ProblemData,
                    ValidationError, _step_residual, discretize_time, time_blocks,
                    validate)
from .obstacle import (ObstacleError, SolverOptions, _sweep_certificate, solve_held_steps,
                       solve_step)


class EvolutionError(RuntimeError):
    """A step solve failed; carries the step index and the partial history."""

    def __init__(self, step: int, partial: "Trajectory", cause: ObstacleError):
        self.step = step
        self.partial = partial
        super().__init__(f"step {step} failed: {cause}")


@dataclass(frozen=True, eq=False)
class StepTrace:
    """The solver's record of a run's steps, one column each: row ``k - 1``
    holds step ``k``'s sweeps (a stacked or held step counts one), KKT
    residual and contact-set size; filled in place, one slice per stretch."""

    iters: np.ndarray          # (m,) int
    kkt_residual: np.ndarray   # (m,) float
    n_active: np.ndarray       # (m,) int

    def __len__(self) -> int:
        return self.iters.size

    def fill(self, rows, iters, kkt_residual, n_active) -> None:
        self.iters[rows], self.kkt_residual[rows], self.n_active[rows] = \
            iters, kkt_residual, n_active

    def records(self) -> list[dict]:
        """One ``{"iters", "k", "kkt_residual", "n_active"}`` object per step,
        as ``trajectory.json`` stores them."""
        return [{"iters": i, "k": k, "kkt_residual": r, "n_active": a}
                for k, (i, r, a) in enumerate(zip(self.iters.tolist(), self.kkt_residual.tolist(),
                                                  self.n_active.tolist()), 1)]


@dataclass(frozen=True)
class Trajectory:
    """Discrete history of one run.

    ``states[k]`` is the state at ``times[k]`` (``k = 0..m``),
    ``multipliers[k-1]`` the step multiplier produced on ``(t_{k-1}, t_k]``,
    ``energies[k]`` the energy at ``(states[k], times[k])``, equal to the
    last bit to :func:`irrev.diagnostics.energy`.  ``step_meta`` holds the
    record of every step of the run, also in a thinned load, whose stamps
    are every ``stride``-th step of the run and its last (``stride`` is 1
    for a run), so ``len(step_meta)`` counts the run's steps, ``m`` the stamps'.
    """

    grid: Grid
    times: np.ndarray          # (m+1,)
    states: np.ndarray         # (m+1, n)
    multipliers: np.ndarray    # (m, n)
    energies: np.ndarray       # (m+1,)
    tau: float
    step_meta: StepTrace
    disc: Optional[DiscretizedData] = None
    stride: int = 1

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
    :func:`~irrev.obstacle.solve_step`).  After a step that settled in one
    sweep, so that its set held, the next steps go to
    :func:`~irrev.obstacle.solve_held_steps` with that set in stacks of 2, 4,
    8, ... rows, up to one time block; a kept row counts one sweep, the first
    row not kept is solved from that set, and stacks start again at 2 after
    the next one-sweep step.  A step ``k >= 2`` whose ``source_avg`` and
    ``weight_avg`` rows have the bits of step ``k-1``'s is held: ``z_{k-1}``
    minimizes the step energy over ``{v <= z_{k-2}}``, which contains ``{v
    <= z_{k-1}}``, so it is step ``k``'s minimizer.  A held step copies the state
    and multiplier of the step before, keeps its contact set and is solved by
    nothing; its :class:`StepTrace` row is what :func:`~irrev.obstacle.solve_step`
    from that set returns, one sweep with the KKT residual of the state at zero
    slack, ``sup max(G, 0)``, and the stack sizes go on after it as before.
    On a per-step solver failure the partial trajectory built so far is
    attached to the raised :class:`EvolutionError`.
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
    trace = StepTrace(np.empty(m, int), np.empty(m), np.empty(m, int))

    states[0] = data.initial

    # row j of the step data is held when it repeats row j-1; a stretch of
    # held rows, or of rows that are not, ends at the next edge
    held = _repeats(disc.source_avg) & _repeats(disc.weight_avg)
    edges = [*(np.flatnonzero(held[1:] != held[:-1]) + 1).tolist(), m]
    lap = laplacian_diagonals(g)

    cap = time_blocks(m, n)[0].stop   # the most rows of one stack
    active, block, k = None, 0, 1     # block: rows of the next stack, 0 after a set moved
    while k <= m:
        edge = edges[bisect_right(edges, k - 1)]
        if held[k - 1]:   # steps k..edge repeat step k-1: they keep its state
            states[k:edge + 1] = states[k - 1]
            multipliers[k - 1:edge] = multipliers[k - 2]
            G = _step_residual(states[k - 1], disc.source_avg[k - 1], disc.weight_avg[k - 1],
                               data.lam, nl, lap)
            trace.fill(slice(k - 1, edge), 1,
                       _sweep_certificate(states[k - 1], G, states[k - 1], False)[1], active.size)
            k = edge + 1
            continue
        rows = slice(k - 1, min(k - 1 + block, edge))
        if block:
            try:
                Z, eta, kkt = solve_held_steps(g, states[k - 1], active, disc.source_avg[rows],
                                               disc.weight_avg[rows], data.lam, nl)
            except ObstacleError:   # solve_step raises it again, or recovers
                Z, eta, kkt = states[:0], states[:0], np.empty(0)
            states[k:k + len(Z)] = Z
            multipliers[k - 1:k - 1 + len(Z)] = eta
            trace.fill(slice(k - 1, k - 1 + len(Z)), 1, kkt, active.size)
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
                tau=disc.tau, disc=disc,
                step_meta=StepTrace(*(column[:k - 1] for column in vars(trace).values())))
            raise EvolutionError(k, partial, exc) from exc
        active = res.active
        states[k] = res.z
        multipliers[k - 1] = res.eta
        trace.fill(k - 1, res.iters, res.kkt_residual, res.active.size)
        block = min(2, cap) if res.iters == 1 else 0
        k += 1

    return Trajectory(grid=g, times=disc.times, states=states,
                      multipliers=multipliers,
                      energies=energies(data, nl, states, disc.times),
                      tau=disc.tau, step_meta=trace, disc=disc)


def _repeats(rows: np.ndarray, before: Optional[np.ndarray] = None) -> np.ndarray:
    """Whether each row of ``rows`` (its first axis) has the bits of the row
    before; the first row is compared with ``before``, and without it never
    repeats.  Bits, not values: ``-0.0`` does not repeat ``0.0``, and a nan
    repeats a nan of the same payload."""
    bits = np.reshape(rows, (len(rows), -1)).view(np.uint64)
    same = np.zeros(len(rows), bool)
    same[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    if before is not None and len(rows):
        same[0] = (bits[0] == before.reshape(-1).view(np.uint64)).all()
    return same


# --------------------------------------------------------------------------
# interpolants
# --------------------------------------------------------------------------

def interp_constant(traj: Trajectory, t: float) -> np.ndarray:
    """Piecewise constant interpolant: the value on ``(t_{k-1}, t_k]`` is
    the row ``states[k]``.  At ``t == 0`` the initial state is returned (the
    natural left-end extension; the stepping scheme leaves that instant
    undefined).
    """
    T = traj.times[-1]
    if t < -1e-12 * max(1.0, T) or t > T * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"time {t} outside [0, {T}]")
    t = min(max(t, 0.0), T)
    k = int(np.searchsorted(traj.times, t, side="left"))
    return traj.states[0 if t == 0.0 else min(max(k, 1), traj.m)]


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
    chars[0] = ord(",")                           # the opening "[", as the first value's separator
    seps = np.flatnonzero(chars == ord(","))      # seps[j] is the separator before value j
    chars[seps[width::width]] = ord("\n")
    chars[-1] = ord("\n")                         # the closing "]"
    bad = np.flatnonzero(~np.isfinite(table).ravel())
    starts = (seps[bad] + 1).tolist()
    del seps   # freed before the text is copied: a live block this size slows the copy
    if not starts:
        return chars[1:].tobytes()
    # orjson spells every non-finite value "null": splice each one's name in
    # at the start of its value
    values = table.ravel()[bad]
    names = map((b"nan", b"inf", b"-inf").__getitem__, ((values > 0) + 2 * (values < 0)).tolist())
    text = memoryview(chars)
    parts = [text[i:j] for i, j in zip([1, *(i + len(b"null") for i in starts)],
                                       [*starts, chars.size])]
    return b"".join([*chain.from_iterable(zip(parts, names)), parts[-1]])


@contextmanager
def _rewrite(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that writes ``path`` from its start, over what it holds.

    The file is opened without ``O_TRUNC`` (created when missing) and is cut
    at the position reached when the block ends, raising or not, so it holds
    exactly the bytes written, none of the old ones.  Every file ``irrev``
    writes goes through here: on ext4 (``auto_da_alloc``) closing a file that
    was truncated to zero starts its writeback, while overwriting and cutting
    it starts none; for a 1.4 MB file on an ext4 root mounted with
    ``discard`` (2-vCPU KVM guest) that was 0.94-1.08 ms against 0.11-0.19 ms.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def _json(value) -> bytes:
    """``value`` as JSON: sorted keys, one line, a final ``\\n``; the one encoder of
    every JSON file ``irrev`` writes.  A float that is not finite is ``null``."""
    return orjson.dumps(value, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
                        | orjson.OPT_APPEND_NEWLINE)


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write a flat table: a header line, then one row per entry of the
    equal-length float ``columns``, each value in the shortest text that
    reloads to its bits (:func:`_csv_rows`); lines end in ``\\n``.  An
    existing file is overwritten and cut, never truncated first
    (:func:`_rewrite`)."""
    with _rewrite(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(_csv_rows(np.column_stack(columns)))


def write_long_csv(path: str | Path, times: np.ndarray, x: np.ndarray,
                   fields: dict[str, Sequence[np.ndarray]]) -> None:
    """Write a long table with the header ``t,x,<field names>`` and one row
    ``t_k, x_i, fields[name][k][i]...`` per stamp ``k`` and node ``i``.

    ``fields`` maps each column name to its rows, one ``(x.size,)`` array
    per stamp.  Values are written as by :func:`write_csv`.  The stamps are
    taken in the blocks of :func:`~irrev.model.time_blocks`, counted in
    values, not rows: each block's rows are filled into one table, so the
    text held in memory is one block's.  A stamp whose field rows have the
    bits of the stamp before's (a held step, say) prints that stamp's lines
    after its own time, so a stretch of such stamps is written from one
    template, the lines with ``\\0`` in each time's place, and only the times
    are formatted; the other stamps of a block are formatted in one
    :func:`_csv_rows` pass per stretch.  An existing file at ``path`` is
    overwritten from its start and cut after the last byte written, never
    truncated first (:func:`_rewrite`); a write that raises leaves the
    blocks written before it, with no byte of the old file after them.
    """
    n, width = len(x), 2 + len(fields)
    with _rewrite(path) as fh:
        fh.write((",".join(["t", "x", *fields]) + "\n").encode())
        last = None       # the block before's last stamp, without its time
        template = None   # a stretch's template, while its stamps are the last written
        for sl in time_blocks(len(times), n * width):
            table = np.empty((sl.stop - sl.start, n, width))
            table[..., 0] = 0.0   # the times go in after the stamps are compared
            table[..., 1] = x
            for j, rows in enumerate(fields.values(), 2):
                table[..., j] = rows[sl]
            same = _repeats(table, last)
            last = table[-1].copy()
            table[..., 0] = times[sl, None]
            edges = [0, *(np.flatnonzero(same[1:] != same[:-1]) + 1).tolist(), len(same)]
            for a, b in zip(edges, edges[1:]):
                if not same[a]:
                    fh.write(_csv_rows(table[a:b]))
                    template = None
                    continue
                if template is None:   # stamp a's lines are every stamp's of the stretch
                    template = (b"\0," + _csv_rows(table[a, :, 1:]).replace(b"\n", b"\n\0,"))[:-2]
                fh.writelines(template.replace(b"\0", t)
                              for t in _csv_rows(times[sl][a:b, None]).split())


class _StampRows:
    """Rows ``at`` of ``rows``, a row of nan where ``at < 0``, which
    :func:`write_long_csv` slices and so copies a block at a time."""

    def __init__(self, rows: np.ndarray, at: np.ndarray):
        self.rows, self.at = rows, at

    def __getitem__(self, sl: slice) -> np.ndarray:
        at = self.at[sl]
        out = np.full((at.size, self.rows.shape[1]), np.nan)
        out[at >= 0] = self.rows[at[at >= 0]]
        return out


def save_trajectory(traj: Trajectory, directory: str | Path,
                    stride: int = 1) -> tuple[Path, Path]:
    """Write ``trajectory.csv`` (long format: t, x, z, eta) and ``trajectory.json``.

    The CSV is written by :func:`write_long_csv`, so a round trip through
    :func:`load_trajectory` reproduces the trajectory to the last bit.
    ``stride`` thins the stored time stamps (the initial and final stamps
    are always kept, their rows copied a block at a time); a thinned load is
    thinned by ``stride * traj.stride`` from the run's steps, so with
    ``stride`` 1 it writes the bytes it was loaded from.  Multiplier entries
    at ``t == 0`` are written as ``nan`` (no step produced them).  The
    manifest is encoded by :func:`_json`: sorted keys, one line, a final
    ``\\n``; a non-finite number (an energy that overflowed) is written as
    ``null``, which :func:`load_trajectory` reads back as ``nan``.  Existing
    files are overwritten and cut, never truncated first (:func:`_rewrite`).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "trajectory.csv"
    json_path = directory / "trajectory.json"

    keep = np.r_[0:traj.m:stride, traj.m]   # the stored stamps to write
    times = traj.times[keep]
    write_long_csv(csv_path, times, traj.grid.nodes,
                   {"z": _StampRows(traj.states, keep),
                    "eta": _StampRows(traj.multipliers, keep - 1)})

    steps, stride = len(traj.step_meta), stride * traj.stride
    manifest = {
        "grid": {"a": traj.grid.a, "b": traj.grid.b, "n": traj.grid.n,
                 "bc_left": traj.grid.bc_left.value, "bc_right": traj.grid.bc_right.value},
        "tau": traj.tau,
        "m": steps,
        "stride": stride,
        "kept_stamps": np.r_[0:steps:stride, steps],
        "times": times,
        "energies": traj.energies[keep],
        "step_meta": traj.step_meta.records(),
    }
    with _rewrite(json_path) as fh:
        fh.write(_json(manifest))
    return csv_path, json_path


def load_trajectory(directory: str | Path) -> Trajectory:
    """Rebuild a trajectory from :func:`save_trajectory` output.

    Only the serialized content is restored (no problem data, no interval
    averages); a thinned save loads as a trajectory over the kept stamps.
    """
    directory = Path(directory)
    manifest = orjson.loads((directory / "trajectory.json").read_bytes())
    grid = Grid(**manifest["grid"])

    times = np.asarray(manifest["times"], dtype=float)
    n, m1 = grid.n, times.size
    rows = np.loadtxt(directory / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (m1 * n, 4):
        raise ValueError("trajectory CSV does not match the manifest")
    states = rows[:, 2].reshape(m1, n).copy()
    multipliers = rows[n:, 3].reshape(m1 - 1, n).copy()

    meta = manifest["step_meta"]
    trace = StepTrace(*(np.array([s[key] for s in meta], dtype) for key, dtype in
                        (("iters", int), ("kkt_residual", float), ("n_active", int))))
    return Trajectory(grid=grid, times=times, states=states, multipliers=multipliers,
                      energies=np.asarray(manifest["energies"], dtype=float),
                      tau=manifest["tau"], step_meta=trace, disc=None, stride=manifest["stride"])

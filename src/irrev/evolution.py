"""Implicit stepping driver: iterate the obstacle step and keep the history.

Each step's obstacle is the previous state, so the discrete trajectory is
nonincreasing in time by construction.  Because the evolution is
irreversible, the contact set changes little from one step to the next, so
every active-set solve after the first starts from the previous step's
contact set.  A solve with no set to start from (the first, or one after a
step without contact) that does not settle in one sweep takes its start
from a coarser grid (nested iteration, see :func:`irrev.obstacle.solve_step`).
The full history (states, multipliers, energies, per-step solver metadata)
is kept in memory -- these are desk-scale runs -- and can be thinned only at
serialization time; the per-run work (the grid's operator, the stored
energies) is done once, not per step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .grid import BC, Grid
from .model import (QUAD_PTS, DiscretizedData, Nonlinearity, ProblemData,
                    ValidationError, discretize_time, time_blocks, validate)
from .obstacle import ObstacleError, SolverOptions, solve_step


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
    :func:`~irrev.obstacle.solve_step`).  On a per-step solver failure
    the partial trajectory built so far is attached to the raised
    :class:`EvolutionError`.  The stored energies are evaluated after the
    steps, one stacked pass per block of times, data and energy alike.
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

    active = None
    for k in range(1, m + 1):
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

def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write a flat table: a header line, then one row per entry of the
    equal-length float ``columns``.  Values get 17 significant digits (a
    reload reproduces them to the last bit) and lines end in ``\\n``."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist()))


def write_long_csv(path: str | Path, times: np.ndarray, x: np.ndarray,
                   fields: dict[str, Sequence[np.ndarray]]) -> None:
    """Write a long table with the header ``t,x,<field names>`` and one row
    ``t_k, x_i, fields[name][k][i]...`` per stamp ``k`` and node ``i``.

    ``fields`` maps each column name to its rows, one ``(x.size,)`` array
    per stamp.  The bytes are those of formatting every value with
    ``%.17g``, but each repeated value is formatted once: ``x`` once per
    file, each ``t`` once per stamp, a field row whose values share one bit
    pattern (a zero multiplier, the nan row at ``t = 0``) once per stamp,
    and a stamp's field rows once per run of stamps whose field rows repeat
    bit for bit (a state that did not move); a repeated stamp reuses the
    text of the stamp before with its own ``t``.

    The stamps are taken in the blocks of :func:`~irrev.model.time_blocks`:
    each block's field rows are stacked once, compared with the rows of the
    stamp before in one pass, and its text is handed to the file in one
    call, stamp by stamp, with no joined copy: the text held in memory is
    one block's rows.
    """
    xs = ["," + "%.17g" % xi for xi in x.tolist()]
    # row templates keyed by a row's field cells (",%.17g" for a field
    # formatted per node, the text of the one value of a constant field row):
    # the pieces that, joined with a stamp's t, give its format string, and
    # the positions of the formatted cells among a stamp's (node, field) values
    templates: dict[str, tuple[list[str], np.ndarray]] = {}
    prev = text = stamp = tails = None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", "x", *fields]) + "\n")
        for sl in time_blocks(len(times), len(xs)):
            values = np.stack([np.asarray(rows[sl], dtype=float) for rows in fields.values()],
                              axis=-1)                     # (stamps, nodes, fields)
            # bits, not values: -0.0 == 0.0 but prints "-0"
            bits = values.view(np.uint64)
            repeats = np.empty(len(bits), bool)
            repeats[0] = prev is not None and np.array_equal(bits[0], prev)
            repeats[1:] = (bits[1:] == bits[:-1]).all(axis=(1, 2))
            constant = (bits == bits[:, :1]).all(axis=1)
            prev = bits[-1]
            block = []
            for k, (t, repeat, const, first) in enumerate(zip(
                    times[sl].tolist(), repeats.tolist(), constant.tolist(),
                    values[:, 0].tolist())):
                last, stamp = stamp, "%.17g" % t
                if repeat:
                    # a row's t follows the newline that ends the row before;
                    # cut the text at the t's once per run of repeated stamps
                    if tails is None:
                        tails = ("\n" + text).split("\n" + last)
                    text = ("\n" + stamp).join(tails)[1:]
                else:
                    tails = None
                    cells = "".join("," + "%.17g" % v if c else ",%.17g"
                                    for v, c in zip(first, const)) + "\n"
                    if (template := templates.get(cells)) is None:
                        # a template holds a string per node; rows constant at
                        # ever new values (a uniform state) must not pile them up
                        if len(templates) == 4:
                            templates.clear()
                        free = np.tile(np.logical_not(const), len(xs))
                        template = templates[cells] = ([""] + [xt + cells for xt in xs],
                                                       np.flatnonzero(free))
                    pieces, free = template
                    text = stamp.join(pieces) % tuple(values[k].ravel()[free].tolist())
                block.append(text)
            fh.writelines(block)


def save_trajectory(traj: Trajectory, directory: str | Path,
                    stride: int = 1) -> tuple[Path, Path]:
    """Write ``trajectory.csv`` (long format: t, x, z, eta) and ``trajectory.json``.

    Values are printed with 17 significant digits so a round trip through
    :func:`load_trajectory` reproduces them to the last bit; the CSV is
    written by :func:`write_long_csv`, one block of stamps at a time, which
    formats the node coordinates once per file, each time once per stamp,
    an eta row with one value (no contact, or the nan row at ``t = 0``) once
    per stamp, and the z and eta rows once per run of kept stamps whose
    state and multiplier did not move (a held load, or data that have
    settled).  ``stride``
    thins the stored time stamps (the initial and final stamps are always
    kept).  Multiplier entries at ``t == 0`` are written as ``nan`` (no step
    produced them).  The manifest is one line of JSON with sorted keys: a
    compact dump goes through CPython's C encoder, where an indented one
    runs the pure-Python encoder, about three times slower on a long run's
    stamps.
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
    json_path.write_text(json.dumps(manifest, sort_keys=True) + "\n")
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

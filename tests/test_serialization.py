import numpy as np
import pytest

from irrev import (EvolutionError, Grid, ProblemData, TimeProfile,
                   constant_profile, load_trajectory, run_evolution, save_trajectory,
                   solve_unconstrained)
from irrev.evolution import write_csv, write_long_csv
from irrev.presets import nonlinearity

from helpers import smooth_values


def one_stamp_partial() -> EvolutionError:
    """A run whose first step fails: the weight breaks convexity at once."""
    g = Grid(0.0, 1.0, 7, "dirichlet", "neumann")
    z0 = smooth_values(np.random.default_rng(3), g, amplitude=0.7)
    data = ProblemData(grid=g, lam=1.0,
                       weight=TimeProfile(lambda x, t: np.full(np.shape(x), 2.0),
                                          lambda x, t: np.zeros(np.shape(x))),
                       source=constant_profile(0.0), initial=z0, horizon=1.0)
    nl = nonlinearity({"preset": "linear", "slope": -1.0})  # L = 1 > lam / weight
    with pytest.raises(EvolutionError) as err:
        run_evolution(data, nl, m=3, validate_first=False)
    return err.value


def test_one_stamp_partial_round_trips_bit_exactly(tmp_path):
    exc = one_stamp_partial()
    assert exc.step == 1 and exc.partial.m == 0
    save_trajectory(exc.partial, tmp_path)
    back = load_trajectory(tmp_path)
    for name in ("times", "states", "multipliers", "energies"):
        want, got = getattr(exc.partial, name), getattr(back, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert back.multipliers.shape == (0, 7)


def test_load_rejects_a_missing_row(tmp_path):
    save_trajectory(one_stamp_partial().partial, tmp_path)
    path = tmp_path / "trajectory.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match="does not match the manifest"):
        load_trajectory(tmp_path)


#: values whose shortest 17-digit forms are awkward: nan, signed zeros, the
#: smallest subnormal, the largest finite magnitudes and integers
AWKWARD = [np.nan, 0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
           1.0, -3.0, 12345678901234567.0, 0.1, -2.5e-300]


def reference_csv(header, rows) -> bytes:
    """The table formatted one value at a time with ``%.17g``."""
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def assert_reloads_bit_exactly(path, table):
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert back.shape == table.shape
    assert back.tobytes() == table.tobytes()


def test_writers_match_row_by_row_reference_and_reload_bit_exactly(tmp_path):
    rng = np.random.default_rng(0)
    n, stamps = 13, 7
    pool = np.concatenate([AWKWARD, rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200)])
    times = np.array([0.0, -0.0, 5e-324, 0.1, 1.0, 3.0, 1.7976931348623157e308])
    x = rng.choice(pool, n)
    x[:len(AWKWARD)] = AWKWARD
    a = rng.choice(pool, (stamps, n))
    b = rng.choice(pool, (stamps, n))
    a[0, :len(AWKWARD)] = AWKWARD
    b[-1, :len(AWKWARD)] = AWKWARD[::-1]

    long_path = tmp_path / "long.csv"
    write_long_csv(long_path, times, x, {"a": a, "b": b})
    rows = np.column_stack([np.repeat(times, n), np.tile(x, stamps), a.ravel(), b.ravel()])
    assert long_path.read_bytes() == reference_csv(("t", "x", "a", "b"), rows)
    assert_reloads_bit_exactly(long_path, rows)

    flat_path = tmp_path / "flat.csv"
    write_csv(flat_path, ("x", "a"), (x, a[0]))
    assert flat_path.read_bytes() == reference_csv(("x", "a"), zip(x, a[0]))
    assert_reloads_bit_exactly(flat_path, np.column_stack([x, a[0]]))


def stamp_sequence(case):
    """Field rows ``(a, b)`` of consecutive stamps on 5 nodes that repeat, or
    nearly repeat, the rows of the stamp before."""
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 5))
    a[2] = 0.0
    a[4] = 1.0                        # prints as the third stamp's t
    other = rng.normal(size=(2, 5))
    if case == "runs from stamp 0":
        return [(a, b)] * 3 + [tuple(other)] * 2 + [(a, b)] * 4
    if case == "A, B, A":
        return [(a, b), tuple(other), (a, b)]
    if case == "0.0 to -0.0 at one node":
        signed = a.copy()
        signed[2] = -0.0
        return [(a, b), (a, b), (signed, b), (signed, b)]
    if case == "second field only":
        moved = b.copy()
        moved[3] += 1.0
        return [(a, b), (a, moved), (a, moved)]
    if case == "one ulp":
        ulp = a.copy()
        ulp[1] = np.nextafter(ulp[1], np.inf)
        return [(a, b), (ulp, b)]
    if case == "nan rows":
        nan = np.full(5, np.nan)
        return [(a, b)] + [(nan, nan)] * 3 + [(a, nan)]
    raise ValueError(case)


@pytest.mark.parametrize("case", ["runs from stamp 0", "A, B, A", "0.0 to -0.0 at one node",
                                  "second field only", "one ulp", "nan rows"])
def test_long_writer_gives_each_repeated_stamp_its_own_t(tmp_path, case):
    seq = stamp_sequence(case)
    times = np.arange(len(seq)) / 2.0    # 0, 0.5, 1, ...: each stamp its own t
    x = np.array([0.0, 0.5, 1.0, -0.0, 1.5])
    a, b = (np.array(rows) for rows in zip(*seq))
    path = tmp_path / "long.csv"
    write_long_csv(path, times, x, {"a": list(a), "b": list(b)})
    n = x.size
    rows = np.column_stack([np.repeat(times, n), np.tile(x, len(seq)), a.ravel(), b.ravel()])
    assert path.read_bytes() == reference_csv(("t", "x", "a", "b"), rows)


def settled_trajectory():
    """A run on constant-in-time data from the equilibrium initial state:
    every step returns its obstacle, so every stamp after the first step
    repeats the rows of the stamp before bit for bit."""
    g = Grid(0.0, 1.0, 17, "dirichlet", "neumann")
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    source = TimeProfile(lambda x, t: 1.0 + np.sin(np.pi * np.asarray(x)),
                         lambda x, t: np.zeros(np.shape(x)))
    weight = constant_profile(0.6)
    z0 = solve_unconstrained(g, source(g.nodes, 0.0), weight(g.nodes, 0.0), 2.0, nl)
    data = ProblemData(grid=g, lam=2.0, weight=weight, source=source, initial=z0, horizon=1.0)
    return run_evolution(data, nl, m=7)


@pytest.mark.parametrize("stride", [1, 2])
def test_settled_trajectory_writes_and_round_trips_bit_exactly(tmp_path, stride):
    traj = settled_trajectory()
    assert all(row.tobytes() == traj.states[0].tobytes() for row in traj.states)
    assert all(row.tobytes() == traj.multipliers[0].tobytes() for row in traj.multipliers)

    save_trajectory(traj, tmp_path, stride=stride)
    keep = sorted(set(range(0, traj.m + 1, stride)) | {traj.m})
    n = traj.grid.n
    etas = np.vstack([np.full(n, np.nan), traj.multipliers])[keep]
    rows = np.column_stack([np.repeat(traj.times[keep], n), np.tile(traj.grid.nodes, len(keep)),
                            traj.states[keep].ravel(), etas.ravel()])
    assert (tmp_path / "trajectory.csv").read_bytes() == reference_csv(("t", "x", "z", "eta"), rows)

    back = load_trajectory(tmp_path)
    want = {"times": traj.times[keep], "states": traj.states[keep],
            "multipliers": etas[1:], "energies": traj.energies[keep]}
    for name, value in want.items():
        got = getattr(back, name)
        assert got.shape == value.shape and got.tobytes() == value.tobytes(), name

import numpy as np
import pytest

from irrev import (EvolutionError, Grid, ProblemData, TimeProfile,
                   constant_profile, load_trajectory, run_evolution, save_trajectory)
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

import numpy as np
import pytest

from irrev import (EvolutionError, Grid, ProblemData, TimeProfile,
                   constant_profile, load_trajectory, run_evolution, save_trajectory)
from irrev.evolution import CSV_CHUNK_ROWS, write_csv
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


def test_write_csv_reloads_bit_exactly_across_blocks_and_chunks(tmp_path):
    rows = 2 * CSV_CHUNK_ROWS + 5
    rng = np.random.default_rng(0)
    a = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    b = np.arange(rows, dtype=float)
    b[::7] = np.nan
    path = tmp_path / "cols.csv"
    write_csv(path, ("a", "b"), [(a[:5], b[:5]), (a[5:], b[5:])])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.count(b"\n") == rows + 1
    assert raw.startswith(b"a,b\n")
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back[:, 0].tobytes() == a.tobytes()
    np.testing.assert_array_equal(np.isnan(back[:, 1]), np.isnan(b))
    np.testing.assert_array_equal(back[~np.isnan(b), 1], b[~np.isnan(b)])

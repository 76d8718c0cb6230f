import contextlib
import dataclasses
import io
from decimal import Decimal
from pathlib import Path

import numpy as np
import orjson
import pytest

from irrev import (EvolutionError, Grid, ProblemData, TimeProfile,
                   constant_profile, load_trajectory, run_evolution, save_trajectory,
                   solve_unconstrained)
from irrev import cli, evolution, model
from irrev.evolution import _csv_rows, write_csv, write_long_csv
from irrev.model import EVAL_BLOCK
from irrev.presets import nonlinearity

from helpers import smooth_values
from reference import plain_csv_rows, plain_long_csv


def one_stamp_partial() -> EvolutionError:
    """A run whose first step fails: the weight breaks convexity at once."""
    g = Grid(0.0, 1.0, 7, "dirichlet", "neumann")
    z0 = smooth_values(np.random.default_rng(3), g, amplitude=0.7)
    data = ProblemData(grid=g, lam=1.0,
                       weight=TimeProfile(lambda x, t: np.full(np.shape(x), 2.0)),
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


def test_nonfinite_energies_round_trip(tmp_path):
    # the manifest's encoder writes a non-finite number as null
    partial = one_stamp_partial().partial
    traj = dataclasses.replace(partial, energies=np.array([np.nan]))
    save_trajectory(traj, tmp_path)
    assert b"null" in (tmp_path / "trajectory.json").read_bytes()
    back = load_trajectory(tmp_path)
    assert back.energies.dtype == float and np.isnan(back.energies).all()
    assert back.energies.shape == (1,)


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


def assert_matches_reference(path, header, rows):
    """The file holds the header and one line per row, each cell the shortest
    decimal text of its value that reloads to its bits (so ``-0.0`` keeps its
    sign), or ``nan``, ``inf``, ``-inf``; every line ends in ``\\n``."""
    lines = path.read_bytes().decode("ascii").split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""
    rows = [[float(v) for v in row] for row in rows]
    assert len(lines) - 2 == len(rows)
    for line, row in zip(lines[1:-1], rows):
        cells = line.split(",")
        assert len(cells) == len(row), line
        for cell, v in zip(cells, row):
            if np.isnan(v):
                assert cell == "nan", (cell, v)
            elif np.isinf(v):
                assert cell == ("inf" if v > 0 else "-inf"), (cell, v)
            else:
                assert Decimal(cell) == Decimal(repr(v)), (cell, v)
                assert np.float64(cell).tobytes() == np.float64(v).tobytes(), (cell, v)


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
    assert_matches_reference(long_path, ("t", "x", "a", "b"), rows)
    assert_reloads_bit_exactly(long_path, rows)

    flat_path = tmp_path / "flat.csv"
    write_csv(flat_path, ("x", "a"), (x, a[0]))
    assert_matches_reference(flat_path, ("x", "a"), zip(x, a[0]))
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
    assert_matches_reference(path, ("t", "x", "a", "b"), rows)
    assert path.read_bytes() == plain_long_csv(times, x, {"a": a, "b": b})


def settled_trajectory():
    """A run on constant-in-time data from the equilibrium initial state:
    every step returns its obstacle, so every stamp after the first step
    repeats the rows of the stamp before bit for bit."""
    g = Grid(0.0, 1.0, 17, "dirichlet", "neumann")
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    source = TimeProfile(lambda x, t: 1.0 + np.sin(np.pi * np.asarray(x)))
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
    assert_matches_reference(tmp_path / "trajectory.csv", ("t", "x", "z", "eta"), rows)

    back = load_trajectory(tmp_path)
    want = {"times": traj.times[keep], "states": traj.states[keep],
            "multipliers": etas[1:], "energies": traj.energies[keep]}
    for name, value in want.items():
        got = getattr(back, name)
        assert got.shape == value.shape and got.tobytes() == value.tobytes(), name


def block_sequence(case):
    """Field rows ``(a, b)`` of consecutive stamps on 3 nodes, with field rows
    whose values share one bit pattern, or all but one."""
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(2, 3))
    zero, neg_zero, nan = np.zeros(3), np.full(3, -0.0), np.full(3, np.nan)
    if case == "+0.0 rows":
        return [(a, zero), (zero, zero), (zero, zero), (a, b), (zero, b)]
    if case == "-0.0 rows":           # print "-0", and differ from +0.0 in their bits
        mixed = np.array([0.0, -0.0, 0.0])
        return [(neg_zero, zero), (neg_zero, neg_zero), (zero, neg_zero), (mixed, neg_zero),
                (a, mixed)]
    if case == "nan rows":
        return [(nan, nan), (a, nan), (nan, b), (nan, nan)]
    if case == "one ulp off constant":
        tenth = np.full(3, 0.1)
        ulp = tenth.copy()
        ulp[1] = np.nextafter(0.1, 1.0)
        return [(tenth, ulp), (ulp, tenth), (ulp, ulp), (tenth, tenth)]
    if case == "repeat opens a block":  # stamp 2 repeats stamp 1
        return [(a, b), (zero, a), (zero, a), (zero, a), (b, zero)]
    if case == "many constant rows":
        rows = [(np.full(3, float(c)), np.full(3, -float(c))) for c in range(7)]
        return rows + rows[::-1]
    if case == "inf and nan mixed":   # each "null" of the dump gets its own name back
        mixed = np.array([np.inf, np.nan, -np.inf])
        return [(mixed, a), (b, mixed[::-1]), (np.full(3, -np.inf), mixed), (a, b)]
    raise ValueError(case)


@pytest.mark.parametrize("eval_block", [1, 7, 18, EVAL_BLOCK])
@pytest.mark.parametrize("case", ["+0.0 rows", "-0.0 rows", "nan rows", "one ulp off constant",
                                  "repeat opens a block", "many constant rows",
                                  "inf and nan mixed"])
def test_long_writer_matches_reference_at_any_block_size(tmp_path, monkeypatch, case,
                                                         eval_block):
    # 3 nodes and 4 columns, 12 values a stamp: one stamp a block at 1, 7
    # and 18 (where a block of 18 values would end inside the second stamp's
    # cells), every stamp in one block at the default
    monkeypatch.setattr(model, "EVAL_BLOCK", eval_block)
    seq = block_sequence(case)
    times = np.arange(len(seq)) / 4.0
    x = np.array([0.0, 0.5, 1.0])
    a, b = (np.array(rows) for rows in zip(*seq))
    path = tmp_path / "long.csv"
    write_long_csv(path, times, x, {"a": list(a), "b": b})
    rows = np.column_stack([np.repeat(times, x.size), np.tile(x, len(seq)), a.ravel(), b.ravel()])
    assert_matches_reference(path, ("t", "x", "a", "b"), rows)
    assert_reloads_bit_exactly(path, rows)
    assert path.read_bytes() == plain_long_csv(times, x, {"a": a, "b": b})


def test_writers_write_only_the_header_for_an_empty_table(tmp_path):
    long_path = tmp_path / "long.csv"
    write_long_csv(long_path, np.zeros(0), np.array([0.0, 1.0]), {"a": np.zeros((0, 2))})
    assert long_path.read_bytes() == b"t,x,a\n"
    flat_path = tmp_path / "flat.csv"
    write_csv(flat_path, ("x", "a"), (np.zeros(0), np.zeros(0)))
    assert flat_path.read_bytes() == b"x,a\n"


def nonfinite_table(case):
    """A (4, 3) table of finite values with the non-finite ones of ``case``."""
    table = np.random.default_rng(5).normal(size=(4, 3))
    if case == "first and last value":
        table[0, 0], table[-1, -1] = np.nan, -np.inf
    elif case == "side by side":
        table[1] = [np.inf, np.nan, -np.inf]
        table[2, 0] = np.nan
    elif case == "whole row":
        table[2] = np.nan
    elif case == "every value":
        table[:] = np.inf
    elif case == "one value":
        table = np.array([[-np.inf]])
    return table


@pytest.mark.parametrize("case", ["first and last value", "side by side", "whole row",
                                  "every value", "one value"])
def test_csv_rows_names_nonfinite_values_as_the_plain_writer(case):
    table = nonfinite_table(case)
    assert _csv_rows(table) == plain_csv_rows(table)
    # a block of rows whose last stamp ends in a non-finite value
    assert _csv_rows(table[:, None]) == plain_csv_rows(table[:, None])


#: times whose shortest texts differ in length, or are not numbers
ODD_TIMES = [0.5, 0.51, 0.5800000000000001, 0.30000000000000004, 1.0, 1e-07, -0.0, 12.25,
             np.nan, np.inf, -np.inf, 5e-324, 3.0, 0.1]


def held_stamp_case(case):
    """Times, nodes and field rows ``(a, b)`` per stamp, with stretches of
    stamps whose field rows have the bits of the stamp before's."""
    rng = np.random.default_rng(4)
    x = np.array([0.0, 0.25, 0.5])
    a, b, c = rng.normal(size=(3, 3))
    nan = np.full(3, np.nan)
    if case == "held from stamp 1":
        seq = [(a, b)] * 5 + [(b, c), (a, c)]
    elif case == "held across blocks":
        seq = [(a, b)] + [(c, b)] * 9 + [(a, a)] * 4
    elif case == "time texts of many lengths":
        seq = [(a, b)] + [(c, a)] * (len(ODD_TIMES) - 1)
    elif case == "0.0 to -0.0":       # equal in value, not in bits: not held
        zero, neg = a.copy(), a.copy()
        zero[1], neg[1] = 0.0, -0.0
        seq = [(zero, b), (zero, b), (neg, b), (neg, b), (zero, b)]
    elif case == "nan fields":
        seq = [(a, nan), (a, nan), (nan, nan), (nan, nan), (nan, b), (a, b), (a, b)]
    elif case == "n = 1":
        x = x[:1]
        seq = [(v[:1], w[:1]) for v, w in [(a, b)] * 4 + [(c, b)] + [(c, a)] * 3]
    else:
        raise ValueError(case)
    return np.array(ODD_TIMES[:len(seq)]), x, {"a": [v for v, _ in seq], "b": [w for _, w in seq]}


@pytest.mark.parametrize("eval_block", [1, 24, 36, EVAL_BLOCK])
@pytest.mark.parametrize("case", ["held from stamp 1", "held across blocks",
                                  "time texts of many lengths", "0.0 to -0.0", "nan fields",
                                  "n = 1"])
def test_long_writer_matches_the_plain_writer_byte_for_byte(tmp_path, monkeypatch, case,
                                                           eval_block):
    # 3 nodes and 4 columns, 12 values a stamp: one stamp a block at 1, two
    # at 24 and three at 36, so stretches of held stamps cross blocks
    monkeypatch.setattr(model, "EVAL_BLOCK", eval_block)
    times, x, fields = held_stamp_case(case)
    path = tmp_path / "long.csv"
    write_long_csv(path, times, x, fields)
    assert path.read_bytes() == plain_long_csv(times, x, fields)


def test_long_writer_that_raises_leaves_no_byte_of_the_old_file(tmp_path, monkeypatch):
    # 3 nodes and 4 columns, 12 values a stamp: three stamps a block at 36,
    # and no stamp repeats, so each block is one _csv_rows call
    monkeypatch.setattr(model, "EVAL_BLOCK", 36)
    rng = np.random.default_rng(5)
    times, x = np.arange(7) / 4.0, np.array([0.0, 0.5, 1.0])
    a, b = rng.normal(size=(2, 7, 3))
    path = tmp_path / "long.csv"
    path.write_bytes(b"an older, longer file\n" * 1000)
    calls = []

    def fail_on_the_second_block(table):
        calls.append(len(table))
        if len(calls) == 2:
            raise OSError("no space left on device")
        return _csv_rows(table)

    monkeypatch.setattr(evolution, "_csv_rows", fail_on_the_second_block)
    with pytest.raises(OSError, match="no space left"):
        write_long_csv(path, times, x, {"a": list(a), "b": b})
    assert calls == [3, 3]
    assert path.read_bytes() == plain_long_csv(times[:3], x, {"a": a[:3], "b": b[:3]})


GOLDEN = Path(__file__).resolve().parent / "golden"


def thinned_run_contact(tmp_path, stride: int) -> Path:
    """``irrev run`` on the golden run-contact config (m = 50) saved with ``stride``."""
    cfg = orjson.loads((GOLDEN / "run-contact.json").read_bytes())
    cfg["output"] = {"stride": stride}
    path, out = tmp_path / f"stride{stride}.json", tmp_path / f"stride{stride}"
    path.write_bytes(orjson.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == cli.EXIT_OK
    return out


def test_thinned_trajectory_survives_load_and_save(tmp_path):
    # a thinned load keeps its stride and every step's record, so saving it
    # again writes its own bytes, and thinning it again is thinning the run
    out7, out14 = thinned_run_contact(tmp_path, 7), thinned_run_contact(tmp_path, 14)
    thin = load_trajectory(out7)
    assert thin.m == 8 and thin.stride == 7 and len(thin.step_meta) == 50
    save_trajectory(thin, tmp_path / "again", stride=1)
    save_trajectory(thin, tmp_path / "twice", stride=2)
    for name in ("trajectory.csv", "trajectory.json"):
        assert (tmp_path / "again" / name).read_bytes() == (out7 / name).read_bytes()
        assert (tmp_path / "twice" / name).read_bytes() == (out14 / name).read_bytes()
    manifest = orjson.loads((tmp_path / "again" / "trajectory.json").read_bytes())
    assert manifest["m"] == 50 and manifest["stride"] == 7 and manifest["tau"] == 0.02
    assert manifest["kept_stamps"] == [*range(0, 50, 7), 50]
    assert len(manifest["step_meta"]) == 50


@pytest.mark.parametrize("stride", [1, 7])
def test_manifest_step_meta_is_one_object_per_step(tmp_path, stride):
    # the benchmark reads trajectory.json's step_meta as a list of objects
    # (perfbench/run.py), so a column layout has to come as a deliberate
    # benchmark change: every step has its object, a thinned save too
    manifest = orjson.loads((thinned_run_contact(tmp_path, stride) / "trajectory.json")
                            .read_bytes())
    meta = manifest["step_meta"]
    assert isinstance(meta, list) and len(meta) == manifest["m"] == 50
    assert all(isinstance(s, dict) and sorted(s) == ["iters", "k", "kkt_residual", "n_active"]
               for s in meta)
    assert [s["k"] for s in meta] == list(range(1, 51))
    assert all(type(s["iters"]) is int and type(s["n_active"]) is int
               and type(s["kkt_residual"]) is float for s in meta)

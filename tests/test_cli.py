import csv
import json

import pytest

from irrev import cli

# the weight switches on at t = 1/2, a time stamp, so the step data and the
# data at the stamps agree; the state then drops where z > 0 and sits on its
# obstacle where z < 0
RUN = {
    "problem": {
        "grid": {"n": 41},
        "lambda": 1.0,
        "gamma": {"preset": "tanh", "amplitude": 0.5},
        "sigma": {"preset": "step_t", "before": 0.0, "after": 1.0, "t_switch": 0.5},
        "f": {"preset": "constant", "space": {"preset": "sine", "amplitude": 1.0, "mode": 2}},
        "z0": {"preset": "equilibrium"},
        "T": 1.0, "m": 10},
}

LONGTIME = {
    "problem": {
        "grid": {"n": 21},
        "lambda": 1.0,
        "gamma": {"preset": "tanh", "amplitude": 0.5},
        "sigma": {"preset": "constant", "value": 1.0},
        "f": {"preset": "exp_relax", "limit": {"preset": "constant", "value": 0.5},
              "bump": {"preset": "bump", "amplitude": 1.0}},
        "z0": {"preset": "equilibrium"}},
    "longtime": {"horizon": 40.0, "m_per_unit": 4},
}


def fracture_config(scale, n=41, m=5):
    return {"fracture": {"eps": 0.1, "delta_eps": 1e-3, "n": n, "m": m,
                         "load": {"preset": "ramp_sine", "scale": scale}}}


def run_cli(tmp_path, command, cfg, name="out"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    return cli.main([command, str(path), "--output-dir", str(out)]), out


def test_run_writes_trajectory_and_verdicts(tmp_path, monkeypatch):
    monkeypatch.delenv("IRREV_VERBOSE", raising=False)
    rc, out = run_cli(tmp_path, "run", RUN)
    assert rc == cli.EXIT_OK

    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "z", "eta"]
    assert len(rows) == 1 + 11 * 41

    verdicts = json.loads((out / "verdicts.json").read_text())
    assert [v["name"] for v in verdicts] == \
        ["irreversibility", "lewy_stampacchia", "energy_balance", "unilateral_minimality"]
    assert all(v["passed"] for v in verdicts)

    meta = json.loads((out / "trajectory.json").read_text())["step_meta"]
    assert [s["k"] for s in meta] == list(range(1, 11))
    # the contact set forms at the switch, from the empty set of the step
    # before; every other step starts from its final contact set
    switch = meta[5]
    assert switch["iters"] > 2 and switch["n_active"] > 0
    assert all(s["iters"] == 1 for s in meta[:5] + meta[6:])


def test_run_certifies_minimality_where_the_source_falls(tmp_path, capsys):
    # the source rises on (0, 1/2) and falls on (1/2, 1), where the data at a
    # stamp differ from the averaged data the step minimized
    cfg = {
        "problem": {
            "grid": {"n": 301, "a": 0.0, "b": 1.0},
            "lambda": 1.0,
            "gamma": {"preset": "tanh", "amplitude": 1.0},
            "sigma": {"preset": "constant", "value": 1.0},
            "f": {"preset": "linear_t", "base": {"preset": "constant", "value": 1.0},
                  "rate": {"preset": "sine", "amplitude": 1.0, "mode": 2}},
            "z0": {"preset": "equilibrium"},
            "T": 1.0, "m": 50, "quad_pts": 8},
        "output": {"stride": 1},
        "seed": 0,
    }
    rc, out = run_cli(tmp_path, "run", cfg)
    assert rc == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    [v] = [v for v in json.loads((out / "verdicts.json").read_text())
           if v["name"] == "unilateral_minimality"]
    assert v["max_violation"] <= 1e-10 and v["tolerance"] == 1e-10
    assert v["note"] == "averaged-data certificate over 50 steps"


@pytest.mark.parametrize("command,cfg,steps", [
    ("run", RUN, 10),
    ("longtime", LONGTIME, 160),
    ("fracture", fracture_config(0.005), 5),
])
def test_verbose_prints_one_line_per_step(tmp_path, monkeypatch, capsys, command, cfg, steps):
    monkeypatch.delenv("IRREV_VERBOSE", raising=False)
    assert run_cli(tmp_path, command, cfg, "quiet")[0] == cli.EXIT_OK
    quiet = capsys.readouterr().out

    monkeypatch.setenv("IRREV_VERBOSE", "1")
    assert run_cli(tmp_path, command, cfg, "verbose")[0] == cli.EXIT_OK
    verbose = capsys.readouterr().out.splitlines(keepends=True)

    step_lines = [ln for ln in verbose if ln.startswith("step ")]
    assert len(step_lines) == steps
    assert step_lines[0].startswith("step 1: sweeps=")
    assert " n_active=" in step_lines[-1] and " kkt_residual=" in step_lines[-1]
    assert "".join(ln for ln in verbose if not ln.startswith("step ")) == quiet
    assert "step " not in quiet


def test_verbose_prints_partial_trajectory_on_solver_failure(tmp_path, monkeypatch, capsys):
    # the source drops (free motion, one sweep per step), then rises past the
    # state, which needs a second sweep to find the contact set
    n = 21
    cfg = json.loads(json.dumps(RUN))
    cfg["problem"]["grid"]["n"] = n
    cfg["problem"]["sigma"] = {"preset": "constant", "value": 1.0}
    cfg["problem"]["f"] = {"preset": "tabulated", "times": [0.0, 0.5, 1.0],
                           "values": [[1.0] * n, [0.5] * n, [2.0] * n]}
    cfg["problem"]["m"] = 4
    cfg["solver"] = {"max_outer": 1}
    monkeypatch.setenv("IRREV_VERBOSE", "1")
    rc, out = run_cli(tmp_path, "run", cfg)
    assert rc == cli.EXIT_SOLVER_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["step 1", "step 2", "solver failure"]
    assert (out / "trajectory.partial").exists()


def test_refused_fracture_prints_one_fail_line(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "fracture", fracture_config(0.2, n=101))
    assert rc == cli.EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL  coercivity_margin: ")
    assert "FAIL" not in lines[0][len("FAIL"):]

"""Fresh-interpreter side of the benchmark.

``worker.py setup SPEC`` times importing ``irrev`` with numpy and scipy and
building the problem from the workload's config, from the first statement of
a new interpreter, and prints ``{"setup_s": ...}``.

``worker.py run JOB`` imports ``irrev``, runs the workload's CLI command
once to warm up, then repeats it in-process for the job's time budget, each
untraced repetition followed by one run of the reference kernel (and, with
tracing, by one traced repetition).  It writes per-repetition times, exit
codes, FAIL verdicts, output hashes and the peak resident memory of this
process to the job's result file.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup_probe(spec_path: str) -> None:
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    from irrev import cli

    spec = json.loads(Path(spec_path).read_text())
    cfg = cli.load_config(spec["config"])
    if spec["command"] == "fracture":
        from irrev import presets
        from irrev.fracture import ATParams, build_problem
        from irrev.grid import BC, Grid

        block = cfg["fracture"]
        grid = Grid(a=-1.0, b=1.0, n=int(block["n"]), bc_left=BC.DIRICHLET,
                    bc_right=BC.DIRICHLET)
        params = ATParams(eps=float(block["eps"]), delta=float(block["delta_eps"]),
                          load=presets.fracture_load(block["load"]))
        build_problem(grid, params, None, float(block["T"]))
    else:
        cli.build_problem(cfg)
        cli.build_solver_options(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def fail_verdicts(stdout: str) -> list[str]:
    """Names of the verdicts a command printed as ``FAIL  name: ...``."""
    return [ln.split()[1].rstrip(":") for ln in stdout.splitlines()
            if ln.startswith("FAIL  ")]


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space, in MB.

    ``ru_maxrss`` would not do: it keeps the parent's resident set at the
    fork across ``exec``, so it reads the benchmark driver's imports.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_job(job_path: str) -> None:
    import irrev.evolution
    import numpy as np
    import reference
    from irrev import cli

    job = json.loads(Path(job_path).read_text())
    argv = job["argv"]
    out_dir = Path(job["out_dir"])
    seconds = float(job["seconds"])
    sink = io.StringIO()
    if job["trace"]:
        import spans

        recorder = spans.Recorder()

    def once() -> tuple[float, int, str]:
        sink.seek(0)
        sink.truncate()
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        return time.perf_counter() - start, code, sink.getvalue()

    def record(wall, code, text, layers=None) -> dict:
        return {"wall": wall, "code": code, "fails": fail_verdicts(text),
                "digest": output_digest(out_dir), "layers": layers}

    # the warm-up also captures the trajectory the command hands to its
    # writer, so that the round trip can be compared with the stored arrays
    write = cli.save_trajectory
    captured = []

    def capture(traj, *args, **kwargs):
        captured.append(traj)
        return write(traj, *args, **kwargs)

    cli.save_trajectory = capture
    try:
        warm = record(*once())
    finally:
        cli.save_trajectory = write
    traj = captured.pop()
    np.savez(job["stored"], times=traj.times, states=traj.states,
             multipliers=traj.multipliers, energies=traj.energies)
    del traj
    result = {"warmup": {k: warm[k] for k in ("wall", "code", "fails", "digest")}}
    reference.kernel()
    result["ref0"] = reference.timed()
    end = time.perf_counter() + seconds
    plain, traced = [], []
    while not plain or time.perf_counter() < end:
        plain.append(record(*once()))
        plain[-1]["ref"] = reference.timed()
        if job["trace"]:
            # alternate, so that drift in the machine's speed hits both sides
            recorder.reset()
            restore = spans.install(recorder)
            try:
                rep = once()
                irrev.evolution.load_trajectory(out_dir)
            finally:
                restore()
            traced.append(record(*rep, summarize(recorder)))

    if job["trace"]:
        result["traced"] = [dict(r["layers"], wall=r["wall"]) for r in traced]
    reps = plain + traced
    result["peak_rss_mb"] = peak_rss_mb()
    result["reps"] = [{k: r[k] for k in ("wall", "code", "fails", "digest", "ref")
                       if k in r} for r in reps]
    if job.get("extra_argv"):
        extra = io.StringIO()
        with contextlib.redirect_stdout(extra):
            code = cli.main(job["extra_argv"])
        result["extra"] = {"code": code, "fails": fail_verdicts(extra.getvalue())}
    Path(job["result"]).write_text(json.dumps(result))


def summarize(rec) -> dict:
    """Per-layer numbers of one traced repetition."""
    tot, own, calls = rec.total, rec.self_time, rec.calls
    cli_self = sum(v for k, v in own.items()
                   if k.startswith("cli.") and k != "cli.build_problem")
    return {
        "cli.build_problem_s": tot["cli.build_problem"] or tot["fracture.build_problem"],
        "cli.other_s": cli_self,
        "model.validate_s": tot["model.validate"],
        "model.discretize_time_s": tot["model.discretize_time"],
        "model.profile_evals": calls["model.TimeProfile.__call__"]
        + calls["model.TimeProfile.dt"],
        "obstacle.solve_step_s": tot["obstacle.solve_step"],
        "obstacle.solve_unconstrained_s": tot["obstacle.solve_unconstrained"],
        "evolution.run_evolution_s": tot["evolution.run_evolution"],
        "evolution.driver_self_s": own["evolution.run_evolution"],
        "evolution.save_trajectory_s": tot["evolution.save_trajectory"],
        "evolution.load_trajectory_s": tot["evolution.load_trajectory"],
        "diagnostics.minimality_s": tot["diagnostics.check_unilateral_minimality"],
        "diagnostics.balance_residual_s": tot["diagnostics.balance_residual"],
        "diagnostics.step_checks_s": tot["diagnostics.check_irreversibility"]
        + tot["diagnostics.check_lewy_stampacchia"]
        + tot["diagnostics.check_dissipation_sign"],
        "stationary.solve_stationary_s": tot["stationary.solve_stationary"],
        "stationary.sweeps": rec.stationary_sweeps,
        "fracture.build_problem_s": tot["fracture.build_problem"],
        "fracture.recover_displacement_s": tot["fracture.recover_displacement"],
        "fracture.at_energy_s": tot["fracture.at_energy"],
        "grid.field_constructions": calls["grid.Field.__post_init__"],
    }


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup_probe(arg)
    elif mode == "run":
        run_job(arg)
    else:
        sys.exit(f"unknown mode {mode!r}")

"""Outside checks on a workload's output files.

Each check recomputes what the program claims with this package's own
operator and data (see :mod:`workloads`) and reports a worst violation
against a tolerance derived from the quantity checked.  Nothing here calls
``irrev`` except the round trip, whose subject is ``irrev``'s own reader and
writer; the arrays it compares against are parsed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scipy.integrate import cumulative_trapezoid

from workloads import TOL_KKT, Scheme, Workload

EPS = np.finfo(float).eps
#: sampled competitors per step in the minimality check
COMPETITORS = 24
#: the CLI's default tolerance on the final gap of ``irrev longtime``
FINAL_GAP_TOL = 1e-6


@dataclass
class Check:
    name: str
    ratio: float          # worst measured value over its tolerance
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.ratio <= 1.0)


def worst_ratio(value, tol) -> float:
    """Largest ``value / tol``; NaN counts as a failure."""
    r = np.asarray(value, float) / tol
    return float("inf") if np.isnan(r).any() else float(r.max(initial=0.0))


# --------------------------------------------------------------------------
# reading the outputs
# --------------------------------------------------------------------------

def read_trajectory(out: Path, n: int):
    """Parse ``trajectory.csv``: times (K,), states (K, n), multipliers (K-1, n)."""
    raw = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[0] % n:
        raise ValueError("trajectory.csv rows are not whole stamps")
    raw = raw.reshape(-1, n, 4)
    return raw[:, 0, 0], raw[:, :, 2], raw[1:, :, 3], raw[0, :, 1]


# --------------------------------------------------------------------------
# the step operator
# --------------------------------------------------------------------------

def neg_lap(z: np.ndarray, h: float) -> np.ndarray:
    """``(2 z_i - z_{i-1} - z_{i+1}) / h^2`` with zero ghost values, along the last axis."""
    ext = np.zeros(z.shape[:-1] + (z.shape[-1] + 2,))
    ext[..., 1:-1] = z
    return (2.0 * z - ext[..., :-2] - ext[..., 2:]) / h ** 2


def jumps(z: np.ndarray, h: float) -> np.ndarray:
    ext = np.zeros(z.shape[:-1] + (z.shape[-1] + 2,))
    ext[..., 1:-1] = z
    return np.diff(ext, axis=-1) / h


def multiplier(s: Scheme, z, f, w):
    """``eta = f - (-z'' + lam z + w fn(z))`` and the size of its terms."""
    lap = neg_lap(z, s.h)
    react = w * s.fn(z)
    eta = f - (lap + s.lam * z + react)
    ext = np.zeros(z.shape[:-1] + (z.shape[-1] + 2,))
    ext[..., 1:-1] = np.abs(z)
    size = ((2.0 * ext[..., 1:-1] + ext[..., :-2] + ext[..., 2:]) / s.h ** 2
            + s.lam * np.abs(z) + np.abs(react) + np.abs(f))
    return eta, size


def kkt_check(name: str, s: Scheme, z, psi, f, w, eta_file=None) -> list[Check]:
    """KKT conditions of ``min E(u) over u <= psi`` at ``z``, row by row.

    The tolerance on the multiplier is the solver's KKT tolerance plus the
    rounding of one evaluation of the terms (64 ulps of their size).
    """
    eta, size = multiplier(s, z, f, w)
    tol = TOL_KKT + 64.0 * EPS * size
    slack = psi - z
    out = [
        Check(f"{name}.below_obstacle", worst_ratio(-slack, TOL_KKT)),
        Check(f"{name}.eta_nonnegative", worst_ratio(-eta, tol)),
        Check(f"{name}.complementarity", worst_ratio(np.abs(np.minimum(eta, slack)), tol)),
    ]
    if eta_file is not None:
        out.append(Check(f"{name}.eta_matches_output",
                         worst_ratio(np.abs(eta_file - eta), tol)))
    return out


# --------------------------------------------------------------------------
# minimality against sampled competitors
# --------------------------------------------------------------------------

def competitors(rng: np.random.Generator, x: np.ndarray, active: np.ndarray,
                top: float) -> np.ndarray:
    """Nonnegative perturbations ``p`` (``COMPETITORS``, n); the competitor is ``z - p``.

    Families: single-node spikes, Gaussian bumps, constant shifts, smooth
    random shapes, and spikes on the contact set.  Amplitudes are
    log-uniform over nine decades below ``top``, so both the first-order
    term (the multiplier) and the curvature get probed.
    """
    n = x.size
    span = x[-1] - x[0]
    p = np.zeros((COMPETITORS, n))
    amp = top * 10.0 ** rng.uniform(-9.0, 0.0, COMPETITORS)
    for j in range(COMPETITORS):
        kind = j % 5
        if kind == 0:
            p[j, rng.integers(n)] = 1.0
        elif kind == 1:
            c = rng.uniform(x[0], x[-1])
            p[j] = np.exp(-((x - c) / (span * rng.choice((0.02, 0.1, 0.3)))) ** 2)
        elif kind == 2:
            p[j] = 1.0
        elif kind == 3:
            modes = np.arange(1, 4)[:, None]
            p[j] = np.abs((rng.normal(size=(3, 1))
                           * np.sin(modes * np.pi * (x - x[0]) / span)).sum(axis=0))
        else:
            idx = np.flatnonzero(active)
            p[j, idx[rng.integers(idx.size)] if idx.size else rng.integers(n)] = 1.0
    return amp[:, None] * p


def energy_gap(s: Scheme, z, p, f, w):
    """``E(z - p) - E(z)`` of the step energy, and the size of its terms.

    Expanded so that no large energy is subtracted from another:
    ``h * sum( -D+z D+p + |D+p|^2/2 + lam(-z p + p^2/2)
    + w (G(z-p) - G(z)) + f p )``.
    """
    h = s.h
    dz, dp = jumps(z, h), jumps(p, h)
    prim_z = s.primitive(z)
    prim_v = s.primitive(z - p)
    terms = (-(dz * dp).sum(-1) + 0.5 * (dp * dp).sum(-1)
             + s.lam * (-(z * p) + 0.5 * p * p).sum(-1)
             + (w * (prim_v - prim_z)).sum(-1) + (f * p).sum(-1))
    size = (np.abs(dz * dp).sum(-1) + (dp * dp).sum(-1)
            + s.lam * (np.abs(z * p) + p * p).sum(-1)
            + (np.abs(w) * (s.primitive_size(z - p) + s.primitive_size(z))).sum(-1)
            + np.abs(f * p).sum(-1))
    return h * terms, h * size


def minimality_check(name: str, s: Scheme, z, psi, f, w, rng) -> Check:
    """``E_k(z_k) <= E_k(z_k - p)`` for sampled ``p >= 0`` under the step data.

    The tolerance per competitor is the first-order effect of the KKT
    tolerance, ``h * sum(tol_i * p_i)``, plus 64 ulps of the summed terms.
    """
    _, size = multiplier(s, z, f, w)
    tol_i = TOL_KKT + 64.0 * EPS * size
    active = np.abs(psi - z) <= TOL_KKT
    top = 1.0 + float(np.abs(z).max())
    p = competitors(rng, s.x, active, top)
    gap, gap_size = energy_gap(s, z, p, f, w)
    tol = s.h * (p * tol_i).sum(-1) + 64.0 * EPS * gap_size
    return Check(name, worst_ratio(-gap, tol))


def step_checks(s: Scheme, states, mults, seed: int) -> list[Check]:
    """KKT and minimality of every step, under this package's averaged data."""
    f_avg, w_avg = s.averages()
    if states.shape[0] != s.m + 1:
        raise ValueError(f"expected {s.m + 1} stamps, found {states.shape[0]}")
    checks = kkt_check("steps.kkt", s, states[1:], states[:-1], f_avg, w_avg, mults)
    worst = Check("steps.minimality", -np.inf)
    for k in range(1, s.m + 1):
        rng = np.random.default_rng([seed, k])
        c = minimality_check("steps.minimality", s, states[k], states[k - 1],
                             f_avg[k - 1], w_avg[k - 1], rng)
        if c.ratio > worst.ratio:
            worst = Check(c.name, c.ratio, f"worst at step {k}")
    return checks + [worst]


# --------------------------------------------------------------------------
# workload-specific checks
# --------------------------------------------------------------------------

def h1_norm(e: np.ndarray, h: float) -> np.ndarray:
    d = jumps(e, h)
    return np.sqrt(h * ((d * d).sum(-1) + (e * e).sum(-1)))


def longtime_checks(wl: Workload, out: Path, stat_out: Path, states) -> list[Check]:
    """The stationary limit: its KKT system, below every state, and the gaps.

    The limit solves the step problem with the initial state as obstacle and
    the settled source; ``gap.csv`` must hold the H1 distance of each stored
    state to it, which ties the ``longtime`` run to that same limit.
    """
    s = wl.scheme
    z_inf = np.loadtxt(stat_out / "z_inf.csv", delimiter=",", skiprows=1, ndmin=2)
    zi, eta_file = z_inf[:, 1], z_inf[:, 2]
    f_inf = np.full(s.n, wl.limit)
    w_inf = s.weight(s.x, np.zeros(()))
    checks = kkt_check("limit.kkt", s, zi, states[0], f_inf, w_inf, eta_file)
    checks.append(Check("limit.below_states", worst_ratio(zi[None, :] - states, TOL_KKT)))
    gaps = np.loadtxt(out / "gap.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    mine = h1_norm(states - zi[None, :], s.h)
    checks.append(Check("limit.gap_csv", worst_ratio(np.abs(gaps - mine), 1e-12 * (1.0 + mine))))
    checks.append(Check("limit.final_gap", worst_ratio(mine[-1], FINAL_GAP_TOL),
                        f"final H1 gap {mine[-1]:.3g}"))
    return checks


def fracture_checks(wl: Workload, out: Path, times, states) -> list[Check]:
    """u_x against the closed-form cumulative load of ``ramp_sine``.

    ``H(x,t) = -scale * rho(t) * (1 + cos(pi x)) / pi`` exactly; the program
    integrates the load by the trapezoid rule, whose error after ``j`` panels
    is at most ``j h^3/12 * max|load''| = (x+1) h^2 pi^2/12 * scale * rho``.
    Then ``u_x = -H/(z^2 + delta)`` carries that error divided by
    ``z^2 + delta``.  ``u`` must be the trapezoid integral of ``u_x``.
    """
    s = wl.scheme
    scale, ramp, delta = wl.load
    disp = np.loadtxt(out / "displacement.csv", delimiter=",", skiprows=1, ndmin=2)
    disp = disp.reshape(times.size, s.n + 2, 4)
    if not np.array_equal(disp[:, 0, 0], times):
        return [Check("fracture.stamps", np.inf, "displacement stamps differ")]
    x = disp[0, :, 1]
    rho = np.minimum(times / ramp, 1.0)[:, None]
    z_full = np.zeros((times.size, s.n + 2))
    z_full[:, 1:-1] = states
    denom = z_full ** 2 + delta
    H = -scale * rho * (1.0 + np.cos(np.pi * x))[None, :] / np.pi
    ux = disp[:, :, 3]
    bound = (x + 1.0)[None, :] * s.h ** 2 * np.pi ** 2 / 12.0 * scale * rho
    err = np.abs(ux + H / denom)
    allow = np.maximum((bound + 64.0 * EPS * np.abs(H)) / denom + 64.0 * EPS * np.abs(ux),
                       np.finfo(float).tiny)
    u_mine = cumulative_trapezoid(ux, x, axis=-1, initial=0)
    u = disp[:, :, 2]
    checks = [
        Check("fracture.ux_closed_form", worst_ratio(err, allow)),
        Check("fracture.u_integrates_ux",
              worst_ratio(np.abs(u - u_mine), 1e-12 * np.abs(u_mine) + 1e-300)),
    ]
    energies = np.loadtxt(out / "at_energy.csv", delimiter=",", skiprows=1, ndmin=2)
    checks.append(Check("fracture.at_energy_finite",
                        0.0 if energies.shape[0] == times.size
                        and np.all(np.isfinite(energies)) else np.inf))
    return checks


def round_trip(out: Path, scratch: Path, stored: Path, times, states, mults) -> Check:
    """``load_trajectory`` -> ``save_trajectory`` -> ``load_trajectory``.

    ``stored`` holds the arrays the command handed to its writer.  The file
    as parsed here, the first load and the load of a second save must all
    reproduce them bit for bit, and the second save must write the same
    bytes as the first.
    """
    from irrev import load_trajectory, save_trajectory

    ref = np.load(stored)
    first = load_trajectory(out)
    save_trajectory(first, scratch, stride=1)
    second = load_trajectory(scratch)
    parsed = {"times": times, "states": states, "multipliers": mults}
    bad = []
    for label, arrays in (("csv", parsed), ("first load", vars(first)),
                          ("second load", vars(second))):
        for field in ("times", "states", "multipliers", "energies"):
            if field not in arrays:
                continue
            got, want = arrays[field], ref[field]
            if got.shape != want.shape or got.tobytes() != want.tobytes():
                bad.append(f"{label}.{field}")
    for name in ("trajectory.csv", "trajectory.json"):
        if (out / name).read_bytes() != (scratch / name).read_bytes():
            bad.append(name)
    return Check("trajectory.round_trip", np.inf if bad else 0.0, ", ".join(bad))


def outcome_check(ops: list[dict], known_fault) -> Check:
    """Every operation exits 0 and prints no FAIL verdict, or exits 1 and
    prints exactly the FAIL verdicts of the workload's known fault."""
    allowed = [(0, [])] + ([(1, known_fault)] if known_fault else [])
    bad = sorted({f"exit {op['code']} with FAIL {op['fails']}" for op in ops
                  if (op["code"], op["fails"]) not in allowed})
    return Check("operations.outcomes", np.inf if bad else 0.0, "; ".join(bad))


def run_all(wl: Workload, out: Path, stat_out: Path | None, scratch: Path,
            stored: Path, seed: int) -> list[Check]:
    s = wl.scheme
    times, states, mults, x = read_trajectory(out, s.n)
    checks = [Check("grid.nodes", worst_ratio(np.abs(x - s.x), 1e-12))]
    checks += step_checks(s, states, mults, seed)
    if wl.command == "longtime":
        checks += longtime_checks(wl, out, stat_out, states)
    if wl.command == "fracture":
        checks += fracture_checks(wl, out, times, states)
    checks.append(round_trip(out, scratch, stored, times, states, mults))
    manifest = json.loads((out / "trajectory.json").read_text())
    checks.append(Check("trajectory.json_times",
                        0.0 if np.array_equal(np.asarray(manifest["times"]), times)
                        else np.inf))
    return checks

"""Experiment harness: seeded invariant suites, sweeps and runs.

Every command reads an optional JSON config (schema 1), applies command-line
overrides, and writes CSV data plus a JSON summary into the output
directory. Outputs are deterministic: equal configs give byte-identical
files (fixed seeds, fixed loop order, 17-digit reals, sorted JSON keys, no
timestamps). Exit codes: 0 success, 1 invariant or experiment failure,
2 config error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import state as state_mod
from .torus import build_spec, random_field
from .state import (make_potential, project_tangent, green_solve, ma_cross,
                    hess_star, c_divergence, PositivityViolation, MeanNotZero,
                    NoConvergence)
from .metrics import MetricKind, DegeneratePlane
from .curvature import sectional, commutator_fd, dirichlet_bound
from .dynamics import (integrate_geodesic, geodesic_residual, path_energy,
                       path_length, pseudo_calabi_flow)
from .fieldio import write_csv, write_json

__all__ = ["ConfigError", "load_config", "cmd_check", "cmd_curvature",
           "cmd_geodesic", "cmd_flow", "cmd_energy", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# exceptions the library raises on a state or plane it cannot handle
LIBRARY_ERRORS = (PositivityViolation, MeanNotZero, NoConvergence, DegeneratePlane)

KIND_NAMES = {"Dirichlet": MetricKind.DIRICHLET,
              "Mabuchi": MetricKind.MABUCHI,
              "Calabi": MetricKind.CALABI}

DEFAULT_TOLERANCES = {
    "laplacian_self_adjoint": 1e-10,
    "green_roundtrip": 1e-8,
    "source_mean_zero": 1e-9,
    "ctensor_divergence_free": 1e-9,
    "calabi_constant": 0.0,
    "mabuchi_nonpositive": 1e-12,
    "dirichlet_dim1_flatness": 1e-7,
    "dirichlet_bound_dominates": 0.0,
}

DEFAULTS = {
    "schema": 1,
    "n": 1,
    "grid": 16,
    "seed": 1,
    "planes": 8,
    "kinds": ["Dirichlet", "Mabuchi", "Calabi"],
    "amp_phi": 0.004,
    "amp_psi": 0.02,
    "kmax": None,
    "decay": 4.0,
    "T": 0.05,
    "dt": 0.005,
    "flow_dt": 0.0005,
    "store_every": 1,
    "halvings": 0,
    "nu_steps": 12,
    "oracle": False,
    "oracle_h": 0.01,
    "tolerances": {},
    "out": "kgeo-out",
}


class ConfigError(ValueError):
    """The run configuration is malformed (exit code 2)."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def load_config(path=None, overrides=None):
    """Merge defaults, an optional JSON file and CLI overrides; validate."""
    cfg = {k: (dict(v) if isinstance(v, dict) else
               list(v) if isinstance(v, list) else v)
           for k, v in DEFAULTS.items()}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
        _require(isinstance(data, dict), "config root must be a JSON object")
        for key, value in data.items():
            _require(key in DEFAULTS, "unknown config key %r" % (key,))
            cfg[key] = value
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value

    _require(cfg["schema"] == 1, "unsupported schema %r" % (cfg["schema"],))
    _require(cfg["n"] in (1, 2), "n must be 1 or 2")
    _require(cfg["grid"] in (16, 32, 64, 128), "grid must be a power of two in 16..128")
    _require(isinstance(cfg["seed"], int) and 0 <= cfg["seed"] < 2 ** 64,
             "seed must be an unsigned integer")
    _require(isinstance(cfg["planes"], int) and 1 <= cfg["planes"] <= 10000,
             "planes must be a positive integer")
    _require(isinstance(cfg["kinds"], list) and cfg["kinds"]
             and all(k in KIND_NAMES for k in cfg["kinds"]),
             "kinds must be a nonempty list drawn from %s" % sorted(KIND_NAMES))
    for key in ("amp_phi", "amp_psi", "decay", "T", "dt", "flow_dt", "oracle_h"):
        value = cfg[key]
        _require(isinstance(value, (int, float)) and np.isfinite(value),
                 "%s must be a finite number" % key)
    _require(cfg["amp_phi"] >= 0.0 and cfg["amp_psi"] >= 0.0, "amplitudes must be >= 0")
    _require(cfg["dt"] > 0.0 and cfg["T"] >= cfg["dt"], "need 0 < dt <= T")
    _require(0.0 < cfg["flow_dt"] <= cfg["T"], "need 0 < flow_dt <= T")
    _require(cfg["oracle_h"] > 0.0, "oracle_h must be positive")
    _require(cfg["kmax"] is None or (isinstance(cfg["kmax"], int) and cfg["kmax"] >= 1),
             "kmax must be null or a positive integer")
    _require(isinstance(cfg["store_every"], int) and cfg["store_every"] >= 1,
             "store_every must be a positive integer")
    nsteps = int(round(cfg["T"] / cfg["dt"]))
    _require(cfg["store_every"] > nsteps or nsteps % cfg["store_every"] == 0,
             "store_every must divide round(T/dt) or exceed it")
    _require(isinstance(cfg["halvings"], int) and 0 <= cfg["halvings"] <= 4,
             "halvings must be an integer in 0..4")
    _require(isinstance(cfg["nu_steps"], int) and cfg["nu_steps"] >= 2,
             "nu_steps must be an integer >= 2")
    _require(isinstance(cfg["oracle"], bool), "oracle must be true or false")
    _require(isinstance(cfg["tolerances"], dict), "tolerances must be an object")
    for name, value in cfg["tolerances"].items():
        _require(name in DEFAULT_TOLERANCES, "unknown tolerance %r" % (name,))
        _require(isinstance(value, (int, float)) and np.isfinite(value) and value >= 0.0,
                 "tolerance %r must be a finite number >= 0" % (name,))
    _require(isinstance(cfg["out"], str) and cfg["out"], "out must be a path")
    return cfg


def _tolerance(cfg, name):
    return float(cfg["tolerances"].get(name, DEFAULT_TOLERANCES[name]))


def _field(spec, seed, cfg, stream):
    # disjoint deterministic seed streams per field role
    return random_field(spec, seed + 10 ** 6 * stream,
                        decay=cfg["decay"], kmax=cfg["kmax"])


def _plane(spec, seed, cfg):
    pot = make_potential(spec, cfg["amp_phi"] * _field(spec, seed, cfg, 0))
    tv1 = project_tangent(pot, cfg["amp_psi"] * _field(spec, seed, cfg, 1))
    tv2 = project_tangent(pot, cfg["amp_psi"] * _field(spec, seed, cfg, 2))
    return pot, tv1, tv2


def _echo_config(cfg):
    return {k: cfg[k] for k in sorted(cfg)}


# ---------------------------------------------------------------- check ---

def cmd_check(cfg):
    """Cross-module invariant suite; JSON report, exit 0 iff all pass."""
    spec = build_spec(cfg["n"], cfg["grid"])
    seeds = [cfg["seed"] + i for i in range(min(cfg["planes"], 5))]
    checks = []

    def run(name, value):
        checks.append({"name": name, "value": float(value),
                       "tolerance": _tolerance(cfg, name),
                       "pass": bool(value <= _tolerance(cfg, name))})

    sa_worst = 0.0
    rt_worst = 0.0
    mz_worst = 0.0
    dv_worst = 0.0
    ca_worst = 0.0
    for seed in seeds:
        pot, tv1, tv2 = _plane(spec, seed, cfg)
        p, q = tv1.psi, tv2.psi
        # self-adjointness of the metric Laplacian in the e^u pairing;
        # resolved through the module attribute so a tampered operator is
        # caught (mutation testing hooks in here).
        lap = state_mod.laplacian
        lhs = pot.eu_mean(p * lap(pot, q))
        rhs = pot.eu_mean(q * lap(pot, p))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        sa_worst = max(sa_worst, abs(lhs - rhs) / scale)

        # round-trip on a generic in-range source (the cross term is
        # identically zero in dimension one, so it cannot serve here);
        # a solver breakdown counts as a failed check, not a crash
        try:
            target = lap(pot, q)
            target = target - pot.eu_mean(target)
            w = green_solve(pot, target)
            back = state_mod.laplacian(pot, w)
            rt_worst = max(rt_worst, float(np.max(np.abs(back - target)))
                           / max(float(np.max(np.abs(target))), 1e-30))
        except NoConvergence:
            rt_worst = float("inf")

        # the cross term's e^u-mean vanishes identically; compare against
        # the size of its two cancelling constituents, not of the result
        v = ma_cross(pot, p, q)
        scale = float(np.sqrt(np.mean(hess_star(pot, p, q) ** 2)))
        mz_worst = max(mz_worst, abs(pot.eu_mean(v)) / max(scale, 1e-30))

        div = c_divergence(pot, p)
        dv_worst = max(dv_worst, div / max(float(np.max(np.abs(p))), 1e-30))

        ca_worst = max(ca_worst, abs(
            sectional(MetricKind.CALABI, pot, tv1, tv2).value - 0.25))

    run("laplacian_self_adjoint", sa_worst)
    run("green_roundtrip", rt_worst)
    run("source_mean_zero", mz_worst)
    run("ctensor_divergence_free", dv_worst)
    run("calabi_constant", ca_worst)

    km_worst = -np.inf
    for seed in seeds:
        pot, tv1, tv2 = _plane(spec, seed, cfg)
        km_worst = max(km_worst,
                       sectional(MetricKind.MABUCHI, pot, tv1, tv2).value)
    run("mabuchi_nonpositive", km_worst)

    if cfg["n"] == 1:
        kd_worst = 0.0
        try:
            for seed in seeds:
                pot, tv1, tv2 = _plane(spec, seed, cfg)
                kd_worst = max(kd_worst, abs(
                    sectional(MetricKind.DIRICHLET, pot, tv1, tv2).value))
        except NoConvergence:
            kd_worst = float("inf")
        run("dirichlet_dim1_flatness", kd_worst)
    else:
        gap_worst = -np.inf
        try:
            for seed in seeds:
                pot, tv1, tv2 = _plane(spec, seed, cfg)
                report = sectional(MetricKind.DIRICHLET, pot, tv1, tv2)
                bound = dirichlet_bound(pot, report.plane[0])
                gap_worst = max(gap_worst, abs(report.value) - bound)
        except NoConvergence:
            gap_worst = float("inf")
        run("dirichlet_bound_dominates", gap_worst)

    ok = all(c["pass"] for c in checks)
    report = {"schema": 1, "config": _echo_config(cfg), "checks": checks,
              "pass": ok}
    os.makedirs(cfg["out"], exist_ok=True)
    write_json(os.path.join(cfg["out"], "check_report.json"), report)
    for c in checks:
        print("%s: %s (value %.3e vs tolerance %.3e)"
              % (c["name"], "pass" if c["pass"] else "FAIL",
                 c["value"], c["tolerance"]))
    return EXIT_OK if ok else EXIT_FAIL


# ------------------------------------------------------------ curvature ---

def _curvature_cells(cfg, kind, pot, tv1, tv2):
    # value, bound, residual, oracle, delta and error cells of one row
    report = sectional(kind, pot, tv1, tv2)
    diag = report.diagnostics
    residual = max((diag[k] for k in diag if k.startswith("residual_")),
                   default=0.0)
    bound = (dirichlet_bound(pot, report.plane[0])
             if kind is MetricKind.DIRICHLET else "")
    if kind is MetricKind.CALABI:
        oracle = 0.25
    elif kind is MetricKind.DIRICHLET and cfg["n"] == 1:
        oracle = 0.0
    elif kind is MetricKind.DIRICHLET and cfg["oracle"]:
        oracle = commutator_fd(pot, report.plane[0], report.plane[1],
                               cfg["oracle_h"])
    else:
        oracle = ""
    delta = abs(report.value - oracle) if oracle != "" else ""
    return [report.value, bound, residual, oracle, delta, ""]


def _error_cells(exc):
    return ["", "", "", "", "", "%s: %s" % (type(exc).__name__, exc)]


def cmd_curvature(cfg):
    """Seeded sectional-curvature sweep; one CSV row per (seed, kind)."""
    spec = build_spec(cfg["n"], cfg["grid"])
    rows = []
    failed = False
    for seed in range(cfg["seed"], cfg["seed"] + cfg["planes"]):
        bases = [[kind_name, cfg["n"], cfg["grid"], seed]
                 for kind_name in cfg["kinds"]]
        try:
            pot, tv1, tv2 = _plane(spec, seed, cfg)
        except LIBRARY_ERRORS as exc:
            failed = True
            rows.extend(base + _error_cells(exc) for base in bases)
            continue
        for base in bases:
            try:
                cells = _curvature_cells(cfg, KIND_NAMES[base[0]], pot, tv1, tv2)
            except LIBRARY_ERRORS as exc:
                failed = True
                cells = _error_cells(exc)
            rows.append(base + cells)
    os.makedirs(cfg["out"], exist_ok=True)
    write_csv(os.path.join(cfg["out"], "curvature.csv"),
              ["kind", "n", "N", "seed", "value", "bound", "residual",
               "oracle", "delta", "error"], rows)
    write_json(os.path.join(cfg["out"], "curvature_summary.json"),
               {"schema": 1, "config": _echo_config(cfg),
                "rows": len(rows), "errors": int(failed)})
    return EXIT_FAIL if failed else EXIT_OK


# ------------------------------------------------------------- geodesic ---

def _run_state(cfg):
    spec = build_spec(cfg["n"], cfg["grid"])
    pot = make_potential(spec, cfg["amp_phi"] * _field(spec, cfg["seed"], cfg, 0))
    tv = project_tangent(pot, cfg["amp_psi"] * _field(spec, cfg["seed"], cfg, 1))
    return spec, pot, tv


def cmd_geodesic(cfg):
    """Geodesic shoot; per-sample CSV, summary with drift and optional order."""
    spec, pot, tv = _run_state(cfg)
    os.makedirs(cfg["out"], exist_ok=True)
    summary = {"schema": 1, "config": _echo_config(cfg)}
    try:
        curve = integrate_geodesic(pot, tv, cfg["T"], cfg["dt"],
                                   store_every=cfg["store_every"])
        ends = []
        for level in range(1, cfg["halvings"] + 1):
            fine = integrate_geodesic(pot, tv, cfg["T"], cfg["dt"] / 2 ** level,
                                      store_every=10 ** 9)
            ends.append((fine.phis[-1], fine.psis[-1]))
    except PositivityViolation as exc:
        summary["error"] = str(exc)
        summary["exit_time"] = getattr(exc, "time", None)
        write_json(os.path.join(cfg["out"], "geodesic_summary.json"), summary)
        return EXIT_FAIL

    speeds = curve.meta["speeds"]
    drift = float(np.max(np.abs(speeds - speeds[0])) / abs(speeds[0])) \
        if speeds[0] != 0.0 else 0.0
    resid = geodesic_residual(MetricKind.DIRICHLET, curve) \
        if len(curve) >= 5 else np.empty(0)
    rows = []
    for i in range(len(curve)):
        r = resid[i - 2] if 2 <= i < 2 + resid.size else ""
        step = int(round(curve.times[i] / cfg["dt"]))
        rows.append([i, curve.times[i], float(speeds[step]), r])
    write_csv(os.path.join(cfg["out"], "geodesic.csv"),
              ["index", "time", "dirichlet_speed", "equation_residual"], rows)

    summary["speed_drift"] = drift
    summary["max_residual"] = float(np.max(resid)) if resid.size else None
    summary["energy"] = path_energy(MetricKind.DIRICHLET, curve)
    summary["length"] = path_length(MetricKind.DIRICHLET, curve)
    if cfg["halvings"] >= 2:
        chain = [(curve.phis[-1], curve.psis[-1])] + ends
        diffs = []
        for (pa, va), (pb, vb) in zip(chain[:-1], chain[1:]):
            diffs.append(max(float(np.max(np.abs(pa - pb))),
                             float(np.max(np.abs(va - vb)))))
        summary["order"] = float(np.log2(diffs[0] / diffs[1])) \
            if diffs[1] > 0.0 else None
        summary["halving_diffs"] = diffs
    write_json(os.path.join(cfg["out"], "geodesic_summary.json"), summary)
    return EXIT_OK


# ----------------------------------------------------------------- flow ---

def cmd_flow(cfg):
    """Downhill energy flow; per-sample CSV, monotonicity summary."""
    spec = build_spec(cfg["n"], cfg["grid"])
    pot = make_potential(spec, cfg["amp_phi"] * _field(spec, cfg["seed"], cfg, 0))
    os.makedirs(cfg["out"], exist_ok=True)
    summary = {"schema": 1, "config": _echo_config(cfg)}
    try:
        # flow_dt, not dt: the explicit gradient step is only stable below
        # 2/lap_max, far smaller than a comfortable geodesic step
        trace = pseudo_calabi_flow(pot, cfg["T"], cfg["flow_dt"],
                                   nu_steps=cfg["nu_steps"],
                                   sample_every=cfg["store_every"])
    except PositivityViolation as exc:
        summary["error"] = str(exc)
        summary["exit_time"] = getattr(exc, "time", None)
        write_json(os.path.join(cfg["out"], "flow_summary.json"), summary)
        return EXIT_FAIL
    rows = [[i, trace.times[i], trace.nu[i], trace.grad_norm[i]]
            for i in range(trace.times.size)]
    write_csv(os.path.join(cfg["out"], "flow.csv"),
              ["index", "time", "kenergy", "gradient_norm"], rows)
    increases = np.diff(trace.nu)
    summary["max_step_increase"] = float(np.max(increases)) if increases.size else 0.0
    summary["monotone"] = bool(np.all(increases <= 1e-10))
    summary["final_nu"] = float(trace.nu[-1])
    summary["gradient_shrink"] = (float(trace.grad_norm[0] / trace.grad_norm[-1])
                                  if trace.grad_norm[-1] > 0.0 else None)
    write_json(os.path.join(cfg["out"], "flow_summary.json"), summary)
    return EXIT_OK


# --------------------------------------------------------------- energy ---

def cmd_energy(cfg):
    """Path energy/length of the configured geodesic; Cauchy-Schwarz gap."""
    spec, pot, tv = _run_state(cfg)
    os.makedirs(cfg["out"], exist_ok=True)
    summary = {"schema": 1, "config": _echo_config(cfg)}
    try:
        curve = integrate_geodesic(pot, tv, cfg["T"], cfg["dt"],
                                   store_every=cfg["store_every"])
    except PositivityViolation as exc:
        summary["error"] = str(exc)
        summary["exit_time"] = getattr(exc, "time", None)
        write_json(os.path.join(cfg["out"], "energy_summary.json"), summary)
        return EXIT_FAIL
    speeds = curve.meta["speeds"]
    rows = [[i, curve.times[i],
             float(speeds[int(round(curve.times[i] / cfg["dt"]))])]
            for i in range(len(curve))]
    write_csv(os.path.join(cfg["out"], "energy.csv"),
              ["index", "time", "dirichlet_speed"], rows)
    energy = path_energy(MetricKind.DIRICHLET, curve)
    length = path_length(MetricKind.DIRICHLET, curve)
    elapsed = float(curve.times[-1] - curve.times[0])
    summary["energy"] = energy
    summary["length"] = length
    summary["cauchy_schwarz_gap"] = elapsed * energy - length ** 2
    write_json(os.path.join(cfg["out"], "energy_summary.json"), summary)
    return EXIT_OK


# ----------------------------------------------------------------- main ---

COMMANDS = {
    "check": cmd_check,
    "curvature": cmd_curvature,
    "geodesic": cmd_geodesic,
    "flow": cmd_flow,
    "energy": cmd_energy,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kgeo",
        description="Geometry experiments on spaces of Kahler potentials "
                    "over flat complex tori.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in sorted(COMMANDS.items()):
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="base seed")
        p.add_argument("--n", type=int, default=None, choices=(1, 2),
                       help="complex dimension")
        p.add_argument("--grid", type=int, default=None,
                       help="nodes per real axis (power of two)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "n": args.n,
                 "grid": args.grid}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except NoConvergence as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

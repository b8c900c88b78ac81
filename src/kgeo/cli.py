"""Experiment harness: seeded invariant suites, sweeps and runs.

Every command reads an optional JSON config (schema 1), applies command-line
overrides, and writes CSV data plus a JSON summary into the output
directory. Outputs are deterministic: equal configs give byte-identical
files (fixed seeds, fixed loop order, 17-digit reals, sorted JSON keys, no
timestamps). Exit codes: 0 success, 1 invariant or experiment failure,
2 config error. A library error (non-positive metric, unsolvable source,
solver breakdown, degenerate plane) that a command does not record itself
exits 1 after writing the command's summary with `error` and `exit_time`.
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
from .curvature import sectional, commutator_fd
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

# the JSON summary each command writes, also on a library error
SUMMARY_FILES = {
    "check": "check_report.json",
    "curvature": "curvature_summary.json",
    "geodesic": "geodesic_summary.json",
    "flow": "flow_summary.json",
    "energy": "energy_summary.json",
}

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


def _is_int(value):
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    # compared, not converted: JSON integers may exceed the float range
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


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

    _require(_is_int(cfg["schema"]) and cfg["schema"] == 1,
             "unsupported schema %r" % (cfg["schema"],))
    _require(_is_int(cfg["n"]) and cfg["n"] in (1, 2), "n must be 1 or 2")
    _require(_is_int(cfg["grid"]) and cfg["grid"] in (16, 32, 64, 128),
             "grid must be a power of two in 16..128")
    _require(_is_int(cfg["seed"]) and 0 <= cfg["seed"] < 2 ** 64,
             "seed must be an unsigned integer")
    _require(_is_int(cfg["planes"]) and 1 <= cfg["planes"] <= 10000,
             "planes must be a positive integer")
    _require(isinstance(cfg["kinds"], list) and cfg["kinds"]
             and all(k in KIND_NAMES for k in cfg["kinds"]),
             "kinds must be a nonempty list drawn from %s" % sorted(KIND_NAMES))
    for key in ("amp_phi", "amp_psi", "decay", "T", "dt", "flow_dt", "oracle_h"):
        _require(_is_real(cfg[key]), "%s must be a finite number" % key)
    _require(cfg["amp_phi"] >= 0.0 and cfg["amp_psi"] >= 0.0, "amplitudes must be >= 0")
    _require(cfg["dt"] > 0.0 and cfg["T"] >= cfg["dt"], "need 0 < dt <= T")
    _require(0.0 < cfg["flow_dt"] <= cfg["T"], "need 0 < flow_dt <= T")
    _require(cfg["oracle_h"] > 0.0, "oracle_h must be positive")
    _require(cfg["kmax"] is None or (_is_int(cfg["kmax"]) and cfg["kmax"] >= 1),
             "kmax must be null or a positive integer")
    _require(_is_int(cfg["store_every"]) and cfg["store_every"] >= 1,
             "store_every must be a positive integer")
    nsteps = int(round(cfg["T"] / cfg["dt"]))
    _require(cfg["store_every"] > nsteps or nsteps % cfg["store_every"] == 0,
             "store_every must divide round(T/dt) or exceed it")
    _require(_is_int(cfg["halvings"]) and 0 <= cfg["halvings"] <= 4,
             "halvings must be an integer in 0..4")
    _require(_is_int(cfg["nu_steps"]) and cfg["nu_steps"] >= 2,
             "nu_steps must be an integer >= 2")
    _require(isinstance(cfg["oracle"], bool), "oracle must be true or false")
    _require(isinstance(cfg["tolerances"], dict), "tolerances must be an object")
    for name, value in cfg["tolerances"].items():
        _require(name in DEFAULT_TOLERANCES, "unknown tolerance %r" % (name,))
        _require(_is_real(value) and value >= 0.0,
                 "tolerance %r must be a finite number >= 0" % (name,))
    _require(isinstance(cfg["out"], str) and cfg["out"], "out must be a path")
    return cfg


def _tolerance(cfg, name):
    return float(cfg["tolerances"].get(name, DEFAULT_TOLERANCES[name]))


def _seeded_state(spec, cfg, seed, tangents):
    """[pot, tv_1, ..., tv_tangents]: the seeded potential and tangents."""
    def field(stream):
        # disjoint deterministic seed streams per field role
        return random_field(spec, seed + 10 ** 6 * stream,
                            decay=cfg["decay"], kmax=cfg["kmax"])

    pot = make_potential(spec, cfg["amp_phi"] * field(0))
    return [pot] + [project_tangent(pot, cfg["amp_psi"] * field(stream))
                    for stream in range(1, tangents + 1)]


def _write_summary(cfg, command, fields):
    write_json(os.path.join(cfg["out"], SUMMARY_FILES[command]),
               dict(schema=1, config=cfg, **fields))


# ---------------------------------------------------------------- check ---

def _plane_checks(pot, tv1, tv2):
    """(name, value) of every invariant check on one plane, in report order.

    A library error inside a check (a solver breakdown, a degenerate plane)
    gives that check the value inf: a failed check, not a crash.
    """
    p, q = tv1.psi, tv2.psi
    # resolved through the module attribute so a tampered operator is caught
    # (mutation testing hooks in here)
    lap = state_mod.laplacian

    def self_adjoint():
        # of the metric Laplacian in the e^u pairing
        lhs = pot.eu_mean(p * lap(pot, q))
        rhs = pot.eu_mean(q * lap(pot, p))
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)

    def roundtrip():
        # on a generic in-range source (the cross term is identically zero
        # in dimension one, so it cannot serve here)
        target = lap(pot, q)
        target = target - pot.eu_mean(target)
        back = lap(pot, green_solve(pot, target))
        return (float(np.max(np.abs(back - target)))
                / max(float(np.max(np.abs(target))), 1e-30))

    def source_mean_zero():
        # the cross term's e^u-mean vanishes identically; compare against
        # the size of its two cancelling constituents, not of the result
        scale = float(np.sqrt(np.mean(hess_star(pot, p, q) ** 2)))
        return abs(pot.eu_mean(ma_cross(pot, p, q))) / max(scale, 1e-30)

    def divergence():
        return c_divergence(pot, p) / max(float(np.max(np.abs(p))), 1e-30)

    def calabi():
        return abs(sectional(MetricKind.CALABI, pot, tv1, tv2).value - 0.25)

    def mabuchi():
        return sectional(MetricKind.MABUCHI, pot, tv1, tv2).value

    def dim1_flatness():
        return abs(sectional(MetricKind.DIRICHLET, pot, tv1, tv2).value)

    def bound_gap():
        report = sectional(MetricKind.DIRICHLET, pot, tv1, tv2)
        return abs(report.value) - report.bound()

    checks = [("laplacian_self_adjoint", self_adjoint),
              ("green_roundtrip", roundtrip),
              ("source_mean_zero", source_mean_zero),
              ("ctensor_divergence_free", divergence),
              ("calabi_constant", calabi),
              ("mabuchi_nonpositive", mabuchi)]
    if pot.spec.n == 1:
        checks.append(("dirichlet_dim1_flatness", dim1_flatness))
    else:
        checks.append(("dirichlet_bound_dominates", bound_gap))
    out = []
    for name, check in checks:
        try:
            value = check()
        except LIBRARY_ERRORS:
            value = float("inf")
        out.append((name, value))
    return out


def cmd_check(cfg):
    """Cross-module invariant suite; JSON report, exit 0 iff all pass."""
    spec = build_spec(cfg["n"], cfg["grid"])
    values = {}
    for seed in range(cfg["seed"], cfg["seed"] + min(cfg["planes"], 5)):
        pot, tv1, tv2 = _seeded_state(spec, cfg, seed, 2)
        for name, value in _plane_checks(pot, tv1, tv2):
            values.setdefault(name, []).append(float(value))
    checks = []
    for name, seen in values.items():
        # a NaN anywhere fails its check; max() would drop it by position
        worst = float("nan") if np.isnan(seen).any() else max(seen)
        tolerance = _tolerance(cfg, name)
        checks.append({"name": name, "value": worst, "tolerance": tolerance,
                       "pass": bool(worst <= tolerance)})

    ok = all(c["pass"] for c in checks)
    _write_summary(cfg, "check", {"checks": checks, "pass": ok})
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
    bound = report.bound() if kind is MetricKind.DIRICHLET else ""
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
            pot, tv1, tv2 = _seeded_state(spec, cfg, seed, 2)
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
    write_csv(os.path.join(cfg["out"], "curvature.csv"),
              ["kind", "n", "N", "seed", "value", "bound", "residual",
               "oracle", "delta", "error"], rows)
    _write_summary(cfg, "curvature", {"rows": len(rows), "errors": int(failed)})
    return EXIT_FAIL if failed else EXIT_OK


# ------------------------------------------------------------- geodesic ---

def _shoot(cfg):
    """The configured geodesic: its start (pot, tv), the stored curve, and
    the Dirichlet speed at each stored sample."""
    spec = build_spec(cfg["n"], cfg["grid"])
    pot, tv = _seeded_state(spec, cfg, cfg["seed"], 1)
    curve = integrate_geodesic(pot, tv, cfg["T"], cfg["dt"],
                               store_every=cfg["store_every"])
    speeds = curve.meta["speeds"]
    sampled = [float(speeds[int(round(t / cfg["dt"]))]) for t in curve.times]
    return pot, tv, curve, sampled


def cmd_geodesic(cfg):
    """Geodesic shoot; per-sample CSV, summary with drift and optional order."""
    pot, tv, curve, sampled = _shoot(cfg)
    ends = []
    for level in range(1, cfg["halvings"] + 1):
        fine = integrate_geodesic(pot, tv, cfg["T"], cfg["dt"] / 2 ** level,
                                  store_every=10 ** 9)
        ends.append((fine.phis[-1], fine.psis[-1]))

    speeds = curve.meta["speeds"]
    drift = float(np.max(np.abs(speeds - speeds[0])) / abs(speeds[0])) \
        if speeds[0] != 0.0 else 0.0
    resid = geodesic_residual(MetricKind.DIRICHLET, curve) \
        if len(curve) >= 5 else np.empty(0)
    rows = []
    for i in range(len(curve)):
        r = resid[i - 2] if 2 <= i < 2 + resid.size else ""
        rows.append([i, curve.times[i], sampled[i], r])
    write_csv(os.path.join(cfg["out"], "geodesic.csv"),
              ["index", "time", "dirichlet_speed", "equation_residual"], rows)

    summary = {"speed_drift": drift,
               "max_residual": float(np.max(resid)) if resid.size else None,
               "energy": path_energy(MetricKind.DIRICHLET, curve),
               "length": path_length(MetricKind.DIRICHLET, curve)}
    if cfg["halvings"] >= 2:
        chain = [(curve.phis[-1], curve.psis[-1])] + ends
        diffs = []
        for (pa, va), (pb, vb) in zip(chain[:-1], chain[1:]):
            diffs.append(max(float(np.max(np.abs(pa - pb))),
                             float(np.max(np.abs(va - vb)))))
        summary["order"] = float(np.log2(diffs[0] / diffs[1])) \
            if diffs[1] > 0.0 else None
        summary["halving_diffs"] = diffs
    _write_summary(cfg, "geodesic", summary)
    return EXIT_OK


# ----------------------------------------------------------------- flow ---

def cmd_flow(cfg):
    """Downhill energy flow; per-sample CSV, monotonicity summary."""
    [pot] = _seeded_state(build_spec(cfg["n"], cfg["grid"]), cfg, cfg["seed"], 0)
    # flow_dt, not dt: the explicit gradient step is only stable below
    # 2/lap_max, far smaller than a comfortable geodesic step
    trace = pseudo_calabi_flow(pot, cfg["T"], cfg["flow_dt"],
                               nu_steps=cfg["nu_steps"],
                               sample_every=cfg["store_every"])
    rows = [[i, trace.times[i], trace.nu[i], trace.grad_norm[i]]
            for i in range(trace.times.size)]
    write_csv(os.path.join(cfg["out"], "flow.csv"),
              ["index", "time", "kenergy", "gradient_norm"], rows)
    increases = np.diff(trace.nu)
    _write_summary(cfg, "flow", {
        "max_step_increase": float(np.max(increases)) if increases.size else 0.0,
        "monotone": bool(np.all(increases <= 1e-10)),
        "final_nu": float(trace.nu[-1]),
        "gradient_shrink": (float(trace.grad_norm[0] / trace.grad_norm[-1])
                            if trace.grad_norm[-1] > 0.0 else None)})
    return EXIT_OK


# --------------------------------------------------------------- energy ---

def cmd_energy(cfg):
    """Path energy/length of the configured geodesic; Cauchy-Schwarz gap."""
    _, _, curve, sampled = _shoot(cfg)
    rows = [[i, curve.times[i], sampled[i]] for i in range(len(curve))]
    write_csv(os.path.join(cfg["out"], "energy.csv"),
              ["index", "time", "dirichlet_speed"], rows)
    energy = path_energy(MetricKind.DIRICHLET, curve)
    length = path_length(MetricKind.DIRICHLET, curve)
    elapsed = float(curve.times[-1] - curve.times[0])
    _write_summary(cfg, "energy", {
        "energy": energy, "length": length,
        "cauchy_schwarz_gap": elapsed * energy - length ** 2})
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
        os.makedirs(cfg["out"], exist_ok=True)
    except OSError as exc:
        print("config error: cannot create out: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except LIBRARY_ERRORS as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        _write_summary(cfg, args.command, {
            "error": str(exc), "exit_time": getattr(exc, "time", None)})
        return EXIT_FAIL

if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: config handling, reports, determinism, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import kgeo.cli
import kgeo.curvature
import kgeo.dynamics
import kgeo.metrics
import kgeo.state
from kgeo.cli import (
    DEFAULT_TOLERANCES,
    DEFAULTS,
    ConfigError,
    load_config,
    main,
)


def _write_cfg(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


def _read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _read_csv(out, name):
    with open(os.path.join(out, name)) as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Config loading


def test_defaults_load():
    cfg = load_config()
    assert cfg["n"] == DEFAULTS["n"]
    assert cfg["grid"] == 16
    assert cfg["tolerances"] == {}
    cfg["kinds"].append("Mabuchi")  # the returned config is a private copy
    assert load_config()["kinds"] == DEFAULTS["kinds"]


def test_config_file_and_overrides(tmp_path):
    path = _write_cfg(tmp_path, n=2, grid=32, seed=7,
                      tolerances={"green_roundtrip": 1e-6})
    cfg = load_config(path, {"seed": 9, "out": None})
    assert cfg["n"] == 2 and cfg["grid"] == 32
    assert cfg["seed"] == 9  # override wins; None overrides are ignored
    assert cfg["out"] == DEFAULTS["out"]
    assert cfg["tolerances"]["green_roundtrip"] == 1e-6


@pytest.mark.parametrize("bad", [
    {"grid": 8},
    {"grid": 20},
    {"n": 3},
    {"schema": 2},
    {"nonsense_key": 1},
    {"tolerances": {"nonsense": 1.0}},
    {"tolerances": {"green_roundtrip": -1.0}},
    {"kinds": []},
    {"kinds": ["Fubini"]},
    {"amp_phi": -0.1},
    {"dt": 0.2, "T": 0.1},
    {"flow_dt": 0.0},
    {"oracle_h": -1.0},
    {"kmax": 0},
    {"halvings": 9},
    {"planes": 0},
    {"store_every": 0},
    {"seed": -1},
    {"grid": 16.0},
    {"n": True},
    {"planes": True},
    {"kmax": True},
    {"amp_phi": True},
    {"tolerances": {"green_roundtrip": True}},
    {"amp_phi": 10 ** 400},
    {"T": 1e300, "dt": 1e-300},  # T/dt overflows to inf
    {"T": 1e300, "dt": 1e299, "flow_dt": 1e-300},  # so does T/flow_dt
    {"T": 1.0, "dt": 1e-7},  # 10**7 steps
    {"T": 1.0, "dt": 0.5, "flow_dt": 1e-7},
    {"decay": 1.0},  # random_field needs decay > 1
    {"kinds": [["Dirichlet"]]},  # not a name: unhashable
    {"nu_steps": 10 ** 200},
])
def test_config_rejections(tmp_path, bad):
    path = _write_cfg(tmp_path, **bad)
    with pytest.raises(ConfigError):
        load_config(path)
    # a time step is refused by the command that takes it
    command = ("flow" if "flow_dt" in bad else
               "geodesic" if "dt" in bad else "check")
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command, cfg", [
    ("curvature", {"T": 0.001}),
    ("flow", {"T": 0.001}),
    ("geodesic", {"T": 0.0002, "dt": 0.0001}),
    ("curvature", {"T": 1.0, "flow_dt": 1e-7}),
])
def test_config_step_checked_only_where_taken(tmp_path, command, cfg):
    # dt <= T and its step cap bind only the geodesic commands, flow_dt <= T
    # and its cap only flow
    path = _write_cfg(tmp_path, **cfg)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_config_memory_budget(tmp_path, monkeypatch, capsys):
    # refused from the estimate alone: nothing is built
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(kgeo.cli, "build_spec", no_work)
    monkeypatch.setattr(kgeo.cli, "_physical_memory", lambda: 8 * 2 ** 30)
    out = str(tmp_path / "out")
    with pytest.raises(ConfigError, match="GiB"):
        load_config(None, {"n": 2, "grid": 128})
    for command in ("check", "curvature", "geodesic", "flow", "energy"):
        assert main([command, "--n", "2", "--grid", "128", "--out", out]) == 2
    assert "physical memory" in capsys.readouterr().err
    # stored geodesic samples count too: n=1 N=128 fits with the default
    # 11 samples, not with 10**5 + 1
    assert load_config(None, {"grid": 128})["grid"] == 128
    path = _write_cfg(tmp_path, T=1.0, dt=1e-5)
    with pytest.raises(ConfigError):
        load_config(path, {"grid": 128})
    assert load_config(path)["grid"] == 16


def test_config_memory_counts_quadrature_nodes(tmp_path, monkeypatch):
    # leggauss(40000) would allocate an 11.9 GiB companion matrix after the
    # whole flow has run; only flow (and None, all commands) counts it
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(kgeo.cli, "build_spec", no_work)
    monkeypatch.setattr(kgeo.cli, "_physical_memory", lambda: 8 * 2 ** 30)
    path = _write_cfg(tmp_path, nu_steps=40000)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(ConfigError, match="40000 quadrature nodes"):
        load_config(path)
    assert load_config(path, command="check")["nu_steps"] == 40000


def test_config_store_every_divides_only_geodesic_steps(tmp_path):
    # store_every thins the geodesic's round(T/dt) = 10 steps, which 3 does
    # not divide; the flow samples its own 100 steps and needs no divisor
    path = _write_cfg(tmp_path, store_every=3)
    out = str(tmp_path / "out")
    with pytest.raises(ConfigError, match="store_every"):
        load_config(path)
    for command in ("geodesic", "energy"):
        assert main([command, "--config", path, "--out", out]) == 2
    for command in ("check", "curvature", "flow"):
        assert load_config(path, command=command)["store_every"] == 3
    assert main(["flow", "--config", path, "--out", out]) == 0
    times = [float(row[1]) for row in _read_csv(out, "flow.csv")[1:]]
    assert times == pytest.approx([0.0005 * s for s in range(0, 100, 3)] + [0.05])


def test_config_stored_samples_count_only_for_geodesics(tmp_path, monkeypatch):
    # 100001 stored geodesic samples at n=1 N=128 exceed 8 GiB; curvature
    # and flow store none
    monkeypatch.setattr(kgeo.cli, "_physical_memory", lambda: 8 * 2 ** 30)
    path = _write_cfg(tmp_path, T=1.0, dt=1e-5)
    for command in (None, "geodesic", "energy"):
        with pytest.raises(ConfigError, match="100001 stored samples"):
            load_config(path, {"grid": 128}, command)
    for command in ("check", "curvature", "flow"):
        assert load_config(path, {"grid": 128}, command)["grid"] == 128


def test_config_halvings_count_against_the_step_cap(tmp_path):
    # 10**6 steps at the base level, 16 * 10**6 at the finest of 4 halvings
    path = _write_cfg(tmp_path, T=1.0, dt=1e-6, halvings=4)
    with pytest.raises(ConfigError, match="halvings"):
        load_config(path)
    assert main(["geodesic", "--config", path,
                 "--out", str(tmp_path / "out")]) == 2
    assert load_config(path, command="flow")["halvings"] == 4
    assert load_config(_write_cfg(tmp_path, T=1.0, dt=1e-5, halvings=3,
                                  store_every=10 ** 9),
                       command="geodesic")["halvings"] == 3


@pytest.mark.parametrize("T, dt, store_every", [
    (0.05, 0.01, 1), (0.04, 0.01, 2), (0.06, 0.01, 3), (0.05, 0.01, 5),
    (0.05, 0.01, 6), (0.01, 0.01, 1), (0.03, 0.01, 10 ** 9)])
def test_config_samples_match_the_integrator(tmp_path, monkeypatch, T, dt,
                                             store_every):
    # the memory estimate counts the samples integrate_geodesic will store;
    # with no memory at all, the refusal names that count
    monkeypatch.setattr(kgeo.cli, "_physical_memory", lambda: 0)
    path = _write_cfg(tmp_path, T=T, dt=dt, store_every=store_every)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    samples = int(re.search(r"with (\d+) stored samples", str(err.value)).group(1))
    spec = kgeo.cli.build_spec(1, 16)
    pot = kgeo.state.make_potential(spec, np.zeros(spec.shape))
    tv = kgeo.state.project_tangent(pot, np.zeros(spec.shape))
    curve = kgeo.dynamics.integrate_geodesic(pot, tv, T, dt,
                                             store_every=store_every)
    assert samples == len(curve)


def test_config_unreadable_and_invalid(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(path2))


def test_main_config_error_exit_code(tmp_path, capsys):
    path = _write_cfg(tmp_path, grid=8)
    code = main(["check", "--config", path])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_out_not_a_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["check", "--out", str(blocker)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_requires_command():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# check


def test_check_passes_and_reports(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["check", "--out", out])
    assert code == 0
    report = _read_json(out, "check_report.json")
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert "laplacian_self_adjoint" in names
    assert "dirichlet_dim1_flatness" in names  # n = 1 default
    assert all(c["pass"] for c in report["checks"])
    text = capsys.readouterr().out
    assert "laplacian_self_adjoint: pass" in text


def test_check_zero_tolerance_fails(tmp_path):
    path = _write_cfg(tmp_path, tolerances={"green_roundtrip": 0.0})
    out = str(tmp_path / "out")
    assert main(["check", "--config", path, "--out", out]) == 1
    report = _read_json(out, "check_report.json")
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"green_roundtrip"}


def test_check_catches_tampered_operator(tmp_path, monkeypatch):
    # a deliberately non-self-adjoint perturbation of the metric Laplacian
    true_lap = kgeo.state.laplacian

    def tampered(pot, f):
        return true_lap(pot, f) + 1e-3 * np.roll(f, 1, axis=0)

    monkeypatch.setattr(kgeo.state, "laplacian", tampered)
    out = str(tmp_path / "out")
    assert main(["check", "--out", out]) == 1
    report = _read_json(out, "check_report.json")
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "laplacian_self_adjoint" in failed


def test_check_nan_fails_its_check(tmp_path, monkeypatch):
    # max() keeps or drops a NaN by its position; the check must fail
    calls = []
    true_div = kgeo.cli.c_divergence

    def nan_on_second_plane(pot, f):
        calls.append(1)
        return float("nan") if len(calls) == 2 else true_div(pot, f)

    monkeypatch.setattr(kgeo.cli, "c_divergence", nan_on_second_plane)
    out = str(tmp_path / "out")
    assert main(["check", "--out", out]) == 1
    report = _read_json(out, "check_report.json")
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["ctensor_divergence_free"]
    assert np.isnan(failed[0]["value"])


def test_check_zero_plane_fails_with_report(tmp_path):
    # amp_psi = 0 gives zero tangent vectors: no plane to take a curvature of
    path = _write_cfg(tmp_path, amp_psi=0.0)
    out = str(tmp_path / "out")
    assert main(["check", "--config", path, "--out", out]) == 1
    report = _read_json(out, "check_report.json")
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"calabi_constant", "mabuchi_nonpositive",
                      "dirichlet_dim1_flatness"}


def _count_make_potential(monkeypatch):
    calls = []
    true_make = kgeo.cli.make_potential

    def counting(spec, phi):
        calls.append(spec)
        return true_make(spec, phi)

    monkeypatch.setattr(kgeo.cli, "make_potential", counting)
    return calls


def _count_green_solves(monkeypatch):
    calls = []
    true_solve = kgeo.state.green_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return true_solve(*args, **kwargs)

    for module in (kgeo.cli, kgeo.curvature, kgeo.metrics):
        monkeypatch.setattr(module, "green_solve", counting)
    return calls


def test_check_builds_each_plane_once(tmp_path, monkeypatch):
    calls = _count_make_potential(monkeypatch)
    assert main(["check", "--n", "1", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 5


def test_check_dim2_solves_once_per_auxiliary_potential(tmp_path, monkeypatch):
    # one round-trip solve and the two a-solves of the Dirichlet plane
    # (its value reads a(psi, psi) and a(psi, chi) only); the bound reuses
    # a(psi, psi)
    calls = _count_green_solves(monkeypatch)
    path = _write_cfg(tmp_path, n=2, planes=1)
    assert main(["check", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 3


def test_geodesic_builds_each_potential_once(tmp_path, monkeypatch):
    # 1 seeded state, 4 per RK4 step over 10 steps (the first stage reuses
    # the potential the previous step accepted), and 9 for the Green solves
    # and Laplacians of the residual; energy and length read the recorded
    # speeds. 40 solves integrate, 9 go into the residual.
    builds = []
    true_build = kgeo.state._potential_raw

    def counting_build(*args):
        builds.append(1)
        return true_build(*args)

    solves = []
    true_solve = kgeo.state.green_solve

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return true_solve(*args, **kwargs)

    for module in (kgeo.state, kgeo.dynamics):
        monkeypatch.setattr(module, "_potential_raw", counting_build)
    for module in (kgeo.dynamics, kgeo.metrics, kgeo.curvature, kgeo.cli):
        monkeypatch.setattr(module, "green_solve", counting_solve)
    out = str(tmp_path / "out")
    assert main(["geodesic", "--n", "2", "--out", out]) == 0
    assert len(builds) == 50
    assert len(solves) == 49


@pytest.mark.parametrize("command", ["check", "flow", "geodesic", "energy"])
def test_library_error_exits_with_summary(tmp_path, command):
    path = _write_cfg(tmp_path, amp_phi=5.0)
    out = str(tmp_path / "out")
    assert main([command, "--config", path, "--out", out]) == 1
    summary = _read_json(out, kgeo.cli.SUMMARY_FILES[command])
    assert summary["error"].startswith("metric not positive definite")
    assert summary["exit_time"] is None
    assert summary["config"]["amp_phi"] == 5.0


def test_overflowing_velocity_exits_with_summary(tmp_path):
    # amp_psi 1e300 overflows the geodesic source to inf and NaN; the Green
    # solve must break down at once instead of running to its iteration cap.
    # A subprocess, because the overflow warnings are errors under pytest.
    path = _write_cfg(tmp_path, n=2, amp_psi=1e300)
    out = str(tmp_path / "out")
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgeo.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kgeo.cli", "geodesic", "--n", "2",
         "--config", path, "--out", out],
        env=env, capture_output=True, timeout=60)
    assert proc.returncode == 1, proc.stderr.decode()
    assert "error" in _read_json(out, kgeo.cli.SUMMARY_FILES["geodesic"])


# ---------------------------------------------------------------------------
# curvature


def test_curvature_csv_dim1(tmp_path):
    path = _write_cfg(tmp_path, planes=2)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["curvature", "--config", path, "--out", out1]) == 0
    rows = _read_csv(out1, "curvature.csv")
    assert rows[0] == ["kind", "n", "N", "seed", "value", "bound",
                       "residual", "oracle", "delta", "error"]
    body = rows[1:]
    assert len(body) == 2 * 3  # planes x kinds
    calabi = [r for r in body if r[0] == "Calabi"]
    assert all(float(r[4]) == 0.25 and float(r[8]) == 0.0 for r in calabi)
    dirichlet = [r for r in body if r[0] == "Dirichlet"]
    assert all(float(r[7]) == 0.0 for r in dirichlet)  # dim-1 oracle
    assert all(float(r[8]) <= 1e-7 for r in dirichlet)
    # byte-determinism of repeated runs
    assert main(["curvature", "--config", path, "--out", out2]) == 0
    with open(os.path.join(out1, "curvature.csv"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, "curvature.csv"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def _csv_at_blas_threads(tmp_path, command, cfg):
    # run `kgeo <command> --n 2` in a subprocess at 1 and 2 BLAS threads;
    # returns the bytes of <command>.csv of both runs
    path = _write_cfg(tmp_path, **cfg)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgeo.cli.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = str(tmp_path / ("threads" + threads))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kgeo.cli", command, "--n", "2",
             "--config", path, "--out", out],
            env=env, capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        with open(os.path.join(out, command + ".csv"), "rb") as fh:
            outputs.append(fh.read())
    return outputs


def test_curvature_dim2_independent_of_blas_threads(tmp_path):
    # the spectral transforms are BLAS matrix products; their results must
    # not depend on how many threads BLAS is allowed to use
    outputs = _csv_at_blas_threads(tmp_path, "curvature", {"planes": 1})
    assert outputs[0] == outputs[1]


def test_geodesic_dim2_independent_of_blas_threads(tmp_path):
    # warm-started Green solves, with their half-spectrum Parseval sums
    outputs = _csv_at_blas_threads(tmp_path, "geodesic", {"T": 0.01})
    assert outputs[0] == outputs[1]


def test_flow_dim2_independent_of_blas_threads(tmp_path):
    # closed-form gradients, and the one Green solve of the oracle
    outputs = _csv_at_blas_threads(tmp_path, "flow", {"T": 0.002})
    assert outputs[0] == outputs[1]
    gaps = [_read_json(str(tmp_path / ("threads" + threads)),
                       "flow_summary.json")["gradient_solve_gap"]
            for threads in ("1", "2")]
    assert gaps[0] == gaps[1]


def test_curvature_dim1_roundoff_source_regression(tmp_path):
    # the dimension-one Dirichlet source is identically zero; computed as a
    # difference of products its roundoff once reached green_solve's
    # MeanNotZero check on this config and ended in a traceback
    out = str(tmp_path / "out")
    assert main(["curvature", "--n", "1", "--grid", "128", "--seed", "114",
                 "--out", out]) == 0
    body = _read_csv(out, "curvature.csv")[1:]
    assert len(body) == DEFAULTS["planes"] * 3
    assert all(r[9] == "" for r in body)


@pytest.mark.parametrize("exc", [kgeo.state.MeanNotZero("rhs not solvable"),
                                 kgeo.metrics.DegeneratePlane("flat plane"),
                                 kgeo.state.NoConvergence("no convergence")])
def test_curvature_library_error_is_a_row(tmp_path, monkeypatch, exc):
    true_sectional = kgeo.cli.sectional

    def failing(kind, pot, tv1, tv2):
        if kind is kgeo.metrics.MetricKind.MABUCHI:
            raise exc
        return true_sectional(kind, pot, tv1, tv2)

    monkeypatch.setattr(kgeo.cli, "sectional", failing)
    path = _write_cfg(tmp_path, planes=2)
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--out", out]) == 1
    body = _read_csv(out, "curvature.csv")[1:]
    errors = {r[0]: r[9] for r in body}
    assert errors["Mabuchi"] == "%s: %s" % (type(exc).__name__, exc)
    assert errors["Dirichlet"] == errors["Calabi"] == ""
    assert _read_json(out, "curvature_summary.json")["errors"] == 1


def test_curvature_plane_error_fills_every_kind(tmp_path):
    path = _write_cfg(tmp_path, planes=2, amp_phi=5.0)
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--out", out]) == 1
    body = _read_csv(out, "curvature.csv")[1:]
    assert len(body) == 2 * 3
    assert all(r[9].startswith("PositivityViolation: ") for r in body)


def test_curvature_builds_each_plane_once(tmp_path, monkeypatch):
    calls = _count_make_potential(monkeypatch)
    path = _write_cfg(tmp_path, planes=3)
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--out", out]) == 0
    assert len(calls) == 3


def test_curvature_solves_each_auxiliary_potential_once(tmp_path, monkeypatch):
    # a(psi, psi) and a(psi, chi); the bound reuses a(psi, psi), and
    # a(chi, chi) is solved only for the gradient form, which no row reads
    calls = _count_green_solves(monkeypatch)
    path = _write_cfg(tmp_path, n=2, planes=1, kinds=["Dirichlet"])
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--out", out]) == 0
    assert len(calls) == 2
    row = _read_csv(out, "curvature.csv")[1]
    assert float(row[5]) >= abs(float(row[4]))  # bound dominates


def test_curvature_zero_plane_is_an_error_row(tmp_path):
    path = _write_cfg(tmp_path, planes=2, amp_psi=0.0)
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--out", out]) == 1
    body = _read_csv(out, "curvature.csv")[1:]
    assert len(body) == 2 * 3
    assert all(r[4] == "" and r[9].startswith("DegeneratePlane: ") for r in body)


def test_curvature_fd_oracle_dim2(tmp_path):
    path = _write_cfg(tmp_path, n=2, planes=1, kinds=["Dirichlet"],
                      amp_phi=1e-3, kmax=3, oracle=True)
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--out", out]) == 0
    row = _read_csv(out, "curvature.csv")[1]
    assert float(row[8]) <= 5e-2  # FD truncation budget at h = 1e-2
    assert float(row[5]) >= abs(float(row[4]))  # bound dominates


# ---------------------------------------------------------------------------
# geodesic


def test_geodesic_summary_and_csv(tmp_path):
    path = _write_cfg(tmp_path, n=2, T=0.025, dt=0.005,
                      amp_phi=0.004, amp_psi=0.01, kmax=2)
    out = str(tmp_path / "out")
    assert main(["geodesic", "--config", path, "--out", out]) == 0
    summary = _read_json(out, "geodesic_summary.json")
    assert summary["speed_drift"] <= 1e-5
    assert summary["max_residual"] is not None
    assert summary["energy"] > 0.0
    assert summary["length"] ** 2 <= summary["energy"] * 0.025 * (1 + 1e-12)
    rows = _read_csv(out, "geodesic.csv")
    assert rows[0] == ["index", "time", "dirichlet_speed", "equation_residual"]
    assert len(rows) == 1 + 6  # header + samples


def test_geodesic_halving_order(tmp_path):
    path = _write_cfg(tmp_path, n=2, T=0.02, dt=0.005, halvings=2,
                      amp_phi=0.004, amp_psi=0.01, kmax=2)
    out = str(tmp_path / "out")
    assert main(["geodesic", "--config", path, "--out", out]) == 0
    summary = _read_json(out, "geodesic_summary.json")
    assert len(summary["halving_diffs"]) == 2
    assert summary["order"] is None or isinstance(summary["order"], float)


def test_geodesic_positivity_exit(tmp_path):
    path = _write_cfg(tmp_path, n=2, amp_psi=5.0, T=0.5, dt=0.01)
    out = str(tmp_path / "out")
    assert main(["geodesic", "--config", path, "--out", out]) == 1
    summary = _read_json(out, "geodesic_summary.json")
    assert "error" in summary
    assert summary["exit_time"] > 0.0


# ---------------------------------------------------------------------------
# flow and energy


def test_flow_from_flat_start(tmp_path):
    path = _write_cfg(tmp_path, amp_phi=0.0, T=0.002, dt=0.002,
                      flow_dt=0.001)
    out = str(tmp_path / "out")
    assert main(["flow", "--config", path, "--out", out]) == 0
    summary = _read_json(out, "flow_summary.json")
    assert summary["monotone"] is True
    assert summary["final_nu"] == 0.0
    assert summary["nu_quadrature_gap"] == 0.0
    assert summary["gradient_shrink"] is None
    rows = _read_csv(out, "flow.csv")
    assert all(float(r[2]) == 0.0 for r in rows[1:])


def test_flow_monotone_seeded(tmp_path):
    path = _write_cfg(tmp_path, n=1, amp_phi=0.01, T=0.01, flow_dt=0.0005)
    out = str(tmp_path / "out")
    assert main(["flow", "--config", path, "--out", out]) == 0
    summary = _read_json(out, "flow_summary.json")
    assert summary["monotone"] is True
    assert summary["max_step_increase"] <= 1e-10
    # in dimension one the quadrature oracle agrees with the closed form
    assert summary["nu_quadrature_gap"] <= 1e-13


def test_flow_quadrature_gap_dim2(tmp_path):
    # the n=2 default state is full-band, so the oracle's aliasing shows
    path = _write_cfg(tmp_path, n=2, T=0.001, dt=0.001, flow_dt=0.0005)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["flow", "--config", path, "--out", out1]) == 0
    gap = _read_json(out1, "flow_summary.json")["nu_quadrature_gap"]
    assert np.isfinite(gap) and 0.0 < gap <= 1e-2
    assert main(["flow", "--config", path, "--out", out2]) == 0
    assert _read_json(out2, "flow_summary.json")["nu_quadrature_gap"] == gap


def test_energy_zero_velocity(tmp_path):
    path = _write_cfg(tmp_path, amp_psi=0.0, T=0.02, dt=0.01)
    out = str(tmp_path / "out")
    assert main(["energy", "--config", path, "--out", out]) == 0
    summary = _read_json(out, "energy_summary.json")
    assert summary["energy"] == 0.0
    assert summary["length"] == 0.0
    assert summary["cauchy_schwarz_gap"] == 0.0


def test_energy_summary_seeded(tmp_path):
    path = _write_cfg(tmp_path, n=1, T=0.02, dt=0.01, amp_psi=0.01)
    out = str(tmp_path / "out")
    assert main(["energy", "--config", path, "--out", out]) == 0
    summary = _read_json(out, "energy_summary.json")
    assert summary["energy"] > 0.0
    assert summary["cauchy_schwarz_gap"] >= -1e-15

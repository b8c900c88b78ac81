"""Command-line harness: config handling, reports, determinism, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

import kgeo.cli
import kgeo.curvature
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
    {"store_every": 3, "T": 0.05, "dt": 0.01},  # does not divide 5 steps
    {"seed": -1},
    {"grid": 16.0},
    {"n": True},
    {"planes": True},
    {"kmax": True},
    {"amp_phi": True},
    {"tolerances": {"green_roundtrip": True}},
    {"amp_phi": 10 ** 400},
])
def test_config_rejections(tmp_path, bad):
    path = _write_cfg(tmp_path, **bad)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["check", "--config", path, "--out", str(tmp_path / "out")]) == 2


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
    # one round-trip solve and the three a-solves of the Dirichlet plane;
    # the bound reuses a(psi, psi)
    calls = _count_green_solves(monkeypatch)
    path = _write_cfg(tmp_path, n=2, planes=1)
    assert main(["check", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 4


@pytest.mark.parametrize("command", ["check", "flow", "geodesic", "energy"])
def test_library_error_exits_with_summary(tmp_path, command):
    path = _write_cfg(tmp_path, amp_phi=5.0)
    out = str(tmp_path / "out")
    assert main([command, "--config", path, "--out", out]) == 1
    summary = _read_json(out, kgeo.cli.SUMMARY_FILES[command])
    assert summary["error"].startswith("metric not positive definite")
    assert summary["exit_time"] is None
    assert summary["config"]["amp_phi"] == 5.0


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
    calls = _count_green_solves(monkeypatch)
    path = _write_cfg(tmp_path, n=2, planes=1, kinds=["Dirichlet"])
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--out", out]) == 0
    assert len(calls) == 3
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

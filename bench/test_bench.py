"""Tests of the benchmark itself: every correctness check can fail, and
tracing leaves the program's outputs byte-identical.

    python3 -m pytest -q bench/test_bench.py

The genuine outputs come from small configs of the benchmark's commands;
each corruption below must be caught by the check that guards it.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

kgeo_cli = pytest.importorskip("kgeo.cli")
kgeo_state = pytest.importorskip("kgeo.state")

_N2 = {"n": 2, "grid": 16, "amp_phi": 0.004, "amp_psi": 0.02, "seed": 3}
CONFIGS = {
    "curvature-n1": ("curvature", {"n": 1, "grid": 32, "amp_phi": 0.004,
                                   "amp_psi": 0.02, "seed": 5, "planes": 2}),
    "curvature-n2": ("curvature", dict(_N2, planes=1)),
    "geodesic-n2": ("geodesic", dict(_N2, T=0.025, dt=0.005)),
    "flow-n2": ("flow", dict(_N2, T=0.0015, dt=0.0015, flow_dt=0.0005)),
}


def _run_cli(command, cfg, out_dir, config_dir):
    path = os.path.join(config_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return kgeo_cli.main([command, "--config", path, "--out", out_dir])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> (command, cfg, rows, summary) of genuine program outputs."""
    got = {}
    for name, (command, cfg) in CONFIGS.items():
        base = tmp_path_factory.mktemp(name)
        out = str(base / "out")
        assert _run_cli(command, cfg, out, str(base)) == 0
        stem = checks.CHECKS[command][0]
        rows, summary = checks.read_outputs(out, stem)
        got[name] = (command, cfg, rows, summary)
    return got


def _check(entry, rows=None, summary=None):
    command, cfg, good_rows, good_summary = entry
    fn = checks.CHECKS[command][1]
    return fn(rows if rows is not None else good_rows,
              summary if summary is not None else good_summary, cfg)


def _edit(rows, index, **changes):
    rows = copy.deepcopy(rows)
    rows[index].update({k: repr(v) if isinstance(v, float) else v
                        for k, v in changes.items()})
    return rows


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_genuine_outputs_pass(outputs, name):
    assert _check(outputs[name]) == []


def _index(rows, kind):
    return next(i for i, r in enumerate(rows) if r["kind"] == kind)


@pytest.mark.parametrize("name", ["curvature-n1", "curvature-n2"])
def test_perturbed_mabuchi_fails(outputs, name):
    rows = outputs[name][2]
    i = _index(rows, "Mabuchi")
    bad = _edit(rows, i, value=float(rows[i]["value"]) * (1.0 + 1e-7))
    assert any("Mabuchi" in m for m in _check(outputs[name], rows=bad))


def test_dirichlet_above_bound_fails(outputs):
    rows = outputs["curvature-n2"][2]
    i = _index(rows, "Dirichlet")
    bad = _edit(rows, i, value=1.01 * float(rows[i]["bound"]))
    assert any("exceeds bound" in m for m in _check(outputs["curvature-n2"], rows=bad))


def test_dimension_one_curvature_fails(outputs):
    rows = outputs["curvature-n1"][2]
    bad = _edit(rows, _index(rows, "Dirichlet"), value=2e-7)
    assert any("dimension one" in m for m in _check(outputs["curvature-n1"], rows=bad))


def test_calabi_and_missing_rows_fail(outputs):
    entry = outputs["curvature-n2"]
    rows = entry[2]
    bad = _edit(rows, _index(rows, "Calabi"), value=0.2500000001)
    assert any("Calabi" in m for m in _check(entry, rows=bad))
    assert _check(entry, rows=rows[:-1]) != []
    bad = _edit(rows, 0, error="NoConvergence: stub")
    assert _check(entry, rows=bad) != []


def test_shifted_initial_speed_fails(outputs):
    entry = outputs["geodesic-n2"]
    rows = entry[2]
    bad = _edit(rows, 0, dirichlet_speed=float(rows[0]["dirichlet_speed"]) * (1 + 1e-7))
    assert any("initial Dirichlet speed" in m for m in _check(entry, rows=bad))


def test_geodesic_drift_and_residual_bounds_fail(outputs):
    entry = outputs["geodesic-n2"]
    summary = dict(entry[3], speed_drift=2.0 * checks.GEODESIC_MAX_DRIFT)
    assert any("drift" in m for m in _check(entry, summary=summary))
    limit = checks.GEODESIC_RESIDUAL_CONST * entry[1]["dt"] ** 2
    summary = dict(entry[3], max_residual=1.5 * limit)
    assert any("residual" in m for m in _check(entry, summary=summary))


def test_rising_nu_fails(outputs):
    entry = outputs["flow-n2"]
    rows = entry[2]
    bad = _edit(rows, 2, kenergy=float(rows[1]["kenergy"]) * 1.001)
    assert any("rises" in m for m in _check(entry, rows=bad))


def test_gradient_not_matching_decrease_fails(outputs):
    entry = outputs["flow-n2"]
    rows = entry[2]
    bad = copy.deepcopy(rows)
    for r in bad:
        r["gradient_norm"] = repr(2.0 * float(r["gradient_norm"]))
    assert any("decrease" in m for m in _check(entry, rows=bad))


def test_shifted_nu0_fails(outputs):
    entry = outputs["flow-n2"]
    rows = entry[2]
    # shift every value, so that only the closed-form comparison can notice
    shift = 2.0 * checks.NU0_RTOL * abs(float(rows[0]["kenergy"]))
    bad = copy.deepcopy(rows)
    for r in bad:
        r["kenergy"] = repr(float(r["kenergy"]) + shift)
    assert [m for m in _check(entry, rows=bad) if "closed form" in m]


def _snapshot(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("name", ["curvature-n2", "flow-n2"])
def test_traced_outputs_identical_and_counts_repeat(tmp_path, name):
    command, cfg = CONFIGS[name]
    out = str(tmp_path / "out")
    assert _run_cli(command, cfg, out, str(tmp_path)) == 0
    plain = _snapshot(out)
    originals = (kgeo_state.laplacian, kgeo_cli.green_solve)
    summaries = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert _run_cli(command, cfg, out, str(tmp_path)) == 0
        finally:
            tracer.uninstall()
        assert _snapshot(out) == plain
        summaries.append(tracer.summary())
    assert (kgeo_state.laplacian, kgeo_cli.green_solve) == originals
    counts = [{k: v for k, v in s.items() if not k.endswith("ms")}
              for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["torus.fft.calls"] > 0
    assert counts[0]["state.green_solve.calls"] > 0
    assert counts[0]["state.potential.builds"] > 0
    assert counts[0]["fieldio.write.bytes"] == sum(len(b) for b in plain.values())


def test_run_fails_without_program(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curvature-n2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

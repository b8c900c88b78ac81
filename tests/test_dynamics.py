"""Geodesics, path functionals, energy functional, and the gradient flow.

Anchors and expectations:

* Zero initial velocity integrates to a bit-constant curve with zero speed.
* For n = 1 the acceleration vanishes identically (dimension-one flatness),
  so geodesics are straight lines in the potential: phi(T) = phi(0) + T psi
  up to a constant gauge shift.
* On a constant curve the Dirichlet equation residual vanishes while the
  Calabi residual is exactly 1 (the two equations differ by the inhomogeneous
  term); on an actual Dirichlet geodesic the Calabi residual stays O(1).
* At the flat potential: S = 0, nu = 0, the flow is exactly stationary, and
  the second derivative of nu along t -> t cos(2 pi x_1) is 4 pi^4.
* The closed-form gradient f = ubar - u solves the discrete equation
  lap f = S - mean S to roundoff and matches its Green-solve oracle to the
  solver tolerance; the flow makes no Green solve, kgeo flow exactly one.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

import kgeo.cli
import kgeo.curvature
import kgeo.dynamics
import kgeo.metrics
import kgeo.state
from kgeo.torus import build_spec, random_field
from kgeo.state import (
    PositivityViolation,
    green_solve,
    laplacian,
    make_potential,
    project_tangent,
)
from kgeo.metrics import MetricKind, inner
from kgeo.dynamics import (
    Curve,
    geodesic_residual,
    geodesic_rhs,
    integrate_geodesic,
    kenergy,
    kenergy_gradient,
    kenergy_gradient_solve,
    kenergy_quadrature,
    kenergy_second_derivative,
    path_energy,
    path_length,
    pseudo_calabi_flow,
    scalar_curvature,
)


@pytest.fixture(scope="module")
def spec1():
    return build_spec(1, 16)


@pytest.fixture(scope="module")
def spec2():
    return build_spec(2, 16)


@pytest.fixture(scope="module")
def pot2(spec2):
    return make_potential(spec2, 0.004 * random_field(spec2, seed=61))


@pytest.fixture(scope="module")
def flat2(spec2):
    return make_potential(spec2, np.zeros(spec2.shape))


@pytest.fixture(scope="module")
def short_geodesic(pot2):
    tv = project_tangent(pot2, 0.02 * random_field(pot2.spec, seed=64))
    return integrate_geodesic(pot2, tv, 0.05, 5e-3)


def _zero_tv(pot):
    return project_tangent(pot, np.zeros(pot.spec.shape))


# ---------------------------------------------------------------------------
# Curve container


def test_curve_validation(spec2):
    z = np.zeros(spec2.shape)
    with pytest.raises(ValueError):
        Curve(spec2, [], [], [])
    with pytest.raises(ValueError):
        Curve(spec2, [0.0, 0.1, 0.15], [z] * 3, [z] * 3)  # nonuniform
    with pytest.raises(ValueError):
        Curve(spec2, [0.0, -0.1], [z] * 2, [z] * 2)  # decreasing
    with pytest.raises(ValueError):
        Curve(spec2, [0.0, 0.1], [z] * 2, [z] * 3)  # length mismatch


def test_curve_accessors(short_geodesic):
    cur = short_geodesic
    assert cur.dt == pytest.approx(5e-3)
    pot = cur.potential(0)
    assert np.array_equal(pot.u, cur.potential(0).u)  # rebuilt, same bits
    tv = cur.velocity(3)
    assert abs(pot.spec.n) == 2
    assert abs(cur.potential(3).eu_mean(tv.psi)) <= 1e-14


# ---------------------------------------------------------------------------
# Path functionals


def test_path_energy_length_constant_speed(pot2):
    psi = project_tangent(pot2, 0.02 * random_field(pot2.spec, seed=65)).psi
    cur = Curve(pot2.spec, [0.0, 0.1, 0.2],
                [pot2.phi] * 3, [psi] * 3)
    T = 0.2
    e = path_energy(MetricKind.DIRICHLET, cur)
    ln = path_length(MetricKind.DIRICHLET, cur)
    assert e > 0.0
    assert T * e == pytest.approx(ln ** 2, rel=1e-12)  # equality: const speed


def test_path_functionals_hold_no_potentials(pot2):
    # a hand-built curve keeps no potential: path_energy builds one per
    # sample, and each is freed before the next is built
    spec = pot2.spec
    psi = project_tangent(pot2, 0.02 * random_field(spec, seed=66)).psi
    times = 0.01 * np.arange(12)
    cur = Curve(spec, times, [pot2.phi + t * psi for t in times], [psi] * 12)
    pot_bytes = sum(v.nbytes for v in vars(pot2).values()
                    if isinstance(v, np.ndarray))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        energy = path_energy(MetricKind.MABUCHI, cur)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert energy > 0.0
    assert held - before <= 2 ** 20
    assert peak - before <= 4 * pot_bytes


def test_path_energy_zero_curve(pot2):
    cur = Curve(pot2.spec, [0.0, 0.1], [pot2.phi] * 2,
                [np.zeros(pot2.spec.shape)] * 2)
    assert path_energy(MetricKind.DIRICHLET, cur) == 0.0
    assert path_length(MetricKind.DIRICHLET, cur) == 0.0


def _hand_built(curve):
    # the same samples without the integrator's recorded data
    return Curve(curve.spec, curve.times, curve.phis, curve.psis)


def test_path_functionals_read_recorded_speeds(short_geodesic):
    cur = short_geodesic
    e = path_energy(MetricKind.DIRICHLET, cur)
    ln = path_length(MetricKind.DIRICHLET, cur)
    assert e == float(np.trapezoid(cur.speeds, cur.times))
    assert ln == float(np.trapezoid(np.sqrt(np.maximum(cur.speeds, 0.0)),
                                    cur.times))
    copy = _hand_built(cur)
    assert copy.speeds is not cur.speeds
    assert path_energy(MetricKind.DIRICHLET, copy) == pytest.approx(e, rel=1e-13)
    assert path_length(MetricKind.DIRICHLET, copy) == pytest.approx(ln, rel=1e-13)


def test_hand_built_curve_carries_u_and_rebuilds_less(short_geodesic,
                                                      monkeypatch):
    # a hand-built curve builds each sample's potential once, when it is
    # built, for its u and Dirichlet speed; the path functionals then build
    # none, the Dirichlet residual only the interior potentials its solves
    # and Laplacians need, and the Calabi residual none
    builds = []
    true_fn = kgeo.dynamics._potential_raw

    def counting(spec, phi):
        builds.append(1)
        return true_fn(spec, phi)
    monkeypatch.setattr(kgeo.dynamics, "_potential_raw", counting)
    copy = _hand_built(short_geodesic)
    M = len(copy)
    assert len(builds) == M
    builds.clear()
    path_energy(MetricKind.DIRICHLET, copy)
    path_length(MetricKind.DIRICHLET, copy)
    assert builds == []
    for i in range(M):
        assert copy.us[i].tobytes() == copy.potential(i).u.tobytes()
    builds.clear()
    geodesic_residual(MetricKind.DIRICHLET, copy)
    assert len(builds) == M - 2
    builds.clear()
    geodesic_residual(MetricKind.CALABI, copy)
    assert builds == []


def test_cauchy_schwarz_on_geodesic(short_geodesic):
    T = float(short_geodesic.times[-1])
    e = path_energy(MetricKind.DIRICHLET, short_geodesic)
    ln = path_length(MetricKind.DIRICHLET, short_geodesic)
    assert ln ** 2 <= T * e * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Geodesic right-hand side


def test_geodesic_rhs_zero_velocity(pot2):
    acc = geodesic_rhs(pot2, _zero_tv(pot2))
    assert np.all(acc.psi == 0.0)


def test_geodesic_rhs_dim1_vanishes(spec1):
    pot = make_potential(spec1, 0.01 * random_field(spec1, seed=62))
    tv = project_tangent(pot, 0.02 * random_field(spec1, seed=63))
    acc = geodesic_rhs(pot, tv)
    assert np.max(np.abs(acc.psi)) <= 1e-10


def test_geodesic_rhs_gauge(pot2):
    tv = project_tangent(pot2, 0.02 * random_field(pot2.spec, seed=66))
    acc = geodesic_rhs(pot2, tv)
    assert abs(pot2.eu_mean(acc.psi)) <= 1e-12


# ---------------------------------------------------------------------------
# Integrator


def test_integrate_zero_velocity_is_constant(pot2):
    cur = integrate_geodesic(pot2, _zero_tv(pot2), 0.05, 0.01)
    assert np.max(np.abs(cur.phis[-1] - cur.phis[0])) <= 1e-15
    assert np.max(cur.meta["speeds"]) == 0.0


def test_integrate_dim1_linear_motion(spec1):
    pot = make_potential(spec1, 0.01 * random_field(spec1, seed=62))
    tv = project_tangent(pot, 0.02 * random_field(spec1, seed=63))
    cur = integrate_geodesic(pot, tv, 0.1, 0.01)
    r = cur.phis[-1] - cur.phis[0] - 0.1 * tv.psi
    r = r - np.mean(r)  # constant gauge shift is free
    assert np.max(np.abs(r)) <= 1e-12


def test_integrate_validation(pot2):
    tv = _zero_tv(pot2)
    with pytest.raises(ValueError):
        integrate_geodesic(pot2, tv, 0.05, -0.01)
    with pytest.raises(ValueError):
        integrate_geodesic(pot2, tv, 0.01, 0.05)
    with pytest.raises(ValueError):
        integrate_geodesic(pot2, tv, 0.05, 0.01, store_every=0)
    with pytest.raises(ValueError):
        # 5 steps, store_every 3 would make nonuniform samples
        integrate_geodesic(pot2, tv, 0.05, 0.01, store_every=3)
    foreign = make_potential(pot2.spec, np.zeros(pot2.spec.shape))
    with pytest.raises(ValueError):
        integrate_geodesic(foreign, _zero_tv(pot2), 0.05, 0.01)


def test_integrate_rejects_overflowing_step_count(spec1):
    # T/dt = 1e600 overflows to inf; round(inf) cannot become a step count
    flat = make_potential(spec1, np.zeros(spec1.shape))
    with pytest.raises(ValueError, match="not finite"):
        integrate_geodesic(flat, _zero_tv(flat), 1e300, 1e-300)


def test_integrate_store_every(pot2):
    tv = project_tangent(pot2, 0.01 * random_field(pot2.spec, seed=67, kmax=2))
    cur = integrate_geodesic(pot2, tv, 0.04, 0.01, store_every=2)
    assert np.allclose(cur.times, [0.0, 0.02, 0.04])
    endpoints = integrate_geodesic(pot2, tv, 0.04, 0.01, store_every=10 ** 9)
    assert np.allclose(endpoints.times, [0.0, 0.04])
    assert np.array_equal(endpoints.phis[-1], cur.phis[-1])


def test_integrate_records_sample_speeds_and_u(spec1):
    pot = make_potential(spec1, 0.01 * random_field(spec1, seed=62))
    tv = project_tangent(pot, 0.02 * random_field(spec1, seed=63))
    cur = integrate_geodesic(pot, tv, 0.04, 0.01, store_every=2)
    assert np.array_equal(cur.speeds, cur.meta["speeds"][::2])
    assert cur.us[0] is pot.u
    assert len(cur.us) == len(cur)


def test_integrate_speed_drift_short(short_geodesic):
    sp = short_geodesic.meta["speeds"]
    assert np.max(np.abs(sp - sp[0])) / sp[0] <= 2e-4


def test_integrate_positivity_exit(pot2):
    tv = project_tangent(pot2, 5.0 * random_field(pot2.spec, seed=68))
    with pytest.raises(PositivityViolation) as info:
        integrate_geodesic(pot2, tv, 0.5, 0.01)
    assert getattr(info.value, "time", None) is not None
    assert info.value.time > 0.0


# ---------------------------------------------------------------------------
# Equation residuals


def test_residual_constant_curve(pot2):
    cur = integrate_geodesic(pot2, _zero_tv(pot2), 0.05, 0.01)
    rd = geodesic_residual(MetricKind.DIRICHLET, cur)
    rc = geodesic_residual(MetricKind.CALABI, cur)
    assert rd.shape == (len(cur) - 4,)
    assert np.max(rd) <= 1e-9
    # the Calabi equation has an inhomogeneous term the constant curve misses
    assert np.allclose(rc, 1.0, atol=1e-9)


def test_residual_on_dirichlet_geodesic(short_geodesic):
    rd = geodesic_residual(MetricKind.DIRICHLET, short_geodesic)
    rc = geodesic_residual(MetricKind.CALABI, short_geodesic)
    assert np.max(rd) <= 5e-3  # second order in dt = 5e-3
    assert np.min(rc) >= 0.5   # a Dirichlet geodesic is not a Calabi one


def test_residual_recorded_matches_hand_built(short_geodesic):
    # recorded u against u rebuilt from the stored (recentred) fields
    recorded = geodesic_residual(MetricKind.DIRICHLET, short_geodesic)
    rebuilt = geodesic_residual(MetricKind.DIRICHLET, _hand_built(short_geodesic))
    assert np.allclose(recorded, rebuilt, rtol=1e-6, atol=0.0)


def test_residual_is_a_check_on_u_alone(short_geodesic):
    # the w-solves start from the stored velocities, which w equals to
    # O(dt^2); with them zeroed every solve starts cold, and the residual
    # moves only at the solver tolerance, magnified by differencing w in time
    cur = short_geodesic
    cold = Curve(cur.spec, cur.times, cur.phis,
                 [np.zeros(cur.spec.shape)] * len(cur), us=cur.us,
                 speeds=cur.speeds)
    warm = geodesic_residual(MetricKind.DIRICHLET, cur)
    rel = np.abs(geodesic_residual(MetricKind.DIRICHLET, cold) - warm) / warm
    assert np.max(rel) <= 1e-3


def test_geodesic_warm_starts_stay_warm(monkeypatch):
    # the kgeo geodesic --n 2 defaults: RK4 stage guesses extrapolated from
    # the stages already solved, and the residual's w-solves started from
    # the stored velocities, keep the shoot and its residual within 300 PCG
    # iterations (392 with each stage started from the one before and cold
    # residual solves)
    iterations = []
    true_fn = kgeo.state._flat_inverse

    def counting(*args, **kwargs):  # one call per PCG iteration
        iterations.append(1)
        return true_fn(*args, **kwargs)
    monkeypatch.setattr(kgeo.state, "_flat_inverse", counting)
    spec = build_spec(2, 16)
    pot = make_potential(spec, 0.004 * random_field(spec, 1))
    tv = project_tangent(pot, 0.02 * random_field(spec, 1 + 10 ** 6))
    curve = integrate_geodesic(pot, tv, 0.05, 0.005)
    geodesic_residual(MetricKind.DIRICHLET, curve)
    assert len(iterations) <= 300


def test_residual_needs_enough_samples(pot2):
    tv = _zero_tv(pot2)
    cur = integrate_geodesic(pot2, tv, 0.02, 0.01)
    with pytest.raises(ValueError):
        geodesic_residual(MetricKind.DIRICHLET, cur)
    with pytest.raises(ValueError):
        geodesic_residual(MetricKind.MABUCHI, cur)


# ---------------------------------------------------------------------------
# Scalar curvature and the energy functional


def test_scalar_curvature_flat_zero(flat2):
    assert np.max(np.abs(scalar_curvature(flat2))) == 0.0


def test_scalar_curvature_integrates_to_zero(pot2):
    s = scalar_curvature(pot2)
    assert abs(pot2.eu_mean(s)) <= 1e-13 * np.max(np.abs(s))


def test_kenergy_flat_zero(flat2):
    assert kenergy(flat2) == 0.0


def test_kenergy_positive_off_flat(pot2):
    assert kenergy(pot2) > 1e-4


def test_kenergy_segment_additivity(pot2):
    whole = kenergy_quadrature(pot2)
    half = make_potential(pot2.spec, 0.5 * pot2.phi)
    # nu along t*phi: value at t=1 equals value at t=1/2 plus the remaining
    # segment, evaluated by the same quadrature on [1/2, 1] via rescaling
    seg1 = kenergy_quadrature(half)
    seg2 = _kenergy_segment(pot2, 0.5, 1.0)
    assert abs(seg1 + seg2 - whole) <= 1e-12 * max(1.0, abs(whole))


def _kenergy_segment(pot, t0, t1, steps=12):
    nodes, weights = np.polynomial.legendre.leggauss(steps)
    nodes = 0.5 * (t1 - t0) * (nodes + 1.0) + t0
    weights = 0.5 * (t1 - t0) * weights
    total = 0.0
    for t, w in zip(nodes, weights):
        p = make_potential(pot.spec, t * pot.phi)
        s = scalar_curvature(p)
        total += w * (-2.0) * p.eu_mean(pot.phi * s)
    return total


def test_kenergy_closed_form_matches_quadrature(spec1, spec2):
    # Chen's formula holds for the discrete path integral wherever the grid
    # resolves every product along the path: in dimension one (e^u is affine
    # in phi) and on kmax=3 fields at N=16. Full-band n=2 fields alias
    # (measured gap <= 8.3e-4 on these seeds), which the closed form does
    # not see.
    for seed in (61, 62, 63):
        resolved = [make_potential(spec1, 0.01 * random_field(spec1, seed=seed)),
                    make_potential(spec2, 0.004 * random_field(spec2, seed=seed,
                                                               kmax=3))]
        for pot in resolved:
            quad = kenergy_quadrature(pot)
            assert abs(kenergy(pot) - quad) <= 1e-13 * abs(quad)
        full = make_potential(spec2, 0.004 * random_field(spec2, seed=seed))
        quad = kenergy_quadrature(full)
        assert abs(kenergy(full) - quad) <= 1e-2 * abs(quad)


def test_kenergy_rejects_raw_arrays(spec2):
    for energy in (kenergy, kenergy_quadrature):
        with pytest.raises(TypeError):
            energy(np.zeros(spec2.shape))


def test_kenergy_second_derivative_flat_anchor(flat2):
    x1 = flat2.spec.coordinates()[0]
    tv = project_tangent(flat2, np.cos(2.0 * np.pi * x1))
    val = kenergy_second_derivative(flat2, tv)
    assert val == pytest.approx(4.0 * np.pi ** 4, rel=1e-10)


def test_kenergy_second_derivative_zero_tangent(pot2):
    assert kenergy_second_derivative(pot2, _zero_tv(pot2)) == 0.0


def test_kenergy_second_derivative_twin(spec2):
    pot = make_potential(spec2, 0.004 * random_field(spec2, seed=42, kmax=3))
    tv = project_tangent(pot, 0.02 * random_field(spec2, seed=43, kmax=3))
    closed = kenergy_second_derivative(pot, tv)
    h = 2e-3
    curve = integrate_geodesic(pot, tv, 2 * h, h)
    nus = [kenergy(curve.potential(i)) for i in range(3)]
    fd = (nus[2] - 2.0 * nus[1] + nus[0]) / h ** 2
    assert abs(fd - closed) / abs(closed) <= 2e-2


# ---------------------------------------------------------------------------
# The energy's Dirichlet gradient in closed form


def _gradient_states(spec, amp, kmaxes):
    return [make_potential(spec, amp * random_field(spec, seed=seed, kmax=kmax))
            for seed in (1, 2, 3) for kmax in kmaxes]


def _sup_gap(f, g):
    return float(np.max(np.abs(f - g)) / np.max(np.abs(g)))


def test_kenergy_gradient_matches_solve_dim2(spec2):
    # full-band and band-limited states; the solve stops at its tolerance
    for pot in _gradient_states(spec2, 0.004, (None, 3)):
        f = kenergy_gradient(pot).psi
        assert _sup_gap(f, kenergy_gradient_solve(pot).psi) <= 1e-8


@pytest.mark.parametrize("grid", [32, 64])
def test_kenergy_gradient_matches_solve_dim1(grid):
    spec = build_spec(1, grid)
    for pot in _gradient_states(spec, 0.01, (None,)):
        f = kenergy_gradient(pot).psi
        assert _sup_gap(f, kenergy_gradient_solve(pot).psi) <= 1e-13


def test_kenergy_gradient_solves_the_discrete_equation(spec2):
    # S = -lap u, so lap(ubar - u) = S exactly but for the roundoff of mean S
    states = (_gradient_states(spec2, 0.004, (None, 3))
              + _gradient_states(build_spec(1, 32), 0.01, (None,)))
    for pot in states:
        f = kenergy_gradient(pot).psi
        s = scalar_curvature(pot)
        resid = laplacian(pot, f) - (s - pot.eu_mean(s))
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(s))
        assert abs(pot.eu_mean(f)) <= 1e-15 * np.max(np.abs(f))


def test_kenergy_gradient_flat_is_zero(flat2):
    assert np.all(kenergy_gradient(flat2).psi == 0.0)


def _count_green_solves(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return green_solve(*args, **kwargs)

    for module in (kgeo.dynamics, kgeo.metrics, kgeo.curvature, kgeo.cli):
        monkeypatch.setattr(module, "green_solve", counting)
    return calls


def test_flow_makes_no_green_solve(pot2, monkeypatch):
    calls = _count_green_solves(monkeypatch)
    pseudo_calabi_flow(pot2, 0.002, 5e-4)
    assert calls == []


def _flow_summary(tmp_path, **cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert kgeo.cli.main(["flow", "--config", str(path), "--out", out]) == 0
    with open(os.path.join(out, "flow_summary.json")) as fh:
        return json.load(fh)


def test_kgeo_flow_solves_once_for_its_oracle(tmp_path, monkeypatch):
    calls = _count_green_solves(monkeypatch)
    _flow_summary(tmp_path, n=2, T=0.001)
    assert len(calls) == 1


@pytest.mark.parametrize("cfg, gap", [
    ({"n": 2, "amp_phi": 0.0}, 0.0),
    ({"n": 1, "amp_phi": 0.01}, 1e-13),
    ({"n": 2}, 1e-8),
])
def test_flow_reports_gradient_solve_gap(tmp_path, cfg, gap):
    # from the flat start both gradients are exactly 0
    found = _flow_summary(tmp_path, T=0.001, **cfg)["gradient_solve_gap"]
    assert 0.0 <= found <= gap


# ---------------------------------------------------------------------------
# Gradient flow


def test_flow_flat_is_stationary(flat2):
    trace = pseudo_calabi_flow(flat2, 0.01, 5e-3)
    assert np.all(trace.nu == 0.0)
    assert np.all(trace.grad_norm == 0.0)


def test_flow_monotone_short(pot2):
    trace = pseudo_calabi_flow(pot2, 0.01, 5e-4, sample_every=4)
    inc = np.diff(trace.nu)
    assert np.all(inc <= 1e-10)
    assert trace.nu[-1] < trace.nu[0]
    assert trace.grad_norm[-1] < trace.grad_norm[0]


def test_flow_validation(pot2):
    with pytest.raises(ValueError):
        pseudo_calabi_flow(pot2, 0.01, -1e-3)
    with pytest.raises(ValueError):
        pseudo_calabi_flow(pot2, 1e-4, 1e-3)
    for every in (0, -1, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            pseudo_calabi_flow(pot2, 0.01, 5e-3, sample_every=every)


def test_flow_rejects_overflowing_step_count(spec1):
    flat = make_potential(spec1, np.zeros(spec1.shape))
    with pytest.raises(ValueError, match="not finite"):
        pseudo_calabi_flow(flat, 1e300, 1e-300)

"""Potential assembly, pointwise operators, and the Green solver.

Closed-form anchors: at the flat potential the metric is g = I/2, so the
metric Laplacian of cos(2 pi x) is -2 pi^2 cos(2 pi x) and its Green
potential is cos(2 pi x)/(2 pi^2) up to sign; the Monge-Ampere cross term
of cos(2 pi x_1) and cos(2 pi x_2) is 4 pi^4 cos cos (the Laplacian product;
the Hessian-star of fields on different complex axes vanishes).
"""

import tracemalloc

import numpy as np
import pytest

import kgeo.state
import oracles
from kgeo.torus import build_spec, random_field, dealias, hartley
from kgeo.state import (EPS_POS, PositivityViolation, MeanNotZero,
                        NoConvergence, make_potential, project_tangent,
                        check_anchor, laplacian, hess_star, ma_cross,
                        c_divergence, green_solve, TangentVector, _c_parts,
                        _parseval, _raise)

PI = np.pi


@pytest.fixture(scope="module")
def spec1():
    return build_spec(1, 16)


@pytest.fixture(scope="module")
def spec2():
    return build_spec(2, 16)


@pytest.fixture(scope="module")
def flat2(spec2):
    return make_potential(spec2, np.zeros(spec2.shape))


@pytest.fixture(scope="module")
def curved1(spec1):
    return make_potential(spec1, 0.01 * random_field(spec1, seed=31))


@pytest.fixture(scope="module")
def curved2(spec2):
    return make_potential(spec2, 0.004 * random_field(spec2, seed=32))


# --------------------------------------------------------- make_potential --

def _inverse_metric(pot):
    # g^-1 as the package applies it: column k is _raise of the k-th unit vector
    n, shape = pot.spec.n, pot.spec.shape
    units = [[np.full(shape, float(j == k)) for j in range(n)] for k in range(n)]
    return np.stack([np.stack(_raise(pot, e), axis=-1) for e in units], axis=-1)


def test_flat_potential_tables(flat2):
    assert flat2.margin == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(flat2.u)) < 1e-14
    assert np.max(np.abs(flat2.e_u - 1.0)) < 1e-14
    assert np.max(np.abs(_inverse_metric(flat2)[..., 0, 0] - 2.0)) < 1e-14


def test_make_potential_recentres(spec1):
    f = 0.01 * random_field(spec1, seed=33)
    pot = make_potential(spec1, f + 3.0)
    assert abs(float(np.mean(pot.phi))) < 1e-13
    assert np.max(np.abs(pot.phi - f)) < 1e-12


def test_make_potential_dealiases(spec1):
    x, _ = spec1.coordinates()
    pot = make_potential(spec1, 0.01 * np.cos(2 * PI * 7 * x))  # beyond cutoff
    assert np.max(np.abs(pot.phi)) < 1e-13


def test_positivity_violation(spec2):
    with pytest.raises(PositivityViolation) as err:
        make_potential(spec2, 0.5 * random_field(spec2, seed=34))
    assert err.value.margin is not None
    assert err.value.margin <= EPS_POS


def test_nan_node_is_a_positivity_violation(spec2):
    # every comparison with NaN is False, so the margin test must not be one
    phi = 0.004 * random_field(spec2, seed=35)
    phi[3, 5, 7, 9] = np.nan
    with pytest.raises(PositivityViolation):
        make_potential(spec2, phi)


def test_volume_normalization(curved1, curved2):
    # node-mean of e^u is exactly 1 for dealiased potentials
    for pot in (curved1, curved2):
        assert pot.eu_mean(np.ones(pot.spec.shape)) == pytest.approx(1.0, abs=1e-13)


def test_metric_margin_matches_eigensolver(curved2):
    g = oracles.metric(curved2)
    eigs = np.linalg.eigvalsh(g)
    assert curved2.margin == pytest.approx(float(np.min(eigs)), abs=1e-12)
    inv = np.linalg.inv(g)
    assert np.max(np.abs(inv - _inverse_metric(curved2))) < 1e-12


def test_potential_stores_components_only(curved1, curved2):
    # phi, the metric fields, 1/det g, u and e_u: 64 B/node at n = 2 (four
    # metric fields), 40 at n = 1 (one); no inverse metric
    for pot, bound in ((curved1, 40), (curved2, 64)):
        arrays = [v for v in vars(pot).values() if isinstance(v, np.ndarray)]
        assert all(a.shape == pot.spec.shape for a in arrays)
        assert sum(a.nbytes for a in arrays) <= bound * pot.spec.nodes


# -------------------------------------------------------- tangent vectors --

def test_project_tangent_gauge(curved2):
    tv = project_tangent(curved2, random_field(curved2.spec, seed=35) + 0.7)
    assert abs(curved2.eu_mean(tv.psi)) < 1e-13


def test_check_anchor(spec1, curved1):
    other = make_potential(spec1, 0.01 * random_field(spec1, seed=36))
    tv = project_tangent(curved1, random_field(spec1, seed=37))
    check_anchor(curved1, tv)  # no raise
    # deterministic assembly: equal raw inputs give interchangeable anchors
    raw = 0.01 * random_field(spec1, seed=31)
    twin_a, twin_b = make_potential(spec1, raw), make_potential(spec1, raw)
    check_anchor(twin_b, project_tangent(twin_a, random_field(spec1, seed=37)))
    with pytest.raises(ValueError):
        check_anchor(other, tv)


# -------------------------------------------------------------- operators --

def test_laplacian_flat_agrees_with_background(flat2):
    f = random_field(flat2.spec, seed=38)
    assert np.max(np.abs(laplacian(flat2, f) - oracles.flat_laplacian(flat2.spec, f))) < 1e-10


def test_laplacian_self_adjoint(curved2):
    p = project_tangent(curved2, random_field(curved2.spec, seed=39)).psi
    q = project_tangent(curved2, random_field(curved2.spec, seed=40)).psi
    lhs = curved2.eu_mean(p * laplacian(curved2, q))
    rhs = curved2.eu_mean(q * laplacian(curved2, p))
    assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)


def test_hess_star_dim1_identity(curved1):
    f = random_field(curved1.spec, seed=41)
    h = random_field(curved1.spec, seed=42)
    prod = laplacian(curved1, f) * laplacian(curved1, h)
    assert np.max(np.abs(hess_star(curved1, f, h) - prod)) < 1e-10


def test_hess_star_symmetric_nonneg(curved2):
    f = random_field(curved2.spec, seed=43)
    h = random_field(curved2.spec, seed=44)
    assert np.max(np.abs(hess_star(curved2, f, h)
                         - hess_star(curved2, h, f))) < 1e-11
    assert float(np.min(hess_star(curved2, f, f))) >= 0.0


def test_ma_cross_dim1_vanishes(curved1):
    f = random_field(curved1.spec, seed=45)
    h = random_field(curved1.spec, seed=46)
    scale = float(np.max(np.abs(laplacian(curved1, f) * laplacian(curved1, h))))
    assert np.max(np.abs(ma_cross(curved1, f, h))) < 1e-12 * scale


def test_ma_cross_flat_oracle(flat2):
    x1, x2, _, _ = flat2.spec.coordinates()
    c1, c2 = np.cos(2 * PI * x1), np.cos(2 * PI * x2)
    expect = 4.0 * PI ** 4 * c1 * c2
    assert np.max(np.abs(ma_cross(flat2, c1, c2) - expect)) < 1e-9


def test_ma_cross_mean_zero(curved2):
    p = project_tangent(curved2, random_field(curved2.spec, seed=47)).psi
    q = project_tangent(curved2, random_field(curved2.spec, seed=48)).psi
    v = ma_cross(curved2, p, q)
    scale = float(np.sqrt(np.mean(hess_star(curved2, p, q) ** 2)))
    assert abs(curved2.eu_mean(v)) < 1e-12 * scale


def test_c_tensor_flat_oracle(flat2):
    x1, _, _, _ = flat2.spec.coordinates()
    c1 = np.cos(2 * PI * x1)
    C = _c_parts(flat2, c1)
    assert np.max(np.abs(C[0])) < 1e-10          # cancels exactly
    assert np.max(np.abs(C[1] + PI ** 2 * c1)) < 1e-10
    assert np.max(np.abs(C[2] + 1j * C[3])) < 1e-10


def test_c_tensor_dim1_vanishes(curved1):
    f = random_field(curved1.spec, seed=49)
    C = _c_parts(curved1, f)
    assert np.max(np.abs(C[0])) < 1e-10


def test_c_divergence_roundoff(curved1, curved2):
    for pot, seed in ((curved1, 50), (curved2, 51)):
        p = project_tangent(pot, 0.02 * random_field(pot.spec, seed=seed)).psi
        assert c_divergence(pot, p) < 1e-9 * float(np.max(np.abs(p)))


def test_laplacian_rate_matches_difference(curved2):
    spec = curved2.spec
    phi_t = project_tangent(curved2, 0.02 * random_field(spec, seed=52)).psi
    psi = project_tangent(curved2, 0.02 * random_field(spec, seed=53)).psi
    h = 1e-5
    pp = make_potential(spec, curved2.phi + h * phi_t)
    pm = make_potential(spec, curved2.phi - h * phi_t)
    fd = (laplacian(pp, psi) - laplacian(pm, psi)) / (2 * h)
    an = -hess_star(curved2, phi_t, psi)
    scale = max(float(np.max(np.abs(an))), 1e-30)
    assert np.max(np.abs(fd - an)) < 1e-4 * scale
    # moving section adds the Laplacian of its own velocity
    psi_t = project_tangent(curved2, random_field(spec, seed=54)).psi
    both = laplacian(curved2, psi_t) - hess_star(curved2, phi_t, psi)
    assert np.max(np.abs(both - an - laplacian(curved2, psi_t))) < 1e-10


# ------------------------------------------------------------ green_solve --

def test_green_solve_flat_mode(flat2):
    x1, _, _, _ = flat2.spec.coordinates()
    c1 = np.cos(2 * PI * x1)
    w = green_solve(flat2, c1)
    assert np.max(np.abs(w + c1 / (2 * PI ** 2))) < 1e-9


def test_green_solve_roundtrip(curved2):
    v = laplacian(curved2, project_tangent(
        curved2, 0.02 * random_field(curved2.spec, seed=55)).psi)
    v = v - curved2.eu_mean(v)
    w = green_solve(curved2, v)
    back = laplacian(curved2, w)
    rel = np.max(np.abs(back - v)) / np.max(np.abs(v))
    assert rel < 1e-8
    assert abs(curved2.eu_mean(w)) < 1e-12


def test_green_solve_warm_start_consistent(curved2):
    v = ma_cross(curved2, random_field(curved2.spec, seed=56),
                 random_field(curved2.spec, seed=57))
    cold = green_solve(curved2, v)
    warm = green_solve(curved2, v, x0=cold + 0.1 * random_field(curved2.spec, seed=58))
    assert np.max(np.abs(cold - warm)) < 1e-8 * max(np.max(np.abs(cold)), 1e-30)


def test_green_solve_rejects_nonzero_mean(curved2):
    with pytest.raises(MeanNotZero):
        green_solve(curved2, np.ones(curved2.spec.shape))


def test_green_solve_small_rhs_shortcircuit(curved2):
    v = 1e-13 * random_field(curved2.spec, seed=59)
    assert np.array_equal(green_solve(curved2, v), np.zeros(curved2.spec.shape))


def test_green_solve_iteration_cap(curved2):
    v = ma_cross(curved2, random_field(curved2.spec, seed=60),
                 random_field(curved2.spec, seed=61))
    with pytest.raises(NoConvergence) as err:
        green_solve(curved2, v, maxiter=1)
    assert err.value.iterations == 1
    assert err.value.residual is not None


def test_green_solve_nan_breaks_down_at_once(curved2):
    # a NaN right-hand side or warm start must not run to the iteration cap
    # (the cap is lowered so that a regression fails instead of spinning)
    v = ma_cross(curved2, random_field(curved2.spec, seed=62),
                 random_field(curved2.spec, seed=63))
    nan_v = v.copy()
    nan_v[1, 2, 3, 4] = np.nan
    nan_x0 = np.zeros(curved2.spec.shape)
    nan_x0[0, 0, 0, 1] = np.nan
    for rhs, x0 in ((nan_v, None), (v, nan_x0)):
        with pytest.raises(NoConvergence) as err:
            green_solve(curved2, rhs, x0=x0, maxiter=50)
        assert err.value.iterations == 0


@pytest.mark.parametrize("n, N", [(1, 16), (1, 32), (2, 16), (2, 32)])
def test_parseval_sum_matches_grid_sum(n, N):
    # full-band noise fills every Nyquist plane
    spec = build_spec(n, N)
    rng = np.random.default_rng(64 + n)
    f = rng.standard_normal(spec.shape)
    h = rng.standard_normal(spec.shape)
    for a, b in ((f, h), (f, f), (f, f + h)):
        want = float(np.sum(a * b))
        got = _parseval(spec, hartley(spec, a), hartley(spec, b))
        assert abs(got - want) <= 1e-13 * abs(want)


def test_green_solve_transform_budget(monkeypatch, curved2):
    # a cold solve of k iterations: one transform of e^u r to start; five
    # per iteration, four for the Hessian parts of p and one of e^u Ap; four
    # for the true residual and one for the result
    calls = {}
    for name in ("hartley", "_flat_inverse"):
        true_fn = getattr(kgeo.state, name)

        def counting(*args, _name=name, _fn=true_fn, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(kgeo.state, name, counting)
    v = ma_cross(curved2, random_field(curved2.spec, seed=65),
                 random_field(curved2.spec, seed=66))
    green_solve(curved2, v)
    k = calls["_flat_inverse"]
    assert k > 0
    assert calls["hartley"] == 5 * k + 6


def test_green_solve_repeats_bit_for_bit(curved2):
    # the workspace and the transform scratch carry nothing from one solve
    # into the next
    spec = curved2.spec
    v = ma_cross(curved2, random_field(spec, seed=67), random_field(spec, seed=68))
    first = green_solve(curved2, v)
    green_solve(curved2, laplacian(curved2, random_field(spec, seed=69)),
                x0=random_field(spec, seed=70))
    assert green_solve(curved2, v).tobytes() == first.tobytes()


def test_green_solve_memory_is_a_fixed_number_of_fields(monkeypatch, curved2):
    # one workspace per solve: 10 grid fields (7 of them real-space, 3
    # spectra), beside the right-hand side, residual, iterate and (e^u r)^
    # (14 fields in all). An iteration allocates no grid field; what it
    # does allocate (NumPy's buffers for broadcast and strided operands of
    # the symbol terms) stays below half a field.
    field = 8 * curved2.spec.nodes
    peaks, rises = [], []
    true_fn = kgeo.state._flat_inverse

    def at_iteration(*args, **kwargs):  # one call per PCG iteration
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        rises.append(peak - current)
        tracemalloc.reset_peak()
        return true_fn(*args, **kwargs)
    monkeypatch.setattr(kgeo.state, "_flat_inverse", at_iteration)
    v = ma_cross(curved2, random_field(curved2.spec, seed=71),
                 random_field(curved2.spec, seed=72))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        green_solve(curved2, v)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(rises) > 5
    # the first stretch holds the set-up; each later one is one iteration
    assert max(rises[1:]) < field / 2
    assert max(peaks) - before <= 16 * field

"""Sectional curvature, a-priori bounds, spectral gap, and sign probes.

Analytic anchors used here (all at the flat metric, unit-volume torus,
g = (1/2) I, Dirichlet norm of cos(2 pi x_1) equal to sqrt(2 pi^2)):

* Calabi: constant 1/4 for every plane at every potential.
* Mabuchi: the plane spanned by cos(2 pi x_1) and sin(2 pi y_1) has
  curvature -4 pi^4 (bracket -4 pi^2 sin(2 pi x_1) cos(2 pi y_1) after
  normalization, squared and averaged).
* Dirichlet, n = 2: the plane spanned by cos(2 pi x_1) and cos(2 pi x_2)
  has curvature +pi^2/16, the auxiliary potentials a(psi,psi) and
  a(chi,chi) vanish identically, and the a-priori bound is attained:
  rho_1 = sqrt(2) pi, rho_2 = 0, bound = rho_1^2/32 = pi^2/16.
"""

import numpy as np
import pytest

import kgeo.curvature
import kgeo.metrics
import kgeo.state
from kgeo.torus import build_spec, random_field
from kgeo.state import make_potential, project_tangent
from kgeo.metrics import MetricKind
from kgeo.curvature import (
    CurvatureReport,
    commutator_fd,
    dirichlet_bound,
    poincare_constant,
    sectional,
    sign_probe,
)


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
def curved2(spec2):
    return make_potential(spec2, 0.004 * random_field(spec2, seed=52))


def _tv(pot, seed, **kw):
    return project_tangent(pot, random_field(pot.spec, seed=seed, **kw))


# ---------------------------------------------------------------------------
# Calabi: constant curvature


def test_calabi_sectional_is_one_quarter_everywhere(spec1, curved2):
    pot1 = make_potential(spec1, 0.01 * random_field(spec1, seed=51))
    for pot in (pot1, curved2):
        rep = sectional(MetricKind.CALABI, pot, _tv(pot, 7), _tv(pot, 8))
        assert rep.value == 0.25
        assert rep.diagnostics == {}
        assert rep.kind is MetricKind.CALABI


# ---------------------------------------------------------------------------
# Mabuchi: analytic anchor and nonpositivity


def test_mabuchi_flat_anchor_dim1(spec1):
    flat1 = make_potential(spec1, np.zeros(spec1.shape))
    x, y = spec1.coordinates()
    tv1 = project_tangent(flat1, np.cos(2.0 * np.pi * x))
    tv2 = project_tangent(flat1, np.sin(2.0 * np.pi * y))
    rep = sectional(MetricKind.MABUCHI, flat1, tv1, tv2)
    assert rep.value == pytest.approx(-4.0 * np.pi ** 4, rel=1e-12)


def test_mabuchi_flat_anchor_dim2(flat2):
    x1, _, y1, _ = flat2.spec.coordinates()
    tv1 = project_tangent(flat2, np.cos(2.0 * np.pi * x1))
    tv2 = project_tangent(flat2, np.sin(2.0 * np.pi * y1))
    rep = sectional(MetricKind.MABUCHI, flat2, tv1, tv2)
    assert rep.value == pytest.approx(-4.0 * np.pi ** 4, rel=1e-12)


def test_mabuchi_nonpositive_on_seeded_planes(curved2):
    for seed in (1, 2, 3):
        rep = sectional(MetricKind.MABUCHI, curved2,
                        _tv(curved2, 100 + seed), _tv(curved2, 200 + seed))
        assert rep.value <= 1e-12


# ---------------------------------------------------------------------------
# Dirichlet: dimension-one flatness, engineered anchor, oracle agreement


def test_dirichlet_dim1_vanishes(spec1):
    pot = make_potential(spec1, 0.01 * random_field(spec1, seed=53))
    for seed in (1, 2):
        rep = sectional(MetricKind.DIRICHLET, pot,
                        _tv(pot, 300 + seed), _tv(pot, 400 + seed))
        assert abs(rep.value) <= 1e-8


def test_dirichlet_flat_engineered_anchor(flat2):
    x1, x2, _, _ = flat2.spec.coordinates()
    tv1 = project_tangent(flat2, np.cos(2.0 * np.pi * x1))
    tv2 = project_tangent(flat2, np.cos(2.0 * np.pi * x2))
    rep = sectional(MetricKind.DIRICHLET, flat2, tv1, tv2)
    assert rep.value == pytest.approx(np.pi ** 2 / 16.0, rel=1e-8)
    # the gradient-form evaluation of the same quantity agrees
    assert rep.diagnostics["gradient_form"] == pytest.approx(
        rep.value, rel=1e-8)
    # the a-priori bound is attained on this plane (rho_2 = 0)
    bnd = dirichlet_bound(flat2, tv1)
    assert bnd == pytest.approx(np.pi ** 2 / 16.0, rel=1e-8)
    assert bnd >= rep.value - 1e-10


def test_dirichlet_matches_commutator_oracle(curved2):
    pot = make_potential(curved2.spec,
                         1e-3 * random_field(curved2.spec, seed=1401))
    tv1 = project_tangent(pot, random_field(pot.spec, seed=14101, kmax=3))
    tv2 = project_tangent(pot, random_field(pot.spec, seed=14201, kmax=3))
    rep = sectional(MetricKind.DIRICHLET, pot, tv1, tv2)
    fd = commutator_fd(pot, rep.plane[0], rep.plane[1], 1e-2)
    assert abs(rep.value - fd) <= 4e-2  # second-order FD truncation budget


def test_dirichlet_diagnostics_and_gradient_form(curved2):
    rep = sectional(MetricKind.DIRICHLET, curved2,
                    _tv(curved2, 501), _tv(curved2, 502))
    for key in ("residual_a_st", "residual_a_ss", "residual_a_tt"):
        assert rep.diagnostics[key] <= 1e-8
    # the two evaluations agree up to the aliasing tail of the N=16 grid
    # (measured 4.1e-3 here; the same plane on N=32 gives 1.1e-7)
    assert abs(rep.diagnostics["gradient_form"] - rep.value) <= 1e-2


def test_sectional_rejects_unknown_kind(curved2):
    with pytest.raises(ValueError):
        sectional("dirichlet", curved2, _tv(curved2, 1), _tv(curved2, 2))


def test_report_repr(curved2):
    rep = sectional(MetricKind.CALABI, curved2,
                    _tv(curved2, 1), _tv(curved2, 2))
    text = repr(rep)
    assert "Calabi" in text and "0.25" in text


# ---------------------------------------------------------------------------
# A-priori bound


def test_dirichlet_bound_dominates_on_seeded_triples(curved2):
    for seed in (1, 2, 3):
        tv1 = _tv(curved2, 600 + seed)
        tv2 = _tv(curved2, 700 + seed)
        rep = sectional(MetricKind.DIRICHLET, curved2, tv1, tv2)
        assert dirichlet_bound(curved2, rep.plane[0]) >= abs(rep.value)


def test_dirichlet_bound_scale_invariant_and_zero(curved2):
    tv = _tv(curved2, 801)
    b1 = dirichlet_bound(curved2, tv)
    b2 = dirichlet_bound(
        curved2, project_tangent(curved2, 7.5 * tv.psi))
    assert b2 == pytest.approx(b1, rel=1e-10)
    zero = project_tangent(curved2, np.zeros(curved2.spec.shape))
    assert dirichlet_bound(curved2, zero) == 0.0


def _count_green_solves(monkeypatch):
    calls = []
    true_solve = kgeo.state.green_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return true_solve(*args, **kwargs)

    for module in (kgeo.curvature, kgeo.metrics):
        monkeypatch.setattr(module, "green_solve", counting)
    return calls


def test_report_bound_reuses_solved_a_ss(curved2, monkeypatch):
    tv1, tv2 = _tv(curved2, 611), _tv(curved2, 711)
    rep = sectional(MetricKind.DIRICHLET, curved2, tv1, tv2)
    assert sorted(rep.aux) == ["a_ss", "a_st", "a_tt"]
    calls = _count_green_solves(monkeypatch)
    bound = rep.bound()
    assert calls == []
    assert bound == pytest.approx(dirichlet_bound(curved2, rep.plane[0]),
                                  rel=1e-12)
    for kind in (MetricKind.MABUCHI, MetricKind.CALABI):
        other = sectional(kind, curved2, tv1, tv2)
        assert other.aux == {}
        with pytest.raises(ValueError):
            other.bound()


# ---------------------------------------------------------------------------
# Spectral gap


def test_poincare_constant_flat(flat2):
    assert poincare_constant(flat2) == pytest.approx(
        2.0 * np.pi ** 2, rel=1e-6)


def test_poincare_constant_positive_curved(curved2):
    lam = poincare_constant(curved2)
    assert lam > 0.0
    assert lam == pytest.approx(2.0 * np.pi ** 2, rel=0.2)


# ---------------------------------------------------------------------------
# Sign probe


def test_sign_probe_engineered_plane(flat2):
    x1, x2, _, _ = flat2.spec.coordinates()
    tv1 = project_tangent(flat2, np.cos(2.0 * np.pi * x1))
    tv2 = project_tangent(flat2, np.cos(2.0 * np.pi * x2))
    probe = sign_probe(flat2, tv1, tv2)
    assert probe["a_ss_constant"] is True
    assert probe["a_tt_constant"] is True
    assert probe["a_st_constant"] is False
    assert probe["sign_consistent"] is True
    assert probe["value"] == pytest.approx(np.pi ** 2 / 16.0, rel=1e-8)


def test_sign_probe_generic_plane_is_inconclusive(curved2):
    probe = sign_probe(curved2, _tv(curved2, 901), _tv(curved2, 902))
    assert probe["a_st_constant"] is False
    assert probe["sign_consistent"] is None


def test_sign_probe_solves_each_auxiliary_potential_once(curved2, monkeypatch):
    calls = _count_green_solves(monkeypatch)
    sign_probe(curved2, _tv(curved2, 903), _tv(curved2, 904))
    assert len(calls) == 3

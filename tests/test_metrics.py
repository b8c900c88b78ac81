"""Inner products, brackets, orthonormalization, and the covariant derivative.

Closed-form anchors at the flat potential (g = I/2, e^u = 1):

* cos(2 pi x) has Mabuchi norm^2 1/2, Calabi norm^2 2 pi^4, Dirichlet
  norm^2 2 pi^2;
* the gradient pairing is the full real-coordinates (df, dh), the bracket is
  half of f_x h_y - f_y h_x per complex axis;
* for psi = cos(2 pi x_1), chi = cos(2 pi x_2): the cross term is
  4 pi^4 psi chi, the flat Green operator divides the double mode by
  -4 pi^2, so D_t chi along a curve with velocity psi and frozen section is
  -(pi^2/2) psi chi.
"""

import numpy as np
import pytest

from kgeo.torus import build_spec, random_field
from kgeo.state import (make_potential, project_tangent, laplacian,
                        TangentVector)
from kgeo.metrics import (MetricKind, DegeneratePlane, grad_pairing,
                          poisson_bracket, inner, gram_schmidt, a_field,
                          covariant_derivative_at, covariant_derivative)

PI = np.pi
KINDS = (MetricKind.MABUCHI, MetricKind.CALABI, MetricKind.DIRICHLET)


@pytest.fixture(scope="module")
def spec1():
    return build_spec(1, 16)


@pytest.fixture(scope="module")
def spec2():
    return build_spec(2, 16)


@pytest.fixture(scope="module")
def flat1(spec1):
    return make_potential(spec1, np.zeros(spec1.shape))


@pytest.fixture(scope="module")
def flat2(spec2):
    return make_potential(spec2, np.zeros(spec2.shape))


@pytest.fixture(scope="module")
def curved2(spec2):
    return make_potential(spec2, 0.004 * random_field(spec2, seed=32))


def tv(pot, seed, amp=1.0):
    return project_tangent(pot, amp * random_field(pot.spec, seed=seed))


# --------------------------------------------------------- inner products --

def test_inner_flat_single_mode(flat1):
    x, _ = flat1.spec.coordinates()
    c = TangentVector(flat1, np.cos(2 * PI * x))
    assert inner(MetricKind.MABUCHI, flat1, c, c) == pytest.approx(0.5, abs=1e-13)
    assert inner(MetricKind.CALABI, flat1, c, c) == pytest.approx(
        2 * PI ** 4, rel=1e-13)
    assert inner(MetricKind.DIRICHLET, flat1, c, c) == pytest.approx(
        2 * PI ** 2, rel=1e-13)


def test_inner_symmetric_positive(curved2):
    a, b = tv(curved2, 101), tv(curved2, 102)
    for kind in KINDS:
        assert inner(kind, curved2, a, b) == pytest.approx(
            inner(kind, curved2, b, a), rel=1e-12)
        assert inner(kind, curved2, a, a) > 0.0


def test_inner_rejects_foreign_anchor(spec2, curved2):
    other = make_potential(spec2, 0.004 * random_field(spec2, seed=33))
    with pytest.raises(ValueError):
        inner(MetricKind.MABUCHI, curved2, tv(curved2, 103), tv(other, 104))


def test_dirichlet_integration_by_parts(curved2):
    # the pairing of differentials equals -2 mean(psi lap chi e^u) exactly
    a, b = tv(curved2, 105), tv(curved2, 106)
    lhs = inner(MetricKind.DIRICHLET, curved2, a, b)
    rhs = -2.0 * curved2.eu_mean(a.psi * laplacian(curved2, b.psi))
    assert abs(lhs - rhs) < 1e-13 * max(abs(lhs), 1.0)


# ------------------------------------------------- pointwise contractions --

def test_grad_pairing_real_coordinates(flat1):
    # at the flat metric the pairing is the plain real gradient dot product
    spec = flat1.spec
    f = random_field(spec, seed=60)
    h = random_field(spec, seed=61)
    fh, hh = np.fft.fftn(f), np.fft.fftn(h)
    kx = spec.axis_freq.reshape(-1, 1)
    ky = spec.axis_freq.reshape(1, -1)
    fx = np.fft.ifftn(2j * PI * kx * fh).real
    fy = np.fft.ifftn(2j * PI * ky * fh).real
    hx = np.fft.ifftn(2j * PI * kx * hh).real
    hy = np.fft.ifftn(2j * PI * ky * hh).real
    assert np.max(np.abs(grad_pairing(flat1, f, h) - (fx * hx + fy * hy))) < 1e-12
    assert np.max(np.abs(poisson_bracket(flat1, f, h)
                         - 0.5 * (fx * hy - fy * hx))) < 1e-12


def test_poisson_bracket_antisymmetric(curved2):
    f = random_field(curved2.spec, seed=62)
    h = random_field(curved2.spec, seed=63)
    assert np.max(np.abs(poisson_bracket(curved2, f, h)
                         + poisson_bracket(curved2, h, f))) < 1e-12
    assert np.max(np.abs(poisson_bracket(curved2, f, f))) < 1e-12


def test_poisson_bracket_flat_modes(flat2):
    x1, _, y1, _ = flat2.spec.coordinates()
    br = poisson_bracket(flat2, np.cos(2 * PI * x1), np.sin(2 * PI * y1))
    expect = -2.0 * PI ** 2 * np.sin(2 * PI * x1) * np.cos(2 * PI * y1)
    assert np.max(np.abs(br - expect)) < 1e-11


# ----------------------------------------------------------- gram_schmidt --

def test_gram_schmidt_orthonormal(curved2):
    vecs = [tv(curved2, s) for s in (110, 111, 112)]
    for kind in KINDS:
        basis = gram_schmidt(kind, curved2, vecs)
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert inner(kind, curved2, e, f) == pytest.approx(want, abs=1e-10)


def test_gram_schmidt_degenerate(curved2):
    v = tv(curved2, 113)
    for scale in (2.0, 0.0):  # a parallel vector; the zero vector
        w = TangentVector(curved2, scale * v.psi)
        with pytest.raises(DegeneratePlane):
            gram_schmidt(MetricKind.DIRICHLET, curved2, [v, w])


def _oracle_gram_schmidt(kind, pot, vectors):
    # the inner-based modified Gram-Schmidt that transforms every projected
    # field again; the vectors are known to span (no degeneracy checks)
    out = []
    for v in vectors:
        w = v.psi.copy()
        for _ in range(2):
            for e in out:
                w -= inner(kind, pot, TangentVector(pot, w), e) * e.psi
        nrm = inner(kind, pot, TangentVector(pot, w), TangentVector(pot, w))
        out.append(TangentVector(pot, w / np.sqrt(nrm)))
    return out


@pytest.mark.parametrize("n, N, amp", [(1, 32, 0.01), (2, 16, 0.004)])
def test_gram_schmidt_matches_inner_oracle(n, N, amp):
    spec = build_spec(n, N)
    pot = make_potential(spec, amp * random_field(spec, seed=118))
    vecs = [tv(pot, 119), tv(pot, 120), tv(pot, 121)]
    for kind in KINDS:
        got = gram_schmidt(kind, pot, vecs)
        want = _oracle_gram_schmidt(kind, pot, vecs)
        for e, f in zip(got, want):
            scale = float(np.max(np.abs(f.psi)))
            assert float(np.max(np.abs(e.psi - f.psi))) <= 1e-12 * scale


def _count_calls(monkeypatch, module, name):
    calls = []
    true_fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return true_fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)
    return calls


def test_gram_schmidt_transforms_each_input_once(monkeypatch, curved2):
    import kgeo.metrics
    import kgeo.state
    grads = (_count_calls(monkeypatch, kgeo.metrics, "gradient_z"),
             _count_calls(monkeypatch, kgeo.state, "gradient_z"))
    hess = _count_calls(monkeypatch, kgeo.state, "hessian_parts")
    vecs = [tv(curved2, 122), tv(curved2, 123)]
    expect = {MetricKind.MABUCHI: (0, 0), MetricKind.CALABI: (0, 2),
              MetricKind.DIRICHLET: (2, 0)}
    for kind, counts in expect.items():
        for calls in grads + (hess,):
            calls.clear()
        gram_schmidt(kind, curved2, vecs)
        assert (sum(map(len, grads)), len(hess)) == counts
    hess.clear()
    assert inner(MetricKind.CALABI, curved2, vecs[0], vecs[0]) > 0.0
    assert len(hess) == 1


# ---------------------------------------------------- auxiliary potential --

def test_a_field_dim1_zero(spec1):
    pot = make_potential(spec1, 0.01 * random_field(spec1, seed=31))
    a = a_field(pot, tv(pot, 114), tv(pot, 115))
    assert np.max(np.abs(a)) == 0.0


def test_a_field_solves_equation(curved2):
    from kgeo.state import ma_cross
    t1, t2 = tv(curved2, 116, amp=0.02), tv(curved2, 117, amp=0.02)
    a = a_field(curved2, t1, t2)
    rhs = ma_cross(curved2, t1.psi, t2.psi)
    rel = np.max(np.abs(laplacian(curved2, a) - rhs)) / np.max(np.abs(rhs))
    assert rel < 1e-8
    assert abs(curved2.eu_mean(a)) < 1e-12
    a_swapped = a_field(curved2, t2, t1)
    assert np.max(np.abs(a - a_swapped)) < 1e-12


# ----------------------------------------------------- covariant derivative --

def test_covariant_derivative_flat_oracle(flat2):
    x1, x2, _, _ = flat2.spec.coordinates()
    c1, c2 = np.cos(2 * PI * x1), np.cos(2 * PI * x2)
    out = covariant_derivative_at(flat2, c1, c2, np.zeros(flat2.spec.shape))
    expect = -0.5 * PI ** 2 * c1 * c2
    assert np.max(np.abs(out.psi - expect)) < 1e-12


def test_covariant_derivative_linear_in_section_velocity(curved2):
    phi_t = tv(curved2, 118, amp=0.02).psi
    psi = tv(curved2, 119, amp=0.02).psi
    psi_t = tv(curved2, 120, amp=0.02).psi
    base = covariant_derivative_at(curved2, phi_t, psi,
                                   np.zeros(curved2.spec.shape)).psi
    moved = covariant_derivative_at(curved2, phi_t, psi, psi_t).psi
    gauge = psi_t - curved2.eu_mean(psi_t)
    assert np.max(np.abs(moved - base - gauge)) < 1e-13


def test_covariant_derivative_sampled_matches_analytic(curved2):
    # central differences of an analytic curve against exact velocities
    spec = curved2.spec
    beta = tv(curved2, 121, amp=0.004).psi
    psi0 = tv(curved2, 122, amp=0.02).psi
    delta = tv(curved2, 123, amp=0.02).psi
    h = 1e-3
    pots = [make_potential(spec, curved2.phi + np.sin(t) * beta)
            for t in (-h, 0.0, h)]
    secs = [psi0 + np.sin(t) * delta for t in (-h, 0.0, h)]
    sampled = covariant_derivative(pots, secs, 1, h).psi
    exact = covariant_derivative_at(pots[1], beta, psi0, delta).psi
    assert np.max(np.abs(sampled - exact)) < 1e-5 * max(np.max(np.abs(exact)), 1e-30)


def test_covariant_derivative_needs_interior_index(curved2):
    spec = curved2.spec
    pots = [curved2] * 3
    secs = [np.zeros(spec.shape)] * 3
    with pytest.raises(IndexError):
        covariant_derivative(pots, secs, 0, 1e-2)

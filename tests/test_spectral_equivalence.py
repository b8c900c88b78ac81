"""Real-FFT kernels against the complex-FFT and einsum formulas they replace.

The oracle below applies each full symbol with numpy.fft.fftn/ifftn and
contracts the (n, n) tensors with einsum. The fields are full-band white
noise, so every Nyquist plane carries content; that is where a real-FFT
kernel that takes only Re s and Im s of an off-diagonal symbol would differ.
Agreement is required to 1e-13 relative to the oracle's sup norm.
"""

import numpy as np
import pytest

from kgeo.torus import build_spec, dealias, flat_laplacian, complex_hessian
from kgeo.state import (_potential_raw, _flat_inverse, laplacian, hess_star,
                        ma_cross)

RTOL = 1e-13


# ----------------------------------------------------------------- oracle --

def _oracle_dealias(spec, f):
    keep = np.ones(spec.shape, dtype=bool)
    for ax in range(spec.dim_real):
        keep &= np.abs(spec._freq[ax]) <= spec.cutoff
    fh = np.fft.fftn(f)
    fh[~keep] = 0.0
    return np.fft.ifftn(fh).real


def _oracle_flat_laplacian(spec, f):
    return np.fft.ifftn(-2.0 * np.pi ** 2 * spec.kmag2 * np.fft.fftn(f)).real


def _oracle_flat_inverse(spec, r):
    rh = np.fft.fftn(r)
    sym = 2.0 * np.pi ** 2 * spec.kmag2
    with np.errstate(divide="ignore", invalid="ignore"):
        rh = np.where(sym > 0.0, rh / sym, 0.0)
    return np.fft.ifftn(rh).real


def _oracle_complex_hessian(spec, f):
    n = spec.n
    fh = np.fft.fftn(f)
    out = np.empty(spec.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(j, n):
            block = np.fft.ifftn(-spec.sigma[j] * np.conj(spec.sigma[k]) * fh)
            if j == k:
                out[..., j, j] = block.real
            else:
                out[..., j, k] = block
                out[..., k, j] = np.conj(block)
    return out


def _oracle_trace(g_inv, hess):
    return np.einsum("...jk,...kj->...", g_inv, hess).real


def _oracle_star(g_inv, hf, hh):
    return np.einsum("...jk,...kl,...lm,...mj->...", g_inv, hf, g_inv, hh).real


def _oracle_laplacian(pot, f):
    return _oracle_trace(pot.g_inv, _oracle_complex_hessian(pot.spec, f))


def _oracle_hess_star(pot, f, h):
    spec = pot.spec
    return _oracle_star(pot.g_inv, _oracle_complex_hessian(spec, f),
                        _oracle_complex_hessian(spec, h))


def _oracle_ma_cross(pot, f, h):
    hf = _oracle_complex_hessian(pot.spec, f)
    hh = _oracle_complex_hessian(pot.spec, h)
    return (_oracle_trace(pot.g_inv, hf) * _oracle_trace(pot.g_inv, hh)
            - _oracle_star(pot.g_inv, hf, hh))


# --------------------------------------------------------------- fixtures --

CASES = [(1, 32), (2, 16)]


@pytest.fixture(scope="module", params=CASES, ids=["n1-N32", "n2-N16"])
def case(request):
    n, N = request.param
    spec = build_spec(n, N)
    rng = np.random.default_rng(2024 + n)
    f = rng.standard_normal(spec.shape)
    h = rng.standard_normal(spec.shape)
    # a full-band metric: the potential is not dealiased either
    pot = _potential_raw(spec, 2e-5 * rng.standard_normal(spec.shape))
    return spec, pot, f, h


def _close(got, want):
    scale = float(np.max(np.abs(want)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - want))) <= RTOL * scale


def test_full_band_inputs(case):
    spec, pot, f, _ = case
    fh = np.fft.fftn(f)
    nyq = spec.N // 2
    for ax in range(spec.dim_real):
        plane = np.take(fh, nyq, axis=ax)
        assert float(np.max(np.abs(plane))) > 1.0
    assert pot.margin > 0.25


def test_dealias_matches(case):
    spec, _, f, _ = case
    _close(dealias(spec, f), _oracle_dealias(spec, f))


def test_flat_laplacian_matches(case):
    spec, _, f, _ = case
    _close(flat_laplacian(spec, f), _oracle_flat_laplacian(spec, f))


def test_flat_inverse_matches(case):
    spec, _, f, _ = case
    _close(_flat_inverse(spec, f), _oracle_flat_inverse(spec, f))


def test_complex_hessian_matches(case):
    spec, _, f, _ = case
    got = complex_hessian(spec, f)
    _close(got, _oracle_complex_hessian(spec, f))
    assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))


def test_laplacian_matches(case):
    _, pot, f, _ = case
    _close(laplacian(pot, f), _oracle_laplacian(pot, f))


def test_hess_star_matches(case):
    _, pot, f, h = case
    _close(hess_star(pot, f, h), _oracle_hess_star(pot, f, h))
    _close(hess_star(pot, f, f), _oracle_hess_star(pot, f, f))


def test_ma_cross_matches(case):
    spec, pot, f, h = case
    got = ma_cross(pot, f, h)
    if spec.n == 1:
        assert not np.any(got)
        return
    # the oracle's cross term is a difference of two products; compare
    # against the size of the products, not of their difference
    scale = float(np.max(np.abs(_oracle_laplacian(pot, f)
                                * _oracle_laplacian(pot, h))))
    want = _oracle_ma_cross(pot, f, h)
    assert float(np.max(np.abs(got - want))) <= RTOL * scale
    _close(ma_cross(pot, f, f), _oracle_ma_cross(pot, f, f))

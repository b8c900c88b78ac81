"""Real-FFT kernels against the complex-FFT and einsum formulas they replace.

The references come from oracles.py: each applies the full symbol with
numpy.fft.fftn/ifftn and contracts the (n, n) tensors with einsum, against
the inverse metric that numpy.linalg.inv gives. The fields are full-band
white noise, so every Nyquist plane carries content; that is where a
real-FFT kernel that takes only Re s and Im s of an off-diagonal symbol
would differ. Agreement is required to 1e-13 relative to the oracle's sup
norm.
"""

import numpy as np
import pytest

import oracles
from kgeo.torus import build_spec, dealias, hessian_parts, rfft, irfft
from kgeo.state import (_potential_raw, _flat_inverse, laplacian, hess_star,
                        ma_cross)

RTOL = 1e-13


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
    _close(dealias(spec, f), oracles.dealias(spec, f))


def test_flat_laplacian_matches(case):
    spec, _, f, _ = case
    flat = _potential_raw(spec, np.zeros(spec.shape))
    _close(laplacian(flat, f), oracles.flat_laplacian(spec, f))


def test_flat_inverse_matches(case):
    spec, _, f, _ = case
    _close(irfft(spec, _flat_inverse(spec, rfft(spec, f))), oracles.flat_inverse(spec, f))


def test_complex_hessian_matches(case):
    # the parts against the entries on and above the diagonal
    spec, _, f, _ = case
    p = hessian_parts(spec, f)
    want = oracles.complex_hessian(spec, f)
    if spec.n == 1:
        _close(p[0], want[..., 0, 0])
    else:
        _close(np.stack([p[0], p[1], p[2] + 1j * p[3]]),
               np.stack([want[..., 0, 0], want[..., 1, 1], want[..., 0, 1]]))


def test_laplacian_matches(case):
    _, pot, f, _ = case
    _close(laplacian(pot, f), oracles.laplacian(pot, f))


def test_hess_star_matches(case):
    _, pot, f, h = case
    _close(hess_star(pot, f, h), oracles.hess_star(pot, f, h))
    _close(hess_star(pot, f, f), oracles.hess_star(pot, f, f))


def test_ma_cross_matches(case):
    spec, pot, f, h = case
    got = ma_cross(pot, f, h)
    if spec.n == 1:
        assert not np.any(got)
        return
    # the oracle's cross term is a difference of two products; compare
    # against the size of the products, not of their difference
    scale = float(np.max(np.abs(oracles.laplacian(pot, f)
                                * oracles.laplacian(pot, h))))
    want = oracles.ma_cross(pot, f, h)
    assert float(np.max(np.abs(got - want))) <= RTOL * scale
    _close(ma_cross(pot, f, f), oracles.ma_cross(pot, f, f))

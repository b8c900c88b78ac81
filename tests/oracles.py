"""Tensor-form references for the kernels of kgeo.

Each oracle applies the full symbol of an operator with numpy.fft.fftn and
ifftn over the whole grid, assembles complex (..., n, n) tensors and
contracts them with einsum or numpy.linalg. The metric is 1/2 I plus the
complex Hessian of pot.phi, and its inverse comes from numpy.linalg.inv.
So no reference shares a rule with the closed 2x2 kernels it checks: not
the Hartley symbol terms, not the stored metric fields and not the
adjugate over det g. This module imports nothing from kgeo (a test in
test_closed_forms.py scans it); of a spec it reads the sizes, the full-grid
frequencies _freq and the symbols sigma, and of a potential spec and phi.
"""

import numpy as np


def kmag2(spec):
    """|K|^2 = sum k_j^2 + m_j^2 on the full grid."""
    return sum(f.astype(np.float64) ** 2 for f in spec._freq)


def dealias(spec, f):
    keep = np.ones(spec.shape, dtype=bool)
    for ax in range(spec.dim_real):
        keep &= np.abs(spec._freq[ax]) <= spec.cutoff
    fh = np.fft.fftn(f)
    fh[~keep] = 0.0
    return np.fft.ifftn(fh).real


def flat_laplacian(spec, f):
    return np.fft.ifftn(-2.0 * np.pi ** 2 * kmag2(spec) * np.fft.fftn(f)).real


def flat_inverse(spec, r):
    rh = np.fft.fftn(r)
    sym = 2.0 * np.pi ** 2 * kmag2(spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        rh = np.where(sym > 0.0, rh / sym, 0.0)
    return np.fft.ifftn(rh).real


def complex_hessian(spec, f):
    """f_{j kbar} as a complex (..., n, n) tensor, Hermitian at every node."""
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


def metric(pot):
    """g = 1/2 I + complex Hessian of pot.phi, a complex (..., n, n) tensor."""
    g = complex_hessian(pot.spec, pot.phi)
    for j in range(pot.spec.n):
        g[..., j, j] += 0.5
    return g


def _trace(g_inv, hess):
    return np.einsum("...jk,...kj->...", g_inv, hess).real


def _star(g_inv, hf, hh):
    return np.einsum("...jk,...kl,...lm,...mj->...", g_inv, hf, g_inv, hh).real


def laplacian(pot, f):
    return _trace(np.linalg.inv(metric(pot)), complex_hessian(pot.spec, f))


def hess_star(pot, f, h):
    spec = pot.spec
    return _star(np.linalg.inv(metric(pot)), complex_hessian(spec, f),
                 complex_hessian(spec, h))


def ma_cross(pot, f, h):
    g_inv = np.linalg.inv(metric(pot))
    hf = complex_hessian(pot.spec, f)
    hh = complex_hessian(pot.spec, h)
    return _trace(g_inv, hf) * _trace(g_inv, hh) - _star(g_inv, hf, hh)


def c_tensor(pot, f):
    """C[f] = tr(g^-1 Hess f) g - Hess f, a complex (..., n, n) tensor."""
    g = metric(pot)
    hess = complex_hessian(pot.spec, f)
    return _trace(np.linalg.inv(g), hess)[..., None, None] * g - hess

"""Riemannian pairings on tangent spaces of the space of Kahler potentials.

Three metrics are supported: the L^2 pairing of the potentials themselves
(Mabuchi), of their Laplacians (Calabi), and of their gradients (Dirichlet).
The module also provides Gram-Schmidt orthonormalization under any of the
pairings, the Levi-Civita covariant derivative of the Dirichlet metric along
sampled curves, and the auxiliary potential a(psi, chi) solving
lap a = lap psi lap chi - H psi * H chi.
"""

import enum

import numpy as np

from .state import (TangentVector, check_anchor, _grad_contraction,
                    green_solve, laplacian, ma_cross)

__all__ = [
    "MetricKind",
    "DegeneratePlane",
    "grad_pairing",
    "poisson_bracket",
    "inner",
    "gram_schmidt",
    "a_field",
    "covariant_derivative_at",
    "covariant_derivative",
]


class MetricKind(enum.Enum):
    MABUCHI = "Mabuchi"
    CALABI = "Calabi"
    DIRICHLET = "Dirichlet"


class DegeneratePlane(ValueError):
    """Vectors fail to span a plane under the requested pairing."""


def grad_pairing(pot, f, h):
    """Pointwise gradient pairing (df, dh)_g of two real fields.

    Integration against e^u recovers the Dirichlet inner product; by parts it
    equals -2 * mean(f * lap h * e^u) (exact on the grid for the node-mean
    quadrature).
    """
    return 2.0 * _grad_contraction(pot, f, h).real


def poisson_bracket(pot, f, h):
    """Poisson bracket {f, h} of two real fields: the imaginary part of the
    gradient contraction g^{jk} f_k conj(h_j); antisymmetric, zero when f and
    h share level sets.

    Note the asymmetry with grad_pairing: the real gradient pairing carries a
    factor 2 (it is the full real-coordinates (df, dh)_g), the bracket does
    not (at the flat metric it is half of f_x h_y - f_y h_x per complex axis,
    the normalization under which the squared bracket integrates to minus the
    Mabuchi sectional curvature).
    """
    return _grad_contraction(pot, f, h).imag


def inner(kind, pot, tv1, tv2):
    """Inner product of two tangent vectors anchored at pot."""
    check_anchor(pot, tv1)
    check_anchor(pot, tv2)
    psi, chi = tv1.psi, tv2.psi
    if kind is MetricKind.MABUCHI:
        return pot.eu_mean(psi * chi)
    if kind is MetricKind.CALABI:
        return pot.eu_mean(laplacian(pot, psi) * laplacian(pot, chi))
    if kind is MetricKind.DIRICHLET:
        return pot.eu_mean(grad_pairing(pot, psi, chi))
    raise ValueError("unknown metric kind %r" % (kind,))


def gram_schmidt(kind, pot, vectors):
    """Orthonormalize tangent vectors under the kind-pairing.

    Raises DegeneratePlane when a squared norm is zero or not finite, or when
    the Gram determinant of the inputs falls below 1e-12 times the product of
    the squared norms (numerically dependent vectors span no plane).
    Modified Gram-Schmidt with one re-orthogonalization pass.
    """
    m = len(vectors)
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = inner(kind, pot, vectors[i], vectors[j])
    norms_sq = np.diag(gram)
    if not np.all((norms_sq > 0.0) & np.isfinite(norms_sq)):
        raise DegeneratePlane("squared norms %s: a zero or non-finite vector"
                              % norms_sq.tolist())
    if np.linalg.det(gram) < 1e-12 * float(np.prod(norms_sq)):
        raise DegeneratePlane(
            "Gram determinant %.3e below degeneracy threshold"
            % np.linalg.det(gram))
    out = []
    for v in vectors:
        w = v.psi.copy()
        for _ in range(2):
            for e in out:
                w -= inner(kind, pot, TangentVector(pot, w), e) * e.psi
        nrm = inner(kind, pot, TangentVector(pot, w), TangentVector(pot, w))
        out.append(TangentVector(pot, w / np.sqrt(nrm)))
    return out


def a_field(pot, tv_psi, tv_chi):
    """Auxiliary potential a with  lap a = lap psi lap chi - H psi * H chi,
    e^u-mean zero.

    The right-hand side has zero e^u-mean for any pair of fields (the
    time-derivative of the total Laplacian vanishes), which green_solve
    verifies before iterating. Symmetric in (psi, chi); identically zero in
    complex dimension one.
    """
    check_anchor(pot, tv_psi)
    check_anchor(pot, tv_chi)
    return green_solve(pot, ma_cross(pot, tv_psi.psi, tv_chi.psi))


def covariant_derivative_at(pot, phi_t, psi, psi_t):
    """Covariant t-derivative of a section from analytic velocities.

    D_t psi = psi_t + (1/2) G[ lap phi_t lap psi - H phi_t * H psi ],
    returned in the e^u-mean-zero gauge. This is the Levi-Civita connection
    of the Dirichlet pairing: compatibility and torsion-freeness hold to
    discretization order (see tests).
    """
    corr = green_solve(pot, ma_cross(pot, phi_t, psi))
    out = psi_t + 0.5 * corr
    return TangentVector(pot, out - pot.eu_mean(out))


def covariant_derivative(pots, psis, i, dt, velocities=None):
    """Covariant derivative along a sampled curve at interior index i.

    pots: KahlerPotential samples at uniform spacing dt; psis: section
    samples (plain fields). phi_t and psi_t are central differences unless
    analytic velocities (phi_t, psi_t) are supplied.
    """
    if velocities is not None:
        phi_t, psi_t = velocities
    else:
        if not 1 <= i <= len(pots) - 2:
            raise IndexError("central differences need interior index")
        phi_t = (pots[i + 1].phi - pots[i - 1].phi) / (2.0 * dt)
        psi_t = (psis[i + 1] - psis[i - 1]) / (2.0 * dt)
    return covariant_derivative_at(pots[i], phi_t, psis[i], psi_t)

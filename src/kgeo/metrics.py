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

from .state import (TangentVector, check_anchor, _contract_gradients,
                    _grad_contraction, green_solve, laplacian, ma_cross)
from .torus import gradient_z

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


def _image(kind, pot, tv):
    # the image of tv, what the kind-pairing integrates, as a list of fields:
    # the field, its Laplacian or its holomorphic gradient; linear in it
    check_anchor(pot, tv)
    if kind is MetricKind.MABUCHI:
        return [tv.psi]
    if kind is MetricKind.CALABI:
        return [laplacian(pot, tv.psi)]
    if kind is MetricKind.DIRICHLET:
        return gradient_z(pot.spec, tv.psi)
    raise ValueError("unknown metric kind %r" % (kind,))


def _pair(kind, pot, x, y):
    if kind is MetricKind.DIRICHLET:
        return pot.eu_mean(2.0 * _contract_gradients(pot, x, y).real)
    return pot.eu_mean(x[0] * y[0])


def inner(kind, pot, tv1, tv2):
    """Inner product of two tangent vectors at pot; one image per field."""
    check_anchor(pot, tv2)
    x = _image(kind, pot, tv1)
    return _pair(kind, pot, x, x if tv2.psi is tv1.psi else _image(kind, pot, tv2))


def gram_schmidt(kind, pot, vectors):
    """Orthonormalize tangent vectors under the kind-pairing.

    Raises DegeneratePlane when a squared norm is zero or not finite, or when
    the Gram determinant of the inputs falls below 1e-12 times the product of
    the squared norms (numerically dependent vectors span no plane).
    Modified Gram-Schmidt with one re-orthogonalization pass on (field,
    image) pairs, images being linear: each input is transformed once.
    """
    images = [_image(kind, pot, v) for v in vectors]
    m = len(vectors)
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = _pair(kind, pot, images[i], images[j])
    norms_sq = np.diag(gram)
    if not np.all((norms_sq > 0.0) & np.isfinite(norms_sq)):
        raise DegeneratePlane("squared norms %s: a zero or non-finite vector"
                              % norms_sq.tolist())
    if np.linalg.det(gram) < 1e-12 * float(np.prod(norms_sq)):
        raise DegeneratePlane(
            "Gram determinant %.3e below degeneracy threshold"
            % np.linalg.det(gram))
    out = []  # each orthonormal vector as [field] + image
    for v in vectors:
        w = [v.psi] + images.pop(0)
        for _ in range(2):
            for e in out:
                c = _pair(kind, pot, w[1:], e[1:])
                w = [a - c * b for a, b in zip(w, e)]
        scale = np.sqrt(_pair(kind, pot, w[1:], w[1:]))
        out.append([a / scale for a in w])
    return [TangentVector(pot, e[0]) for e in out]


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


def covariant_derivative(pots, psis, i, dt):
    """Covariant derivative along a sampled curve at interior index i.

    pots: KahlerPotential samples at uniform spacing dt; psis: section
    samples (plain fields). phi_t and psi_t are central differences; with
    analytic velocities call covariant_derivative_at.
    """
    if not 1 <= i <= len(pots) - 2:
        raise IndexError("central differences need interior index")
    phi_t = (pots[i + 1].phi - pots[i - 1].phi) / (2.0 * dt)
    psi_t = (psis[i + 1] - psis[i - 1]) / (2.0 * dt)
    return covariant_derivative_at(pots[i], phi_t, psis[i], psi_t)

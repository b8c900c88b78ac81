"""Points of the space of Kahler potentials and the operator toolkit at a point.

A potential phi (Lebesgue-mean-zero, dealiased) determines the metric
g = (1/2) I + complex_hessian(phi), which must be positive definite pointwise.
The volume conformal factor is u = log(det g / det g_flat); the node-mean of
e^u is exactly 1 for dealiased phi (the determinant is a trig polynomial below
the grid bandwidth, so the quadrature is exact).

Tangent vectors are real fields with zero mean against e^u; additive constants
are gauge and every operator here returns a fixed gauge representative.
"""

import numpy as np

from .torus import dealias, complex_hessian, hessian_parts, rfft, irfft

__all__ = [
    "EPS_POS",
    "PositivityViolation",
    "MeanNotZero",
    "NoConvergence",
    "KahlerPotential",
    "TangentVector",
    "make_potential",
    "project_tangent",
    "check_anchor",
    "laplacian",
    "hess_star",
    "ma_cross",
    "c_tensor",
    "c_divergence",
    "laplacian_rate",
    "green_solve",
]

EPS_POS = 1e-8


class PositivityViolation(Exception):
    """The metric of a candidate potential is not positive definite."""

    def __init__(self, message, margin=None, time=None):
        super().__init__(message)
        self.margin = margin
        self.time = time


class MeanNotZero(ValueError):
    """Right-hand side of a Green solve is not in the image of the Laplacian."""


class NoConvergence(RuntimeError):
    """Iterative solver hit its iteration cap."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


def _hermitian_eig_bounds(g):
    """Pointwise (min, max) eigenvalues of a Hermitian (n x n) matrix field."""
    n = g.shape[-1]
    if n == 1:
        d = g[..., 0, 0].real
        return d, d
    a = g[..., 0, 0].real
    c = g[..., 1, 1].real
    b2 = np.abs(g[..., 0, 1]) ** 2
    h = 0.5 * (a + c)
    r = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b2, 0.0))
    return h - r, h + r


class KahlerPotential:
    """A point of the space of Kahler potentials, with cached metric data.

    Immutable after construction. Fields: spec, phi (Lebesgue-mean-zero,
    dealiased), g and g_inv (pointwise Hermitian matrices), u and e_u
    (volume conformal factor and its exponential), margin (min eigenvalue of
    g over the grid).
    """

    def __init__(self, spec, phi, g, g_inv, u, e_u, margin):
        self.spec = spec
        self.phi = phi
        self.g = g
        self.g_inv = g_inv
        self.u = u
        self.e_u = e_u
        self.margin = margin

    def eu_mean(self, f):
        """Mean of f against the potential's volume form (Vol = 1)."""
        return float(np.sum(f * self.e_u) / self.spec.nodes)

    def __repr__(self):
        return "KahlerPotential(%r, margin=%.3g)" % (self.spec, self.margin)


class TangentVector:
    """A tangent vector at a potential: a real field with zero e^u-mean."""

    def __init__(self, base, psi):
        self.base = base
        self.psi = psi

    def __repr__(self):
        return "TangentVector(base=%r, sup=%.3g)" % (
            self.base, float(np.max(np.abs(self.psi))))


def make_potential(spec, phi):
    """Build a KahlerPotential from a raw field; raises PositivityViolation.

    The input is dealiased and recentred to Lebesgue mean zero (additive
    constants are gauge).
    """
    return _potential_raw(spec, dealias(spec, np.asarray(phi, dtype=float)))


def _potential_raw(spec, phi):
    """Assemble a potential without the dealias sanitation of make_potential.

    Time integrators need this: their state must evolve freely in the full
    grid space, and re-chopping the trajectory to the two-thirds band each
    step plants kinks of the size of the discarded tail, which wreck time
    differencing and conservation checks downstream.
    """
    phi = np.asarray(phi, dtype=float)
    phi = phi - float(np.sum(phi) / spec.nodes)
    g = complex_hessian(spec, phi)
    for j in range(spec.n):
        g[..., j, j] += 0.5
    lo, _ = _hermitian_eig_bounds(g)
    margin = float(np.min(lo))
    if margin <= EPS_POS:
        raise PositivityViolation(
            "metric not positive definite (margin %.3e <= %.0e)" % (margin, EPS_POS),
            margin=margin)
    if spec.n == 1:
        det = g[..., 0, 0].real
        g_inv = np.zeros_like(g)
        g_inv[..., 0, 0] = 1.0 / det
    else:
        det = g[..., 0, 0].real * g[..., 1, 1].real - np.abs(g[..., 0, 1]) ** 2
        g_inv = np.empty_like(g)
        g_inv[..., 0, 0] = g[..., 1, 1] / det
        g_inv[..., 1, 1] = g[..., 0, 0] / det
        g_inv[..., 0, 1] = -g[..., 0, 1] / det
        g_inv[..., 1, 0] = -g[..., 1, 0] / det
    e_u = det / spec.det_flat
    u = np.log(e_u)
    return KahlerPotential(spec, phi, g, g_inv, u, e_u, margin)


def check_anchor(pot, tv):
    """Raise unless tv is anchored at pot (same spec and same potential field)."""
    if tv.base is pot:
        return
    if tv.base.spec is not pot.spec or not np.array_equal(tv.base.phi, pot.phi):
        raise ValueError("tangent vector anchored at a different potential")


def project_tangent(pot, f):
    """Dealias and remove the e^u-mean; the tangent-space projection."""
    psi = dealias(pot.spec, np.asarray(f, dtype=float))
    psi = psi - pot.eu_mean(psi)
    return TangentVector(pot, psi)


def _lap_parts(pot, parts):
    # tr(g^-1 H) = a f11 + c f22 + 2 (p Re f12 + q Im f12) with
    # g^-1 = [[a, p + iq], [p - iq, c]]; parts as hessian_parts returns them
    g_inv = pot.g_inv
    out = g_inv[..., 0, 0].real * parts[0]
    if pot.spec.n == 2:
        _, f22, re12, im12 = parts
        b = g_inv[..., 0, 1]
        out += g_inv[..., 1, 1].real * f22
        out += 2.0 * (b.real * re12 + b.imag * im12)
    return out


def _mixed_det(pot, pf, ph):
    # mixed determinant of Hf and Hh over det g, n = 2 only:
    # (f11 h22 + f22 h11 - 2 Re(f12 conj h12)) / det g
    f11, f22, fre, fim = pf
    h11, h22, hre, him = ph
    out = f11 * h22 + f22 * h11 - 2.0 * (fre * hre + fim * him)
    out /= pot.e_u * pot.spec.det_flat
    return out


def laplacian(pot, f):
    """Metric Laplacian: trace of the complex Hessian against g_inv."""
    return _lap_parts(pot, hessian_parts(pot.spec, f))


def hess_star(pot, f, h):
    """Hessian-star product tr(g^-1 Hess f g^-1 Hess h), pointwise.

    Symmetric in (f, h); nonnegative for f == h; equals the product of the
    Laplacians in complex dimension one. Computed as lap f * lap h minus
    ma_cross, the 2x2 identity tr(A) tr(B) - tr(AB) = mixed det(A, B).
    """
    spec = pot.spec
    pf = hessian_parts(spec, f)
    ph = pf if h is f else hessian_parts(spec, h)
    out = _lap_parts(pot, pf) * _lap_parts(pot, ph)
    if spec.n == 2:
        out -= _mixed_det(pot, pf, ph)
    return out


def ma_cross(pot, f, h):
    """Mixed Monge-Ampere cross term  lap f * lap h - Hf * Hh.

    Source of the auxiliary-potential equation and of the geodesic
    right-hand side; its e^u-mean vanishes (exactly, for dealiased inputs).
    Equal to the mixed determinant of the two complex Hessians over det g:
    (f_11 h_22 + f_22 h_11 - 2 Re(f_12 conj h_12)) / det g. Exactly zero in
    complex dimension one, where the Hessian-star degenerates to the product
    of Laplacians.
    """
    spec = pot.spec
    if spec.n == 1:
        return np.zeros(spec.shape)
    pf = hessian_parts(spec, f)
    ph = pf if h is f else hessian_parts(spec, h)
    return _mixed_det(pot, pf, ph)


def c_tensor(pot, f):
    """Contracted-Hessian tensor  C[f] = (lap f) g - Hess f  (lower indices).

    Hermitian at every node; identically zero in complex dimension one; its
    weighted divergence vanishes (see c_divergence).
    """
    hess = complex_hessian(pot.spec, f)
    # tr(g^-1 H) = sum_jk g^-1_jk conj(H_jk) for Hermitian H
    lap = np.sum((pot.g_inv * np.conj(hess)).real, axis=(-2, -1))
    return lap[..., None, None] * pot.g - hess


def c_divergence(pot, f):
    """Sup norm of the weighted divergence of C[f] with raised indices.

    Computes sum_j dzbar_j ( e^u (g^-1 C[f] g^-1)_{i j} ) for each i; the
    Kahler condition makes this vanish identically, and for dealiased f the
    discrete value is at roundoff level.
    """
    spec = pot.spec
    # raised tensor is the transpose of g_inv C g_inv in this storage layout
    cu = np.einsum("...jk,...kl,...lm->...mj", pot.g_inv, c_tensor(pot, f), pot.g_inv)
    cu *= pot.e_u[..., None, None]
    worst = 0.0
    for i in range(spec.n):
        div = np.zeros(spec.shape, dtype=complex)
        for j in range(spec.n):
            comp = np.fft.fftn(cu[..., i, j])
            # dzbar_j has symbol -conj(sigma_j)
            div += np.fft.ifftn(-np.conj(spec.sigma[j]) * comp)
        worst = max(worst, float(np.max(np.abs(div))))
    return worst


def laplacian_rate(pot, phi_t, psi, psi_t=None):
    """Time derivative of (lap psi) along a deformation with velocity phi_t.

    Returns lap(psi_t) - H phi_t * H psi; pass psi_t = None for a frozen
    section.
    """
    out = -hess_star(pot, phi_t, psi)
    if psi_t is not None:
        out = out + laplacian(pot, psi_t)
    return out


def _flat_inverse(spec, r):
    # preconditioner: inverse of minus the flat Laplacian, zero DC
    return irfft(spec, spec.half_lap_inv * rfft(spec, r))


def green_solve(pot, v, tol=1e-10, maxiter=None, tol_mean=1e-8, atol_floor=1e-12,
                x0=None):
    """Invert the metric Laplacian: returns w with lap w = v, e^u-mean zero.

    Preconditioned conjugate gradients on -lap (positive definite on mean-zero
    fields) in the e^u-weighted inner product, mean projection every iterate.
    The preconditioner is r -> flat_inverse(e^u r): composing with the weight
    keeps it self-adjoint in the same inner product as the operator (a plain
    flat inverse is not, and conjugacy degrades on rough right-hand sides).
    Terminates when the plain l2 residual
    satisfies ||lap w - v|| <= tol * ||v||; the iteration cap is
    10 * N^(2n) (NoConvergence beyond it). x0 seeds the iteration (warm
    starts across nearby solves); the result does not depend on it beyond
    the tolerance.

    Raises MeanNotZero when the e^u-mean of v exceeds tol_mean relative to the
    rms of v. Right-hand sides below atol_floor in sup norm return zeros (the
    solution is bounded by the inverse spectral gap times that floor).
    """
    spec = pot.spec
    v = np.asarray(v, dtype=float)
    if float(np.max(np.abs(v))) <= atol_floor:
        return np.zeros(spec.shape)
    rms = float(np.sqrt(np.sum(v * v) / spec.nodes))
    mu = pot.eu_mean(v)
    if abs(mu) > tol_mean * rms:
        raise MeanNotZero(
            "rhs has e^u-mean %.3e (rms %.3e); not solvable" % (mu, rms))
    b = -(v - mu)  # solve (-lap) w = -v on the mean-zero slice
    bnorm = float(np.sqrt(np.sum(b * b)))
    if maxiter is None:
        maxiter = 10 * spec.nodes

    e_u = pot.e_u

    def apply_op(w):
        return -laplacian(pot, w)

    if x0 is None:
        x = np.zeros(spec.shape)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=float).copy()
        x -= pot.eu_mean(x)
        r = b - apply_op(x)
    p = None
    rz_old = 0.0
    for it in range(maxiter):
        rn = float(np.sqrt(np.sum(r * r)))
        if rn <= tol * bnorm:
            # accept only against the true residual, not the recurrence
            r = b - apply_op(x)
            rn = float(np.sqrt(np.sum(r * r)))
            if rn <= tol * bnorm:
                break
        z = _flat_inverse(spec, e_u * r)
        z -= pot.eu_mean(z)
        rz = float(np.sum(r * z * e_u))
        if rz <= 0.0:
            # strictly positive for any SPD operator/preconditioner pair
            raise NoConvergence(
                "preconditioner breakdown (r.z = %.3e)" % rz,
                iterations=it, residual=rn / bnorm)
        if p is None:
            p = z
        else:
            p = z + (rz / rz_old) * p
        rz_old = rz
        ap = apply_op(p)
        denom = float(np.sum(p * ap * e_u))
        if denom <= 0.0:
            raise NoConvergence(
                "conjugate-gradient breakdown (curvature %.3e)" % denom,
                iterations=it, residual=rn / bnorm)
        alpha = rz / denom
        x += alpha * p
        x -= pot.eu_mean(x)
        r -= alpha * ap
    else:
        rn = float(np.sqrt(np.sum(r * r)))
        raise NoConvergence(
            "no convergence in %d iterations (residual %.3e)" % (maxiter, rn / bnorm),
            iterations=maxiter, residual=rn / bnorm)
    x -= pot.eu_mean(x)
    return x

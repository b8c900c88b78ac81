"""Points of the space of Kahler potentials and the operator toolkit at a point.

A potential phi (Lebesgue-mean-zero, dealiased) determines the metric
g = (1/2) I + phi_{j kbar} (its complex Hessian, torus.hessian_parts), which
must be positive definite pointwise. The volume conformal factor is
u = log(det g / det g_flat); the node-mean of e^u is exactly 1 for dealiased
phi (the determinant is a trig polynomial below the grid bandwidth, so the
quadrature is exact).

The metric is stored once, as real component fields (structure of arrays)
with 1/det g, and every operator here contracts it by one closed 2x2 rule:
the mixed determinant M(A, B) = a11 b22 + a22 b11 - 2 Re(a12 conj b12) over
det g (the metric Laplacian is M(g, Hf) / det g). No other module reads a
component field: they use the functions here or the layout-neutral g_parts,
and index raising (the adjugate of g over det g) is _raise alone.

Tangent vectors are real fields with zero mean against e^u; additive constants
are gauge and every operator here returns a fixed gauge representative.
"""

import numpy as np

from .torus import dealias, gradient_z, hessian_parts, integrate, rfft, irfft

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
    "c_divergence",
    "green_solve",
]

EPS_POS = 1e-8

# green_solve: PCG stopping residual (relative l2), allowed e^u-mean of the
# source relative to its rms, and the sup norm of a source that counts as zero
GREEN_TOL = 1e-10
GREEN_TOL_MEAN = 1e-8
GREEN_ATOL_FLOOR = 1e-12


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


class KahlerPotential:
    """A point of the space of Kahler potentials, with cached metric data.

    Immutable after construction. Fields: spec, phi (Lebesgue-mean-zero,
    dealiased); the metric g as real fields g11, g22, g12_re, g12_im (the
    diagonal entries and the real and imaginary parts of g_{1 2bar}), the
    n = 2 fields being None for n = 1; rdet = 1 / det g; u and e_u (volume
    conformal factor and its exponential); margin (min eigenvalue of g over
    the grid). At n = 2 that is eight float64 fields, 64 bytes per node (40
    at n = 1); no inverse metric is stored. g_parts lists the metric fields
    in the layout of hessian_parts.
    """

    def __init__(self, spec, phi, g_parts, rdet, u, e_u, margin):
        self.spec = spec
        self.phi = phi
        self.g11, self.g22, self.g12_re, self.g12_im = (
            list(g_parts) + [None] * 3)[:4]
        self.rdet = rdet
        self.u = u
        self.e_u = e_u
        self.margin = margin

    @property
    def g_parts(self):
        if self.spec.n == 1:
            return [self.g11]
        return [self.g11, self.g22, self.g12_re, self.g12_im]

    def eu_mean(self, f):
        """Mean of f against the potential's volume form (Vol = 1)."""
        return integrate(self.spec, f * self.e_u)

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
    phi = phi - integrate(spec, phi)
    g = hessian_parts(spec, phi)
    for j in range(spec.n):
        g[j] += 0.5
    if spec.n == 1:
        det = lo = g[0]
    else:
        # g = [[a, b], [conj b, c]] has eigenvalues (a + c)/2 -+ r
        a, c, re, im = g
        b2 = re * re + im * im
        r = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b2, 0.0))
        lo = 0.5 * (a + c) - r
        det = a * c - b2
    margin = float(np.min(lo))
    if not margin > EPS_POS:
        raise PositivityViolation(
            "metric not positive definite (margin %.3e <= %.0e)" % (margin, EPS_POS),
            margin=margin)
    e_u = det / spec.det_flat
    u = np.log(e_u)
    return KahlerPotential(spec, phi, g, 1.0 / det, u, e_u, margin)


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


def _raise(pot, x):
    # g^-1 x for a list x of n complex fields: g = [[a, b], [conj b, c]] has
    # the adjugate [[c, -b], [-conj b, a]]
    if pot.spec.n == 1:
        return [x[0] * pot.rdet]
    b = pot.g12_re + 1j * pot.g12_im
    return [(pot.g22 * x[0] - b * x[1]) * pot.rdet,
            (pot.g11 * x[1] - np.conj(b) * x[0]) * pot.rdet]


def _grad_contraction(pot, f, h):
    # g^{jk} f_k conj(h_j); complex field, Hermitian in (f, h)
    gf = gradient_z(pot.spec, f)
    return _contract_gradients(pot, gf, gf if h is f else gradient_z(pot.spec, h))


def _contract_gradients(pot, gf, gh):
    # _grad_contraction of the gradient_z lists of f and h: the raised
    # gradient of f against the conjugated one of h
    raised = _raise(pot, gf)
    acc = raised[0] * np.conj(gh[0])
    if pot.spec.n == 2:
        acc += raised[1] * np.conj(gh[1])
    return acc


def _mixed_det(pot, pf, ph, work=None):
    # mixed determinant of two Hermitian 2x2 fields in the layout of
    # hessian_parts over det g, accumulated in place (n = 2 only):
    # (f11 h22 + f22 h11 - 2 Re(f12 conj h12)) / det g. work is three grid
    # fields, for the result and its two temporaries (new ones if None)
    f11, f22, fre, fim = pf
    h11, h22, hre, him = ph
    out, t, s = work or [np.empty(pot.spec.shape) for _ in range(3)]
    np.multiply(f11, h22, out=out)
    out += np.multiply(f22, h11, out=s)
    np.multiply(fre, hre, out=t)
    t += np.multiply(fim, him, out=s)
    t *= 2.0
    out -= t
    out *= pot.rdet
    return out


def _lap_parts(pot, parts, work=None):
    # tr(g^-1 H) = M(g, H) / det g; parts as hessian_parts returns them,
    # work as in _mixed_det (at n = 1 only its first field is written)
    if pot.spec.n == 1:
        out = None if work is None else work[0]
        return np.multiply(parts[0], pot.rdet, out=out)
    return _mixed_det(pot, pot.g_parts, parts, work)


def _sup_pencil_eig(pot, parts):
    """Sup over nodes of the largest |generalized eigenvalue| of (C, g), C
    given by its parts in the layout of hessian_parts: the operator norm of
    the g-raised tensor."""
    if pot.spec.n == 1:
        return float(np.max(np.abs(parts[0] / pot.g11)))
    # the eigenvalues (m -+ root) / 2 solve l^2 - m l + det C / det g = 0,
    # with m = M(C, g) / det g and det C = M(C, C) / 2
    m = _mixed_det(pot, parts, pot.g_parts)
    root = np.sqrt(np.maximum(m * m - 2.0 * _mixed_det(pot, parts, parts), 0.0))
    return 0.5 * float(np.max(np.abs(m) + root))


def laplacian(pot, f):
    """Metric Laplacian tr(g^-1 Hess f), computed as M(g, Hess f) / det g."""
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


def _c_parts(pot, f):
    # the contracted-Hessian tensor C[f] = (lap f) g - Hess f (lower
    # indices), in the layout of hessian_parts; zero at n = 1
    parts = hessian_parts(pot.spec, f)
    lap = _lap_parts(pot, parts)
    return [lap * gp - hp for gp, hp in zip(pot.g_parts, parts)]


def c_divergence(pot, f):
    """Sup norm of the weighted divergence of C[f] with raised indices.

    Computes sum_j dzbar_j ( e^u (g^-1 C[f] g^-1)_{i j} ) for each i; for
    dealiased f the discrete value is at roundoff level. That does not test
    the Kahler condition: at n = 2 the 2x2 identity tr(A) I - A = adj(A),
    with A = g^-1 Hess f, gives e^u g^-1 C[f] g^-1 = adj(Hess f) / det g_flat
    pointwise for any Hermitian g, and the divergence of the adjugate of a
    Hessian vanishes because the spectral derivatives commute (at n = 1,
    C[f] is zero). The value confirms that algebra and those commuting
    derivatives, not that g comes from a potential.
    """
    spec = pot.spec
    n = spec.n
    c = _c_parts(pot, f)
    if n == 1:
        columns = [c]
    else:
        c12 = c[2] + 1j * c[3]
        columns = [[c[0], np.conj(c12)], [c12, c[1]]]
    # M = g^-1 C column by column (m[k] is column k); R = M g^-1 is
    # Hermitian, so its column i is the conjugate of its row i, which is
    # g^-1 applied to the conjugated row i of M
    m = [_raise(pot, column) for column in columns]
    worst = 0.0
    for i in range(n):
        column = _raise(pot, [np.conj(m[k][i]) for k in range(n)])
        div = np.zeros(spec.shape, dtype=complex)
        for j, entry in enumerate(column):
            comp = np.fft.fftn(pot.e_u * entry)
            # dzbar_j has symbol -conj(sigma_j)
            div += np.fft.ifftn(-np.conj(spec.sigma[j]) * comp)
        worst = max(worst, float(np.max(np.abs(div))))
    return worst


def _flat_inverse(spec, wh, out=None):
    # preconditioner on a half spectrum: inverse of minus lap0, zero DC
    return np.multiply(spec.half_lap_inv, wh, out=out)


def _parseval(spec, ah, bh, work=None):
    # grid sum of a * b from half spectra (halved-axis planes 0 and N/2 count
    # once, the rest twice); np.sum, as a threaded BLAS dot changes bytes.
    # work is two real half-spectrum fields (new ones if None)
    prod, t = work or [np.empty(spec.half_shape) for _ in range(2)]
    np.multiply(ah.real, bh.real, out=prod)
    prod += np.multiply(ah.imag, bh.imag, out=t)
    prod[1:-1] *= 2.0
    return float(np.sum(prod)) / spec.nodes


def green_solve(pot, v, maxiter=None, x0=None):
    """Invert the metric Laplacian: returns w with lap w = v, e^u-mean zero.

    Preconditioned conjugate gradients on -lap (positive definite on mean-zero
    fields) in the e^u-weighted inner product. The preconditioner is
    r -> flat_inverse(e^u r): composing with the weight keeps it self-adjoint
    in the same inner product as the operator (a plain flat inverse is not,
    and conjugacy degrades on rough right-hand sides). The iterate x, the
    search direction p and (e^u r)^ are rfft half spectra, the residual r a
    grid field. An iteration makes 4 irfft (1 at n = 1), the Hessian parts
    of p, and one rfft, of e^u Ap, which gives p.Ap as a Parseval sum and
    updates (e^u r)^. x is transformed back and e^u-mean projected once, at
    the end. One workspace is allocated per solve and freed before that
    last transform; the operator and the CG updates write into it in place
    (the transforms' intermediate passes into the scratch of the spec), so
    no iteration allocates a grid field. Terminates when the plain l2
    residual satisfies ||lap w - v|| <= GREEN_TOL * ||v||; the iteration
    cap is 10 * N^(2n) (NoConvergence beyond it). x0 seeds the iteration
    (warm starts across nearby solves); the result does not depend on it
    beyond the tolerance.

    Raises MeanNotZero when the e^u-mean of v exceeds GREEN_TOL_MEAN times
    the rms of v. Right-hand sides below GREEN_ATOL_FLOOR in sup norm return
    zeros (the solution is bounded by the inverse spectral gap times it).
    """
    spec = pot.spec
    v = np.asarray(v, dtype=float)
    if float(np.max(np.abs(v))) <= GREEN_ATOL_FLOOR:
        return np.zeros(spec.shape)
    rms = float(np.sqrt(np.sum(v * v) / spec.nodes))
    mu = pot.eu_mean(v)
    if abs(mu) > GREEN_TOL_MEAN * rms:
        raise MeanNotZero(
            "rhs has e^u-mean %.3e (rms %.3e); not solvable" % (mu, rms))
    b = -(v - mu)  # solve (-lap) w = -v on the mean-zero slice
    bnorm = float(np.sqrt(np.sum(b * b)))
    if maxiter is None:
        maxiter = 10 * spec.nodes

    x = irfft(spec, _pcg(pot, b, bnorm, maxiter, x0))
    return x - pot.eu_mean(x)


def _solve_residual(pot, a, rhs):
    # sup|lap a - rhs| / sup|rhs| (absolute for rhs = 0), laplacian looked up
    # at call time
    r = laplacian(pot, a) - rhs
    denom = float(np.max(np.abs(rhs)))
    if denom == 0.0:
        return float(np.max(np.abs(r)))
    return float(np.max(np.abs(r))) / denom


def _pcg(pot, b, bnorm, maxiter, x0):
    # green_solve's iteration on -lap w = b; returns the half spectrum of w.
    # Every work field is a view of one block, allocated once per solve and
    # freed on return. One block, not one array per field: glibc's malloc
    # maps it until one is freed, then (up to 32 MiB) raises its trim
    # threshold to twice its size, so later solves take it from the heap
    # instead of faulting its pages back in. tmp, a temporary of _mixed_det,
    # also takes e^u Ap, alpha Ap and r*r; prod, the symbol-times-spectrum
    # product, also serves the Parseval sums (pars, two real fields) and
    # takes alpha p^ and alpha (e^u Ap)^; zh holds z^ and, once p is
    # updated, (e^u Ap)^.
    spec = pot.spec
    e_u = pot.e_u
    nparts = len(spec.half_hess)
    nreal = nparts + (3 if spec.n == 2 else 2)
    block = np.empty(nreal * spec.nodes // 2 + 3 * spec.half_size, dtype=complex)
    reals = block[:-3 * spec.half_size].view(np.float64)
    reals = reals.reshape((nreal,) + spec.shape)
    parts, work = list(reals[:nparts]), list(reals[nparts:])
    ap, tmp = work[:2]
    prod, zh, ph = block[-3 * spec.half_size:].reshape((3,) + spec.half_shape)
    pars = list(prod.view(np.float64).reshape((2,) + spec.half_shape))

    def apply_op(wh):  # -lap w from the half spectrum of w, into ap
        for sym, part in zip(spec.half_hess, parts):
            irfft(spec, np.multiply(sym, wh, out=prod), out=part)
        return np.negative(_lap_parts(pot, parts, work), out=ap)

    if x0 is None:
        xh = np.zeros(spec.half_shape, dtype=complex)
        r = b.copy()
    else:
        xh = rfft(spec, np.asarray(x0, dtype=float))
        r = b - apply_op(xh)
    sh = rfft(spec, np.multiply(e_u, r, out=tmp))
    rz_old = 0.0
    for it in range(maxiter):
        rn = float(np.sqrt(np.sum(np.multiply(r, r, out=tmp))))
        if rn <= GREEN_TOL * bnorm:
            # accept only against the true residual, not the recurrence
            np.subtract(b, apply_op(xh), out=r)
            rn = float(np.sqrt(np.sum(np.multiply(r, r, out=tmp))))
            if rn <= GREEN_TOL * bnorm:
                return xh
            rfft(spec, np.multiply(e_u, r, out=tmp), out=sh)
        _flat_inverse(spec, sh, out=zh)
        rz = _parseval(spec, sh, zh, pars)
        if not rz > 0.0:
            # strictly positive for any SPD operator/preconditioner pair
            raise NoConvergence(
                "preconditioner breakdown (r.z = %.3e)" % rz,
                iterations=it, residual=rn / bnorm)
        if it == 0:
            np.copyto(ph, zh)
        else:
            np.add(zh, np.multiply(rz / rz_old, ph, out=ph), out=ph)
        rz_old = rz
        apply_op(ph)
        th = rfft(spec, np.multiply(e_u, ap, out=tmp), out=zh)
        denom = _parseval(spec, ph, th, pars)
        if not denom > 0.0:
            raise NoConvergence(
                "conjugate-gradient breakdown (curvature %.3e)" % denom,
                iterations=it, residual=rn / bnorm)
        alpha = rz / denom
        xh += np.multiply(alpha, ph, out=prod)
        r -= np.multiply(alpha, ap, out=tmp)
        sh -= np.multiply(alpha, th, out=prod)
    rn = float(np.sqrt(np.sum(r * r)))
    raise NoConvergence(
        "no convergence in %d iterations (residual %.3e)" % (maxiter, rn / bnorm),
        iterations=maxiter, residual=rn / bnorm)

"""Sectional curvature of the three metrics, with an independent
finite-difference oracle and an a-priori bound for the Dirichlet case.

Conventions. For Dirichlet-orthonormal sections (psi, chi) the sectional
curvature is the commutator numerator

    K_D = mean( {D_s D_t phi_s - D_t D_s phi_s} * lap chi * e^u ),

evaluated over the two-parameter family phi + s psi + t chi. The closed form
used by `sectional` is

    K_D = 1/4 [ mean( a(psi,psi) P(chi,chi) e^u )
              - mean( a(psi,chi) P(psi,chi) e^u ) ],

with a(.,.) the auxiliary potential of metrics.a_field and P the
Monge-Ampere cross term it inverts; it reads two solves, not three.
Integrating by parts turns it into the equivalent gradient form

    1/8 mean( |d a(psi,chi)|_g^2 e^u )
        - 1/8 mean( (d a(psi,psi), d a(chi,chi))_g e^u ),

which needs a(chi,chi) too and is solved on demand by
CurvatureReport.gradient_form. The two agree exactly at the flat potential
and to aliasing order away from it: lap_phi is self-adjoint in the e^u
pairing to roundoff on 2/3-band fields but only to aliasing order on the
full-band solved a's (1e-4 of K on a seeded n=2 plane at N=16), and so is
<a(psi,psi), P(chi,chi)> = <P(psi,psi), a(chi,chi)>.
`commutator_fd` evaluates the numerator directly by nested central
differences of the covariant derivative and is the oracle the closed form
is tested against.
"""

import numpy as np

from .torus import random_field
from .state import (TangentVector, check_anchor, _c_parts, _cross_sources,
                    _solve_residual, _sup_pencil_eig, green_solve, laplacian,
                    ma_cross, make_potential)
from .metrics import (MetricKind, DegeneratePlane, a_field,
                      covariant_derivative_at, gram_schmidt, grad_pairing,
                      inner, poisson_bracket)

__all__ = [
    "CurvatureReport",
    "sectional",
    "commutator_fd",
    "dirichlet_bound",
    "poincare_constant",
    "sign_probe",
]


class CurvatureReport:
    """Result of a sectional-curvature evaluation.

    kind: MetricKind; value: the curvature; plane: the orthonormalized pair
    of tangent vectors actually used; diagnostics: dict of residuals and
    auxiliary quantities from the intermediate solves; aux: the solved
    auxiliary potentials a_ss, a_st of the plane (Dirichlet only, empty
    otherwise), so that callers need not solve them again; a_tt joins them
    once gradient_form() has solved it.
    """

    def __init__(self, kind, value, plane, diagnostics):
        self.kind = kind
        self.value = value
        self.plane = plane
        self.diagnostics = diagnostics
        self.aux = {}

    def bound(self):
        """dirichlet_bound of plane[0], from the already solved a_ss."""
        if self.kind is not MetricKind.DIRICHLET:
            raise ValueError("only a Dirichlet report carries a bound")
        e1 = self.plane[0]
        return _bound(e1.base, e1.psi, self.aux["a_ss"])

    def gradient_form(self):
        """The gradient form of the value; solves a_tt on the first call."""
        if self.kind is not MetricKind.DIRICHLET:
            raise ValueError("only a Dirichlet report has a gradient form")
        diag = self.diagnostics
        if "gradient_form" not in diag:
            pot, chi = self.plane[1].base, self.plane[1].psi
            a_ss, a_st = self.aux["a_ss"], self.aux["a_st"]
            rhs_tt = ma_cross(pot, chi, chi)
            a_tt = self.aux["a_tt"] = green_solve(pot, rhs_tt)
            diag["residual_a_tt"] = _solve_residual(pot, a_tt, rhs_tt)
            diag["gradient_form"] = \
                0.125 * pot.eu_mean(grad_pairing(pot, a_st, a_st)) \
                - 0.125 * pot.eu_mean(grad_pairing(pot, a_ss, a_tt))
        return diag["gradient_form"]

    def __repr__(self):
        return "CurvatureReport(%s, value=%.6g)" % (self.kind.value, self.value)


def sectional(kind, pot, tv1, tv2):
    """Sectional curvature of the plane spanned by tv1, tv2 at pot."""
    check_anchor(pot, tv1)
    check_anchor(pot, tv2)
    if kind is MetricKind.CALABI:
        # constant positive curvature 1/(4 Vol); unit volume throughout
        e1, e2 = gram_schmidt(kind, pot, [tv1, tv2])
        return CurvatureReport(kind, 0.25, (e1, e2), {})
    if kind is MetricKind.MABUCHI:
        e1, e2 = gram_schmidt(kind, pot, [tv1, tv2])
        br = poisson_bracket(pot, e1.psi, e2.psi)
        value = -pot.eu_mean(br * br)
        return CurvatureReport(kind, value, (e1, e2), {})
    if kind is not MetricKind.DIRICHLET:
        raise ValueError("unknown metric kind %r" % (kind,))

    e1, e2 = gram_schmidt(kind, pot, [tv1, tv2])
    rhs_st, rhs_ss, rhs_tt = _cross_sources(pot, [e1.psi, e2.psi],
                                            [(0, 1), (0, 0), (1, 1)])
    a_st = green_solve(pot, rhs_st)
    a_ss = green_solve(pot, rhs_ss)
    value = 0.25 * (pot.eu_mean(a_ss * rhs_tt) - pot.eu_mean(a_st * rhs_st))
    report = CurvatureReport(kind, value, (e1, e2), {
        "residual_a_st": _solve_residual(pot, a_st, rhs_st),
        "residual_a_ss": _solve_residual(pot, a_ss, rhs_ss)})
    report.aux.update(a_ss=a_ss, a_st=a_st)
    return report


def commutator_fd(pot, tv_psi, tv_chi, h):
    """Curvature numerator by nested central differences; the oracle.

    Works over the family phi(s,t) = phi + s psi + t chi. The covariant
    t-derivative of the constant section phi_s = psi along s = 0 is
    W(t) = (1/2) a_{phi + t chi}(chi, psi); the covariant s-derivative of
    phi_s along t = 0 is U(s) = (1/2) a_{phi + s psi}(psi, psi). Nested
    derivatives are a central difference of the fields plus the connection
    correction at the base point, and the result is paired with lap chi
    under e^u quadrature. Accuracy O(h^2); each call costs eight Green
    solves.
    """
    check_anchor(pot, tv_psi)
    check_anchor(pot, tv_chi)
    psi, chi = tv_psi.psi, tv_chi.psi
    spec = pot.spec

    def half_a(base_pot, f1, f2):
        return 0.5 * green_solve(base_pot, ma_cross(base_pot, f1, f2))

    pot_sp = make_potential(spec, pot.phi + h * psi)
    pot_sm = make_potential(spec, pot.phi - h * psi)
    pot_tp = make_potential(spec, pot.phi + h * chi)
    pot_tm = make_potential(spec, pot.phi - h * chi)

    # D_t phi_s along s:  W(s) = (1/2) a_{phi + s psi}(chi, psi)
    w0 = half_a(pot, chi, psi)
    ws = (half_a(pot_sp, chi, psi) - half_a(pot_sm, chi, psi)) / (2.0 * h)
    ds_w = ws + half_a(pot, psi, w0)

    # D_s phi_s along t:  U(t) = (1/2) a_{phi + t chi}(psi, psi)
    u0 = half_a(pot, psi, psi)
    ut = (half_a(pot_tp, psi, psi) - half_a(pot_tm, psi, psi)) / (2.0 * h)
    dt_u = ut + half_a(pot, chi, u0)

    integrand = (ds_w - dt_u) * laplacian(pot, chi)
    return pot.eu_mean(integrand)


def _bound(pot, psi, a_ss):
    # rho1^2/32 + rho2/8 for a Dirichlet-unit psi with a_ss = a(psi, psi)
    rho1 = _sup_pencil_eig(pot, _c_parts(pot, psi))
    rho2 = _sup_pencil_eig(pot, _c_parts(pot, a_ss))
    return rho1 ** 2 / 32.0 + rho2 / 8.0


def dirichlet_bound(pot, tv_psi):
    """A-priori bound on |K_D(psi, chi)| over all Dirichlet-unit chi.

    With rho1 the sup operator norm of the g-raised C[psi] and rho2 that of
    C[a(psi, psi)], the two curvature terms are bounded by rho1^2/32 and
    rho2/8 respectively (Cauchy-Schwarz through the divergence-free
    integration by parts; the L2 projection onto exact forms only shrinks
    norms). psi is normalized internally, so the bound depends on its
    direction only. CurvatureReport.bound gives the same number for the
    first vector of a solved Dirichlet plane without solving a(psi, psi)
    again.
    """
    check_anchor(pot, tv_psi)
    nrm = inner(MetricKind.DIRICHLET, pot, tv_psi, tv_psi)
    if nrm == 0.0:
        return 0.0
    psi = TangentVector(pot, tv_psi.psi / np.sqrt(nrm))
    return _bound(pot, psi.psi, a_field(pot, psi, psi))


def poincare_constant(pot):
    """Smallest nonzero eigenvalue of -lap on mean-zero fields.

    Inverse-power iteration through green_solve in the e^u-weighted inner
    product from random_field seed 1, at most 50 iterations, to 1e-8
    relative change. Flat value is 2 pi^2. A library diagnostic: no command
    reports it, and no bound uses it.
    """
    x = random_field(pot.spec, seed=1)
    x -= pot.eu_mean(x)
    lam = None
    for _ in range(50):
        y = -green_solve(pot, x - pot.eu_mean(x))
        num = pot.eu_mean(y * x)
        den = pot.eu_mean(y * y)
        est = num / den  # Rayleigh quotient of (-lap)^{-1} inverted
        if lam is not None and abs(est - lam) <= 1e-8 * abs(est):
            lam = est
            break
        lam = est
        x = y / np.sqrt(den)
    return float(lam)


def sign_probe(pot, tv1, tv2):
    """Classify which auxiliary potentials are constant and the implied sign.

    After Dirichlet orthonormalization: constancy of a(psi,psi) or
    a(chi,chi) implies K_D >= 0 (first curvature term alone); constancy of
    a(psi,chi) leaves the nonpositive term; an auxiliary potential is
    constant when its sup norm is below 1e-9. Returns a dict with the three
    constancy flags, the curvature value, and `sign_consistent` (None when
    no constancy holds, so no sign is implied).
    """
    report = sectional(MetricKind.DIRICHLET, pot, tv1, tv2)
    report.gradient_form()  # solves a_tt
    flags = {"%s_constant" % name: float(np.max(np.abs(a))) < 1e-9
             for name, a in report.aux.items()}
    value = report.value
    consistent = None
    if flags["a_ss_constant"] or flags["a_tt_constant"]:
        consistent = value >= -1e-7
    if flags["a_st_constant"]:
        hold = value <= 1e-7
        consistent = hold if consistent is None else (consistent and hold)
    return {"kind": MetricKind.DIRICHLET, "value": value,
            "sign_consistent": consistent, **flags}

"""Geometry of spaces of Kahler potentials over flat complex tori.

Spectral (Fourier) discretization of the torus C^n/(Z+iZ)^n, n in {1, 2},
carrying three L^2-type metrics on the space of Kahler potentials — the
pairing of potentials, of their Laplacians, and of their differentials —
with the Levi-Civita connection, sectional curvature, geodesics and the
energy-functional gradient flow of the third. See README.md for the
conventions (unit volume, flat metric one half the identity) and the
command-line harness.
"""

from .torus import (TorusSpec, build_spec, dealias, random_field, integrate,
                    gradient_z, holomorphic_hessian)
from .state import (EPS_POS, PositivityViolation, MeanNotZero, NoConvergence,
                    KahlerPotential, TangentVector, make_potential,
                    project_tangent, check_anchor, laplacian, hess_star,
                    ma_cross, c_divergence, green_solve)
from .metrics import (MetricKind, DegeneratePlane, grad_pairing,
                      poisson_bracket, inner, gram_schmidt, a_field,
                      covariant_derivative_at, covariant_derivative)
from .curvature import (CurvatureReport, sectional, commutator_fd,
                        dirichlet_bound, poincare_constant, sign_probe)
from .dynamics import (Curve, FlowTrace, path_energy, path_length,
                       geodesic_rhs, integrate_geodesic, geodesic_residual,
                       scalar_curvature, kenergy_gradient,
                       kenergy_gradient_solve, kenergy, kenergy_quadrature,
                       kenergy_second_derivative, pseudo_calabi_flow)

__version__ = "0.1.0"

__all__ = [
    "TorusSpec", "build_spec", "dealias", "random_field", "integrate",
    "gradient_z", "holomorphic_hessian",
    "EPS_POS", "PositivityViolation", "MeanNotZero", "NoConvergence",
    "KahlerPotential", "TangentVector", "make_potential", "project_tangent",
    "check_anchor", "laplacian", "hess_star", "ma_cross", "c_divergence",
    "green_solve",
    "MetricKind", "DegeneratePlane", "grad_pairing", "poisson_bracket",
    "inner", "gram_schmidt", "a_field", "covariant_derivative_at",
    "covariant_derivative",
    "CurvatureReport", "sectional", "commutator_fd", "dirichlet_bound",
    "poincare_constant", "sign_probe",
    "Curve", "FlowTrace", "path_energy", "path_length", "geodesic_rhs",
    "integrate_geodesic", "geodesic_residual", "scalar_curvature",
    "kenergy_gradient", "kenergy_gradient_solve", "kenergy",
    "kenergy_quadrature", "kenergy_second_derivative", "pseudo_calabi_flow",
    "__version__",
]

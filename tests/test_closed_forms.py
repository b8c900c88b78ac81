"""Closed 2x2 kernels against tensor formulas over the (n, n) axes.

The metric is stored as real component fields, and the kernels that
contract it (index raising, the gradient contraction behind grad_pairing
and poisson_bracket, the pencil norm behind the Dirichlet bound, the second
variation of the energy) are written out entrywise. The references take
the metric from oracles.py, as 1/2 I plus a complex-FFT Hessian of phi
assembled into a (..., n, n) tensor, invert it with numpy.linalg and
contract with einsum or a per-node eigensolver, so none reads the
library's adjugate over det g. The closed forms sum in another order, so
agreement is required to 1e-12 relative to the reference's size. Only
kgeo.state reads the component fields, and oracles.py imports nothing
from kgeo.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

import kgeo
import oracles
from kgeo.torus import (build_spec, gradient_z, holomorphic_hessian,
                        random_field)
from kgeo.state import _potential_raw, _raise, project_tangent
from kgeo.metrics import grad_pairing, poisson_bracket
from kgeo.curvature import _c_parts, _sup_pencil_eig
from kgeo.dynamics import (kenergy_gradient, kenergy_second_derivative,
                           scalar_curvature)

RTOL = 1e-12


@pytest.fixture(scope="module", params=[(1, 32), (2, 16)], ids=["n1", "n2"])
def case(request):
    n, N = request.param
    spec = build_spec(n, N)
    rng = np.random.default_rng(77 + n)
    phi = 0.004 * random_field(spec, seed=71) + 1e-5 * rng.standard_normal(spec.shape)
    pot = _potential_raw(spec, phi)
    return pot, random_field(spec, seed=72), random_field(spec, seed=73)


def _close(got, want):
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def test_raise_matches_einsum(case):
    pot, f, h = case
    x = [df + 1j * dh for df, dh in
         zip(gradient_z(pot.spec, f), gradient_z(pot.spec, h))]
    g_inv = np.linalg.inv(oracles.metric(pot))
    want = np.einsum("...jk,...k->...j", g_inv, np.stack(x, axis=-1))
    _close(np.stack(_raise(pot, x), axis=-1), want)


def test_only_state_reads_metric_components():
    names = re.compile(r"\b(g11|g22|g12_re|g12_im|rdet)\b")
    package = pathlib.Path(kgeo.__file__).parent
    offenders = ["%s:%d" % (path.name, i)
                 for path in sorted(package.glob("*.py"))
                 if path.name != "state.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if names.search(line)]
    assert offenders == []


def test_oracles_import_nothing_from_kgeo():
    # a reference that imported a kernel could share the rule it checks
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[0] in ("kgeo", "")] == []


def test_grad_contraction_matches_tensor_sum(case):
    pot, f, h = case
    gf = gradient_z(pot.spec, f)
    gh = gradient_z(pot.spec, h)
    g_inv = np.linalg.inv(oracles.metric(pot))
    want = sum(g_inv[..., j, k] * gf[k] * np.conj(gh[j])
               for j in range(pot.spec.n) for k in range(pot.spec.n))
    _close(grad_pairing(pot, f, h), 2.0 * want.real)
    _close(poisson_bracket(pot, f, h), want.imag)


def test_pencil_norm_matches_eigensolver(case):
    pot, f, _ = case
    # generalized eigenvalues of (C, g) are the eigenvalues of g^-1 C
    lam = np.linalg.eigvals(np.linalg.solve(oracles.metric(pot),
                                            oracles.c_tensor(pot, f)))
    want = float(np.max(np.abs(lam)))
    got = _sup_pencil_eig(pot, _c_parts(pot, f))
    assert got == pytest.approx(want, rel=RTOL)


def test_kenergy_second_derivative_matches_einsum(case):
    pot, f, _ = case
    spec = pot.spec
    tv = project_tangent(pot, 0.02 * f)
    g = oracles.metric(pot)
    g_inv = np.linalg.inv(g)
    P = holomorphic_hessian(spec, tv.psi)
    d2 = np.einsum("...ki,...lj,...ij,...kl->...",
                   g_inv, g_inv, P, np.conj(P)).real
    s = scalar_curvature(pot)
    T = (oracles.complex_hessian(spec, kenergy_gradient(pot).psi)
         + s[..., None, None] * g)
    grad = np.stack(gradient_z(spec, tv.psi), axis=-1)
    raised = np.conj(np.einsum("...ij,...j->...i", g_inv, grad))
    quad = np.einsum("...ij,...i,...j->...", T, raised, np.conj(raised)).real
    want = pot.eu_mean(2.0 * d2 + quad)
    assert kenergy_second_derivative(pot, tv) == pytest.approx(want, rel=RTOL)

"""Paths, geodesics, scalar curvature and the energy functional.

A path of potentials phi(t) carries the conformal factor u(t) = MA(phi(t));
its velocity phi_t is a tangent field. Geodesics of the Dirichlet pairing
satisfy

    2 lap_phi(phi_tt) = H phi_t * H phi_t - (lap_phi phi_t)^2,

integrated here with the classical fourth-order one-step scheme at fixed
step. In complex dimension one the right-hand side vanishes identically and
geodesics are straight lines in potential space.

The energy functional nu is the path integral of (d phi_t, d f)_g e^u along
t -> t phi from the flat base (nu(0) = 0), where f is the mean-zero solution
of lap_phi f = S and S = -lap_phi u is the scalar curvature of the evolved
metric (the background is Ricci-flat, so the mean of S vanishes). For the
same reason Chen's formula reduces the integral to its entropy term,
nu(phi) = 2 mean(u e^u) (Mabuchi 1986; Chen 2000), which kenergy evaluates
from the potential's own conformal factor. kenergy_quadrature keeps the path
integral itself, by Gauss-Legendre quadrature, as the oracle; the two agree
to roundoff on band-limited fields and differ by the aliasing of the discrete
path integral on full-band ones. The Dirichlet gradient of nu is f itself,
and since S = -lap_phi u it is the Ricci potential f = ubar - u (ubar the
e^u-mean of u), with no Green solve (Chen & Zheng 2013);
kenergy_gradient_solve keeps the solve as its oracle. The downhill flow
phi_t = -f is stepped explicitly. All time-dependent diagnostics
(conservation drift, equation residuals) are reported per time sample so
refinement studies can read off convergence orders.
"""

import numpy as np

from .torus import gradient_z, hessian_parts, holomorphic_hessian, integrate
from .state import (KahlerPotential, TangentVector, PositivityViolation,
                    make_potential, _potential_raw, _raise, check_anchor,
                    laplacian, ma_cross, green_solve)
from .metrics import MetricKind, inner

__all__ = [
    "Curve",
    "FlowTrace",
    "path_energy",
    "path_length",
    "geodesic_rhs",
    "integrate_geodesic",
    "geodesic_residual",
    "scalar_curvature",
    "kenergy_gradient",
    "kenergy_gradient_solve",
    "kenergy",
    "kenergy_quadrature",
    "kenergy_second_derivative",
    "pseudo_calabi_flow",
]


class Curve:
    """A uniformly sampled path of potentials with velocities.

    Stores the potential and velocity fields of every sample, the conformal
    factor u of each (us) and its Dirichlet speed (speeds), which
    path_energy and path_length read. integrate_geodesic passes the u and
    speeds it computed; on a hand-built curve both are taken, once the
    samples are validated, from one velocity(i) per sample, built one at a
    time. potential(i) builds the KahlerPotential of sample i on every call
    (no cache), keeping the stored field bit-exact (no dealiasing):
    integrated trajectories live in the full grid space, and residual
    studies must difference exactly the states the integrator produced.
    meta carries integrator diagnostics (per-step speeds, re-gauge drift).
    """

    def __init__(self, spec, times, phis, psis, meta=None, us=None, speeds=None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a nonempty 1-d sequence")
        if times.size > 1:
            steps = np.diff(times)
            if np.min(steps) <= 0.0:
                raise ValueError("times must increase")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("times must be uniformly spaced")
        if not (len(phis) == len(psis) == times.size):
            raise ValueError("times, phis, psis must have equal length")
        for recorded in (us, speeds):
            if recorded is not None and len(recorded) != times.size:
                raise ValueError("recorded us and speeds need one entry per sample")
        self.spec = spec
        self.times = times
        self.phis = [np.asarray(p, dtype=float) for p in phis]
        self.psis = [np.asarray(p, dtype=float) for p in psis]
        if us is None or speeds is None:
            built_us, built_speeds = [], np.empty(times.size)
            for i in range(times.size):
                tv = self.velocity(i)
                built_us.append(tv.base.u)
                built_speeds[i] = inner(MetricKind.DIRICHLET, tv.base, tv, tv)
            us = built_us if us is None else us
            speeds = built_speeds if speeds is None else speeds
        self.us = [np.asarray(u, dtype=float) for u in us]
        self.speeds = np.asarray(speeds, dtype=float)
        self.meta = dict(meta or {})

    def __len__(self):
        return self.times.size

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if len(self) > 1 else 0.0

    def potential(self, i):
        """KahlerPotential at sample i, built on each call."""
        return _potential_raw(self.spec, self.phis[int(i)])

    def velocity(self, i):
        """Velocity TangentVector at sample i, anchored at a new potential(i)."""
        pot = self.potential(i)
        psi = self.psis[int(i)]
        return TangentVector(pot, psi - pot.eu_mean(psi))


class FlowTrace:
    """Record of a gradient-descent run: times, energy values, grad norms."""

    def __init__(self, times, nu, grad_norm, meta=None):
        self.times = np.asarray(times, dtype=float)
        self.nu = np.asarray(nu, dtype=float)
        self.grad_norm = np.asarray(grad_norm, dtype=float)
        self.meta = dict(meta or {})
        if not (self.times.size == self.nu.size == self.grad_norm.size):
            raise ValueError("trace columns must have equal length")
        if self.times.size > 1 and np.min(np.diff(self.times)) <= 0.0:
            raise ValueError("times must increase")
        for col in (self.nu, self.grad_norm):
            if not np.all(np.isfinite(col)):
                raise ValueError("trace contains non-finite entries")


def _speeds(kind, curve):
    if kind is MetricKind.DIRICHLET:
        return curve.speeds
    out = np.empty(len(curve))
    for i in range(len(curve)):
        tv = curve.velocity(i)
        out[i] = inner(kind, tv.base, tv, tv)
    return out


def path_energy(kind, curve):
    """Integral of the squared speed (composite trapezoid in time)."""
    if len(curve) < 2:
        return 0.0
    return float(np.trapezoid(_speeds(kind, curve), curve.times))


def path_length(kind, curve):
    """Integral of the speed; length^2 <= elapsed * energy (Cauchy-Schwarz)."""
    if len(curve) < 2:
        return 0.0
    v = np.sqrt(np.maximum(_speeds(kind, curve), 0.0))
    return float(np.trapezoid(v, curve.times))


def geodesic_rhs(pot, tv, x0=None):
    """Acceleration phi_tt of the Dirichlet geodesic equation at (phi, phi_t).

    Solves 2 lap(phi_tt) = H phi_t * H phi_t - (lap phi_t)^2; the source is
    the negated Monge-Ampere cross term of phi_t with itself, whose e^u-mean
    vanishes identically, so a MeanNotZero here flags a discretization bug
    rather than bad input. x0 warm-starts the solver.
    """
    check_anchor(pot, tv)
    rhs = -0.5 * ma_cross(pot, tv.psi, tv.psi)
    acc = green_solve(pot, rhs, x0=x0)
    return TangentVector(pot, acc)


def _step_count(T, dt):
    """Number of fixed steps dt over [0, T]: round(T/dt).

    Raises ValueError unless 0 < dt <= T and T/dt is finite (T = 1e300 with
    dt = 1e-300 overflows to inf).
    """
    if dt <= 0.0 or T < dt:
        raise ValueError("need 0 < dt <= T")
    ratio = T / dt
    if not np.isfinite(ratio):
        raise ValueError("T/dt = %r is not finite" % (ratio,))
    return int(round(ratio))


def _stored_steps(nsteps, every):
    """Steps a stepper keeps: 0, every every-th step and nsteps (every >= 1)."""
    if not isinstance(every, (int, np.integer)) or every < 1:
        raise ValueError("sampling interval %r is not a positive integer" % (every,))
    return list(range(0, nsteps, every)) + [nsteps]


def _guarded(build, spec, phi, t, path):
    """build(spec, phi), with the exit time t attached to a PositivityViolation."""
    try:
        return build(spec, phi)
    except PositivityViolation as exc:
        raise PositivityViolation(
            "%s left the space at t=%.6g (%s)" % (path, t, exc),
            margin=exc.margin, time=t) from exc


def integrate_geodesic(pot0, tv0, T, dt, store_every=1):
    """Integrate the geodesic through (pot0, tv0) over [0, T] at fixed dt.

    Classical fourth-order stages; the first reuses the potential accepted
    by the previous step (pot0 at step 0), the other three are built as full
    potentials (positivity enforced — a PositivityViolation is re-raised with
    the exit time attached). The state evolves in the full grid space: stage
    potentials are assembled without dealiasing, because the acceleration
    carries energy beyond the two-thirds band and chopping it off again every
    step would plant tail-sized kinks in the trajectory, wrecking speed
    conservation and the time differencing behind the equation residual.
    After every accepted step the potential is recentred and the velocity
    re-projected to zero e^u-mean; the size of those corrections and the
    Dirichlet speed are recorded per step in Curve.meta, and every stored
    sample keeps its conformal factor and speed (Curve.us, Curve.speeds).
    store_every thins the stored samples (the last sample is always kept).

    Each stage's Green solve starts from a guess extrapolated from stages
    already solved: k1 from the previous step's k4, k2 from
    1.5 k1 - 0.5 k1_prev (k1 of the previous step; k1 itself at the first
    step), k3 from k2 and k4 from 2 k3 - k1. A guess sets only where PCG
    starts, so the result does not depend on it beyond the solver tolerance.
    """
    check_anchor(pot0, tv0)
    spec = pot0.spec
    nsteps = _step_count(T, dt)
    stored = _stored_steps(nsteps, store_every)
    if len(set(np.diff(stored))) > 1:
        # stored times must stay uniformly spaced (Curve requires it, and
        # the time differencing in the residual study depends on it); any
        # store_every beyond nsteps means "endpoints only"
        raise ValueError("store_every must divide round(T/dt) "
                         "(or exceed it to keep endpoints only)")

    def build(phi_arr, t):
        return _guarded(_potential_raw, spec, phi_arr, t, "geodesic")

    def accel(pot, psi_arr, warm):
        psi = psi_arr - pot.eu_mean(psi_arr)
        return geodesic_rhs(pot, TangentVector(pot, psi), x0=warm).psi

    pot, phi, psi = pot0, pot0.phi, tv0.psi
    phis, psis, us = [], [], []
    speeds = np.empty(nsteps + 1)
    drift_phi = np.zeros(nsteps + 1)
    drift_psi = np.zeros(nsteps + 1)
    keep = set(stored)
    warm = k1_prev = None

    for step in range(nsteps + 1):
        if step > 0:
            t = (step - 1) * dt
            k1 = accel(pot, psi, warm)
            k2 = accel(build(phi + 0.5 * dt * psi, t + 0.5 * dt),
                       psi + 0.5 * dt * k1,
                       k1 if k1_prev is None else 1.5 * k1 - 0.5 * k1_prev)
            k3 = accel(build(phi + 0.5 * dt * (psi + 0.5 * dt * k1), t + 0.5 * dt),
                       psi + 0.5 * dt * k2, k2)
            k4 = accel(build(phi + dt * (psi + 0.5 * dt * k2), t + dt),
                       psi + dt * k3, 2.0 * k3 - k1)
            phi = phi + dt * (psi + (dt / 6.0) * (k1 + k2 + k3))
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            warm, k1_prev = k4, k1

            drift_phi[step] = abs(integrate(spec, phi))
            pot = build(phi, t + dt)
            phi = pot.phi
            mu = pot.eu_mean(psi)
            drift_psi[step] = abs(mu)
            psi = psi - mu
        tv = TangentVector(pot, psi)
        speeds[step] = inner(MetricKind.DIRICHLET, pot, tv, tv)
        if step in keep:
            phis.append(phi.copy())
            psis.append(psi.copy())
            us.append(pot.u)

    meta = {
        "dt": dt,
        "store_every": store_every,
        "speeds": speeds,
        "drift_phi": drift_phi,
        "drift_psi": drift_psi,
    }
    return Curve(spec, [s * dt for s in stored], phis, psis, meta=meta, us=us,
                 speeds=speeds[stored])


def _conformal_term(us, i, dt):
    # F = 4 e^{-u/2} (e^{u/2})_tt at sample i, central in time
    half = np.exp(0.5 * us[i])
    return 4.0 / half * (np.exp(0.5 * us[i + 1]) - 2.0 * half
                         + np.exp(0.5 * us[i - 1])) / dt ** 2


def _geodesic_residual_dirichlet(curve):
    """Sup-norm residual of the conformal-factor form of the geodesic equation.

    At each interior time: F = 4 e^{-u/2} d^2/dt^2 e^{u/2} (central), plus
    the Laplacian of the time derivative of w = G[Pi u_t] (Green solves at
    the two neighbors, centrally differenced), minus Pi u_tt. The combination
    is constant in space on exact geodesics once the operator derivative is
    expanded, so each entry is the sup norm after removing the e^u-mean.
    Needs two sample layers on each side: entries cover indices 2..len-3.

    Reads u from curve.us. The potentials that the Green solves and
    Laplacians need (samples 1..len-2) are each built once, in order, for
    the w-solve, and dropped as soon as the sweep has passed them. Each
    w-solve starts from the stored velocity psis[j]: u_t = lap phi_t
    exactly, so w equals it up to the O(dt^2) of the central difference.
    The start moves the result only within the solver tolerance, so the
    residual stays a check on u alone.
    """
    M = len(curve)
    if M < 5:
        raise ValueError("need at least five samples for the residual")
    dt = curve.dt
    us = curve.us
    pots = {}

    def w_at(j):
        # w(j) = G[Pi u_t(j)] with u_t by central difference
        pot = pots[j] = curve.potential(j)
        ut = (us[j + 1] - us[j - 1]) / (2.0 * dt)
        ut = ut - pot.eu_mean(ut)
        return green_solve(pot, ut, x0=curve.psis[j])

    w = {1: w_at(1), 2: w_at(2)}
    out = np.empty(M - 4)
    for i in range(2, M - 2):
        w[i + 1] = w_at(i + 1)
        pot = pots[i]
        F = _conformal_term(us, i, dt)
        dtw = (w[i + 1] - w.pop(i - 1)) / (2.0 * dt)
        utt = (us[i + 1] - 2.0 * us[i] + us[i - 1]) / dt ** 2
        r = F + laplacian(pot, dtw) - (utt - pot.eu_mean(utt))
        r = r - pot.eu_mean(r)
        out[i - 2] = float(np.max(np.abs(r)))
        for j in [j for j in pots if j <= i]:
            del pots[j]
    return out


def _geodesic_residual_calabi(curve):
    # F + 1 (great circles of Phi = 2 e^{u/2}), sup norm per interior time
    M = len(curve)
    if M < 3:
        raise ValueError("need at least three samples for the residual")
    dt, us = curve.dt, curve.us
    out = np.empty(M - 2)
    for i in range(1, M - 1):
        out[i - 1] = float(np.max(np.abs(_conformal_term(us, i, dt) + 1.0)))
    return out


def geodesic_residual(kind, curve):
    """Per-time residual of the kind's geodesic equation along a curve."""
    if kind is MetricKind.DIRICHLET:
        return _geodesic_residual_dirichlet(curve)
    if kind is MetricKind.CALABI:
        return _geodesic_residual_calabi(curve)
    raise ValueError("no geodesic residual for kind %r" % (kind,))


def scalar_curvature(pot):
    """Scalar curvature S = -lap_phi u of the evolved metric (flat background)."""
    return -laplacian(pot, pot.u)


def kenergy_gradient(pot):
    """Dirichlet gradient of the energy functional: f with lap f = S, mean zero.

    Closed form: S = -lap u, so f = -u minus its e^u-mean, the Ricci
    potential. It solves the discrete equation exactly (up to the roundoff
    of mean S), with no Green solve and no Laplacian; zero at the flat base.
    """
    return TangentVector(pot, pot.eu_mean(pot.u) - pot.u)


def kenergy_gradient_solve(pot):
    """The gradient by its definition: the Green solve of S - mean S.

    The oracle for kenergy_gradient, which it matches to the solver
    tolerance; kgeo flow reports their gap at the initial state.
    """
    s = scalar_curvature(pot)
    return TangentVector(pot, green_solve(pot, s - pot.eu_mean(s)))


def kenergy(pot):
    """Energy functional in closed form: nu(phi) = 2 mean(u e^u).

    On a Ricci-flat background Chen's formula for the path integral along
    t -> t*phi reduces to its entropy term; the conformal factor u is part
    of the potential, so no potential is rebuilt and nothing is solved. The
    value at the flat base is exactly 0. kenergy_quadrature evaluates the
    path integral itself.
    """
    if not isinstance(pot, KahlerPotential):
        raise TypeError("kenergy expects a KahlerPotential")
    return 2.0 * pot.eu_mean(pot.u)


def kenergy_quadrature(pot, steps=12):
    """Energy functional by Gauss-Legendre quadrature along t -> t*phi.

    The integrand at t is (d phi, d f)_g e^u integrated over the torus at
    the potential t*phi, which after integrating by parts is
    -2 * mean(phi * S * e^u) — no Green solves. Straight segments from the
    flat base stay positive (the space is convex), but each node is rebuilt
    through the positivity check anyway. The value at the flat base is 0.
    This is the oracle for kenergy: on full-band fields the two differ by
    the aliasing of the discrete path integral, so their gap is a
    resolution diagnostic.
    """
    if not isinstance(pot, KahlerPotential):
        raise TypeError("kenergy_quadrature expects a KahlerPotential")
    spec, phi = pot.spec, pot.phi
    nodes, weights = np.polynomial.legendre.leggauss(int(steps))
    # map [-1, 1] -> [0, 1]
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    total = 0.0
    for t, wq in zip(nodes, weights):
        pt = make_potential(spec, t * phi)
        s = scalar_curvature(pt)
        total += wq * (-2.0) * pt.eu_mean(phi * s)
    return float(total)


def kenergy_second_derivative(pot, tv):
    """Second derivative of the energy along the geodesic with velocity tv.

    Closed form: mean of {2 |D2 phi_t|^2 + [f_{ij} + S g_{ij}] phi_t^i
    phi_t^jbar} e^u, with D2 the pure (2,0) Hessian contracted twice with the
    inverse metric and f the gradient potential. At a constant-scalar-curvature
    point (S = 0, f = 0) this is 2 * mean(|D2 phi_t|^2 e^u) >= 0.
    """
    check_anchor(pot, tv)
    spec = pot.spec
    n = spec.n
    psi = tv.psi
    # |D2 psi|^2 = Re sum_ik Q_ik conj(P_ik), Q = g^-1 P g^-T: m[k] is column
    # k of M = g^-1 P, and row i of Q = M g^-T is g^-1 on row i of M
    P = holomorphic_hessian(spec, psi)
    m = [_raise(pot, [P[..., i, k] for i in range(n)]) for k in range(n)]
    Q = [_raise(pot, [m[k][i] for k in range(n)]) for i in range(n)]
    d2 = sum((Q[i][k] * np.conj(P[..., i, k])).real
             for i in range(n) for k in range(n))
    # T_ij conj(v_i) v_j on the parts of T = Hess f + S g (the layout of
    # hessian_parts), raised gradient v = g^-1 d psi
    f = kenergy_gradient(pot).psi
    s = scalar_curvature(pot)
    t = [hp + s * gp for hp, gp in zip(hessian_parts(spec, f), pot.g_parts)]
    v = _raise(pot, gradient_z(spec, psi))
    quad = t[0] * (v[0].real ** 2 + v[0].imag ** 2)
    if n == 2:
        w = np.conj(v[0]) * v[1]
        quad += t[1] * (v[1].real ** 2 + v[1].imag ** 2)
        quad += 2.0 * (t[2] * w.real - t[3] * w.imag)
    return pot.eu_mean(2.0 * d2 + quad)


def pseudo_calabi_flow(pot0, T, dt, sample_every=1):
    """Downhill flow of the energy functional: phi <- phi - dt * f.

    Explicit stepping with re-gauging through make_potential each step (exit
    time attached to a PositivityViolation) and the closed-form gradient
    kenergy_gradient (nothing is solved); the trace records the energy value
    and the Dirichlet norm of the gradient at every sample_every-th step (plus
    the initial and final states). The energy is evaluated from each sampled
    state in closed form (kenergy), not from the flow's own increments, so
    monotonicity checks are independent of the stepper. The quadrature
    and gradient-solve oracles are not run here; kgeo flow reports their gaps
    at the initial state.
    """
    spec = pot0.spec
    nsteps = _step_count(T, dt)
    keep = set(_stored_steps(nsteps, sample_every))
    pot = pot0
    samples = []
    for step in range(nsteps + 1):
        if step > 0:
            pot = _guarded(make_potential, spec, pot.phi - dt * grad.psi,
                           step * dt, "flow")
        grad = kenergy_gradient(pot)
        if step in keep:
            norm = np.sqrt(max(inner(MetricKind.DIRICHLET, pot, grad, grad), 0.0))
            samples.append((step * dt, kenergy(pot), norm))
    times, nus, norms = zip(*samples)
    meta = {"dt": dt, "sample_every": sample_every}
    return FlowTrace(times, nus, norms, meta=meta)

"""Correctness checks for the benchmark, computed apart from kgeo.

Nothing here imports kgeo. The seeded inputs of a workload are rebuilt with
this module's own NumPy code (white noise from the same generator, spectral
shaping, 2/3 dealiasing), and the quantities the program reports are
recomputed from their definitions:

* Mabuchi sectional curvature: Gram-Schmidt in the e^u-weighted L2 pairing,
  then -mean({e1, e2}^2 e^u) with the Poisson bracket written in real
  derivatives.
* Dirichlet speed: -2 mean(psi * lap_g psi * e^u), with lap_g the trace of
  the inverse metric against the complex Hessian.
* Energy functional at the start of the flow: the closed form
  2 mean(u e^u) of a Ricci-flat background.

Each check takes the parsed outputs (CSV rows as dicts, the summary as a
dict) and returns a list of failure messages, empty when the output passes;
the tests feed corrupted outputs to show that each one can fail.
"""

import csv
import json
import os

import numpy as np

# Mabuchi values and the initial Dirichlet speed are the same formulas
# evaluated in double precision by two spectral codes; they differ by
# roundoff, observed below 1e-12 relative, so 1e-9 leaves room for a
# reordered (for example real-FFT) implementation and nothing more.
RTOL_ROUNDOFF = 1e-9

# Dimension-one flatness: the Dirichlet curvature vanishes identically, the
# program's own acceptance bound.
DIM1_FLAT_TOL = 1e-7

# nu(0) against 2 mean(u e^u). The 12-node quadrature differs from the
# closed form by the aliasing of the discrete path integral on full-band
# N=16 fields: 5.7e-4 at benchmark seed 0, at most 1.2e-3 over base seeds
# 1..100. A closed-form evaluator agrees to roundoff. 1e-2 admits both and
# rejects a wrong factor or a wrong state.
NU0_RTOL = 1e-2

# A flow step's decrease of nu against the trapezoid of dt * ||grad nu||^2
# over the step (gradient flow: d nu/dt = -||grad nu||^2). The gradient
# norm falls by a third within the first step, so the ratio is not 1: it
# was 1.03 to 1.14 on base seeds 1 to 5. A factor 1.5 either way rejects a
# gradient that does not belong to the energy (a lost factor 2 or square).
FLOW_DECREASE_FACTOR = 1.5

# Geodesic bounds at dt = 0.005 over T = 0.05 (10 classical fourth-order
# steps); README.md gives the measurements.
# * The speed drift is the same to five digits at dt = 0.01, 0.005 and
#   0.0025, so the integrator's O(dt^4) share is below 1e-9 and the drift
#   is that of the unfiltered full-grid state: 2.3e-5 to 4.7e-5 over eleven
#   seeds. The bound is six times the largest.
# * The equation residual is a second-order central difference of the
#   stored samples: max_residual / dt^2 was 103, 119, 127 at dt = 0.01,
#   0.005, 0.0025 (seed 1) and 37 to 145 over eleven seeds at dt = 0.005.
#   The bound is C dt^2 with C = 500.
GEODESIC_MAX_DRIFT = 3e-4
GEODESIC_RESIDUAL_CONST = 500.0


# ---------------------------------------------------------------- fields ---

class Grid:
    """Wavenumbers of the torus [0,1)^(2n) with N nodes per real axis.

    Axis a < n is x_(a+1) and axis a >= n is y_(a-n+1), as in kgeo.
    """

    def __init__(self, n, N):
        self.n, self.N = n, N
        self.shape = (N,) * (2 * n)
        k = np.fft.fftfreq(N) * N
        self.k = np.meshgrid(*([k] * (2 * n)), indexing="ij")
        self.kabs = np.sqrt(sum(ka * ka for ka in self.k))
        self.band = np.all([np.abs(ka) <= N // 3 for ka in self.k], axis=0)

    def deriv(self, fh, axis):
        """d/d(axis) of a field given by its spectrum, as a complex field."""
        return np.fft.ifftn(2j * np.pi * self.k[axis] * fh)

    def dz(self, fh, j):
        return 0.5 * (self.deriv(fh, j) - 1j * self.deriv(fh, self.n + j))

    def hessian(self, f):
        """h[j][k] = d^2 f / dz_j dzbar_k as nested lists of complex fields."""
        fh = np.fft.fftn(f)
        n = self.n
        out = [[None] * n for _ in range(n)]
        for j in range(n):
            for k in range(n):
                # dz_j dzbar_k = (1/4)(dx_j - i dy_j)(dx_k + i dy_k)
                kx_j, ky_j = self.k[j], self.k[n + j]
                kx_k, ky_k = self.k[k], self.k[n + k]
                sym = 0.25 * (2j * np.pi) ** 2 * (kx_j - 1j * ky_j) * (kx_k + 1j * ky_k)
                out[j][k] = np.fft.ifftn(sym * fh)
        return out

    def dealias(self, f):
        fh = np.fft.fftn(f)
        return np.fft.ifftn(np.where(self.band, fh, 0.0)).real

    def random_field(self, seed, decay=4.0):
        """Unit-sup, mean-zero, band-limited field (same recipe as kgeo)."""
        white = np.random.default_rng(seed).standard_normal(self.shape)
        coef = np.fft.fftn(white) * (1.0 + self.kabs) ** (-decay)
        coef = np.where(self.band, coef, 0.0)
        coef[(0,) * len(self.shape)] = 0.0
        out = np.fft.ifftn(coef).real
        return out / np.max(np.abs(out))


class Point:
    """Metric data of the potential phi: g = I/2 + complex Hessian."""

    def __init__(self, grid, phi):
        self.grid = grid
        phi = grid.dealias(phi)
        self.phi = phi - phi.mean()
        h = grid.hessian(self.phi)
        n = grid.n
        g = [[h[j][k] + (0.5 if j == k else 0.0) for k in range(n)]
             for j in range(n)]
        if n == 1:
            det = g[0][0].real
            self.ginv = [[1.0 / det]]
        else:
            det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]).real
            self.ginv = [[g[1][1] / det, -g[0][1] / det],
                         [-g[1][0] / det, g[0][0] / det]]
        if np.min(det) <= 0.0:
            raise ValueError("seeded potential is not positive")
        self.e_u = det / 0.5 ** n
        self.u = np.log(self.e_u)

    def mean(self, f):
        return float(np.mean(f * self.e_u))

    def tangent(self, f):
        psi = self.grid.dealias(f)
        return psi - self.mean(psi)

    def laplacian(self, f):
        h = self.grid.hessian(f)
        n = self.grid.n
        return sum(self.ginv[j][k] * h[k][j]
                   for j in range(n) for k in range(n)).real

    def bracket(self, f, h):
        fh, hh = np.fft.fftn(f), np.fft.fftn(h)
        n = self.grid.n
        fz = [self.grid.dz(fh, k) for k in range(n)]
        hz = [self.grid.dz(hh, j) for j in range(n)]
        acc = sum(self.ginv[j][k] * fz[k] * np.conj(hz[j])
                  for j in range(n) for k in range(n))
        return acc.imag


def seeded_point(grid, seed, amp_phi, decay=4.0):
    """The potential kgeo builds for a (base) seed: stream 0 of that seed."""
    return Point(grid, amp_phi * grid.random_field(seed, decay))


def seeded_tangent(point, seed, stream, amp_psi, decay=4.0):
    return point.tangent(amp_psi * point.grid.random_field(seed + 10 ** 6 * stream,
                                                           decay))


def mabuchi_curvature(point, v1, v2):
    """-mean({e1, e2}^2 e^u) after Gram-Schmidt in the Mabuchi pairing."""
    e1 = v1 / np.sqrt(point.mean(v1 * v1))
    w = v2 - point.mean(v2 * e1) * e1
    e2 = w / np.sqrt(point.mean(w * w))
    br = point.bracket(e1, e2)
    return -point.mean(br * br)


def dirichlet_speed(point, psi):
    """Squared Dirichlet norm of psi, integrated by parts."""
    return -2.0 * point.mean(psi * point.laplacian(psi))


def closed_form_energy(point):
    return 2.0 * point.mean(point.u)


# --------------------------------------------------------------- outputs ---

def read_outputs(out_dir, stem):
    """(CSV rows as dicts of strings, summary dict) of one command's output."""
    with open(os.path.join(out_dir, stem + ".csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, stem + "_summary.json")) as fh:
        summary = json.load(fh)
    return rows, summary


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _num(cell):
    """A CSV cell as a float; NaN when empty or not a number, so that every
    comparison against it fails."""
    try:
        return float(cell)
    except (TypeError, ValueError):
        return float("nan")


def check_curvature(rows, summary, cfg):
    """Rows complete and error-free; Mabuchi rows match the independent
    recomputation; Dirichlet rows within the bound (n=2) or flat (n=1)."""
    fails = []
    kinds = ["Dirichlet", "Mabuchi", "Calabi"]
    expected = [(seed, kind) for seed in range(cfg["seed"], cfg["seed"] + cfg["planes"])
                for kind in kinds]
    got = [(int(r["seed"]), r["kind"]) for r in rows]
    if got != expected:
        return ["curvature rows do not cover seeds x kinds in order"]
    if summary.get("errors") != 0 or summary.get("rows") != len(rows):
        fails.append("summary reports errors or a wrong row count")
    grid = Grid(cfg["n"], cfg["grid"])
    for r in rows:
        seed, kind = int(r["seed"]), r["kind"]
        if r["error"]:
            fails.append("seed %d %s: %s" % (seed, kind, r["error"]))
            continue
        value = _num(r["value"])
        if not np.isfinite(value):
            fails.append("seed %d %s: non-finite value" % (seed, kind))
        elif kind == "Calabi" and value != 0.25:
            fails.append("seed %d Calabi: %r != 0.25" % (seed, value))
        elif kind == "Dirichlet" and cfg["n"] == 1 and abs(value) > DIM1_FLAT_TOL:
            fails.append("seed %d Dirichlet: |K| %.3e > %.0e in dimension one"
                         % (seed, abs(value), DIM1_FLAT_TOL))
        elif kind == "Dirichlet" and cfg["n"] == 2 and not abs(value) <= _num(r["bound"]):
            fails.append("seed %d Dirichlet: |K| %.6g exceeds bound %s"
                         % (seed, abs(value), r["bound"]))
        elif kind == "Mabuchi":
            point = seeded_point(grid, seed, cfg["amp_phi"])
            ref = mabuchi_curvature(point,
                                    seeded_tangent(point, seed, 1, cfg["amp_psi"]),
                                    seeded_tangent(point, seed, 2, cfg["amp_psi"]))
            if not _rel(value, ref) <= RTOL_ROUNDOFF:
                fails.append("seed %d Mabuchi: %.17g vs independent %.17g"
                             % (seed, value, ref))
    return fails


def check_geodesic(rows, summary, cfg):
    """Initial speed matches the independent value; drift and equation
    residual within the integrator-order bounds."""
    fails = []
    nsteps = int(round(cfg["T"] / cfg["dt"]))
    if len(rows) != nsteps + 1:
        return ["geodesic CSV has %d rows, expected %d" % (len(rows), nsteps + 1)]
    point = seeded_point(Grid(cfg["n"], cfg["grid"]), cfg["seed"], cfg["amp_phi"])
    psi = seeded_tangent(point, cfg["seed"], 1, cfg["amp_psi"])
    ref = dirichlet_speed(point, psi)
    speed0 = _num(rows[0]["dirichlet_speed"])
    if not _rel(speed0, ref) <= RTOL_ROUNDOFF:
        fails.append("initial Dirichlet speed %.17g vs independent %.17g"
                     % (speed0, ref))
    drift = summary.get("speed_drift")
    if not (isinstance(drift, float) and 0.0 <= drift <= GEODESIC_MAX_DRIFT):
        fails.append("speed drift %r outside [0, %.0e]" % (drift, GEODESIC_MAX_DRIFT))
    resid_bound = GEODESIC_RESIDUAL_CONST * cfg["dt"] ** 2
    resid = summary.get("max_residual")
    if not (isinstance(resid, float) and 0.0 <= resid <= resid_bound):
        fails.append("max residual %r outside [0, %.3e]" % (resid, resid_bound))
    return fails


def check_flow(rows, summary, cfg):
    """nu falls at every step by about dt * ||grad nu||^2, and nu(0) matches
    the closed form."""
    fails = []
    nsteps = int(round(cfg["T"] / cfg["flow_dt"]))
    if len(rows) != nsteps + 1:
        return ["flow CSV has %d rows, expected %d" % (len(rows), nsteps + 1)]
    nu = np.array([_num(r["kenergy"]) for r in rows])
    grad = np.array([_num(r["gradient_norm"]) for r in rows])
    times = np.array([_num(r["time"]) for r in rows])
    if not all(np.all(np.isfinite(col)) for col in (nu, grad, times)):
        return ["flow CSV holds non-finite values"]
    drop = -np.diff(nu)
    if not np.all(drop > 0.0):
        fails.append("nu rises at steps %s" % np.flatnonzero(drop <= 0.0).tolist())
    predicted = np.diff(times) * 0.5 * (grad[:-1] ** 2 + grad[1:] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = drop / predicted
    bad = np.flatnonzero(~((ratio >= 1.0 / FLOW_DECREASE_FACTOR)
                           & (ratio <= FLOW_DECREASE_FACTOR)))
    if bad.size:
        fails.append("decrease / (dt ||grad||^2) outside [1/%g, %g] at steps %s"
                     % (FLOW_DECREASE_FACTOR, FLOW_DECREASE_FACTOR, bad.tolist()))
    point = seeded_point(Grid(cfg["n"], cfg["grid"]), cfg["seed"], cfg["amp_phi"])
    ref = closed_form_energy(point)
    if not _rel(nu[0], ref) <= NU0_RTOL:
        fails.append("nu(0) %.17g vs closed form %.17g" % (nu[0], ref))
    if summary.get("monotone") is not True:
        fails.append("summary does not report a monotone flow")
    return fails


CHECKS = {"curvature": ("curvature", check_curvature),
          "geodesic": ("geodesic", check_geodesic),
          "flow": ("flow", check_flow)}


def check_command(command, out_dir, cfg):
    """Run the check of one command on its output directory."""
    stem, fn = CHECKS[command]
    rows, summary = read_outputs(out_dir, stem)
    return fn(rows, summary, cfg)

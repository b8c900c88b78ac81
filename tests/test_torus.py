"""Grid conventions, spectral derivatives, and quadrature.

Expected values are closed-form evaluations of the derivative symbols on
explicit trigonometric fields, written out by hand: with z = x + iy and
d/dz = (d/dx - i d/dy)/2, the mode cos(2 pi k x) has d/dz = -pi k sin,
d^2/dz dzbar = -(pi k)^2 cos, and d^2/dz^2 = -(pi k)^2 cos, while
cos(2 pi m y) flips the sign of the pure second derivative. The background
Laplacian is half the real one.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import kgeo
import oracles
from kgeo.torus import (build_spec, dealias, random_field, integrate,
                        gradient_z, hessian_parts, holomorphic_hessian, hartley)
from kgeo.state import laplacian, make_potential

PI = np.pi


@pytest.fixture(scope="module")
def spec1():
    return build_spec(1, 16)


@pytest.fixture(scope="module")
def spec2():
    return build_spec(2, 16)


# ------------------------------------------------------------------- spec --

def test_build_spec_rejects_bad_dimension():
    for n in (0, 3, -1, 1.5):
        with pytest.raises(ValueError):
            build_spec(n, 16)


def test_build_spec_rejects_bad_grid():
    for N in (12, 15, 17, 8, 0, -16, 16.0):
        with pytest.raises(ValueError):
            build_spec(1, N)


def test_spec_basic_tables(spec2):
    assert spec2.shape == (16, 16, 16, 16)
    assert spec2.nodes == 16 ** 4
    assert spec2.volume == 1.0
    assert spec2.cutoff == 5
    assert spec2.det_flat == 0.25


def test_coordinates_layout(spec2):
    x1, x2, y1, y2 = spec2.coordinates()
    # axis order is (x_1, x_2, y_1, y_2); each runs 0 .. 1 - 1/N along its axis
    t = np.arange(16) / 16.0
    assert np.array_equal(x1[:, 0, 0, 0], t)
    assert np.array_equal(x2[0, :, 0, 0], t)
    assert np.array_equal(y1[0, 0, :, 0], t)
    assert np.array_equal(y2[0, 0, 0, :], t)


# ------------------------------------------------------------- transforms --

def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _hartley_oracle(f):
    # per axis, the Hartley transform of a real signal is Re F - Im F for
    # its DFT F
    for ax in range(f.ndim):
        fh = np.fft.fft(f, axis=ax)
        f = fh.real - fh.imag
    return f


@pytest.mark.parametrize("n,N", [(1, 16), (1, 32), (1, 64), (1, 128),
                                 (2, 16), (2, 32)])
def test_hartley_matches_per_axis_fft(n, N):
    spec = build_spec(n, N)
    f = np.random.default_rng(N + n).standard_normal(spec.shape)
    fh = hartley(spec, f)
    assert fh.shape == spec.shape
    assert _rel(fh, _hartley_oracle(f)) <= 1e-13
    assert _rel(hartley(spec, fh) / spec.nodes, f) <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_hartley_is_its_own_inverse(n):
    # H(H f) = N^(2n) f, and the grid sum of f h is the spectral sum of
    # H f H h over N^(2n)
    spec = build_spec(n, 16)
    rng = np.random.default_rng(40 + n)
    f = rng.standard_normal(spec.shape)
    h = rng.standard_normal(spec.shape)
    assert _rel(hartley(spec, hartley(spec, f)) / spec.nodes, f) <= 1e-13
    want = float(np.sum(f * h))
    got = float(np.sum(hartley(spec, f) * hartley(spec, h))) / spec.nodes
    assert abs(got - want) <= 1e-13 * float(np.sum(np.abs(f * h)))


@pytest.mark.parametrize("n,N", [(1, 16), (1, 32), (2, 16)])
def test_transforms_into_out_leave_no_scratch_behind(n, N):
    # out= gives the bits of a new array, also in place, and no result is a
    # view of the spec's scratch, which the next transform overwrites
    spec = build_spec(n, N)
    f = np.random.default_rng(50 + N + n).standard_normal(spec.shape)
    fh = hartley(spec, f)
    g = hartley(spec, fh)
    out_h = np.empty(spec.shape)
    assert hartley(spec, f, out=out_h) is out_h
    assert out_h.tobytes() == fh.tobytes()
    in_place = fh.copy()
    assert hartley(spec, in_place, out=in_place) is in_place
    assert in_place.tobytes() == g.tobytes()
    for result in (fh, g, out_h, in_place):
        assert not any(np.shares_memory(result, s) for s in spec._scratch)
    kept = (fh.tobytes(), g.tobytes())
    hartley(spec, hartley(spec, 2.0 * f))
    assert (fh.tobytes(), g.tobytes()) == kept


_HASH_KERNELS = """
import hashlib
import numpy as np
from kgeo.torus import build_spec, dealias, hartley, hessian_parts, random_field
from kgeo.state import green_solve, ma_cross, make_potential
def digest(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
for n, N in [(1, 16), (1, 32), (1, 64), (1, 128), (2, 16), (2, 32)]:
    spec = build_spec(n, N)
    fh = hartley(spec, np.random.default_rng(N).standard_normal(spec.shape))
    print(n, N, digest([fh, hartley(spec, fh)]))
spec = build_spec(1, 128)
print("dealias 1 128", digest([dealias(spec, np.random.default_rng(3).standard_normal(spec.shape))]))
spec = build_spec(2, 16)
rng = np.random.default_rng(4)
f, h = rng.standard_normal(spec.shape), rng.standard_normal(spec.shape)
print("kernels 2 16", digest(hessian_parts(spec, f) + [dealias(spec, f)]))
pot = make_potential(spec, 0.004 * random_field(spec, 5))
v = ma_cross(pot, random_field(spec, 6), random_field(spec, 7))
print("green_solve 2 16", digest([green_solve(pot, v)]))
"""


def test_transforms_independent_of_blas_threads():
    # hartley is BLAS matrix products; at every supported grid its bytes,
    # and those of the kernels built on it (the Hessian parts, dealiasing,
    # a cold Green solve), must not depend on how many threads BLAS may use
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgeo.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _HASH_KERNELS],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 9
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- dealias --

def test_dealias_kills_high_modes(spec1):
    x, _ = spec1.coordinates()
    high = np.cos(2 * PI * 7 * x)  # |k| = 7 > cutoff 5
    low = np.cos(2 * PI * 3 * x)
    assert np.max(np.abs(dealias(spec1, high))) < 1e-13
    assert np.max(np.abs(dealias(spec1, low) - low)) < 1e-13


def test_dealias_idempotent(spec2):
    f = random_field(spec2, seed=3)
    assert np.max(np.abs(dealias(spec2, f) - f)) < 1e-14


# ----------------------------------------------------------- random_field --

def test_random_field_deterministic(spec2):
    a = random_field(spec2, seed=7)
    b = random_field(spec2, seed=7)
    c = random_field(spec2, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_field_normalization(spec1):
    f = random_field(spec1, seed=5)
    assert abs(float(np.mean(f))) < 1e-15
    assert abs(float(np.max(np.abs(f))) - 1.0) < 1e-13


def test_random_field_kmax_truncation(spec1):
    f = random_field(spec1, seed=9, kmax=2)
    fh = np.fft.fftn(f)
    freq = spec1.axis_freq
    for ax in range(2):
        sel = np.abs(freq) > 2
        sl = [slice(None)] * 2
        sl[ax] = sel
        assert np.max(np.abs(fh[tuple(sl)])) < 1e-10 * spec1.nodes


def test_random_field_rejects_flat_spectrum(spec1):
    with pytest.raises(ValueError):
        random_field(spec1, seed=1, decay=0.5)


# -------------------------------------------------------------- integrate --

def test_integrate_trig_exact(spec1):
    x, y = spec1.coordinates()
    assert integrate(spec1, np.cos(2 * PI * 5 * x) ** 2) == pytest.approx(0.5, abs=1e-15)
    assert integrate(spec1, np.cos(2 * PI * x) * np.cos(2 * PI * y)) == pytest.approx(
        0.0, abs=1e-15)


# -------------------------------------------------------------- gradients --

def test_gradient_z_x_mode(spec1):
    x, _ = spec1.coordinates()
    (gz,) = gradient_z(spec1, np.sin(2 * PI * x))
    assert np.max(np.abs(gz - PI * np.cos(2 * PI * x))) < 1e-12


def test_gradient_z_y_mode(spec1):
    _, y = spec1.coordinates()
    (gz,) = gradient_z(spec1, np.sin(2 * PI * y))
    assert np.max(np.abs(gz - (-1j) * PI * np.cos(2 * PI * y))) < 1e-12


def test_gradient_z_second_axis(spec2):
    _, x2, _, _ = spec2.coordinates()
    g1, g2 = gradient_z(spec2, np.sin(2 * PI * x2))
    assert np.max(np.abs(g1)) < 1e-12
    assert np.max(np.abs(g2 - PI * np.cos(2 * PI * x2))) < 1e-12


# --------------------------------------------------------------- hessians --

def test_complex_hessian_diagonal(spec1):
    x, y = spec1.coordinates()
    h = hessian_parts(spec1, np.cos(2 * PI * x))
    assert np.max(np.abs(h[0] + PI ** 2 * np.cos(2 * PI * x))) < 1e-11
    h = hessian_parts(spec1, np.cos(2 * PI * y))
    assert np.max(np.abs(h[0] + PI ** 2 * np.cos(2 * PI * y))) < 1e-11


def test_complex_hessian_cross_entry(spec2):
    x1, x2, _, _ = spec2.coordinates()
    f = np.cos(2 * PI * x1) * np.cos(2 * PI * x2)
    h = hessian_parts(spec2, f)
    expect12 = PI ** 2 * np.sin(2 * PI * x1) * np.sin(2 * PI * x2)
    assert np.max(np.abs(h[2] + 1j * h[3] - expect12)) < 1e-11
    assert np.max(np.abs(h[0] + PI ** 2 * f)) < 1e-11


@pytest.mark.parametrize("N", [16, 32])
def test_mixed_hessian_symbols_match_full_grid_parts(N):
    # -sigma_1 conj(sigma_2) / pi^2 on the full grid, its Hermitian-even and
    # -odd parts with K -> -K mod N taken by index (not by the per-axis rule
    # of the tables), applied by the complex transform to full-band noise,
    # against the Hessian parts that apply the per-axis rule's terms
    spec = build_spec(2, N)
    k1, k2, m1, m2 = spec._freq
    s = -(m1 + 1j * k1) * (m2 - 1j * k2)
    mirror = (-np.arange(N)) % N
    s_refl = np.conj(s[np.ix_(mirror, mirror, mirror, mirror)])
    plus, minus = s + s_refl, s - s_refl
    even = 0.5 * plus
    odd = 0.5 * minus.imag - 0.5j * minus.real  # minus / (2i)
    f = np.random.default_rng(60 + N).standard_normal(spec.shape)
    fh = np.fft.fftn(f)
    for part, full in zip(hessian_parts(spec, f)[2:], (even, odd)):
        want = np.fft.ifftn(PI ** 2 * full * fh)
        assert np.max(np.abs(want.imag)) <= 1e-13 * np.max(np.abs(want.real))
        assert _rel(part, want.real) <= 1e-13


def test_holomorphic_hessian_sign_split(spec1):
    # (2,0) and (1,1) parts agree on x-modes and differ by a sign on y-modes
    x, y = spec1.coordinates()
    fx, fy = np.cos(2 * PI * x), np.cos(2 * PI * y)
    hx = holomorphic_hessian(spec1, fx)[..., 0, 0]
    hy = holomorphic_hessian(spec1, fy)[..., 0, 0]
    assert np.max(np.abs(hx + PI ** 2 * fx)) < 1e-11
    assert np.max(np.abs(hy - PI ** 2 * fy)) < 1e-11


def test_holomorphic_hessian_symmetric(spec2):
    f = random_field(spec2, seed=22)
    p = holomorphic_hessian(spec2, f)
    assert np.max(np.abs(p - np.swapaxes(p, -1, -2))) == 0.0


# -------------------------------------------------------------- laplacian --

def test_flat_laplacian_single_mode(spec1):
    x, y = spec1.coordinates()
    f = np.cos(2 * PI * (2 * x + y))  # |K|^2 = 5
    lf = laplacian(make_potential(spec1, np.zeros(spec1.shape)), f)
    assert np.max(np.abs(lf + 10.0 * PI ** 2 * f)) < 1e-10


def test_flat_laplacian_is_hessian_trace_times_two(spec2):
    # lap0 = 2 sum_j f_{j jbar} for the background metric g = I/2
    f = random_field(spec2, seed=23)
    h = hessian_parts(spec2, f)
    tr = 2.0 * (h[0] + h[1])
    assert np.max(np.abs(oracles.flat_laplacian(spec2, f) - tr)) < 1e-10

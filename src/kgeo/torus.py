"""Discrete calculus on the flat complex torus C^n/(Z+iZ)^n, n in {1,2}.

Conventions (fixed throughout the package):

* real coordinates (x_1..x_n, y_1..y_n) on [0,1)^{2n}, grid axis j is x_{j+1}
  for j < n and y_{j-n+1} for j >= n; N nodes per axis, row-major storage;
* background metric g_{jk} = 1/2 delta_{jk}, so the background volume form
  equals Lebesgue measure on the unit cube and Vol = 1, and the background
  Laplacian is half the real one: lap0 = (1/2) * (d^2/dx^2 + d^2/dy^2 + ...);
* holomorphic derivative d/dz_j = (d/dx_j - i d/dy_j)/2; on the Fourier mode
  exp(2 pi i (k.x + m.y)) it acts as multiplication by sigma_j = pi(m_j + i k_j).

Scalar fields are plain float64 arrays of shape (N,)*(2n). A Hermitian
matrix field (a complex Hessian, the metric) is kept as its real component
fields, in the layout hessian_parts returns: [d] for n = 1 and
[d_1, d_2, Re o, Im o] for n = 2, with diagonal entries d_j and the (1, 2)
entry o. The package's kernels contract them in closed 2x2 form. Only
holomorphic_hessian, whose (2,0) part is symmetric, not Hermitian, returns
a complex array of shape (N,)*(2n) + (n, n).

Kernels that map real fields to real fields (dealiasing, the inverse of the
flat Laplacian, seeded fields, the parts of the complex Hessian) run on the
half spectrum of rfft: the last grid axis keeps frequencies 0..N/2 and is
stored first, every other axis keeps its N frequencies in grid order, so
the layout is that of np.moveaxis(numpy.fft.rfftn(f), -1, 0). rfft and
irfft do not call numpy.fft: each is a product of the field with one small
dense DFT matrix per grid axis, real on the halved axis and complex on the
others, built once per TorusSpec and applied by numpy.matmul as stacks of
GEMMs small enough for BLAS to run on the calling thread (at n = 1, N = 128
the complex products shrink to matrix-vector products, which OpenBLAS may
split over threads). Their bytes do not depend on the BLAS thread count.
At n = 2, N = 16 and at n = 1, N <= 32 they are faster than numpy.fft's
per-axis passes. Frequencies follow fftfreq, so the
Nyquist frequency of every axis, the halved one included, is -N/2. A
symbol s is applied as its Hermitian-even part (s(K) + conj s(-K mod N))/2,
which turns a real field into a real field; a complex result such as
f_{1 2bar} is split into the fields of the even part and of the odd part
(s(K) - conj s(-K mod N))/(2i), its real and imaginary parts. Away from the
Nyquist planes these are Re s and Im s; on them -K mod N keeps the Nyquist
component, so the parts match the complex transform of the full symbol to
roundoff on full-band fields too. The symbol tables are built once per
TorusSpec from the per-axis frequency arrays, laid out like the half
spectrum. Kernels with complex output (gradient_z and holomorphic_hessian
here, c_divergence in kgeo.state) keep numpy.fft complex transforms over
every axis.

Dealiasing uses the 2/3 rule with per-axis integer cutoff N//3; because N is a
power of two, triple products of dealiased fields stay strictly below the grid
bandwidth, which makes the node-mean quadrature of the package's integral
identities exact to roundoff.
"""

import functools

import numpy as np

__all__ = [
    "TorusSpec",
    "build_spec",
    "dealias",
    "random_field",
    "integrate",
    "hessian_parts",
    "gradient_z",
    "holomorphic_hessian",
]


def _is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


class TorusSpec:
    """Grid, wavenumber tables and background conventions for one torus."""

    def __init__(self, n, N):
        if n not in (1, 2):
            raise ValueError("complex dimension must be 1 or 2, got %r" % (n,))
        if not isinstance(N, (int, np.integer)) or not _is_power_of_two(int(N)) or N < 16:
            raise ValueError("grid size must be a power of two >= 16, got %r" % (N,))
        self.n = int(n)
        self.N = int(N)
        self.dim_real = 2 * self.n
        self.shape = (self.N,) * self.dim_real
        self.nodes = self.N ** self.dim_real
        self.volume = 1.0
        # integer frequencies per axis in [-N/2, N/2)
        self.axis_freq = np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)
        self.cutoff = self.N // 3

        # broadcastable frequency arrays, one per real axis, on the full grid
        # (complex transforms) and on the half spectrum of rfft, which stores
        # the halved last grid axis first: grid axis j < 2n-1 sits at
        # position j+1 there, and the last one at position 0
        self.half_shape = (self.N // 2 + 1,) + self.shape[:-1]
        self.half_size = (self.N // 2 + 1) * self.nodes // self.N
        freq = []
        half = []
        for ax in range(self.dim_real):
            sh = [1] * self.dim_real
            sh[ax] = self.N
            freq.append(self.axis_freq.reshape(sh))
            pos = (ax + 1) % self.dim_real
            sh = [1] * self.dim_real
            sh[pos] = self.half_shape[pos]
            half.append(self.axis_freq[:sh[pos]].reshape(sh).astype(np.float64))
        self._freq = freq
        self._half_freq = half
        self._dft = _dft_tables(self.N)
        # the two buffers the intermediate axis passes of rfft and irfft
        # write into, in turn (every pass keeps one halved axis)
        self._scratch = (np.empty(self.half_size, dtype=complex),
                         np.empty(self.half_size, dtype=complex))

        # sigma_j = pi (m_j + i k_j): symbol of d/dz_j (axis j is x_j, axis n+j is y_j)
        self.sigma = [np.pi * (self._freq[self.n + j] + 1j * self._freq[j])
                      for j in range(self.n)]
        # half-spectrum tables of the hot kernels: the inverse of -lap0 (zero
        # at K = 0; |K|^2 is a nonnegative integer), the 2/3-band mask and
        # the symbols of the Hessian parts
        k2 = self.half_kmag2
        self.half_lap_inv = np.where(
            k2 > 0.0, 1.0 / (2.0 * np.pi ** 2 * np.maximum(k2, 1.0)), 0.0)
        keep = np.ones(self.half_shape, dtype=bool)
        for f in half:
            keep &= np.abs(f) <= self.cutoff
        self.half_keep = keep
        self.half_hess = self._hessian_symbols()

        # background metric: g = (1/2) I, det g = 2^-n
        self.det_flat = 0.5 ** self.n

    @property
    def half_kmag2(self):
        """|K|^2 on the rfftn half spectrum, computed on access."""
        return sum(f ** 2 for f in self._half_freq)

    def _hessian_symbols(self):
        """Half-spectrum symbols of the real fields of the complex Hessian.

        f_{j jbar} has the real even symbol -pi^2 (m_j^2 + k_j^2). For n = 2,
        Re f_{1 2bar} and Im f_{1 2bar} have the Hermitian-even and -odd parts
        of -sigma_1 conj(sigma_2), taken of the integer symbol
        (m_1 + i k_1)(m_2 - i k_2) = sigma_1 conj(sigma_2) / pi^2, whose
        halves are exact, and scaled by -pi^2 once.
        """
        pi2 = np.pi ** 2
        k = self._half_freq[:self.n]
        m = self._half_freq[self.n:]
        out = [-pi2 * (m[j] ** 2 + k[j] ** 2) for j in range(self.n)]
        if self.n == 1:
            return out
        nyq = -(self.N // 2)
        refl = [np.where(f == nyq, f, -f) for f in self._half_freq]

        def cross(k1, k2, m1, m2):
            return (m1 + 1j * k1) * (m2 - 1j * k2)

        return out + _hermitian_parts(cross(*self._half_freq), cross(*refl), -pi2)

    def coordinates(self):
        """Full coordinate arrays (x_1..x_n, y_1..y_n), each of grid shape."""
        t = np.arange(self.N) / self.N
        out = []
        for ax in range(self.dim_real):
            sh = [1] * self.dim_real
            sh[ax] = self.N
            out.append(np.broadcast_to(t.reshape(sh), self.shape).copy())
        return out

    def __repr__(self):
        return "TorusSpec(n=%d, N=%d)" % (self.n, self.N)


def build_spec(n, N):
    """Construct a TorusSpec; rejects n not in {1,2} and non-power-of-two N."""
    return TorusSpec(n, N)


def _hermitian_parts(s, s_refl, scale):
    """scale times the Hermitian-even and -odd parts of a symbol s (see the
    module docstring), given s_refl, s at -K mod N. Overwrites s and s_refl
    (a table build then peaks at three tables) and returns the odd part in s."""
    np.conjugate(s_refl, out=s_refl)
    even = s + s_refl
    even *= 0.5 * scale
    s -= s_refl
    s *= -0.5j * scale
    return [even, s]


def _dft_tables(N):
    """DFT matrices of one grid axis of N nodes, as rfft and irfft apply them.

    Returns (r2c, c2c, c2c_inv, c2r):
    r2c      (N, N+2) real: a real signal times r2c is its half spectrum,
             with real and imaginary parts interleaved (cos, -sin columns);
    c2c      (N, N) complex: exp(-2 pi i j k / N);
    c2c_inv  (N, N) complex: exp(2 pi i j k / N) / N;
    c2r      (N+2, N) real: an interleaved half spectrum times c2r is the
             real signal; frequencies 1..N/2-1 count twice, for their mirror
             images, and the imaginary parts of frequencies 0 and N/2 drop.
    Angles are reduced to j k mod N in integers, so the entries that are
    0 or +-1 are exact.
    """
    half_len = N // 2 + 1
    turns = np.outer(np.arange(N), np.arange(N)) % N
    angle = (2.0 * np.pi / N) * turns
    cos = np.cos(angle)
    sin = np.sin(angle)
    cos[turns % (N // 2) == N // 4] = 0.0
    sin[turns % (N // 2) == 0] = 0.0
    r2c = np.empty((N, 2 * half_len))
    r2c[:, 0::2] = cos[:, :half_len]
    r2c[:, 1::2] = -sin[:, :half_len]
    weight = np.full((half_len, 1), 2.0 / N)
    weight[[0, -1]] = 1.0 / N
    c2r = np.empty((2 * half_len, N))
    c2r[0::2] = weight * cos[:half_len]
    c2r[1::2] = -weight * sin[:half_len]
    return r2c, cos - 1j * sin, (cos + 1j * sin) / N, c2r


# Real multiply-adds per GEMM of a transform (a complex one counts 4). From
# 2^16 complex multiply-adds OpenBLAS runs a zgemm on several threads, and a
# large dgemm takes other kernels, with other roundoff, as the thread count
# changes; within 2^17 a GEMM stays on the calling thread. (A block of one
# row is a matrix-vector product, which OpenBLAS may still split; that only
# happens at n = 1, N = 128.)
_GEMM_MACS = 2 ** 17


@functools.lru_cache(maxsize=128)
def _block_rows(rows, macs_per_row):
    """Rows per GEMM: the largest divisor of rows within the _GEMM_MACS budget."""
    block = max(1, min(rows, _GEMM_MACS // macs_per_row))
    while rows % block:
        block -= 1
    return block


def _gemm_rows(rows, w):
    """Rows per GEMM when `rows` rows go through the table w."""
    return _block_rows(rows, w.size * (4 if w.dtype.kind == "c" else 1))


def _rows_times(a, w, out):
    """The contiguous matrix a times w, as a stack of GEMMs over row blocks,
    written into the contiguous array out."""
    rows = a.shape[0]
    block = _gemm_rows(rows, w)
    return np.matmul(a.reshape(rows // block, block, -1), w,
                     out=out.reshape(rows // block, block, w.shape[1]))


def _lead_to_end(y, w, out):
    """Transform the leading axis of y by w (y_j -> sum_j y_j w_jk) and move
    it to the end, into the contiguous complex array out: the rows are the
    other axes, flattened, and every GEMM reads a block of them through a
    transposed view."""
    lead, rest = y.shape[0], y.shape[1:]
    rows = y.size // lead
    block = _gemm_rows(rows, w)
    stack = y.reshape(lead, rows // block, block).transpose(1, 2, 0)
    out = out.reshape(rest + (lead,))
    np.matmul(stack, w, out=out.reshape(rows // block, block, lead))
    return out


def _end_to_front(z, w, out):
    """Transform the trailing axis of z by w (z_k -> sum_k w_jk z_k) and move
    it to the front, into the contiguous complex array out: the mirror image
    of _lead_to_end. Every GEMM writes a block of columns of the output
    through a strided view, so nothing is copied to move the axis."""
    tail, rest = z.shape[-1], z.shape[:-1]
    rows = z.size // tail
    block = _gemm_rows(rows, w)
    out = out.reshape((tail,) + rest)
    np.matmul(w, z.reshape(rows // block, block, tail).transpose(0, 2, 1),
              out=out.reshape(tail, rows // block, block).transpose(1, 0, 2))
    return out


def rfft(spec, f, out=None):
    """Half spectrum of a real field, with the halved (last) axis stored first.

    Equals np.moveaxis(np.fft.rfftn(f), -1, 0). The last grid axis goes
    through one real matrix product whose output, with re and im
    interleaved, is viewed as complex; every other axis then goes through
    one complex product that transforms the leading axis and moves it to
    the end. Each product is a stack of GEMMs over blocks of rows, each
    within _GEMM_MACS multiply-adds. The result is written into out (a
    contiguous complex array of spec.half_shape) when given, else into a
    new array. The passes before the last write into the two scratch
    buffers of spec, so two threads must not transform on one spec at once;
    the result never shares memory with them.
    """
    r2c, c2c = spec._dft[:2]
    N = spec.N
    if out is None:
        out = np.empty(spec.half_shape, dtype=complex)
    scratch = spec._scratch
    y = _rows_times(f.reshape(-1, N), r2c, scratch[0].view(np.float64))
    y = y.view(complex).reshape(f.shape[:-1] + (N // 2 + 1,))
    passes = spec.dim_real - 1
    for i in range(1, passes + 1):
        y = _lead_to_end(y, c2c, out if i == passes else scratch[i % 2])
    return out


def irfft(spec, fh, out=None):
    """Real field of a Hermitian half spectrum in rfft's layout; its inverse.

    The mirror image of rfft: every full axis is transformed and moved to
    the front, the trailing one first, then the halved axis goes through
    one real matrix product. That product drops the imaginary parts of
    frequencies 0 and N/2 of the halved axis, as numpy.fft.irfftn does.
    The result is written into out (a contiguous float64 array of
    spec.shape) when given, else into a new array; the complex passes
    write into the scratch buffers of spec, as in rfft, and fh is only read.
    """
    c2c_inv, c2r = spec._dft[2:]
    if out is None:
        out = np.empty(spec.shape)
    z = fh
    for i in range(spec.dim_real - 1):
        z = _end_to_front(z, c2c_inv, spec._scratch[i % 2])
    parts = z.reshape(-1, z.shape[-1]).view(np.float64)
    _rows_times(parts, c2r, out)
    return out


def dealias(spec, f):
    """Project a real field onto the 2/3-rule band (|k| <= N//3 per axis)."""
    fh = rfft(spec, f)
    fh *= spec.half_keep
    return irfft(spec, fh)


def random_field(spec, seed, decay=4.0, kmax=None):
    """Seeded random real field with spectral amplitude ~ (1+|k|)^-decay.

    Output is dealiased, has zero Lebesgue mean and unit sup norm; identical
    seeds give identical bytes. kmax truncates harder than the 2/3 rule
    (per-axis |k| <= kmax); band-limited fields keep pointwise products of
    several factors below the grid bandwidth, which finite-difference
    curvature oracles need.
    """
    if decay <= 1.0:
        raise ValueError("decay must exceed 1, got %r" % (decay,))
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(spec.shape)
    coef = rfft(spec, white)
    coef *= (1.0 + np.sqrt(spec.half_kmag2)) ** (-decay)
    coef *= spec.half_keep
    if kmax is not None:
        for f in spec._half_freq:
            coef = np.where(np.abs(f) > kmax, 0.0, coef)
    coef[(0,) * spec.dim_real] = 0.0
    out = irfft(spec, coef)
    m = np.max(np.abs(out))
    if m > 0.0:
        out = out / m
    return out


def integrate(spec, f):
    """Lebesgue node-mean quadrature (1/N^{2n}) sum f; exact for trig polynomials.

    The mean against a potential's volume form is KahlerPotential.eu_mean.
    """
    return float(np.sum(f) / spec.nodes)


def gradient_z(spec, f):
    """Holomorphic gradient (df/dz_1, ..., df/dz_n), complex grid arrays."""
    fh = np.fft.fftn(f)
    return [np.fft.ifftn(s * fh) for s in spec.sigma]


def hessian_parts(spec, f):
    """Real fields of the mixed complex Hessian f_{j kbar} = d^2 f / dz_j dzbar_k.

    Returns [f_{1 1bar}] for n = 1 and [f_{1 1bar}, f_{2 2bar}, Re f_{1 2bar},
    Im f_{1 2bar}] for n = 2: one forward and 1 or 4 inverse real transforms.
    """
    fh = rfft(spec, f)
    return [irfft(spec, sym * fh) for sym in spec.half_hess]


def holomorphic_hessian(spec, f):
    """Pure second derivatives f_{jk} = d^2 f / dz_j dz_k (symbol sigma_j sigma_k).

    Returns a complex array of shape grid + (n, n), symmetric (not Hermitian)
    at every node; this is the (2,0) part of the Hessian, which enters the
    norm |D^2 psi|^2 in the second variation of the energy functional.
    """
    n = spec.n
    fh = np.fft.fftn(f)
    out = np.empty(spec.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(j, n):
            out[..., j, k] = np.fft.ifftn(spec.sigma[j] * spec.sigma[k] * fh)
            out[..., k, j] = out[..., j, k]
    return out


"""Discrete calculus on the flat complex torus C^n/(Z+iZ)^n, n in {1,2}.

Conventions (fixed throughout the package):

* real coordinates (x_1..x_n, y_1..y_n) on [0,1)^{2n}, grid axis j is x_{j+1}
  for j < n and y_{j-n+1} for j >= n; N nodes per axis, row-major storage;
* background metric g_{jk} = 1/2 delta_{jk}, so the background volume form
  equals Lebesgue measure on the unit cube and Vol = 1, and the background
  Laplacian is half the real one: lap0 = (1/2) * (d^2/dx^2 + d^2/dy^2 + ...);
* holomorphic derivative d/dz_j = (d/dx_j - i d/dy_j)/2; on the Fourier mode
  exp(2 pi i (k.x + m.y)) it acts as multiplication by sigma_j = pi(m_j + i k_j).

Scalar fields are plain float64 arrays of shape (N,)*(2n); Hermitian matrix
fields (complex Hessians, metric tensors) are complex arrays of shape
(N,)*(2n) + (n, n), pointwise Hermitian in the trailing axes.

Kernels that map real fields to real fields (dealiasing, the flat Laplacian
and its inverse, seeded fields, the parts of the complex Hessian) run on the
half spectrum of numpy.fft.rfftn: every axis but the last keeps its N
frequencies, the last keeps 0..N/2. Frequencies follow fftfreq, so the
Nyquist frequency of every axis, the last included, is -N/2. A symbol s is
applied as its Hermitian-even part (s(K) + conj s(-K mod N))/2, which turns a
real field into a real field; a complex result such as f_{1 2bar} is split
into the fields of the even part and of the odd part (s(K) - conj
s(-K mod N))/(2i), its real and imaginary parts. Away from the Nyquist
planes these are Re s and Im s; on them -K mod N keeps the Nyquist
component, so the parts match the complex transform of the full symbol to
roundoff on full-band fields too. The symbol tables are built once per
TorusSpec from the per-axis frequency arrays. Every transform passes its
axes explicitly; kernels with complex output (gradient_z,
holomorphic_hessian) keep one complex transform pair.

Dealiasing uses the 2/3 rule with per-axis integer cutoff N//3; because N is a
power of two, triple products of dealiased fields stay strictly below the grid
bandwidth, which makes the node-mean quadrature of the package's integral
identities exact to roundoff.
"""

import numpy as np

__all__ = [
    "TorusSpec",
    "build_spec",
    "dealias",
    "random_field",
    "integrate",
    "hessian_parts",
    "complex_hessian",
    "gradient_z",
    "holomorphic_hessian",
    "flat_laplacian",
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
        # (complex transforms) and on the rfftn half spectrum
        self.axes = tuple(range(self.dim_real))
        self.half_shape = self.shape[:-1] + (self.N // 2 + 1,)
        freq = []
        half = []
        for ax in range(self.dim_real):
            sh = [1] * self.dim_real
            sh[ax] = self.N
            freq.append(self.axis_freq.reshape(sh))
            sh[ax] = self.half_shape[ax]
            half.append(self.axis_freq[:sh[ax]].reshape(sh).astype(np.float64))
        self._freq = freq
        self._half_freq = half

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
    def kmag2(self):
        """|K|^2 = sum k_j^2 + m_j^2 on the full grid, computed on access."""
        k2 = np.zeros(self.shape)
        for f in self._freq:
            k2 = k2 + f.astype(np.float64) ** 2
        return k2

    @property
    def half_kmag2(self):
        """|K|^2 on the rfftn half spectrum, computed on access."""
        return sum(f ** 2 for f in self._half_freq)

    def _hessian_symbols(self):
        """Half-spectrum symbols of the real fields of the complex Hessian.

        f_{j jbar} has the real even symbol -pi^2 (m_j^2 + k_j^2). For n = 2,
        f_{1 2bar} has the symbol s = -sigma_1 conj(sigma_2)
        = -pi^2 [(m_1 m_2 + k_1 k_2) + i (k_1 m_2 - m_1 k_2)]; its real and
        imaginary parts come from the Hermitian-even and -odd parts of s.
        Each is a sum of products of two axis frequencies a b, whose parts
        are (a b + a' b')/2 and (a b - a' b')/2 with a' the frequency at
        -K mod N: -a, except that the Nyquist frequency maps to itself.
        """
        pi2 = np.pi ** 2
        k = self._half_freq[:self.n]
        m = self._half_freq[self.n:]
        out = [-pi2 * (m[j] ** 2 + k[j] ** 2) for j in range(self.n)]
        if self.n == 1:
            return out
        nyq = -(self.N // 2)
        refl = [np.where(f == nyq, f, -f) for f in self._half_freq]
        rk = refl[:2]
        rm = refl[2:]

        def even(a, ra, b, rb):
            return 0.5 * (a * b + ra * rb)

        def odd(a, ra, b, rb):
            return 0.5 * (a * b - ra * rb)

        mm = (m[0], rm[0], m[1], rm[1])
        kk = (k[0], rk[0], k[1], rk[1])
        km = (k[0], rk[0], m[1], rm[1])
        mk = (m[0], rm[0], k[1], rk[1])
        re_part = np.empty(self.half_shape, dtype=complex)
        re_part.real = -pi2 * (even(*mm) + even(*kk))
        re_part.imag = -pi2 * (odd(*km) - odd(*mk))
        im_part = np.empty(self.half_shape, dtype=complex)
        im_part.real = -pi2 * (even(*km) - even(*mk))
        im_part.imag = pi2 * (odd(*mm) + odd(*kk))
        return out + [re_part, im_part]

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


def rfft(spec, f):
    """Half spectrum of a real field (numpy.fft.rfftn over every grid axis)."""
    return np.fft.rfftn(f, axes=spec.axes)


def irfft(spec, fh):
    """Real field of a Hermitian half spectrum; the inverse of rfft."""
    return np.fft.irfftn(fh, s=spec.shape, axes=spec.axes)


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


def integrate(spec, f, density=None):
    """Node-mean quadrature (1/N^{2n}) sum f*density; exact for trig polynomials.

    density None means the flat volume form (Lebesgue); otherwise it must be
    positive pointwise (it is e^u for some potential).
    """
    if density is None:
        return float(np.sum(f) / spec.nodes)
    density = np.asarray(density)
    if density.ndim and np.min(density) <= 0.0:
        raise ValueError("density must be positive pointwise")
    return float(np.sum(f * density) / spec.nodes)


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


def complex_hessian(spec, f):
    """Mixed complex Hessian f_{j kbar} = d^2 f / dz_j dzbar_k.

    Returns a complex array of shape grid + (n, n), Hermitian at every node.
    The input should be dealiased (spectral derivatives themselves do not
    alias, but downstream pointwise products do).
    """
    n = spec.n
    parts = hessian_parts(spec, f)
    out = np.empty(spec.shape + (n, n), dtype=complex)
    for j in range(n):
        out[..., j, j] = parts[j]
    if n == 2:
        out[..., 0, 1] = parts[2] + 1j * parts[3]
        out[..., 1, 0] = np.conj(out[..., 0, 1])
    return out


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
            block = np.fft.ifftn(spec.sigma[j] * spec.sigma[k] * fh)
            out[..., j, k] = block
            if k != j:
                out[..., k, j] = block
    return out


def flat_laplacian(spec, f):
    """Background Laplacian lap0 = (1/2) * (real Laplacian); symbol -2 pi^2 |K|^2."""
    return irfft(spec, -2.0 * np.pi ** 2 * spec.half_kmag2 * rfft(spec, f))

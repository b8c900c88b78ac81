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
separable real Hartley transform

    H[f](K) = sum_x f(x) prod_a cas(2 pi k_a x_a / N),   cas = cos + sin,

a real array of grid shape that holds frequency k_a at index k_a mod N of
axis a, as numpy.fft does; frequencies follow fftfreq, so the Nyquist
frequency is -N/2. hartley computes it as one product with the symmetric
N x N cas matrix per grid axis, applied by numpy.matmul as stacks of GEMMs
small enough for BLAS to run on the calling thread, so its bytes do not
depend on the BLAS thread count. H is its own inverse up to N^(2n), and
sum_x f h = N^(-2n) sum_K H[f] H[h].

On one axis H(k) = Re F(k) - Im F(k) for the DFT F of a real signal, so a
Hermitian symbol h (h(-k) = conj h(k)) acts on a Hartley spectrum as
Re h(k) H(k) - Im h(k) H(-k mod N): a multiply, plus a multiply of the
spectrum reflected on that axis. A symbol even in every axis (|K|^2, the
2/3 band, the diagonal Hessian parts) is a plain multiply. A complex 1-D
symbol s is e + i o, with e and o its Hermitian-even and -odd parts
(s(k) + conj s(-k mod N))/2 and (s(k) - conj s(-k mod N))/(2i)
(_hermitian_parts). Since -k mod N keeps the Nyquist frequency, the
frequency k itself is -N/2 on the Nyquist index (its even part) plus i
times a reflection term that vanishes at 0 and at Nyquist (its odd part).
A product of per-axis symbols thus expands into terms of weight +-1 or
+-i, each a product of per-axis multiplies and reflections; those of real
weight sum to the Hermitian-even part of the product, its real field, and
those of imaginary weight to the odd part, its imaginary field. That is
how Re and Im f_{1 2bar} come from (m_1 + i k_1)(m_2 - i k_2) =
sigma_1 conj(sigma_2) / pi^2: per part, two bulk terms that reflect a pair
of axes, four terms on one Nyquist slice each and two on doubly-Nyquist
slices, which together match the complex transform of the full symbol to
roundoff on full-band fields. Kernels with complex output (gradient_z and
holomorphic_hessian here, c_divergence in kgeo.state) keep numpy.fft
complex transforms over every axis.

Dealiasing uses the 2/3 rule with per-axis integer cutoff N//3; because N is a
power of two, triple products of dealiased fields stay strictly below the grid
bandwidth, which makes the node-mean quadrature of the package's integral
identities exact to roundoff.
"""

import numpy as np

__all__ = [
    "TorusSpec",
    "build_spec",
    "hartley",
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
        # integer frequencies per axis in [-N/2, N/2), in fftfreq order
        half = self.N // 2
        self.axis_freq = (np.arange(self.N, dtype=np.int64) + half) % self.N - half
        self.cutoff = self.N // 3

        # broadcastable frequency arrays, one per real axis, on the full grid
        self._freq = [self.axis_freq.reshape(_axis_shape(self.dim_real, ax, self.N))
                      for ax in range(self.dim_real)]
        self._cas = _cas_table(self.N)
        # the two buffers the intermediate axis passes of hartley write into,
        # in turn; _apply_symbol also uses the first between transforms
        self._scratch = (np.empty(self.shape), np.empty(self.shape))

        # sigma_j = pi (m_j + i k_j): symbol of d/dz_j (axis j is x_j, axis n+j is y_j)
        self.sigma = [np.pi * (self._freq[self.n + j] + 1j * self._freq[j])
                      for j in range(self.n)]
        # tables of the hot kernels on Hartley spectra: the inverse of -lap0
        # (zero at K = 0, the only zero of the integer |K|^2), the 2/3 band
        # over N^(2n) (so that H of the masked spectrum is the dealiased
        # field) and the symbols of the Hessian parts
        inv = np.maximum(_kmag2(self), 1.0)
        inv *= 2.0 * np.pi ** 2
        self.lap_inv = np.divide(1.0, inv, out=inv)
        self.lap_inv[(0,) * self.dim_real] = 0.0
        band = np.abs(self._freq[0]) <= self.cutoff
        for f in self._freq[1:]:
            band = band & (np.abs(f) <= self.cutoff)
        self.band = band / float(self.nodes)
        self.hess = self._hessian_symbols()

        # background metric: g = (1/2) I, det g = 2^-n
        self.det_flat = 0.5 ** self.n

    def _hessian_symbols(self):
        """Symbols of the real fields of the complex Hessian, as term lists
        for _apply_symbol, each over N^(2n) so that H of the result is the
        field.

        f_{j jbar} has the real even symbol -pi^2 (m_j^2 + k_j^2), one plain
        multiply. For n = 2, Re f_{1 2bar} and Im f_{1 2bar} are the terms of
        real and of imaginary weight of the integer symbol
        (m_1 + i k_1)(m_2 - i k_2) = sigma_1 conj(sigma_2) / pi^2, expanded
        by the per-axis rule of the module docstring and scaled by -pi^2 once.
        """
        d, n = self.dim_real, self.n
        scale = -np.pi ** 2 / self.nodes
        full = (slice(None),) * d
        out = [[(scale * (self._freq[j] ** 2 + self._freq[n + j] ** 2), full, full)]
               for j in range(n)]
        if n == 1:
            return out
        k = self.axis_freq.astype(complex)
        # (m_1 + i k_1) on axes y_1, x_1 and (m_2 - i k_2) on axes y_2, x_2
        factors = ([(2, k), (0, 1j * k)], [(3, k), (1, -1j * k)])
        parts = ([], [])
        for a, sa in factors[0]:
            for b, sb in factors[1]:
                for wa, ra, ca in _axis_rule(sa):
                    for wb, rb, cb in _axis_rule(sb):
                        w = wa * wb
                        odd = w.imag != 0
                        parts[odd].append(_term(d, [(a, ra, ca), (b, rb, cb)],
                                                w.imag if odd else w.real, scale))
        # first the terms that keep no axis to its Nyquist slice: the first
        # term writes every entry of the output it does not zero
        return out + [sorted(terms, key=lambda t: sum(sl.start not in (None, 1)
                                                      for sl in t[1]))
                      for terms in parts]

    def coordinates(self):
        """Full coordinate arrays (x_1..x_n, y_1..y_n), each of grid shape."""
        t = np.arange(self.N) / self.N
        return [np.broadcast_to(t.reshape(_axis_shape(self.dim_real, ax, self.N)),
                                self.shape).copy()
                for ax in range(self.dim_real)]

    def __repr__(self):
        return "TorusSpec(n=%d, N=%d)" % (self.n, self.N)


def build_spec(n, N):
    """Construct a TorusSpec; rejects n not in {1,2} and non-power-of-two N."""
    return TorusSpec(n, N)


def _axis_shape(d, ax, size):
    sh = [1] * d
    sh[ax] = size
    return tuple(sh)


def _kmag2(spec):
    # |K|^2 = sum k_j^2 + m_j^2 on the full grid
    return sum(f.astype(np.float64) ** 2 for f in spec._freq)


def _hermitian_parts(s, s_refl, scale):
    """scale times the Hermitian-even and -odd parts of a symbol s (see the
    module docstring), given s_refl, s at -K mod N. Overwrites s and s_refl
    and returns the odd part in s."""
    np.conjugate(s_refl, out=s_refl)
    even = s + s_refl
    even *= 0.5 * scale
    s -= s_refl
    s *= -0.5j * scale
    return [even, s]


def _axis_rule(s):
    """The per-axis rule of a complex 1-D symbol s over the N indices of an
    axis: (weight, reflect, coef) triples, s acting on a Hartley spectrum
    as the sum of weight * coef(k) * H(k), or H(-k mod N) where reflect,
    with weight 1 or i. Zero coefficients are left out."""
    mirror = -np.arange(s.size) % s.size
    out = []
    for weight, h in zip((1, 1j), _hermitian_parts(s.copy(), s[mirror], 1.0)):
        for reflect, coef in ((False, h.real), (True, -h.imag)):
            if np.any(coef):
                out.append((weight, reflect, coef))
    return out


def _term(d, axes, weight, scale):
    """One term of _apply_symbol: scale times weight times the product of the
    per-axis coefficients of axes, (axis, reflect, coef) triples, as
    (coefficient table, output index, source index); integer coefficients
    stay exact until the one multiply by scale. A reflected axis writes indices
    1.. from the reversed spectrum (a Hermitian symbol has a real value at
    k = 0, so its reflection coefficient vanishes there); an axis that is
    only multiplied keeps the span of its nonzero coefficients."""
    coef = np.full((1,) * d, float(weight))
    dst, src = [slice(None)] * d, [slice(None)] * d
    for ax, reflect, c in axes:
        if reflect:
            assert c[0] == 0.0
            dst[ax], src[ax], c = slice(1, None), slice(None, 0, -1), c[1:]
        else:
            nz = np.flatnonzero(c)
            dst[ax] = src[ax] = slice(nz[0], nz[-1] + 1)
            c = c[nz[0]:nz[-1] + 1]
        coef = coef * c.reshape(_axis_shape(d, ax, c.size))
    return scale * coef, tuple(dst), tuple(src)


def _apply_symbol(spec, terms, x, out):
    """The Hartley spectrum of a symbol, given as terms of _term, applied to
    the Hartley spectrum x, written into out (not x). The first term
    restricts no axis: it writes out, and the entries at index 0 of its
    reflected axes are zero. Every later one is added through the first
    scratch buffer of spec."""
    coef, dst, src = terms[0]
    np.multiply(coef, x[src], out=out[dst])
    for ax, sl in enumerate(dst):
        if sl.start == 1:
            out[(slice(None),) * ax + (0,)] = 0.0
    tmp = spec._scratch[0]
    for coef, dst, src in terms[1:]:
        view = out[dst]
        view += np.multiply(coef, x[src], out=tmp[dst])
    return out


def _cas_table(N):
    """cas(2 pi j k / N) = cos + sin of one grid axis of N nodes, symmetric.
    Angles are reduced to j k mod N in integers, so the entries that are
    0 or +-1 are exact."""
    turns = np.outer(np.arange(N), np.arange(N)) % N
    angle = (2.0 * np.pi / N) * turns
    cos = np.cos(angle)
    sin = np.sin(angle)
    cos[turns % (N // 2) == N // 4] = 0.0
    sin[turns % (N // 2) == 0] = 0.0
    return cos + sin


# Multiply-adds per GEMM of a transform. From there on a large dgemm takes
# other kernels on several OpenBLAS threads, with other roundoff as the
# thread count changes; within 2^17 a GEMM stays on the calling thread. Grid
# sizes are powers of two, so blocks of rows divide the rows evenly, and
# for N <= 256 a block holds at least two rows (one row would be a
# matrix-vector product, which OpenBLAS may split over threads).
_GEMM_MACS = 2 ** 17


def _lead_to_end(y, w, out):
    """Transform the leading axis of y by the symmetric matrix w and move it
    to the end, into the contiguous array out: the rows are the other axes,
    flattened, and every GEMM reads a block of them through a transposed
    view."""
    lead = y.shape[0]
    rows = y.size // lead
    block = max(1, min(rows, _GEMM_MACS // (lead * lead)))
    stack = y.reshape(lead, rows // block, block).transpose(1, 2, 0)
    np.matmul(stack, w, out=out.reshape(rows // block, block, lead))
    return out


def hartley(spec, f, out=None):
    """The separable real Hartley transform of a real field (module
    docstring); hartley(spec, hartley(spec, f)) = spec.nodes * f.

    Every axis in turn is transformed and moved to the end, so after the
    2n passes the axes are back in order; each pass is a stack of GEMMs
    over blocks of rows, each within _GEMM_MACS multiply-adds. The result
    is written into out (a contiguous float64 array of spec.shape; it may
    be f, which the first pass has read by then) when given, else into a
    new array. The passes before the last write into the two scratch
    buffers of spec, so two threads must not transform on one spec at once;
    the result never shares memory with them.
    """
    if out is None:
        out = np.empty(spec.shape)
    y = f
    for i in range(1, spec.dim_real + 1):
        y = _lead_to_end(y, spec._cas,
                         out if i == spec.dim_real else spec._scratch[i % 2])
    return out


def dealias(spec, f):
    """Project a real field onto the 2/3-rule band (|k| <= N//3 per axis)."""
    fh = hartley(spec, f)
    fh *= spec.band
    return hartley(spec, fh, out=fh)


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
    coef = hartley(spec, white)
    amp = np.sqrt(_kmag2(spec))
    amp += 1.0
    coef *= np.power(amp, -decay, out=amp)
    coef *= spec.band
    if kmax is not None:
        for f in spec._freq:
            coef = np.where(np.abs(f) > kmax, 0.0, coef)
    coef[(0,) * spec.dim_real] = 0.0
    out = hartley(spec, coef)
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
    Im f_{1 2bar}] for n = 2: one forward and 1 or 4 inverse transforms.
    """
    x = hartley(spec, f)
    out = []
    for terms in spec.hess:
        part = _apply_symbol(spec, terms, x, np.empty(spec.shape))
        out.append(hartley(spec, part, out=part))
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
            out[..., j, k] = np.fft.ifftn(spec.sigma[j] * spec.sigma[k] * fh)
            out[..., k, j] = out[..., j, k]
    return out


"""Per-layer tracing of kgeo from outside the package.

The tracer replaces public functions of the kgeo modules (and the n-d
transforms of numpy.fft and scipy.fft) by wrappers that record a span per
call: layer name, start, end and the index of the enclosing span. kgeo's
modules bind each other's functions at import (``from .state import
laplacian``), so a function is re-bound in every kgeo module that holds it,
not only in the module that defines it. ``uninstall`` puts every original
back. Spans stay in memory; ``summary`` turns them into per-layer metrics,
with self time as a span's duration minus that of its child spans.
"""

import functools
import inspect
import os
import sys
import time

# (module, function, layer). A missing function is skipped, so a renamed
# kernel shows as a zero count rather than a crash.
SPANS = [
    ("kgeo.torus", "complex_hessian", "torus.complex_hessian"),
    ("kgeo.torus", "dealias", "torus.dealias"),
    ("kgeo.torus", "gradient_z", "torus.gradient_z"),
    ("kgeo.state", "_potential_raw", "state.potential"),
    ("kgeo.state", "laplacian", "state.laplacian"),
    ("kgeo.state", "ma_cross", "state.ma_cross"),
    ("kgeo.state", "green_solve", "state.green_solve"),
    ("kgeo.metrics", "inner", "metrics.inner"),
    ("kgeo.metrics", "gram_schmidt", "metrics.gram_schmidt"),
    ("kgeo.curvature", "sectional", "curvature.sectional"),
    ("kgeo.curvature", "dirichlet_bound", "curvature.dirichlet_bound"),
    ("kgeo.dynamics", "integrate_geodesic", "dynamics.integrate_geodesic"),
    ("kgeo.dynamics", "geodesic_residual", "dynamics.geodesic_residual"),
    ("kgeo.dynamics", "path_energy", "dynamics.path_energy"),
    ("kgeo.dynamics", "path_length", "dynamics.path_length"),
    ("kgeo.dynamics", "kenergy", "dynamics.kenergy"),
    ("kgeo.dynamics", "pseudo_calabi_flow", "dynamics.pseudo_calabi_flow"),
    ("kgeo.fieldio", "write_csv", "fieldio.write"),
    ("kgeo.fieldio", "write_json", "fieldio.write"),
]

FFT_LAYER = "torus.fft"
FFT_MODULES = {
    "numpy.fft": ["fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2",
                  "rfft2", "irfft2"],
    "scipy.fft": ["fftn", "ifftn", "rfftn", "irfftn", "hfftn", "ihfftn",
                  "fft2", "ifft2", "rfft2", "irfft2", "hfft2", "ihfft2"],
}

# one preconditioner application per preconditioned-CG iteration
PCG_ITERATION = ("kgeo.state", "_flat_inverse")

MIB = float(2 ** 20)

# Per-layer metrics reported by a traced run, in report order:
# name -> (unit, better).
METRICS = {
    "torus.fft.calls": ("count", "lower"),
    "torus.fft.ms": ("ms", "lower"),
    "torus.fft.mb": ("MB", "lower"),
    "torus.complex_hessian.calls": ("count", "lower"),
    "torus.complex_hessian.ms": ("ms", "lower"),
    "torus.dealias.calls": ("count", "lower"),
    "torus.dealias.ms": ("ms", "lower"),
    "torus.gradient_z.calls": ("count", "lower"),
    "torus.gradient_z.ms": ("ms", "lower"),
    "state.potential.builds": ("count", "lower"),
    "state.potential.ms": ("ms", "lower"),
    "state.laplacian.calls": ("count", "lower"),
    "state.laplacian.self_ms": ("ms", "lower"),
    "state.ma_cross.calls": ("count", "lower"),
    "state.ma_cross.ms": ("ms", "lower"),
    "state.green_solve.calls": ("count", "lower"),
    "state.green_solve.ms": ("ms", "lower"),
    "state.green_solve.self_ms": ("ms", "lower"),
    "state.green_solve.pcg_iters": ("count", "lower"),
    "state.green_solve.iters_per_solve": ("count", "lower"),
    "state.green_solve.warm_calls": ("count", "higher"),
    "metrics.inner.calls": ("count", "lower"),
    "metrics.inner.ms": ("ms", "lower"),
    "metrics.gram_schmidt.ms": ("ms", "lower"),
    "curvature.sectional.ms": ("ms", "lower"),
    "curvature.dirichlet_bound.ms": ("ms", "lower"),
    "dynamics.integrate_geodesic.ms": ("ms", "lower"),
    "dynamics.geodesic_residual.ms": ("ms", "lower"),
    "dynamics.path_energy.ms": ("ms", "lower"),
    "dynamics.path_length.ms": ("ms", "lower"),
    "dynamics.kenergy.calls": ("count", "lower"),
    "dynamics.kenergy.ms": ("ms", "lower"),
    "dynamics.pseudo_calabi_flow.ms": ("ms", "lower"),
    "fieldio.write.ms": ("ms", "lower"),
    "fieldio.write.bytes": ("bytes", "lower"),
    "cli.command.ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _nbytes(x):
    return getattr(x, "nbytes", 0)


class Tracer:
    """Spans and counters of one traced command call."""

    def __init__(self):
        self.spans = []      # [layer, start, end, parent index or -1]
        self.stack = []
        self.counts = {"fft_bytes": 0, "pcg_iters": 0, "warm_calls": 0,
                       "write_bytes": 0}
        self._patches = []   # (owner, name, original)

    # ------------------------------------------------------------ spans ---

    def open(self, layer):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _wrap_fft(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # an n-d transform built on another counts once, outermost
            if stack and spans[stack[-1]][0] == FFT_LAYER:
                return fn(*args, **kwargs)
            index = self.open(FFT_LAYER)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            source = args[0] if args else next(iter(kwargs.values()), None)
            self.counts["fft_bytes"] += _nbytes(source) + _nbytes(result)
            return result
        return traced

    def _wrap_count(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # ---------------------------------------------------------- binding ---

    def _rebind(self, original, wrapper, owners):
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, name, original))
                    setattr(owner, name, wrapper)

    def install(self):
        """Wrap every traced function wherever a kgeo module binds it."""
        kgeo_modules = [m for name, m in sorted(sys.modules.items())
                        if (name == "kgeo" or name.startswith("kgeo.")) and m]
        for modname, fname, layer in SPANS:
            fn = getattr(sys.modules.get(modname), fname, None)
            if fn is None:
                continue
            after = None
            if layer == "state.green_solve":
                after = self._green_note(fn)
            elif layer == "fieldio.write":
                after = self._write_note
            self._rebind(fn, self._wrap(layer, fn, after), kgeo_modules)

        modname, fname = PCG_ITERATION
        fn = getattr(sys.modules.get(modname), fname, None)
        if fn is not None:
            self._rebind(fn, self._wrap_count("pcg_iters", fn), kgeo_modules)

        for modname, names in FFT_MODULES.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:
                    self._rebind(fn, self._wrap_fft(fn), [module] + kgeo_modules)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _green_note(self, fn):
        sig = inspect.signature(fn)

        def note(args, kwargs, result):
            if sig.bind(*args, **kwargs).arguments.get("x0") is not None:
                self.counts["warm_calls"] += 1
        return note

    def _write_note(self, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        self.counts["write_bytes"] += os.path.getsize(path)

    # ---------------------------------------------------------- results ---

    def layer_totals(self):
        """layer -> [calls, inclusive s, self s].

        Inclusive time counts a span only when no enclosing span has the same
        layer, so a layer that recurses is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (layer, start, end, parent) in enumerate(spans):
            entry = totals.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += 1
            entry[2] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][3]
            if p < 0:
                entry[1] += end - start
        return totals

    def summary(self):
        """Per-layer metric values of the traced call, in METRICS order
        (trace.overhead_s is left to the caller, which times both calls)."""
        totals = self.layer_totals()
        counts = self.counts
        solves = totals.get("state.green_solve", [0])[0]
        extra = {
            "torus.fft.mb": counts["fft_bytes"] / MIB,
            "state.green_solve.pcg_iters": counts["pcg_iters"],
            "state.green_solve.iters_per_solve":
                counts["pcg_iters"] / solves if solves else 0.0,
            "state.green_solve.warm_calls": counts["warm_calls"],
            "fieldio.write.bytes": counts["write_bytes"],
        }
        out = {}
        for name in METRICS:
            layer, _, quantity = name.rpartition(".")
            calls, inclusive, own = totals.get(layer, (0, 0.0, 0.0))
            if name in extra:
                out[name] = extra[name]
            elif quantity in ("calls", "builds"):
                out[name] = calls
            elif quantity == "ms":
                out[name] = 1e3 * inclusive
            elif quantity == "self_ms":
                out[name] = 1e3 * own
        return out

    def write_spans(self, path):
        """Spans as JSON lines: layer, start and end in ms from the first
        span, parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for layer, start, end, parent in self.spans:
                fh.write('["%s", %.6f, %.6f, %d]\n'
                         % (layer, 1e3 * (start - t0), 1e3 * (end - t0), parent))

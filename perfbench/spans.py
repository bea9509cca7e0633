"""Spans and counts around voxfilt's public functions, from outside the program.

The tracer swaps each traced function for a wrapper in every voxfilt module
that binds it: ``pipeline``, ``kernels``, ``wavelets`` and ``riesz`` import
``convolve_full`` and friends by name, so patching the defining module alone
would miss their calls.  FFTs are counted at the ``numpy.fft`` (and, when
loaded, ``scipy.fft``) entry points, which voxfilt looks up at call time.

Spans keep their parent, also across the worker threads of 2-D slice
mapping, so a layer's self time is its duration minus the union of its
children's intervals.  Counts come from argument shapes only and are summed
as integers, so they repeat exactly between runs whatever the thread order.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

_FFT_FORWARD = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn")
_FFT_INVERSE = ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn")


def _fingerprint(arr) -> bytes:
    arr = np.ascontiguousarray(arr)
    return hashlib.blake2b(arr.view(np.uint8).reshape(-1), digest_size=16).digest() + \
        repr((arr.shape, arr.dtype.str)).encode()


def _sign_free(kernel) -> bytes:
    """Kernel bytes with the sign fixed by the first nonzero tap."""
    k = np.asarray(kernel)
    nonzero = np.flatnonzero(k)
    if nonzero.size and np.real(k.flat[nonzero[0]]) < 0:
        k = -k + 0.0  # + 0.0 turns the -0.0 taps back into 0.0
    return _fingerprint(k)


class Tracer:
    """Records spans, counts, distinct-input ratios and a traffic profile."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation label]
        self.counts = Counter()
        self.traffic = Counter()
        self.per_operation = {}  # label -> counts of that operation
        self.active = False  # spans and counts are taken only while set
        self._distinct = defaultdict(set)
        self._label = None
        self._counts_before = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = None  # stack of the thread that started the operation
        self._patched = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]  # worker thread: caller's innermost span
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self._label])
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def distinct(self, key, fingerprint):
        with self._lock:
            self._distinct[key].add(fingerprint)

    def begin_operation(self, label):
        """Start attributing counts to ``label``; distinct inputs are per operation."""
        self._flush()
        self._label = label
        self._counts_before = Counter(self.counts)
        self._root_stack = self._stack()

    def finish(self):
        self._flush()
        self._label = self._root_stack = None

    def _flush(self):
        for key, seen in self._distinct.items():
            self.counts[key + ".distinct"] += len(seen)
        self._distinct.clear()
        if self._label is not None:
            self.per_operation[self._label] = dict(self.counts - self._counts_before)

    # -- patching ---------------------------------------------------------
    def _wrap(self, name, fn, hook, after=None):
        tracer = self
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                # a span of its own, so hashing inputs is no caller's self time
                index = tracer._open("trace.hook")
                try:
                    hook(tracer, signature.bind(*args, **kwargs).arguments)
                finally:
                    tracer._close(index)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "voxfilt" or key.startswith("voxfilt.")]
        for module_name, fn_name, span, hook, after in TARGETS:
            original = getattr(sys.modules[f"voxfilt.{module_name}"], fn_name)
            wrapper = self._wrap(span, original, hook, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        fft_modules = [sys.modules[k] for k in ("numpy.fft", "scipy.fft") if k in sys.modules]
        for module in fft_modules:
            for fn_name in _FFT_FORWARD + _FFT_INVERSE:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                direction = "forward" if fn_name in _FFT_FORWARD else "inverse"
                hook = _fft_hook(direction, f"{module.__name__}.{fn_name}")
                self._patched.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap("fft", original, hook))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------
    def layer_times(self):
        """Total and self seconds per span name, the same per operation, and
        the top-level intervals."""
        children = defaultdict(list)
        top = []
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                top.append((start, end))
            else:
                children[parent].append((start, end))
        total, own = Counter(), Counter()
        per_operation = defaultdict(Counter)
        for index, (name, start, end, _, label) in enumerate(self.spans):
            self_s = (end - start) - _union(children[index], start, end)
            total[name] += end - start
            own[name] += self_s
            per_operation[label][name + "_s"] += end - start
            per_operation[label][name + "_self_s"] += self_s
        return total, own, top, per_operation


def _union(intervals, lo, hi) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


# -- argument hooks: counts, traffic and distinct inputs -------------------
def _full_hook(tracer, a):
    image, kernel = np.asarray(a["image"]), np.asarray(a["kernel"])
    tracer.count("convolve.full_calls")
    tracer.count("convolve.full_macs", image.size * kernel.size)
    with tracer._lock:
        tracer.traffic[("convolve_full", image.shape, kernel.shape, a["boundary"])] += 1


def _separable_hook(tracer, a):
    image = np.asarray(a["image"])
    kernels = [np.atleast_1d(np.asarray(g)) for g in a["kernels"]]
    shape = [n + 2 * (g.shape[0] // 2) for n, g in zip(image.shape, kernels)]
    macs = 0
    for axis, g in enumerate(kernels):
        shape[axis] = image.shape[axis]
        macs += math.prod(shape) * g.shape[0]
    tracer.count("convolve.separable_calls")
    tracer.count("convolve.separable_macs", macs)
    lengths = tuple(g.shape[0] for g in kernels)
    with tracer._lock:
        tracer.traffic[("convolve_separable", image.shape, lengths, a["boundary"])] += 1
    key = _fingerprint(image) + b"".join(_sign_free(g) for g in kernels)
    tracer.distinct("convolve.separable", key)


def _pad_hook(tracer, a):
    image = np.asarray(a["image"])
    margins = np.broadcast_to(np.asarray(a["margin"], dtype=int), (image.ndim,))
    padded = math.prod(n + 2 * int(m) for n, m in zip(image.shape, margins))
    tracer.count("boundary.pad_calls")
    tracer.count("boundary.pad_bytes", padded * image.itemsize)


def _fft_hook(direction, label):
    def hook(tracer, a):
        x = np.asarray(a["a"] if "a" in a else a["x"])
        tracer.count(f"fft.{direction}_calls")
        tracer.count("fft.points", x.size)
        with tracer._lock:
            tracer.traffic[(label, x.shape)] += 1
        if direction == "forward":
            tracer.distinct("fft.forward", _fingerprint(x))
    return hook


def _counter(key):
    return lambda tracer, a: tracer.count(key)


def _resample_after(tracer, result):
    tracer.count("pipeline.resample_voxels", math.prod(result.dims))


def _statistics_hook(tracer, a):
    response = a["response"]
    data = response if isinstance(response, np.ndarray) else response.data
    tracer.count("features.statistics_voxels", data.size)


_NIFTI_ITEMSIZE = {"u8": 1, "i16": 2, "i32": 4, "f32": 4, "f64": 8}
_NIFTI_CODE_ITEMSIZE = {2: 1, 4: 2, 8: 4, 16: 4, 64: 8}


def _nifti_read_after(tracer, result):
    image, view = result
    tracer.count("nifti.read_calls")
    tracer.count("nifti.read_bytes",
                 math.prod(image.dims) * _NIFTI_CODE_ITEMSIZE[view.datatype])


def _nifti_write_hook(tracer, a):
    itemsize = _NIFTI_ITEMSIZE[a.get("datatype", "f32")]
    tracer.count("nifti.write_calls")
    tracer.count("nifti.write_bytes", math.prod(a["image"].dims) * itemsize)


# (module, function, span name, hook on the arguments, hook on the result)
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("nifti", "read_nifti", "nifti.read", None, _nifti_read_after),
    ("nifti", "write_nifti", "nifti.write", _nifti_write_hook, None),
    ("pipeline", "run_configuration", "pipeline.run_configuration", None, None),
    ("pipeline", "resample_image", "pipeline.resample", None, _resample_after),
    ("pipeline", "resample_mask", "pipeline.resample", None, _resample_after),
    ("pipeline", "resegment", "pipeline.resegment", None, None),
    ("pipeline", "apply_filter", "pipeline.apply_filter", None, None),
    ("convolve", "convolve_full", "convolve.full", _full_hook, None),
    ("convolve", "convolve_separable", "convolve.separable", _separable_hook, None),
    ("convolve", "convolve_fourier", "convolve.fourier",
     _counter("convolve.fourier_calls"), None),
    ("boundary", "pad", "boundary.pad", _pad_hook, None),
    ("kernels", "gabor_response_modulus", "kernels.gabor",
     _counter("kernels.gabor_calls"), None),
    ("kernels", "laws_energy", "kernels.laws_energy", None, None),
    ("rotinv", "pool", "rotinv.pool", _counter("rotinv.pool_calls"), None),
    ("rotinv", "orthogonal_plane_average", "rotinv.plane_average", None, None),
    ("wavelets", "swt_undecimated", "wavelets.swt", None, None),
    ("wavelets", "swt_rotation_pooled", "wavelets.swt", None, None),
    ("wavelets", "nonseparable_b_map", "wavelets.bmap", None, None),
    ("wavelets", "radial_transfer", "wavelets.radial_transfer",
     _counter("wavelets.radial_transfer_calls"), None),
    ("riesz", "riesz_filtered_map", "riesz.filtered_map",
     _counter("riesz.filtered_map_calls"), None),
    ("riesz", "structure_tensor", "riesz.structure_tensor", None, None),
    ("riesz", "align_order2", "riesz.align", None, None),
    ("features", "intensity_statistics", "features.statistics", _statistics_hook, None),
    ("features", "diagnostics", "features.diagnostics", None, None),
    ("features", "write_feature_csv", "features.export", None, None),
    ("features", "write_feature_json", "features.export", None, None),
)

"""Host-speed calibration: fixed reference kernels timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within minutes, uniformly across every operation (see
NOTES.md).  Each timed operation is therefore bracketed by a calibration:
a fixed set of small kernels on fixed inputs, independent of voxfilt and of
``--seed``.  The calibration *factor* is the mean, over the kernels, of each
kernel's time divided by its reference time.  It is 1 when the host runs at
the speed it had when the reference times were taken, 1.3 when it is 30%
slower.  Dividing an operation's time by the mean of the factors measured
just before and just after it gives its time at reference speed.

    python3 perfbench/calibrate.py   # prints median kernel times (new references)
"""

from __future__ import annotations

import statistics
import sys
import time
import zlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Median seconds of each kernel over 60 calibrations on the 2-vCPU x86-64 VM
# the benchmark was defined on.
REFERENCE_S = {
    "einsum": 0.0076,
    "python": 0.0071,
    "zlib": 0.0131,
    "fft": 0.0041,
    "sort": 0.0058,
    "eigh": 0.0092,
}


def _kernels():
    """Name -> zero-argument callable, each on inputs made here once."""
    rng = np.random.default_rng(0)
    image = rng.normal(size=(72, 72))
    taps = rng.normal(size=(61, 61)) + 1j * rng.normal(size=(61, 61))
    windows = sliding_window_view(image, taps.shape)[:12, :12]
    blob = rng.integers(0, 40, size=300_000, dtype=np.uint8).tobytes()
    volume = rng.normal(size=(32, 32, 32))
    values = rng.normal(size=600_000)
    half = rng.normal(size=(5_000, 3, 3))
    tensors = half + half.transpose(0, 2, 1)

    def einsum():  # dense complex convolution, as in convolve_full
        for _ in range(6):
            np.einsum("...ij,ij->...", windows, taps)

    def python():  # interpreter-bound bookkeeping
        total = 0
        for i in range(100_000):
            total += i * i
        return total

    def compress():  # gzip, as in NIfTI writes
        zlib.compress(blob, 6)

    def fft():  # Fourier filters
        for _ in range(3):
            np.fft.ifftn(np.fft.fftn(volume))

    def sort():  # percentiles in feature statistics
        np.sort(values)

    def eigh():  # Riesz structure tensors
        np.linalg.eigh(tensors)

    return {"einsum": einsum, "python": python, "zlib": compress, "fft": fft,
            "sort": sort, "eigh": eigh}


class Calibration:
    """Times every kernel; ``factor`` is the latest measured factor."""

    def __init__(self):
        self.kernels = _kernels()
        self.measure()  # warm-up: first calls pay for lazy set-up
        self.measure()

    def measure(self):
        self.seconds = {}
        for name, kernel in self.kernels.items():
            started = time.perf_counter()
            kernel()
            self.seconds[name] = time.perf_counter() - started
        self.factor = statistics.fmean(t / REFERENCE_S[n] for n, t in self.seconds.items())
        return self.factor


def main():
    kernels = _kernels()
    samples = {name: [] for name in kernels}
    for _ in range(60):
        for name, kernel in kernels.items():
            started = time.perf_counter()
            kernel()
            samples[name].append(time.perf_counter() - started)
    for name, times in samples.items():
        print(f"{name}: {statistics.median(times[5:]):.4f} s (reference {REFERENCE_S[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run a probe script at several numpy SIMD dispatch levels and OpenBLAS cores.

numpy picks its SIMD kernels at import time; ``NPY_DISABLE_CPU_FEATURES``
makes a fresh interpreter behave like an older CPU.  A DYNAMIC_ARCH OpenBLAS
picks its kernels when it loads; ``OPENBLAS_CORETYPE`` forces an older core.
A probe prints the SHA-256 of what it computed on its first line; the helper
adds a line with the numpy features that were enabled and one with the
OpenBLAS core that actually loaded, so a level or core this host cannot
reach is reported instead of silently passing.
"""

import os
import subprocess
import sys

# Each level disables what the previous one kept: AVX-512 first (an AVX2
# machine), then X86_V3 too (an SSE4 machine).
_DISPATCH_LEVELS = (
    ("default", None),
    ("AVX2", "X86_V4 AVX512_ICL AVX512_SPR"),
    ("SSE4", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"),
)

_CORE_TYPES = ("default", "Sandybridge", "Prescott")

_FEATURES = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
enabled = sorted(k for k in umath.__cpu_dispatch__ if umath.__cpu_features__.get(k))
print(" ".join(enabled) or "baseline only")

import ctypes, glob, os
import numpy
core = "unknown (no bundled OpenBLAS found)"
here = os.path.dirname(numpy.__file__)
for path in sorted(glob.glob(os.path.join(here, "..", "numpy.libs", "*openblas*"))
                   + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.restype = ctypes.c_char_p
            core = getter().decode()
            break
print(core)
"""


def run_probe(probe, *args, disabled=None, core_type="default"):
    """Run ``probe`` (Python source) in a fresh interpreter with the numpy
    features ``disabled`` (None: the default level) and OpenBLAS forced to
    ``core_type``; returns its first output line, the numpy features that
    were enabled and the OpenBLAS core that loaded."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("OPENBLAS_CORETYPE", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    if core_type != "default":
        env["OPENBLAS_CORETYPE"] = core_type
    done = subprocess.run([sys.executable, "-c", probe + _FEATURES, *map(str, args)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, f"{disabled or 'default'}/{core_type}: {done.stderr}"
    return tuple(done.stdout.split("\n")[:3])


def digests_at_dispatch_levels(probe, *args, core_types=False):
    """Run ``probe`` (Python source) once per numpy level; returns (label, digest)
    pairs.  With ``core_types`` it runs once per level and OpenBLAS core type,
    labelled ``level/core``."""
    results = []
    for core_type in _CORE_TYPES if core_types else ("default",):
        baseline = None
        for name, disabled in _DISPATCH_LEVELS:
            digest, enabled, core = run_probe(probe, *args, disabled=disabled,
                                              core_type=core_type)
            label = f"{name}/{core_type}" if core_types else name
            if baseline and enabled == baseline[1]:
                print(f"dispatch level {name} is not available on this host: "
                      f"it ran with the same features as {baseline[0]} ({enabled})")
            else:
                print(f"dispatch level {name}: {enabled}")
            baseline = (name, enabled)
            if core_types:
                default_core = results[0][2] if results else core
                honoured = core_type == "default" or core != default_core
                print(f"OpenBLAS core type {core_type}: loaded {core}"
                      + ("" if honoured else " (not honoured: same as the default)"))
            results.append((label, digest, core))
    return [(label, digest) for label, digest, _ in results]

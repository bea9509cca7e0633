"""Run a probe script at several numpy SIMD dispatch levels.

numpy picks its SIMD kernels at import time; ``NPY_DISABLE_CPU_FEATURES``
makes a fresh interpreter behave like an older CPU.  A probe prints the
SHA-256 of what it computed on its first line; the helper adds a second
line with the features that were enabled, so a level this host cannot
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

_FEATURES = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
enabled = sorted(k for k in umath.__cpu_dispatch__ if umath.__cpu_features__.get(k))
print(" ".join(enabled) or "baseline only")
"""


def digests_at_dispatch_levels(probe, *args):
    """Run ``probe`` (Python source) once per level; returns (level, digest) pairs."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    results = []
    for name, disabled in _DISPATCH_LEVELS:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run([sys.executable, "-c", probe + _FEATURES, *map(str, args)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, f"dispatch level {name}: {done.stderr}"
        digest, enabled = done.stdout.split("\n")[:2]
        if results and enabled == results[-1][2]:
            print(f"dispatch level {name} is not available on this host: "
                  f"it ran with the same features as {results[-1][0]} ({enabled})")
        else:
            print(f"dispatch level {name}: {enabled}")
        results.append((name, digest, enabled))
    return [(name, digest) for name, digest, _ in results]

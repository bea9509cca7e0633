"""Static checks of rules that keep output bytes machine-independent and on
one path.

* Every ``numpy.fft`` transform runs inside ``convolve.fft_forward`` or
  ``convolve.fft_inverse``, so grid choice, half spectra and pruning are
  decided in one place (``np.fft.fftfreq`` builds coordinates and is free).
* No BLAS or LAPACK in any module: no ``np.linalg``, ``@``, ``dot``,
  ``tensordot``, ``matmul`` or ``einsum(optimize=...)``, whose results
  depend on the machine, the OpenBLAS core type and the thread count.
* No module compresses, ``nifti.write_nifti`` included, since compressed
  bytes depend on the zlib build: no ``gzip.compress``, no ``gzip.open``
  or ``GzipFile`` in a write mode (or a ``GzipFile`` whose mode follows
  its file object), no ``zlib.compress`` and no ``compressobj``.  The
  writer frames stored gzip blocks itself; ``zlib.crc32`` and reading
  through ``GzipFile`` are free.
* Every file is opened in a binary mode or with an ``encoding=``: text
  decoded or encoded in the locale's encoding differs between hosts.  The
  check covers ``open``, ``io.open``, ``gzip.open``, a path's ``open``
  method and ``read_text`` and ``write_text``.
* Every name in a module's ``__all__`` resolves, so a deleted function
  cannot leave a stale export behind.
* Every ``(module, function)`` entry of ``perfbench/spans.py``'s ``TARGETS``
  names a function of ``voxfilt.<module>``, so a deleted or renamed traced
  function fails here, not in the tracer of a traced benchmark run.
* Every function in a module's ``__all__`` is called when each CLI command
  runs on a small fixture, or is listed in ``UNREACHED_EXPORTS`` with the
  reason it stays: the library holds one path per filter, not shadow
  entry points that only their own tests reach.
* Only the functions in ``LIBM_SITES`` reach libm, or numpy's own versions
  of its functions: ``math.exp``, ``math.log*``, ``math.cos``, ``math.sin``,
  ``math.pow``, ``np.exp``, ``np.log*``, ``np.cos``, ``np.sin``,
  ``np.power``, ``np.arccos``, ``np.cbrt``, ``np.arctan2``, or ``**`` with a
  non-integer literal exponent.  Their bytes can differ between libms;
  ``math.sqrt`` and ``np.sqrt`` are correctly rounded and free.
* No module imports scipy, at the top or inside a function: the library
  runs on numpy and PyYAML alone, and those are exactly the third-party
  modules it imports and the dependencies ``pyproject.toml`` declares.
  A fresh ``import voxfilt`` loads no scipy module.
* ``convolve.axis_pass`` is used only in ``convolve``, whose slab engine
  runs every separable pass, and in ``rotinv``, whose rotation trie runs
  its own; ``np.pad`` is used nowhere, since ``boundary._window`` builds
  every halo from its index maps.  So no module grows a private slab loop
  or halo again.
* ``image.round_half_away`` is used only in ``image``, in ``pipeline``,
  whose configuration rounding step is the one rounding of a read image,
  and in ``cli``, whose ``phantom`` command rounds before an integer
  write.  So no second rounding path, such as a rounding reader, comes
  back unseen.
* Only ``pipeline._check_keys`` uses ``difflib`` or reads a ``required``
  attribute, so one function decides which keys are unknown, switched off
  or missing, for configuration files and ``voxfilt filter``'s flags alike.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "voxfilt"

FFT_HOMES = {("convolve", "fft_forward"), ("convolve", "fft_inverse")}
FFT_FREE = {"fftfreq"}
BLAS_NAMES = {"dot", "tensordot", "matmul"}
NUMPY = {"np", "numpy"}
COMPRESS_IMPORTS = {"gzip": {"compress", "open"}, "zlib": {"compress", "compressobj"}}
LIBM_MATH = {"exp", "expm1", "exp2", "log", "log2", "log10", "log1p", "cos", "sin", "pow"}
LIBM_NUMPY = {"exp", "expm1", "exp2", "log", "log2", "log10", "log1p", "cos", "sin", "power",
              "arccos", "cbrt", "arctan2"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def violations(source: str, module: str) -> set:
    """(rule, line) for every breach of the two rules in one module's source."""
    found = set()

    def visit(node, functions):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = functions | {(module, node.name)}
        fft_ok = bool(functions & FFT_HOMES)
        if isinstance(node, ast.Attribute):
            path = _dotted(node).split(".")
            if path[0] in NUMPY and path[1:2] == ["fft"] and len(path) == 3:
                if path[2] not in FFT_FREE and not fft_ok:
                    found.add(("fft", node.lineno))
            if (path[0] in NUMPY and path[1:2] == ["linalg"]) or node.attr in BLAS_NAMES:
                found.add(("blas", node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom) else []) + [
                alias.name for alias in node.names]
            for name in names:
                if name.split(".")[-1] in ("fft", "fftpack") or ".fft." in name + ".":
                    found.add(("fft", node.lineno))
                if "linalg" in name.split(".") or name in BLAS_NAMES:
                    found.add(("blas", node.lineno))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.add(("blas", node.lineno))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add(("blas", node.lineno))
        elif (isinstance(node, ast.Call) and _dotted(node.func).endswith("einsum")
              and any(k.arg == "optimize" for k in node.keywords)):
            found.add(("blas", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(ast.parse(source), frozenset())
    return found


# The only modules that may use each of these names
USE_HOMES = {"axis_pass": {"convolve", "rotinv"}, "np.pad": set(),
             "round_half_away": {"image", "pipeline", "cli"}}


def _restricted(name: str):
    """The ``USE_HOMES`` key a dotted name refers to, or None."""
    path = name.split(".")
    if path[-1] in USE_HOMES:
        return path[-1]
    return "np.pad" if len(path) == 2 and path[0] in NUMPY and path[1] == "pad" else None


def misplaced_uses(source: str, module: str) -> set:
    """(name, line) for every use or import of a ``USE_HOMES`` name outside
    its home modules in one module's source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [_restricted(f"{node.module}.{alias.name}") for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = [_restricted(_dotted(node))]
        else:
            continue
        found |= {(name, node.lineno) for name in names if name and module not in USE_HOMES[name]}
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_passes_and_halos_stay_in_their_modules(path):
    assert misplaced_uses(path.read_text(), path.stem) == set()


def test_use_checker_sees_each_breach():
    sample = """
import numpy as np
from numpy import pad
from .convolve import axis_pass
from . import convolve
from .image import round_half_away
from . import image

def smooth(x, g):
    block = np.pad(x, 2, mode="wrap")
    block = numpy.pad(block, 1)
    block = convolve.axis_pass(block, -1, g)
    x = image.round_half_away(round_half_away(x)) + rounded(x)
    return axis_pass(block, -2, g), np.padding, pad_to(x)
"""
    misplaced = {("np.pad", 3), ("axis_pass", 4), ("round_half_away", 6), ("np.pad", 10),
                 ("np.pad", 11), ("axis_pass", 12), ("round_half_away", 13), ("axis_pass", 14)}
    assert misplaced_uses(sample, "riesz") == misplaced
    assert misplaced_uses(sample, "nifti") == misplaced
    assert misplaced_uses(sample, "rotinv") == {u for u in misplaced if u[0] != "axis_pass"}
    assert misplaced_uses(sample, "boundary") == misplaced
    for home in ("image", "pipeline", "cli"):
        assert misplaced_uses(sample, home) == {u for u in misplaced if u[0] != "round_half_away"}


def _gzip_writes(call) -> bool:
    """Whether a ``gzip.open`` or ``GzipFile`` call can open for writing.
    A mode that is not a literal, or a ``GzipFile`` without one (it then
    takes its file object's mode), counts as writing."""
    name = _dotted(call.func)
    if name != "gzip.open" and name.split(".")[-1] != "GzipFile":
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
    if not modes:
        return name.split(".")[-1] == "GzipFile"  # gzip.open defaults to "rb"
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax"))


def compression_violations(source: str) -> set:
    """The lines of one module's source that compress."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if _dotted(node) in ("gzip.compress", "zlib.compress") or node.attr == "compressobj":
                found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "compressobj":
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            banned = COMPRESS_IMPORTS.get(node.module, set())
            if any(alias.name in banned for alias in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.Call) and _gzip_writes(node):
            found.add(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_keeps_fft_and_blas_rules(path):
    assert violations(path.read_text(), path.stem) == set()


def test_checker_sees_each_breach():
    sample = """
import numpy as np
from numpy.fft import rfftn
import scipy.linalg

def fft_forward(x):
    return np.fft.fftn(x)

def helper(a, b):
    f = np.fft.fftfreq(8)
    y = np.fft.ifft(a)
    z = a @ b
    a @= b
    w = np.dot(a, b)
    w = a.dot(b)
    w = np.tensordot(a, b, 1)
    w = np.matmul(a, b)
    v = np.linalg.norm(a)
    return np.einsum("ij,jk->ik", a, b, optimize=True) + np.einsum("ij->i", a)

def consensus(a):
    return np.linalg.svd(a @ a)
"""
    breaches = {("fft", 3), ("fft", 11), ("blas", 4)} | {("blas", n) for n in range(12, 20)}
    # fft_forward's transform is allowed in convolve only; BLAS nowhere
    assert violations(sample, "convolve") == breaches | {("blas", 22)}
    assert violations(sample, "riesz") == breaches | {("blas", 22), ("fft", 7)}
    assert violations(sample, "benchmark") == breaches | {("blas", 22), ("fft", 7)}


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_compresses_only_in_the_nifti_writer(path):
    assert compression_violations(path.read_text()) == set()


def test_compression_checker_sees_each_breach():
    sample = """
import gzip
import zlib
from zlib import compressobj
from gzip import open as gzip_open

def write_nifti(raw, handle):
    deflate = zlib.compressobj(6, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
    return deflate.compress(raw) + zlib.compress(raw) + deflate.flush()

def helper(raw, handle, mode):
    gzip.GzipFile(fileobj=handle, mode="rb").read()
    gzip.open("a.gz").read()
    gzip.open("a.gz", "rt").read()
    zlib.decompress(raw)
    gzip.compress(raw)
    gzip.GzipFile(fileobj=handle)
    gzip.GzipFile("a.gz", "wb")
    gzip.open("a.gz", mode="ab")
    gzip.open("a.gz", mode)
    zlib.compress(raw, 6)
    compressobj()
    zlib.crc32(raw)
"""
    # no module may compress, the NIfTI writer included; crc32 is free
    assert compression_violations(sample) == {4, 5, 8, 9} | set(range(16, 23))


def text_open_violations(source: str) -> set:
    """The lines of one module's source that open a file in text mode without
    an ``encoding=``.  A mode that is not a literal counts as text."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        name = _dotted(node.func)
        builtin = name in ("open", "io.open", "gzip.open")
        if name.endswith((".read_text", ".write_text")):
            found.add(node.lineno)
        elif builtin or (name.endswith(".open") and name != "os.open"):
            # a path's open method takes the mode first; gzip.open defaults to "rb"
            first = 1 if builtin else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[first:first + 1]
            mode = modes[0] if modes else ast.Constant("rb" if name == "gzip.open" else "r")
            if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                found.add(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_opens_text_with_an_encoding(path):
    assert text_open_violations(path.read_text()) == set()


def test_text_open_checker_sees_each_breach():
    sample = """
import gzip
import io
import os

def helper(path, mode):
    open(path, "rb").read()
    open(path, mode="wb")
    open(path, encoding="utf-8").read()
    open(path, "w", newline="", encoding="utf-8")
    gzip.open(path).read()
    os.open(path, os.O_RDONLY)
    path.open("rb")
    path.read_bytes()
    path.read_text(encoding="utf-8")
    open(path)
    open(path, "w", newline="")
    open(path, mode)
    io.open(path, "rt")
    gzip.open(path, "wt")
    path.open()
    path.read_text()
    path.write_text("x")
"""
    assert text_open_violations(sample) == set(range(16, 24))


def _reaches_libm(node) -> bool:
    """Whether an attribute is ``math.<f>`` or ``np.<f>`` for a libm-backed f."""
    path = _dotted(node).split(".")
    return len(path) == 2 and (path[0] == "math" and path[1] in LIBM_MATH
                               or path[0] in NUMPY and path[1] in LIBM_NUMPY)


def _fractional_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and not node.value.is_integer())


def libm_calls(source: str) -> set:
    """The functions of one module's source that reach libm: that name a
    libm-backed ``math`` or numpy function, import one from ``math`` or
    ``numpy``, or raise to a non-integer literal power.  A method or nested
    function is named by its dotted path, code outside any function
    ``<module>``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute):
            hit = _reaches_libm(node)
        elif isinstance(node, ast.ImportFrom):
            banned = {"math": LIBM_MATH, "numpy": LIBM_NUMPY}.get(node.module, set())
            hit = any(alias.name in banned for alias in node.names)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            hit = _fractional_literal(node.right if isinstance(node, ast.BinOp) else node.value)
        else:
            hit = False
        if hit:
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


# Every function that reaches libm, with the reason; making the taps and
# transfers libm-free (ROADMAP item 2) removes entries, and none is added.
LIBM_SITES = {
    "kernels._gaussian_samples": "one math.exp per Gaussian sample, for the Gaussian and LoG taps",
    "kernels.gabor_kernel": "np.cos and np.sin of theta, and a complex np.exp over the m^2 grid",
    "wavelets.radial_transfer": "the Simoncelli profile's np.cos and np.log2 over the DFT grid",
    "features._moments": "the skewness's variance**1.5, which is libm's pow",
}


def test_package_reaches_libm_only_at_the_listed_sites():
    found = set()
    for path in SOURCE.glob("*.py"):
        found |= {f"{path.stem}.{name}" for name in libm_calls(path.read_text())}
    assert found == set(LIBM_SITES)


@pytest.mark.parametrize("expression", [
    "math.exp(x)", "math.expm1(x)", "math.log(x)", "math.log2(x)", "math.log10(x)",
    "math.log1p(x)", "math.cos(x)", "math.sin(x)", "math.pow(x, y)", "np.exp(x)",
    "numpy.log(x)", "np.log2(x)", "np.log1p(x)", "np.cos(x)", "np.sin(x)", "np.power(x, y)",
    "np.arccos(x)", "np.cbrt(x)", "np.arctan2(x, y)", "x**1.5", "x ** -0.5",
    "list(map(math.exp, x))", "np.exp(x).sum()",
])
def test_libm_checker_sees_each_breach(expression):
    assert libm_calls(f"def f(x, y):\n    return {expression}\n") == {"f"}


@pytest.mark.parametrize("expression", [
    "math.sqrt(x)", "np.sqrt(x)", "np.hypot(x, y)", "np.abs(x)", "x**2", "x ** -2",
    "x ** y", "2.0 ** (y - 1)", "math.pi * x", "np.logical_and(x, y)",
    "np.expand_dims(x, 0)", "np.fft.fftfreq(8)", "x.cos",
])
def test_libm_checker_passes_correctly_rounded_operations(expression):
    assert libm_calls(f"def f(x, y):\n    return {expression}\n") == set()


def test_libm_checker_names_the_enclosing_scope():
    sample = """
from math import log1p
from numpy import sqrt

class Stats:
    def skew(self, v):
        return v**1.5

def outer(x):
    def inner(v):
        v **= 0.5
        return v
    return inner(x)
"""
    assert libm_calls(sample) == {"<module>", "Stats.skew", "outer.inner"}


def unresolved_exports(module) -> list:
    """The names in ``module.__all__`` that the module does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "voxfilt" if path.stem == "__init__" else f"voxfilt.{path.stem}"
    assert unresolved_exports(importlib.import_module(name)) == []


def test_export_checker_sees_a_stale_name():
    module = types.ModuleType("sample")
    module.kept = object()
    module.__all__ = ["kept", "deleted"]
    assert unresolved_exports(module) == ["deleted"]


def span_targets(source: str) -> list:
    """The (module, function) pairs of the ``TARGETS`` tuple in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "TARGETS"
                                                for target in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return []


def unresolved_targets(targets) -> list:
    """The pairs whose name is not a function of ``voxfilt.<module>``."""
    missing = []
    for module, name in targets:
        try:
            found = getattr(importlib.import_module(f"voxfilt.{module}"), name, None)
        except ImportError:
            found = None
        if not inspect.isfunction(found):
            missing.append((module, name))
    return missing


def test_every_traced_target_resolves():
    targets = span_targets((ROOT / "perfbench" / "spans.py").read_text())
    assert ("pipeline", "apply_filter") in targets
    assert unresolved_targets(targets) == []


def test_target_checker_sees_each_breach():
    sample = """
TARGETS = (
    ("pipeline", "apply_filter", "pipeline.apply_filter", None, None),
    ("convolve", "convolve_gone", "convolve.gone", None, None),
    ("pipeline", "FILTER_KINDS", "pipeline.kinds", None, None),
    ("absent", "main", "absent.main", None, None),
)
"""
    assert unresolved_targets(span_targets(sample)) == [
        ("convolve", "convolve_gone"), ("pipeline", "FILTER_KINDS"), ("absent", "main")]


# Exported functions that no CLI command calls, each with the reason it stays.
UNREACHED_EXPORTS = {
    ("convolve", "convolve_full"): "the dense reference that every convolution route is "
                                   "tested against; perfbench/spans.py traces it (TARGETS)",
    ("kernels", "gabor_response_modulus"): "perfbench/spans.py traces it (TARGETS)",
    ("wavelets", "swt_undecimated"): "perfbench/spans.py traces it (TARGETS)",
    ("wavelets", "swt_rotation_pooled"): "perfbench/spans.py traces it (TARGETS)",
    ("kernels", "log_kernel"): "the dense LoG that the separable passes are tested against",
    ("rotinv", "equivariant_cascades"): "the rotation set that PooledCascade is tested against",
}


def called_code(run) -> set:
    """The code objects of every Python function called while ``run()``
    runs, on the calling thread and on any thread it starts."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    before = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    return called


def unreached_exports(module, called) -> list:
    """The functions in ``module.__all__`` whose code is not in ``called``."""
    return [name for name in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, name))
            and inspect.unwrap(getattr(module, name)).__code__ not in called]


def _cli_commands(tmp) -> list:
    """Every CLI command on small inputs: ``run`` for each shipped config on
    the check input (14 x 13 x 9 at 1.5 x 1.5 x 2.5 mm), ``filter`` once per
    kind and flag family on a 12^3 cube, and the four report commands."""
    from voxfilt.image import create_image
    from voxfilt.nifti import write_nifti

    check = np.random.default_rng(101).normal(size=(14, 13, 9)) * 300.0 - 200.0
    cube = np.random.default_rng(3).normal(size=(12, 12, 12)) * 100.0
    image, mask, volume = (str(tmp / name) for name in ("image.nii", "mask.nii", "cube.nii"))
    write_nifti(create_image(check.shape, (1.5, 1.5, 2.5), check), image, "f64")
    write_nifti(create_image(check.shape, (1.5, 1.5, 2.5), np.ones(check.shape)), mask, "u8")
    write_nifti(create_image(cube.shape, (2.0, 2.0, 2.0), cube), volume, "f32")
    commands = [["run", str(config), "--image", image, "--mask", mask,
                 "--out-dir", str(tmp / "run"), "--threads", "1"]
                for config in sorted((ROOT / "configs").glob("*.yaml"))]
    filt = ["filter", volume, "--out", str(tmp / "filtered.nii.gz"), "--threads", "2",
            "--filter"]
    gabor = ["gabor", "--sigma-vox", "1.5", "--lambda-vox", "3"]
    commands += [filt + flags for flags in (
        ["none"],
        ["mean", "--support", "3"],
        ["log", "--sigma-vox", "1"],
        ["laws", "--kernels", "L5E5E5"],
        ["laws", "--kernels", "L5E5E5", "--rotinv", "--pool", "max", "--energy-delta", "1"],
        gabor + ["--theta", "0.3", "--mode", "2d"],
        gabor,
        ["wavelet", "--wavelet", "db2", "--level", "1", "--subband", "LHL"],
        ["wavelet", "--wavelet", "haar", "--level", "1", "--subband", "LHL", "--decimated"],
        ["nonseparable", "--wavelet", "simoncelli", "--level", "1"],
        ["riesz", "--wavelet", "simoncelli", "--level", "1", "--riesz", "0,2,0", "--align",
         "--sigma-tensor-vox", "1"],
    )]
    return commands + [
        ["phantom", "impulse", "--out", str(tmp / "phantom.nii.gz")],
        ["features", image, "--mask", mask, "--out", str(tmp / "features.csv")],
        ["compare", image, image, "--tolerance", "0"],
        ["consensus", image, image, image],
    ]


@pytest.fixture(scope="module")
def cli_calls(tmp_path_factory):
    from voxfilt.cli import main

    commands = _cli_commands(tmp_path_factory.mktemp("cli"))
    codes = []
    called = called_code(lambda: codes.extend(main(command) for command in commands))
    assert codes == [0] * len(commands)
    return called


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_function_runs_on_a_cli_path(path, cli_calls):
    module = importlib.import_module("voxfilt" if path.stem == "__init__"
                                     else f"voxfilt.{path.stem}")
    allowed = {name for home, name in UNREACHED_EXPORTS if home == path.stem}
    assert set(unreached_exports(module, cli_calls)) == allowed


def test_reachability_checker_sees_an_unreached_export():
    module = types.ModuleType("sample")
    exec("LIMIT = 3\n"
         "class Kept:\n    pass\n"
         "def used(x):\n    return helper(x)\n"
         "def helper(x):\n    return x + LIMIT\n"
         "def unused(x):\n    return x\n", vars(module))
    module.__all__ = ["LIMIT", "Kept", "used", "unused"]
    called = called_code(lambda: module.used(1))
    assert unreached_exports(module, called) == ["unused"]
    module.__all__.append("helper")
    assert unreached_exports(module, called) == ["unused"]


def imported_modules(source: str) -> dict:
    """Top-level name of every absolute import in one module's source, with
    the lines it is imported on; imports inside functions count too."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            found.setdefault(name.split(".")[0], set()).add(node.lineno)
    return found


def scipy_imports(source: str) -> set:
    return imported_modules(source).get("scipy", set())


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    assert scipy_imports(path.read_text()) == set()


def test_scipy_checker_sees_each_breach():
    sample = """
import numpy as np
import scipy
from scipy import ndimage
import scipy.ndimage as nd
from numpy import fft as scipy

def helper(x):
    from scipy.ndimage import spline_filter
    return spline_filter(x)
"""
    assert scipy_imports(sample) == {3, 4, 5, 9}


def test_only_pipeline_imports_yaml():
    # load_config picks the YAML parser (libyaml or pure Python); with yaml
    # imported in one module, no other reader can pick differently
    importers = {path.stem for path in SOURCE.glob("*.py")
                 if "yaml" in imported_modules(path.read_text())}
    assert importers == {"pipeline"}
    sample = "def load(text):\n    from yaml.cyaml import CSafeLoader\n    return CSafeLoader\n"
    assert imported_modules(sample) == {"yaml": {2}}


def key_rule_sites(source: str) -> set:
    """The functions of one module's source that decide which keys are
    unknown or required: that use ``difflib`` beyond importing it, import
    from it, or read a ``required`` attribute.  Named as in ``libm_calls``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute):
            hit = _dotted(node).startswith("difflib.") or (
                node.attr == "required" and isinstance(node.ctx, ast.Load))
        else:
            hit = isinstance(node, ast.ImportFrom) and node.module == "difflib"
        if hit:
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_one_function_checks_keys():
    # unknown, missing and switched keys of every block and of voxfilt
    # filter's flags are decided by one check, so no copy can drift from it
    found = set()
    for path in SOURCE.glob("*.py"):
        found |= {f"{path.stem}.{name}" for name in key_rule_sites(path.read_text())}
    assert found == {"pipeline._check_keys"}


def test_key_rule_checker_sees_a_second_checker():
    sample = """
import difflib
from difflib import get_close_matches


def gather(args, specs):
    missing = [key for key, spec in specs.items() if spec.required and key not in args]
    parser.add_argument("--out", required=True)
    return missing


class Flags:
    def hint(self, key):
        return difflib.get_close_matches(key, self.keys)
"""
    assert key_rule_sites(sample) == {"<module>", "gather", "Flags.hint"}


# distribution name in pyproject.toml -> the module it is imported as
_MODULE_OF = {"PyYAML": "yaml"}


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in SOURCE.glob("*.py"):
        imported |= set(imported_modules(path.read_text()))
    third_party = imported - set(sys.stdlib_module_names)
    assert third_party == {"numpy", "yaml"}
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements}
    assert {_MODULE_OF.get(name, name) for name in declared} == third_party


def test_import_loads_no_scipy():
    probe = ("import sys, voxfilt, voxfilt.cli\n"
             "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "[]"

"""Stacked primitives: a (k, n1, n2) stack of planes is filtered plane by plane.

Every 2-D primitive that a plan maps over slabs of slices filters the
trailing axes of its input and treats the leading one as a batch.  For
k = 1 and k = 3, each plane of the stacked result must equal, byte for byte,
the primitive's result on that plane alone.
"""

import numpy as np
import pytest

from voxfilt.boundary import BOUNDARY_MODES, pad
from voxfilt.convolve import (
    TransferCache,
    axis_pass,
    convolve_bank,
    convolve_fourier,
    convolve_laplacian,
    convolve_separable,
    fast_grid,
    fft_forward,
    fft_inverse,
)
from voxfilt.kernels import GaborParams, gabor_kernel, laws_1d, laws_energy, log_kernel_1d
from voxfilt.riesz import align_order2, riesz_filtered_maps, riesz_indices, structure_tensor
from voxfilt.rotinv import PooledCascade
from voxfilt.wavelets import RadialProfile, _swt_stages, nonseparable_b_map, radial_transfer

DIMS = (13, 10)  # one odd and one even plane axis


def _stack(k, seed=0):
    return np.random.default_rng([k, seed]).normal(size=(k,) + DIMS) * 100.0


def _assert_planewise(stacked, per_plane, stack):
    """``stacked(stack)`` equals ``per_plane(plane)`` on every plane, exactly."""
    got = stacked(stack)
    assert got.shape[0] == stack.shape[0]
    for index, plane in enumerate(stack):
        want = per_plane(np.ascontiguousarray(plane))
        assert got[index].shape == want.shape
        assert got[index].tobytes() == np.ascontiguousarray(want).tobytes(), index


K = pytest.mark.parametrize("k", [1, 3])


@K
@pytest.mark.parametrize("mode", BOUNDARY_MODES)
def test_pad(k, mode):
    _assert_planewise(lambda s: pad(s, (0, 3, 2), mode),
                      lambda p: pad(p, (3, 2), mode), _stack(k))


@K
@pytest.mark.parametrize("axis", [0, 1])
def test_axis_pass(k, axis):
    kernel = np.random.default_rng(1).normal(size=5)
    margins = [0, 0]
    margins[axis] = 2
    _assert_planewise(lambda s: axis_pass(pad(s, [0] + margins, "mirror"), axis - 2, kernel,
                                          DIMS[axis]),
                      lambda p: axis_pass(pad(p, margins, "mirror"), axis, kernel, DIMS[axis]),
                      _stack(k))


@K
@pytest.mark.parametrize("mode", BOUNDARY_MODES)
def test_convolve_separable(k, mode):
    kernels = (laws_1d("E5"), laws_1d("L3"))
    _assert_planewise(lambda s: convolve_separable(s, kernels, mode),
                      lambda p: convolve_separable(p, kernels, mode), _stack(k))


@K
def test_convolve_laplacian(k):
    smooth, second = log_kernel_1d(1.5)
    _assert_planewise(lambda s: convolve_laplacian(s, smooth, second, "mirror", ndim=2),
                      lambda p: convolve_laplacian(p, smooth, second, "mirror"), _stack(k))


@K
@pytest.mark.parametrize("stages, pool_mode", [
    (_swt_stages("db3", 2, "LH", 2), "average"),
    (_swt_stages("haar", 1, "HH", 2), "max"),
    ([[laws_1d("L5")], [laws_1d("E5")]], "max"),
])
def test_pooled_cascade(k, stages, pool_mode):
    pooled = PooledCascade(stages, pool_mode, "mirror")
    _assert_planewise(pooled, pooled, _stack(k))


@K
@pytest.mark.parametrize("delta", [0, 2])
def test_laws_energy(k, delta):
    _assert_planewise(lambda s: laws_energy(s, delta, "nearest", ndim=2),
                      lambda p: laws_energy(p, delta, "nearest"), _stack(k))


@K
@pytest.mark.parametrize("complex_bank", [False, True])
def test_convolve_bank(k, complex_bank):
    if complex_bank:
        bank = [gabor_kernel(GaborParams(2.0, 3.0, 1.5, theta)) for theta in (0.0, 0.7)]
    else:
        bank = [np.random.default_rng(2).normal(size=(5, 3))] * 2
    transfers = TransferCache()
    for position in range(len(bank)):
        _assert_planewise(
            lambda s: list(convolve_bank(s, bank, "mirror", transfers))[position],
            lambda p: list(convolve_bank(p, bank, "mirror"))[position], _stack(k))


@K
@pytest.mark.parametrize("real", [False, True])
def test_fft_forward_and_inverse(k, real):
    grid = fast_grid(n + 3 for n in DIMS)
    crop = (slice(1, 1 + DIMS[0]), slice(2, 2 + DIMS[1]))
    _assert_planewise(lambda s: fft_forward(s, grid, real), lambda p: fft_forward(p, grid, real),
                      _stack(k))
    _assert_planewise(lambda s: fft_inverse(fft_forward(s, grid, real), grid, crop, real),
                      lambda p: fft_inverse(fft_forward(p, grid, real), grid, crop, real),
                      _stack(k))


@K
def test_convolve_fourier_and_b_map(k):
    profile = RadialProfile("simoncelli", 1)
    half = radial_transfer(profile, DIMS, half=True)
    _assert_planewise(lambda s: convolve_fourier(s, half), lambda p: convolve_fourier(p, half),
                      _stack(k))
    whole = radial_transfer(profile, DIMS)
    _assert_planewise(lambda s: convolve_fourier(s, whole),
                      lambda p: convolve_fourier(p, whole), _stack(k))
    transfers = TransferCache()
    _assert_planewise(lambda s: nonseparable_b_map(s, profile, transfers, ndim=2),
                      lambda p: nonseparable_b_map(p, profile), _stack(k))


@K
def test_riesz_filtered_maps(k):
    profile = RadialProfile("shannon", 1)
    indices = riesz_indices(1, 2) + riesz_indices(2, 2)
    transfers = TransferCache()
    for position in range(len(indices)):
        _assert_planewise(
            lambda s: list(riesz_filtered_maps(s, profile, indices, transfers))[position][1],
            lambda p: list(riesz_filtered_maps(p, profile, indices))[position][1], _stack(k))


@K
def test_structure_tensor_and_alignment(k):
    # both functions overwrite the maps they are given, so each gets its own
    def components(planes):
        return structure_tensor([planes.copy(), 0.5 * planes + 1.0], 1.3)

    _assert_planewise(lambda planes: np.stack(components(planes), axis=-1),
                      lambda plane: np.stack(components(plane), axis=-1), _stack(k))

    def aligned(planes):
        responses = [(l, planes * (i + 1)) for i, l in enumerate(riesz_indices(2, 2))]
        return align_order2(responses, components(np.sin(planes)))

    _assert_planewise(aligned, aligned, _stack(k))


def test_trailing_axes_need_room():
    with pytest.raises(ValueError, match="kernels for a 2-D image"):
        convolve_separable(np.zeros(DIMS), [laws_1d("L3")] * 3, "mirror")
    with pytest.raises(ValueError, match="3-D transfer"):
        convolve_fourier(np.zeros(DIMS), np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="filtered axes"):
        list(convolve_bank(np.zeros(5), [np.ones((3, 3))], "mirror"))

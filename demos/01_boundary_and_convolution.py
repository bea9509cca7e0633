"""
Boundary handling and the two convolution routes
================================================

"""

import numpy as np

from voxfilt import pad, convolve_separable, convolve_full, kernel_to_transfer, convolve_fourier

# Every convolution needs values outside the image support.  The four
# extension modes, shown on a tiny 1-D image:
image = np.array([1.0, 2.0, 3.0])
for mode in ("constant", "nearest", "periodise", "mirror"):
    print(f"{mode:>9}: {pad(image, 2, mode)}")
# mirror repeats the boundary pixel itself: [3 2 | 1 2 3 | 2 1]

# A separable kernel factors into one 1-D kernel per axis, so a 3-D
# convolution becomes three cheap passes.  The dense route gives the
# same numbers.
rng = np.random.default_rng(7)
volume = rng.normal(size=(12, 12, 12))
parts = (np.array([1.0, 2.0, 1.0]) / 4, np.array([-1.0, 0.0, 1.0]) / 2, np.array([1.0, 1.0]) / 2)
dense = np.multiply.outer(np.multiply.outer(parts[0], parts[1]), parts[2])

fast = convolve_separable(volume, parts, "mirror")
slow = convolve_full(volume, dense, "mirror")
print("separable vs dense:", np.max(np.abs(fast - slow)))

# Large kernels are cheaper through the Fourier domain.  The transfer
# function is the DFT of the zero-padded, centred kernel; multiplication
# there equals circular (periodise) convolution here.
transfer = kernel_to_transfer(dense, volume.shape)
spectral = convolve_fourier(volume, transfer)
circular = convolve_full(volume, dense, "periodise")
print("fourier vs periodise:", np.max(np.abs(spectral - circular)))

"""
Kernel gallery: mean, LoG, Laws, Gabor
======================================

"""

import numpy as np

from voxfilt import (
    GaborParams,
    gabor_response_modulus,
    laws_1d,
    laws_energy,
    log_kernel,
    log_kernel_1d,
    mean_kernel_1d,
    truncated_support,
    convolve_laplacian,
    convolve_separable,
    generate_phantom,
)

# --- mean -------------------------------------------------------------
# The simplest smoother: every tap 1/M^D, the outer product of D factors
# of M taps 1/M each.
g = mean_kernel_1d(3)
print("mean 3x3 sums to", np.multiply.outer(g, g).sum())

# --- Laplacian of Gaussian --------------------------------------------
# Physical scale over voxel spacing gives the voxel-unit sigma; the
# support is truncated at d sigma on either side of the centre.
sigma_mm, spacing_mm, d = 5.0, 2.0, 4.0
sigma = sigma_mm / spacing_mm
size = truncated_support(sigma, d)
log3 = log_kernel(sigma, 3, d)
print(f"LoG sigma {sigma} vox -> {size}^3 kernel, sum {log3.sum():.2e}")

# Convolving the impulse phantom stamps the kernel into the volume; the
# LoG runs as separable Gaussian passes rather than a dense 21^3 kernel.
impulse = generate_phantom("impulse")
response = convolve_laplacian(impulse.data, *log_kernel_1d(sigma, d), "constant")
print("impulse response peak:", response.max(), "at", np.unravel_index(response.argmax(), response.shape))

# --- Laws texture kernels ---------------------------------------------
# Eight named 1-D kernels (level, edge, spot, wave, ripple) combine into
# separable texture probes; the energy step averages |response| over a
# Chebyshev neighbourhood.
for name in ("L5", "E5", "S5", "W5", "R5"):
    g = laws_1d(name)
    print(f"{name}: {np.round(g, 4)}  (norm {np.linalg.norm(g):.1f})")

checker = generate_phantom("checkerboard")
l5e5e5 = convolve_separable(checker.data, [laws_1d(n) for n in ("L5", "E5", "E5")], "mirror")
energy = laws_energy(l5e5e5, 7, "mirror")
print("L5E5E5 energy range:", energy.min(), "-", round(energy.max(), 2))

# --- Gabor -------------------------------------------------------------
# A 2-D oriented band-pass; the response modulus pairs the kernel with
# its 90-degree phase twin, so it is insensitive to the sign of edges.
params = GaborParams(sigma=2.5, wavelength=1.0, gamma=1.5, theta=np.pi / 4)
print("gabor support:", params.support, "x", params.support)
slice2d = checker.data[:, :, 0]
modulus = gabor_response_modulus(slice2d, params, "mirror")
print("gabor modulus range:", round(modulus.min(), 3), "-", round(modulus.max(), 3))

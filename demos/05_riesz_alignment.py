"""
Riesz transforms, structure tensors and local alignment
=======================================================

"""

import numpy as np

from voxfilt import (
    RadialProfile,
    align_order2,
    fourier_grid,
    riesz_filtered_map,
    riesz_indices,
    riesz_transfer,
    structure_tensor,
    generate_phantom,
)

dims = (32, 32, 32)

# The Riesz transform is an all-pass directional operator: the first
# order set splits unit energy across the axes at every frequency.
total = np.zeros(dims)
for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
    total += np.abs(riesz_transfer(dims, unit)) ** 2
_, norm = fourier_grid(dims)
print("all-pass residual:", np.max(np.abs(total[norm > 0] - 1.0)))

# Order-2 indices enumerate the Hessian-like components.
print("order-2 3-D components:", riesz_indices(2, 3))

# Combined with a radial band-pass the transform gives steerable band
# responses; here on the concentric-hull phantom.
sphere = generate_phantom("sphere")
profile = RadialProfile("simoncelli", 1)
responses = {l: riesz_filtered_map(sphere.data, profile, l) for l in riesz_indices(2, 3)}
print("R(2,0,0) peak:", round(max(abs(responses[(2, 0, 0)].min()), responses[(2, 0, 0)].max()), 2))

# The structure tensor smooths products of the first-order responses in
# the same band (here with a 1-voxel Gaussian, 2 mm on this grid) and its
# top eigenvector gives the dominant local orientation; steering the
# order-2 set along it yields one orientation-adaptive map.
gradients = [riesz_filtered_map(sphere.data, profile, l) for l in riesz_indices(1, 3)]
tensors = structure_tensor(gradients, 1.0)
aligned = align_order2(responses.items(), tensors)
print("aligned map peak:", round(float(np.abs(aligned).max()), 2))

# On a spherically symmetric phantom the aligned response depends only
# on the radius, not the direction: compare two rays from the centre.
ray_k1 = aligned[32:44, 31, 31]
ray_k3 = aligned[31, 31, 32:44]
print("ray difference:", round(float(np.max(np.abs(ray_k1 - ray_k3))), 4))

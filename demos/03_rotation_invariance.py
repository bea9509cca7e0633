"""
Right-angle rotation sets and pooling
=====================================

"""

import numpy as np

from voxfilt import (
    convolve_separable,
    equivariant_cascades,
    gabor_orientation_set,
    pool,
    generate_phantom,
)

# A separable filter responds differently along each axis.  Instead of
# rotating the image under it, build the set of kernel variants that a
# right-angle rotation group would produce: 4 in 2-D, 24 in 3-D.  Each
# axis holds a list of stages run in sequence; a plain separable kernel is
# one stage per axis.
s2, angles = equivariant_cascades([[[1.0, 2.0, 1.0]], [[-1.0, 0.0, 1.0]]])
print("2-D set size:", len(s2))
for element, angle in zip(s2, angles):
    taps = [g.astype(int).tolist() for (g,) in element]
    print(f"  angle {angle:+.2f}: axis kernels {taps}")

s3, _ = equivariant_cascades([[[1.0, 2.0, 1.0]], [[-1.0, 0.0, 1.0]], [[1.0, 1.0, 1.0]]])
print("3-D set size:", len(s3))

# Pooling the per-orientation responses yields a locally rotation
# invariant map.  Max pooling keeps the strongest orientation; for a
# sign-changing kernel like the edge probe the plain orientation average
# cancels, so average the magnitudes instead.
volume = generate_phantom("pattern2").data
responses = [convolve_separable(volume, [g for (g,) in element], "mirror") for element in s3]
pooled_max = pool(responses, "max")
pooled_avg = pool([np.abs(r) for r in responses], "average")
print("max-pooled peak:", round(pooled_max.max(), 2))
print("avg-pooled |response| peak:", round(pooled_avg.max(), 2))

# The pooled map no longer prefers an axis: each of the three parallel
# lines of the phantom scores the same.
for k in (16, 32, 48):
    region = pooled_max[k - 2:k + 3, k - 2:k + 3, :]
    print(f"line at k1=k2={k}: peak {region.max():.1f}")

# Gabor banks sample the plane more finely than quarter turns; the
# orientation set lists the angles for a given step.
print("gabor angles at pi/4 steps:", [round(a, 3) for a in gabor_orientation_set(np.pi / 4)])

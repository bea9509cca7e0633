"""
Separable and isotropic wavelet decompositions
==============================================

"""

import itertools

import numpy as np

from voxfilt import (
    RadialProfile,
    atrous_upsample,
    dwt_decimated,
    nonseparable_b_map,
    radial_transfer,
    swt_rotation_pooled,
    swt_undecimated,
    wavelet_family,
    generate_phantom,
)

volume = generate_phantom("checkerboard").data

# Each wavelet family is a quadrature-mirror pair of 1-D kernels.
haar = wavelet_family("haar")
print("haar low :", haar.low_pass)
print("haar high:", haar.high_pass)

# The undecimated (stationary) transform keeps the grid size and reaches
# deeper levels by dilating the kernels with zeros (the a-trous scheme).
print("level-2 high-pass taps:", atrous_upsample(haar.high_pass, 1))

lhh = swt_undecimated(volume, "db2", 1, "LHH", "mirror")
print("db2 LHH level 1: shape", lhh.shape, "energy", round(float((lhh**2).sum()), 1))

# The subband letters pick low/high per axis, so LHH is a different map
# from HLH; averaging over all right-angle kernel variants removes that
# axis preference.
pooled = swt_rotation_pooled(volume, "db2", 1, "LHH", pool_mode="average", boundary="mirror")
print("rotation-pooled LHH: energy", round(float((pooled**2).sum()), 1))

# The decimated transform halves the grid per level and is what most
# off-the-shelf toolboxes compute; each call returns one subband.
for level in (1, 2):
    subbands = {"".join(c): dwt_decimated(volume, "haar", level, "".join(c), "mirror")
                for c in itertools.product("LH", repeat=3)}
    shape = next(iter(subbands.values())).shape
    print(f"level {level}: subbands {sorted(subbands)} at {shape}")

# Isotropic wavelets live in the Fourier domain as radial band-passes;
# no separable factorisation, hence no orientation bias to pool away.
for kind in ("shannon", "simoncelli"):
    transfer = radial_transfer(RadialProfile(kind, 1), volume.shape)
    b_map = nonseparable_b_map(volume, RadialProfile(kind, 1))
    print(f"{kind} level 1: pass-band fraction {transfer.mean():.3f}, "
          f"map peak {b_map.max():.1f}")

"""voxfilt: convolutional filtering for 2-D and 3-D medical-image volumes.

The package is organised as a small numpy library (its only other dependency
is PyYAML, for configurations):

* :mod:`voxfilt.image`     volume containers, axis conventions, grid helpers
* :mod:`voxfilt.boundary`  image extension (padding) modes
* :mod:`voxfilt.convolve`  spatial and Fourier-domain convolution
* :mod:`voxfilt.kernels`   mean, LoG, Laws and Gabor kernel builders
* :mod:`voxfilt.wavelets`  separable wavelet transforms and isotropic
  Fourier-domain wavelets
* :mod:`voxfilt.riesz`     Riesz transform, structure tensor, alignment
* :mod:`voxfilt.rotinv`    right-angle rotation sets and pooling
* :mod:`voxfilt.pipeline`  resampling, re-segmentation and filter execution
* :mod:`voxfilt.features`  intensity statistics and export
* :mod:`voxfilt.benchmark` phantoms, response-map comparison, consensus
* :mod:`voxfilt.nifti`     minimal NIfTI-1 reader/writer
* :mod:`voxfilt.cli`       batch command line interface
"""

from .image import VolumeImage, RoiMask, create_image
from .boundary import BOUNDARY_MODES, pad
from .convolve import (
    convolve_full,
    convolve_laplacian,
    convolve_separable,
    convolve_fourier,
    fourier_grid,
    kernel_to_transfer,
)
from .kernels import (
    GaborParams,
    gabor_kernel,
    gabor_response_modulus,
    gaussian_kernel_1d,
    laws_1d,
    laws_energy,
    log_kernel,
    log_kernel_1d,
    mean_kernel_1d,
    truncated_support,
)
from .rotinv import (
    equivariant_cascades,
    gabor_orientation_set,
    oddify,
    orthogonal_plane_average,
    pool,
)
from .wavelets import (
    RadialProfile,
    atrous_upsample,
    dwt_decimated,
    nonseparable_b_map,
    radial_transfer,
    swt_rotation_pooled,
    swt_undecimated,
    wavelet_family,
)
from .riesz import (
    align_order2,
    riesz_filtered_map,
    riesz_indices,
    riesz_transfer,
    structure_tensor,
)
from .pipeline import (
    FilterConfig,
    ProcessingConfig,
    apply_filter,
    load_config,
    resample_image,
    resample_mask,
    resegment,
    round_intensities,
    run_configuration,
)
from .features import diagnostics, intensity_statistics, write_feature_csv, write_feature_json
from .benchmark import compare_maps, consensus, consensus_level, generate_phantom
from .nifti import read_nifti, write_nifti

__version__ = "0.1.0"

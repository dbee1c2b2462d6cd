"""In-situ lossy compression of spectral-element fields (Section 5.2).

The pipeline follows the paper exactly:

1. **Transform** -- per-element L^2 projection of the nodal data onto an
   orthonormal Legendre modal basis (eq. (2)).  Turbulence spectra decay,
   so the modal coefficients have far lower variance than the nodal values.
2. **Truncate** -- drop the smallest coefficients subject to a user error
   bound ("Neko removes this information while respecting the error bounds
   specified by the user").
3. **Encode** -- quantize the surviving coefficients and push the stream
   through a lossless entropy coder (zlib), the step whose effectiveness
   the truncation unlocked by reducing the Shannon entropy.

Reconstruction error is measured in the mass-weighted L^2 norm (the RMS
"accounting for the nonuniform nature of the mesh" of Section 6.2).
"""

from repro.compression.transform import to_modal, to_nodal, modal_energy
from repro.compression.truncation import truncate_relative, truncation_mask
from repro.compression.encoder import encode_coefficients, decode_coefficients
from repro.compression.api import CompressedField, SpectralCompressor

__all__ = [
    "to_modal",
    "to_nodal",
    "modal_energy",
    "truncate_relative",
    "truncation_mask",
    "encode_coefficients",
    "decode_coefficients",
    "CompressedField",
    "SpectralCompressor",
]

"""User-facing compression API: compressor object and field container."""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from repro.compression.encoder import decode_coefficients, encode_coefficients
from repro.compression.transform import to_modal, to_nodal
from repro.compression.truncation import truncate_relative
from repro.sem.space import FunctionSpace

__all__ = ["CompressedField", "SpectralCompressor"]


@dataclass
class CompressedField:
    """A compressed snapshot of one scalar field.

    ``blob`` is the full self-describing byte stream; ``raw_bytes`` the size
    of the uncompressed double-precision nodal data it replaces.
    """

    name: str
    blob: bytes
    raw_bytes: int
    time: float = 0.0

    @property
    def compressed_bytes(self) -> int:
        return len(self.blob)

    @property
    def ratio(self) -> float:
        """Compressed / raw size (smaller is better)."""
        return self.compressed_bytes / self.raw_bytes

    @property
    def reduction(self) -> float:
        """Fraction of storage removed -- the paper's "97% data reduction"."""
        return 1.0 - self.ratio

    def decompress(self) -> np.ndarray:
        """Reconstruct the nodal field."""
        return to_nodal(decode_coefficients(self.blob))

    def save(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_bytes(self.blob)

    @classmethod
    def load(cls, path: str | pathlib.Path, name: str = "field") -> "CompressedField":
        blob = pathlib.Path(path).read_bytes()
        coeffs = decode_coefficients(blob)
        return cls(name=name, blob=blob, raw_bytes=coeffs.size * 8)


class SpectralCompressor:
    """Error-bounded lossy compressor bound to one function space.

    Parameters
    ----------
    space:
        Supplies the element volumes (energy bookkeeping on graded meshes)
        and the mass matrix for the weighted-L^2 error metric.
    error_bound:
        Relative L^2 budget of the truncation stage.  Truncation budgets
        each coefficient's energy as GLL quadrature weighs it, so the
        bound holds in the measured mass-weighted L^2 norm on affine
        elements (up to the volume weighting on deformed ones).  The
        paper reports conservative settings of 85-90% reduction for
        high-fidelity post-processing and up to 97% at 2.5% error.
    quant_bits:
        Quantization depth of the lossless stage (16 keeps the quantization
        error well below typical truncation budgets).
    """

    def __init__(
        self,
        space: FunctionSpace,
        error_bound: float = 0.02,
        quant_bits: int = 16,
        zlib_level: int = 6,
    ) -> None:
        self.space = space
        self.error_bound = error_bound
        self.quant_bits = quant_bits
        self.zlib_level = zlib_level
        self._elem_vol = space.coef.mass.reshape(space.nelv, -1).sum(axis=1)

    def compress(self, field: np.ndarray, name: str = "field", time: float = 0.0) -> CompressedField:
        """Transform, truncate and encode one nodal field."""
        if field.shape != self.space.shape:
            raise ValueError(f"field shape {field.shape} != space shape {self.space.shape}")
        uh = to_modal(field)
        uh_t, keep = truncate_relative(uh, self.error_bound, self._elem_vol)
        blob = encode_coefficients(uh_t, keep, self.quant_bits, self.zlib_level)
        return CompressedField(
            name=name, blob=blob, raw_bytes=field.size * 8, time=time
        )

    def reconstruction_error(self, original: np.ndarray, compressed: CompressedField) -> float:
        """Relative mass-weighted L^2 error (the paper's metric)."""
        rec = compressed.decompress()
        num = self.space.norm_l2(rec - original)
        den = self.space.norm_l2(original)
        return num / den if den > 0 else 0.0

    def roundtrip(self, field: np.ndarray) -> tuple[CompressedField, float]:
        """Compress and immediately measure (field stays in memory)."""
        cf = self.compress(field)
        return cf, self.reconstruction_error(field, cf)

    def kept_fraction(self, field: np.ndarray) -> float:
        """Fraction of modal coefficients surviving truncation."""
        uh = to_modal(field)
        _, keep = truncate_relative(uh, self.error_bound, self._elem_vol)
        return float(np.count_nonzero(keep)) / keep.size

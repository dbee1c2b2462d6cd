"""Time integration: mixed implicit-explicit BDF/EXT schemes.

The paper integrates with "a mixed implicit-explicit scheme, combining an
extrapolation scheme and a backwards difference scheme, both of order 3":
diffusion is treated implicitly with BDF-k, advection and buoyancy
explicitly with EXT-k, with an order ramp (1, 2, 3) over the first steps
because higher-order multistep schemes need history.  One
:class:`TimeScheme` serves constant and changing step sizes: it keeps the
steps it was given and rebuilds the coefficients from them when they
differ (CFL-adaptive stepping, a retry at reduced dt).
"""

from repro.timeint.bdf_ext import (
    BDF_COEFFS,
    EXT_COEFFS,
    TimeScheme,
    variable_bdf,
    variable_ext,
)
from repro.timeint.cfl import courant_number, max_stable_dt

__all__ = [
    "BDF_COEFFS",
    "EXT_COEFFS",
    "TimeScheme",
    "courant_number",
    "max_stable_dt",
    "variable_bdf",
    "variable_ext",
]

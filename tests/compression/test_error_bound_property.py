"""Property tests: the truncation stage honours its relative-L^2 budget.

The compressor's contract (see ``SpectralCompressor``): the modal
truncation error is bounded by ``eps`` *exactly* in the volume- and
GLL-weighted coefficient norm (the norm GLL quadrature measures the
reconstruction error in) -- per element the dropped energy never exceeds
``eps^2 * E_e`` (plus the documented 1e-6 global-share guard), so globally
``||u_t - u|| <= eps * sqrt(1 + 1e-6) * ||u||``.  Hypothesis drives the
bound across random shapes, spectra and budgets; the edge cases (zero
budget keeps everything, a single populated mode survives any ``eps < 1``)
are pinned explicitly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.truncation import (
    gll_mode_weights,
    truncate_relative,
    truncation_mask,
)
from repro.sem.mesh import box_mesh
from repro.sem.space import FunctionSpace

from repro.compression.api import SpectralCompressor

#: Global-share guard of the truncation budget (documented in truncation.py).
BUDGET_SLACK = np.sqrt(1.0 + 1e-6)


def modal_norm(uh, vol):
    """Volume- and GLL-weighted coefficient norm."""
    energy = uh**2 * gll_mode_weights(uh.shape[-1])
    return float(np.sqrt(np.sum(energy.reshape(uh.shape[0], -1) * vol[:, None])))


def random_coefficients(seed: int, nelv: int, lx: int, decay: float) -> np.ndarray:
    """Seeded modal coefficients with a tunable spectral decay."""
    rng = np.random.default_rng(seed)
    uh = rng.standard_normal((nelv, lx, lx, lx))
    k = np.arange(lx)
    damp = np.exp(-decay * (k[:, None, None] + k[None, :, None] + k[None, None, :]))
    return uh * damp[None]


class TestModalTruncationBound:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nelv=st.integers(1, 6),
        lx=st.integers(2, 6),
        decay=st.floats(0.0, 2.0),
        eps=st.floats(0.0, 0.5),
        graded=st.booleans(),
    )
    def test_relative_l2_bound_holds(self, seed, nelv, lx, decay, eps, graded):
        uh = random_coefficients(seed, nelv, lx, decay)
        vol = (
            np.linspace(1.0, 3.0, nelv)
            if graded
            else np.ones(nelv)
        )
        uh_t, keep = truncate_relative(uh, eps, vol)
        err = modal_norm(uh_t - uh, vol)
        norm = modal_norm(uh, vol)
        assert err <= eps * BUDGET_SLACK * norm + 1e-30
        # Truncation only ever zeroes coefficients, never alters kept ones.
        assert np.array_equal(uh_t[keep], uh[keep])
        assert np.all(uh_t[~keep] == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nelv=st.integers(1, 4),
        lx=st.integers(2, 5),
    )
    def test_zero_budget_keeps_all_populated_modes(self, seed, nelv, lx):
        """eps = 0: round-trip must be exact (all nonzero modes kept)."""
        uh = random_coefficients(seed, nelv, lx, decay=0.5)
        uh_t, keep = truncate_relative(uh, 0.0, np.ones(nelv))
        np.testing.assert_array_equal(uh_t, uh)
        assert np.all(keep[uh != 0.0])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lx=st.integers(2, 5),
        eps=st.floats(0.0, 0.99),
    )
    def test_single_mode_survives_any_budget_below_one(self, seed, lx, eps):
        """All energy in one mode: dropping it would violate any eps < 1."""
        rng = np.random.default_rng(seed)
        uh = np.zeros((2, lx, lx, lx))
        idx = tuple(rng.integers(0, lx, size=3))
        uh[(0,) + idx] = 1.0 + rng.random()
        uh[(1,) + idx] = -1.0 - rng.random()
        uh_t, keep = truncate_relative(uh, eps, np.ones(2))
        np.testing.assert_array_equal(uh_t, uh)
        assert keep[(0,) + idx] and keep[(1,) + idx]

    def test_all_zero_field_keeps_nothing(self):
        uh = np.zeros((3, 4, 4, 4))
        mask = truncation_mask(uh, 0.1, np.ones(3))
        assert not mask.any()


class TestFullRoundtripBound:
    """End-to-end compressor bound on nodal fields.

    The truncation bound is exact in the GLL-weighted modal norm, which on
    the affine box elements here is the norm the error is measured in;
    16-bit quantization adds a small absolute floor.
    """

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.005, 0.1),
    )
    def test_roundtrip_respects_documented_bound(self, seed, eps):
        space = FunctionSpace(box_mesh((2, 2, 2)), 5)
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, size=3)
        field = (
            np.sin(a[0] * np.pi * space.x)
            * np.cos(a[1] * np.pi * space.y)
            * np.sin(a[2] * np.pi * space.z)
            + 0.1 * rng.standard_normal(space.shape)
        )
        comp = SpectralCompressor(space, error_bound=eps)
        _, err = comp.roundtrip(field)
        assert err <= 1.6 * eps + 1e-3

    def test_zero_budget_roundtrip_is_quantization_limited(self):
        space = FunctionSpace(box_mesh((2, 2, 2)), 5)
        field = np.sin(np.pi * space.x) * np.cos(np.pi * space.y)
        comp = SpectralCompressor(space, error_bound=0.0)
        _, err = comp.roundtrip(field)
        # No truncation: only the 16-bit quantization noise remains.
        assert err < 1e-3

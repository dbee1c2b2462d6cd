"""Tests for the lossy spectral compressor."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression import (
    CompressedField,
    SpectralCompressor,
    decode_coefficients,
    encode_coefficients,
    modal_energy,
    to_modal,
    to_nodal,
    truncate_relative,
    truncation_mask,
)
from repro.sem.mesh import box_mesh
from repro.sem.space import FunctionSpace


@pytest.fixture(scope="module")
def sp():
    return FunctionSpace(box_mesh((2, 2, 2)), 6)


def multiscale_field(sp, decay=2.0, seed=0):
    """A synthetic field with a power-law spectrum (turbulence-like)."""
    rng = np.random.default_rng(seed)
    u = np.zeros(sp.shape)
    for k in range(1, 9):
        amp = k ** (-decay)
        phx, phy, phz = rng.uniform(0, 2 * np.pi, 3)
        u += amp * np.sin(2 * np.pi * k * sp.x + phx) * np.cos(
            2 * np.pi * k * sp.y + phy
        ) * np.cos(np.pi * k * sp.z + phz)
    return u


class TestTransforms:
    def test_roundtrip_exact(self, sp):
        rng = np.random.default_rng(1)
        u = rng.normal(size=sp.shape)
        assert np.allclose(to_nodal(to_modal(u)), u, atol=1e-11)

    def test_constant_is_single_mode(self, sp):
        uh = to_modal(np.ones(sp.shape))
        # phi_000 = (1/sqrt(2))^3, so the coefficient of a unit constant is
        # 2 sqrt(2); everything else vanishes.
        assert np.allclose(uh[:, 0, 0, 0], 2.0 * np.sqrt(2.0), atol=1e-12)
        flat = uh.reshape(sp.nelv, -1)
        assert np.allclose(flat[:, 1:], 0.0, atol=1e-12)

    def test_polynomial_compact_support(self, sp):
        # x^2 on the reference element touches only modes 0..2 per direction.
        uh = to_modal(sp.x**2)
        assert np.allclose(uh[:, :, :, 3:], 0.0, atol=1e-10)
        assert np.allclose(uh[:, :, 3:, :], 0.0, atol=1e-10)

    def test_parseval(self, sp):
        # For an affine element of volume V, the exact physical L2 energy of
        # the interpolant is (V/8) * modal energy.  The GLL-quadrature norm
        # matches it closely for smooth fields (and only approximately for
        # data with energy in the top mode, which GLL under-integrates).
        u = multiscale_field(sp, decay=3.0)
        uh = to_modal(u)
        e = modal_energy(uh)
        assert np.all(e > 0)
        vol = sp.coef.mass.reshape(sp.nelv, -1).sum(axis=1)
        phys = (u**2 * sp.coef.mass).reshape(sp.nelv, -1).sum(axis=1)
        assert np.allclose(phys, e * vol / 8.0, rtol=0.05)

    def test_parseval_exact_against_fine_quadrature(self, sp):
        # Exact check: evaluate the interpolant's L2 norm with a much finer
        # GLL rule, where Parseval must hold to roundoff.
        from repro.sem.basis import lagrange_interpolation_matrix
        from repro.sem.dealias import interp3
        from repro.sem.quadrature import gll_points_weights

        rng = np.random.default_rng(2)
        u = rng.normal(size=sp.shape)
        uh = to_modal(u)
        e = modal_energy(uh)
        lxf = 2 * sp.lx
        xf, wf = gll_points_weights(lxf)
        j = lagrange_interpolation_matrix(np.asarray(xf), sp.lx)
        uf = interp3(u, j)
        w = np.asarray(wf)
        w3 = w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
        ref_energy = (uf**2 * w3).reshape(sp.nelv, -1).sum(axis=1)
        assert np.allclose(ref_energy, e, rtol=1e-10)


class TestTruncation:
    def test_zero_budget_keeps_everything_significant(self, sp):
        rng = np.random.default_rng(3)
        uh = to_modal(rng.normal(size=sp.shape))
        out, keep = truncate_relative(uh, 0.0)
        assert np.allclose(out, uh)

    def test_full_budget_drops_almost_everything(self, sp):
        uh = to_modal(multiscale_field(sp))
        _, keep = truncate_relative(uh, 0.999)
        assert keep.sum() < keep.size * 0.05

    def test_negative_budget_raises(self, sp):
        with pytest.raises(ValueError):
            truncation_mask(np.ones(sp.shape), -0.1)

    def test_error_bound_respected(self, sp):
        # The bound is exact in the interpolant (modal) L2 norm; the
        # GLL-quadrature measurement can read up to ~1.5x higher when the
        # dropped energy sits in the under-integrated top modes.
        u = multiscale_field(sp)
        uh = to_modal(u)
        vol = sp.coef.mass.reshape(sp.nelv, -1).sum(axis=1)
        for eps in (0.01, 0.05, 0.2):
            uh_t, _ = truncate_relative(uh, eps, vol)
            rec = to_nodal(uh_t)
            rel = sp.norm_l2(rec - u) / sp.norm_l2(u)
            assert rel <= eps * 1.7, (eps, rel)

    def test_error_bound_exact_in_modal_norm(self, sp):
        u = multiscale_field(sp)
        uh = to_modal(u)
        vol = sp.coef.mass.reshape(sp.nelv, -1).sum(axis=1)
        total = float((modal_energy(uh) * vol).sum())
        for eps in (0.01, 0.05, 0.2):
            uh_t, _ = truncate_relative(uh, eps, vol)
            dropped = float((modal_energy(uh - uh_t) * vol).sum())
            assert np.sqrt(dropped / total) <= eps * (1 + 1e-12), eps

    def test_smooth_field_compresses_harder(self, sp):
        smooth = multiscale_field(sp, decay=3.0)
        rough = multiscale_field(sp, decay=0.5)
        ks = truncation_mask(to_modal(smooth), 0.02).mean()
        kr = truncation_mask(to_modal(rough), 0.02).mean()
        assert ks < kr

    def test_zero_field(self, sp):
        out, keep = truncate_relative(np.zeros(sp.shape), 0.1)
        assert not keep.any()
        assert np.allclose(out, 0.0)


class TestEncoder:
    def test_roundtrip_exact_float32(self, sp):
        uh = to_modal(multiscale_field(sp))
        uh_t, keep = truncate_relative(uh, 0.01)
        blob = encode_coefficients(uh_t, keep, quant_bits=32)
        rec = decode_coefficients(blob)
        assert np.allclose(rec, uh_t, atol=1e-6 * np.abs(uh_t).max())

    def test_quantization_error_small(self, sp):
        uh = to_modal(multiscale_field(sp))
        uh_t, keep = truncate_relative(uh, 0.01)
        blob = encode_coefficients(uh_t, keep, quant_bits=16)
        rec = decode_coefficients(blob)
        scale = np.abs(uh_t).max()
        assert np.abs(rec - uh_t).max() < scale * 2.0 ** (-14)

    def test_invalid_bits(self, sp):
        uh = np.ones(sp.shape)
        with pytest.raises(ValueError):
            encode_coefficients(uh, np.ones(sp.shape, bool), quant_bits=4)

    def test_corrupt_stream_rejected(self):
        with pytest.raises(Exception):
            decode_coefficients(b"garbage")

    def test_sparser_is_smaller(self, sp):
        uh = to_modal(multiscale_field(sp))
        t1, k1 = truncate_relative(uh, 0.005)
        t2, k2 = truncate_relative(uh, 0.1)
        b1 = encode_coefficients(t1, k1)
        b2 = encode_coefficients(t2, k2)
        assert len(b2) < len(b1)

    def test_mask_positions_preserved(self, sp):
        uh = to_modal(multiscale_field(sp))
        uh_t, keep = truncate_relative(uh, 0.05)
        rec = decode_coefficients(encode_coefficients(uh_t, keep))
        assert np.array_equal(rec != 0.0, uh_t != 0.0)


class TestCompressorAPI:
    def test_shape_check(self, sp):
        c = SpectralCompressor(sp)
        with pytest.raises(ValueError):
            c.compress(np.zeros((1, 2, 3)))

    def test_reduction_and_error_tradeoff(self, sp):
        u = multiscale_field(sp, decay=2.0)
        tight = SpectralCompressor(sp, error_bound=0.001)
        loose = SpectralCompressor(sp, error_bound=0.05)
        cf_t, err_t = tight.roundtrip(u)
        cf_l, err_l = loose.roundtrip(u)
        assert err_t < err_l
        assert cf_l.reduction > cf_t.reduction
        assert err_l < 0.09  # budget x quadrature-norm slack + quantization

    def test_reduction_substantial_on_smooth_data(self, sp):
        u = multiscale_field(sp, decay=3.0)
        c = SpectralCompressor(sp, error_bound=0.025)
        cf, err = c.roundtrip(u)
        assert cf.reduction > 0.80
        assert err < 0.04

    def test_save_load(self, sp, tmp_path):
        u = multiscale_field(sp)
        c = SpectralCompressor(sp, error_bound=0.02)
        cf = c.compress(u, name="ux")
        cf.save(tmp_path / "f.rprc")
        cf2 = CompressedField.load(tmp_path / "f.rprc", name="ux")
        assert np.allclose(cf2.decompress(), cf.decompress())
        assert cf2.raw_bytes == cf.raw_bytes

    def test_kept_fraction_monotone(self, sp):
        u = multiscale_field(sp)
        k1 = SpectralCompressor(sp, error_bound=0.001).kept_fraction(u)
        k2 = SpectralCompressor(sp, error_bound=0.1).kept_fraction(u)
        assert k2 < k1


@settings(max_examples=15, deadline=None)
@given(
    eps=st.floats(min_value=0.001, max_value=0.3),
    decay=st.floats(min_value=0.5, max_value=3.0),
)
# Slow decay at a small budget leaves the error in the top modes, which GLL
# quadrature weighs (2N+1)/N per direction.
@example(eps=0.0024244417165240817, decay=0.66015625)
def test_property_error_within_budget(eps, decay):
    """Property: measured error <= truncation budget + quantization slack."""
    sp = FunctionSpace(box_mesh((2, 1, 1)), 5)
    u = multiscale_field(sp, decay=decay, seed=42)
    c = SpectralCompressor(sp, error_bound=eps)
    _, err = c.roundtrip(u)
    assert err <= 1.7 * eps + 2e-4

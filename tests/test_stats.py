"""Probe-difference covariances: the library's spectra against the dense
Toeplitz oracle, and the oracle's own closed forms and limiting forms."""

import itertools
import math

import numpy as np
import pytest

from chanauth import stats
from chanauth.channel import ChannelParams
from chanauth.numerics import RngStream

from _oracles import (
    asymptotic_G_high_bc,
    asymptotic_R_high_bc,
    circulant_basis,
    dense_covariance_G,
    dense_covariance_R,
    empirical_difference_covariances,
    r_lag,
    relative_frobenius,
)


def make_params(**overrides) -> ChannelParams:
    base = dict(f0=5e9, W=1e7, M=8, a=0.9, Bc=2e6, sigma_T=1.0, sigma_N2=1.0)
    base.update(overrides)
    return ChannelParams(**base)


class TestRLag:
    def test_zero_lag_value(self):
        # 2(1-a) sigma_T^2 + 2 sigma_N^2 at a=0.9, unit powers.
        assert r_lag(0, make_params()) == pytest.approx(2.2)

    def test_frozen_offdiagonal_vanishes(self):
        p = make_params(a=1.0)
        for m in (1, 3, -2):
            assert r_lag(m, p) == 0.0

    def test_conjugate_symmetry(self):
        p = make_params(M=6)
        for m in range(1, p.M):
            assert r_lag(-m, p) == pytest.approx(np.conj(r_lag(m, p)))

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            r_lag(8, make_params(M=8))


class TestCovarianceR:
    def test_noise_only(self):
        r = dense_covariance_R(make_params(sigma_T=0.0, sigma_N2=0.7))
        assert np.allclose(r, 1.4 * np.eye(8))

    def test_frozen_variation(self):
        r = dense_covariance_R(make_params(a=1.0, sigma_N2=0.5))
        assert np.allclose(r, 1.0 * np.eye(8))

    def test_toeplitz_hermitian(self):
        r = dense_covariance_R(make_params(M=6))
        assert np.allclose(r, r.conj().T)
        for k in range(1, 6):
            diag = np.diagonal(r, offset=-k)
            assert np.allclose(diag, diag[0])

    def test_low_bc_limit(self):
        p = make_params(Bc=1e-6 * 1e7)
        r = dense_covariance_R(p)
        r0 = 2 * (1 - p.a) * p.sigma_T**2 + 2 * p.sigma_N2
        assert np.abs(r - r0 * np.eye(p.M)).max() < 1e-4 * r0

    def test_high_bc_limit(self):
        p = make_params(Bc=1e6 * 1e7)
        assert np.abs(dense_covariance_R(p) - asymptotic_R_high_bc(p)).max() < 1e-3


class TestCovarianceG:
    def test_diagonal_value(self):
        g = dense_covariance_G(make_params(sigma_T=1.0, sigma_N2=1.0))
        assert np.allclose(np.diag(g), 4.0)

    def test_noise_only(self):
        g = dense_covariance_G(make_params(sigma_T=0.0, sigma_N2=0.5))
        assert np.allclose(g, 1.0 * np.eye(8))

    def test_high_bc_limit_two_tones(self):
        p = make_params(M=2, Bc=1e6 * 1e7)
        g = dense_covariance_G(p)
        assert np.abs(g - np.array([[4.0, 2.0], [2.0, 4.0]])).max() < 1e-3

    def test_well_defined_at_frozen_a(self):
        # The off-diagonals use the a-free core, so a = 1 is not a 0/0.
        g1 = dense_covariance_G(make_params(a=1.0))
        g2 = dense_covariance_G(make_params(a=0.3))
        off = ~np.eye(8, dtype=bool)
        assert np.allclose(g1[off], g2[off])
        assert np.all(np.isfinite(g1))

    def test_offdiagonal_ratio_to_r(self):
        # off-diag of R equals (1-a) times off-diag of G.
        p = make_params(a=0.6)
        r = dense_covariance_R(p)
        g = dense_covariance_G(p)
        off = ~np.eye(p.M, dtype=bool)
        assert np.allclose(r[off], (1 - p.a) * g[off])

    def test_diagonal_excess_over_r(self):
        for a in (0.3, 0.9, 0.99):
            p = make_params(a=a, sigma_T=0.8)
            excess = np.diag(dense_covariance_G(p) - dense_covariance_R(p))
            assert np.allclose(excess, 2 * a * p.sigma_T**2)


class TestHighBcAsymptotes:
    def test_single_tone_matches_r0(self):
        p = make_params(M=1)
        assert asymptotic_R_high_bc(p)[0, 0] == pytest.approx(r_lag(0, p))

    def test_zero_variation(self):
        p = make_params(sigma_T=0.0, sigma_N2=0.5)
        assert np.allclose(asymptotic_R_high_bc(p), 1.0 * np.eye(8))
        assert np.allclose(asymptotic_G_high_bc(p), 1.0 * np.eye(8))

    def test_four_tone_values(self):
        p = make_params(M=4, a=0.9)
        r = asymptotic_R_high_bc(p)
        assert np.allclose(np.diag(r), 2.2)
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(r[off], 0.2)


def test_covariances_match_channel_monte_carlo():
    """End-to-end: the dense closed-form R and G, and the circulant matrices
    of the library's spectra, agree with the simulated probe differences
    (4e5 snapshots, 5% relative Frobenius)."""
    p = ChannelParams(f0=5e9, W=1e7, M=5, a=0.85, Bc=1.5e6, sigma_T=0.9, sigma_N2=0.4)
    r_emp, g_emp = empirical_difference_covariances(p, 400_000, RngStream(31))
    assert relative_frobenius(r_emp, dense_covariance_R(p)) < 0.05
    assert relative_frobenius(g_emp, dense_covariance_G(p)) < 0.05
    u = circulant_basis(p.M)
    assert relative_frobenius(r_emp, u.conj().T @ np.diag(stats.covariance_R(p)) @ u) < 0.05
    assert relative_frobenius(g_emp, u.conj().T @ np.diag(stats.covariance_G(p)) @ u) < 0.05


class TestSpectra:
    """stats.covariance_R/G are the eigenvalues of the dense covariances in
    the DFT basis, which diagonalizes them."""

    CASES = list(itertools.product((1, 2, 5, 10, 30), (0.0, 1e3, 2e6, 5e7, math.inf), (0.0, 0.5, 0.9, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize("M, Bc, a, sigma_T", CASES)
    def test_dft_diagonalizes_dense(self, M, Bc, a, sigma_T):
        p = make_params(M=M, Bc=Bc, a=a, sigma_T=sigma_T, sigma_N2=0.3)
        u = circulant_basis(M)
        for dense, spectrum in ((dense_covariance_R(p), stats.covariance_R(p)), (dense_covariance_G(p), stats.covariance_G(p))):
            rotated = u @ dense @ u.conj().T
            scale = spectrum.max()
            assert np.abs(np.diag(rotated) - spectrum).max() <= 1e-13 * scale
            assert np.abs(rotated - np.diag(np.diag(rotated))).max() <= 1e-13 * scale

    def test_limits(self):
        # B_c = 0 spreads the variation evenly (low_bc); B_c = inf puts it
        # all on the DC bin, the all-ones term of the high-B_c forms.
        flat = stats.covariance_R(make_params(M=4, Bc=0.0))
        assert np.allclose(flat, 2 * 0.1 + 2.0, rtol=1e-15, atol=0)
        dc = stats.covariance_G(make_params(M=4, Bc=math.inf))
        assert dc[0] == pytest.approx(2 * 4 + 2.0, rel=1e-15) and np.all(dc[1:] == 2.0)

    def test_frozen_and_noise_only(self):
        assert np.all(stats.covariance_R(make_params(a=1.0, sigma_N2=0.5)) == 1.0)
        assert np.all(stats.covariance_G(make_params(sigma_T=0.0, sigma_N2=0.5)) == 1.0)
        assert np.all(stats.covariance_R(make_params(sigma_T=0.0, sigma_N2=0.0)) == 0.0)

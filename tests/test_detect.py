"""Hypothesis-test statistics, thresholds, and miss-rate evaluators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanauth.channel import ChannelParams
from chanauth.detect import (
    Regime,
    TestConfig,
    miss_rate_full_spatial,
    miss_rate_general_numerical,
    miss_rate_large_variation,
    miss_rate_low_bc,
    miss_rate_time_invariant,
    statistic_batch,
    threshold_for,
)
from chanauth.harness import false_alarm_rate, miss_rates, regime_forms
from chanauth.numerics import NotPositiveDefiniteError, RngStream, chi2_cdf, chi2_inv

from _oracles import circulant_basis, dense_covariance_G, dense_covariance_R, statistic_general

# Library classes, not test containers.
TestConfig.__test__ = False


def make_params(**overrides) -> ChannelParams:
    base = dict(f0=5e9, W=1e7, M=10, a=0.9, Bc=2e6, sigma_T=1.0, sigma_N2=1.0)
    base.update(overrides)
    return ChannelParams(**base)


class TestStatistics:
    def test_zero_difference(self):
        r = 2.0 * np.eye(3, dtype=complex)
        h = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert statistic_general(h, h, r) == 0.0

    def test_diagonal_whitening(self):
        r = 2.0 * np.eye(3, dtype=complex)
        d = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert statistic_general(d, np.zeros(3), r) == pytest.approx(1.0, abs=1e-12)

    def test_against_explicit_inverse(self):
        entries = np.array([[2.2, 0.2], [0.2, 2.2]], dtype=complex)
        d = np.array([1.0, 1j])
        det = entries[0, 0] * entries[1, 1] - entries[0, 1] * entries[1, 0]
        inv = np.array([[entries[1, 1], -entries[0, 1]], [-entries[1, 0], entries[0, 0]]]) / det
        expected = 2.0 * np.real(d.conj() @ inv @ d)
        assert statistic_general(d, np.zeros(2), entries) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        r = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            statistic_general(np.zeros(3), np.zeros(3), r)

    def test_batch_matches_scalar(self):
        # statistic_batch takes R's spectrum; statistic_general whitens the
        # dense circulant matrix with that spectrum.
        gen = RngStream(40).generator
        spectrum = np.abs(gen.standard_normal(4)) + 1.0
        u = circulant_basis(4)
        r = u.conj().T @ np.diag(spectrum) @ u
        diffs = gen.standard_normal((6, 4)) + 1j * gen.standard_normal((6, 4))
        zs = statistic_batch(diffs, spectrum)
        for i in range(6):
            assert zs[i] == pytest.approx(statistic_general(diffs[i], np.zeros(4), r), rel=1e-12)

    @pytest.mark.parametrize("shape", [(7,), (1, 7), (600, 7), (2, 300, 3)])
    def test_batch_rows_in_blocks_match_one_pass(self, shape):
        # Row blocks change only where the scratch lives: bit for bit the
        # one-pass formula, with the input's leading shape.
        gen = RngStream(43).generator
        diffs = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        spectrum = np.abs(gen.standard_normal(shape[-1])) + 0.5
        want = 2.0 * shape[-1] * np.sum(np.abs(np.fft.ifft(diffs, axis=-1)) ** 2 / spectrum, axis=-1)
        got = statistic_batch(diffs, spectrum)
        assert np.shape(got) == shape[:-1] and np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 8), log_scale=st.floats(-8, 8), seed=st.integers(0, 2**32 - 1))
    def test_batch_nonnegative(self, m, log_scale, seed):
        gen = np.random.default_rng(seed)
        spectrum = np.abs(gen.standard_normal(m) + 1j * gen.standard_normal(m)) ** 2 + 1e-3
        diffs = 10.0**log_scale * (gen.standard_normal((50, m)) + 1j * gen.standard_normal((50, m)))
        z = statistic_batch(diffs, spectrum)
        assert np.all(np.isfinite(z)) and np.all(z >= 0.0)

    def test_unknown_norm(self):
        # Whitening by the noise spectrum 2 sigma_N^2 alone scores |d|^2 / sigma_N^2 (Parseval).
        d = np.array([[1.0, 1j, -1.0]])
        assert statistic_batch(d, np.full(3, 2.0))[0] == pytest.approx(3.0, rel=1e-12)

    def test_unknown_rejects_zero_noise(self):
        # |d|^2 / sigma_N^2 has no value without noise: every run-path
        # evaluator of the unknown detector refuses a zero noise floor.
        p = make_params(sigma_N2=0.0)
        cfg = TestConfig(alpha=0.01, regime=Regime.UNKNOWN, threshold_override=1.0)
        h = np.zeros((1, p.M), dtype=complex)
        with pytest.raises(NotPositiveDefiniteError):
            regime_forms(p, cfg)
        with pytest.raises(NotPositiveDefiniteError):
            miss_rates(h, h, p, cfg)
        with pytest.raises(NotPositiveDefiniteError):
            false_alarm_rate(p, cfg)

    def test_unknown_null_mean(self):
        # Pure noise: the difference has per-tone variance 2 sigma_N^2, so
        # the statistic averages 2M.
        m, n, s2 = 8, 100_000, 0.5
        gen = RngStream(41).generator
        d = (gen.standard_normal((n, m)) + 1j * gen.standard_normal((n, m))) * math.sqrt(s2)
        z = np.sum(np.abs(d) ** 2, axis=1) / s2
        assert np.mean(z) == pytest.approx(2 * m, rel=0.02)


class TestDecide:
    def test_threshold_value(self):
        cfg = TestConfig(alpha=0.01)
        assert threshold_for(cfg, 10) == pytest.approx(chi2_inv(0.99, 20))
        assert threshold_for(cfg, 10) == pytest.approx(37.5662, abs=1e-4)

    def test_alpha_near_one(self):
        # The threshold collapses toward zero and almost everything rejects.
        t9 = threshold_for(TestConfig(alpha=1.0 - 1e-9), 5)
        t15 = threshold_for(TestConfig(alpha=1.0 - 1e-15), 5)
        assert 0.0 < t15 < t9 < 0.2

    def test_override(self):
        cfg = TestConfig(alpha=0.01, threshold_override=5.0)
        assert threshold_for(cfg, 10) == 5.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TestConfig(alpha=1.5)
        with pytest.raises(ValueError):
            TestConfig(alpha=0.01, threshold_override=-1.0)
        TestConfig(alpha=1.5, threshold_override=3.0)  # override relaxes alpha


class TestClosedForms:
    def test_low_bc_null_case(self):
        p = make_params(sigma_T=0.0)
        h = np.ones(p.M, dtype=complex)
        assert miss_rate_low_bc(0.01, p, h, h) == pytest.approx(0.99, abs=1e-12)

    def test_low_bc_large_variation_limit(self):
        p = make_params(sigma_T=1e6, sigma_N2=1.0, a=0.9)
        h = np.ones(p.M, dtype=complex)
        limit = miss_rate_large_variation(0.01, p.a, p.M)
        assert miss_rate_low_bc(0.01, p, h, h + 1.0) == pytest.approx(limit, abs=1e-6)

    def test_low_bc_decreasing_in_gap(self):
        p = make_params()
        h = np.zeros(p.M, dtype=complex)
        gaps = [0.5, 1.0, 2.0, 4.0, 8.0]
        betas = [miss_rate_low_bc(0.01, p, h, h + g) for g in gaps]
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))

    def test_low_bc_decreasing_in_snr(self):
        h = np.zeros(10, dtype=complex)
        betas = [
            miss_rate_low_bc(0.01, make_params(sigma_N2=s2), h, h + 1.0)
            for s2 in (2.0, 1.0, 0.5, 0.25)
        ]
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))

    def test_time_invariant_null(self):
        h = np.ones(10, dtype=complex)
        assert miss_rate_time_invariant(0.01, 1.0, h, h, 10) == pytest.approx(0.99, abs=1e-12)

    def test_full_spatial_null(self):
        p = make_params()
        r = dense_covariance_R(p)
        h = np.ones(p.M, dtype=complex)
        assert miss_rate_full_spatial(0.01, p, h, h, r) == pytest.approx(0.99, abs=1e-12)

    def test_full_spatial_rises_with_variation(self):
        h = np.zeros(10, dtype=complex)
        betas = []
        for st in (0.1, 1.0, 10.0, 100.0):
            p = make_params(sigma_T=st)
            betas.append(miss_rate_full_spatial(0.01, p, h, h + 0.5, dense_covariance_R(p)))
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert betas[-1] < 0.99

    def test_large_variation_extremes(self):
        assert miss_rate_large_variation(0.01, 0.0, 10) == pytest.approx(0.99, abs=1e-12)
        assert miss_rate_large_variation(0.01, 1.0, 10) == 0.0

    def test_large_variation_value(self):
        t = chi2_inv(0.99, 20)
        assert miss_rate_large_variation(0.01, 0.9, 10) == pytest.approx(chi2_cdf(0.1 * t, 20))

    def test_reduction_chain(self):
        # At sigma_T = 0 the three closed forms collapse to one number.
        p = make_params(sigma_T=0.0, sigma_N2=0.37)
        gen = RngStream(42).generator
        ha = gen.standard_normal(p.M) + 1j * gen.standard_normal(p.M)
        he = ha + 0.3 * (gen.standard_normal(p.M) + 1j * gen.standard_normal(p.M))
        b1 = miss_rate_low_bc(0.01, p, ha, he)
        b2 = miss_rate_time_invariant(0.01, p.sigma_N2, ha, he, p.M)
        b3 = miss_rate_full_spatial(0.01, p, ha, he, dense_covariance_R(p))
        assert abs(b1 - b2) <= 1e-12
        assert abs(b2 - b3) <= 1e-12

    def test_variation_can_help(self):
        # With strong temporal correlation, some amount of variation beats
        # the frozen-channel benchmark.
        m = 10
        gen = RngStream(43).generator
        ha = gen.standard_normal(m) + 1j * gen.standard_normal(m)
        he = ha + 0.5 * (gen.standard_normal(m) + 1j * gen.standard_normal(m))
        bench = miss_rate_time_invariant(0.01, 1.0, ha, he, m)
        betas = [
            miss_rate_low_bc(0.01, make_params(a=0.99, sigma_T=bt, sigma_N2=1.0), ha, he)
            for bt in np.logspace(-3, 2, 41)
        ]
        assert min(betas) < bench

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "beta(sigma_T) never attains an interior minimum for this closed "
            "form: exhaustive scans over gap energy, noise power, and tone "
            "count show the curve is either monotone or has an interior "
            "maximum, always approaching the large-variation floor from "
            "above.  An interior dip would require the noncentrality to be "
            "simultaneously large (to undercut the floor) and small (to keep "
            "beta at zero variation representable)."
        ),
    )
    def test_variation_u_shape(self):
        # Hoped-for shape: fall, interior minimum, rise back to the floor.
        m = 10
        gen = RngStream(43).generator
        ha = gen.standard_normal(m) + 1j * gen.standard_normal(m)
        he = ha + 0.5 * (gen.standard_normal(m) + 1j * gen.standard_normal(m))
        betas = [
            miss_rate_low_bc(0.01, make_params(a=0.99, sigma_T=bt, sigma_N2=1.0), ha, he)
            for bt in np.logspace(-3, 2, 41)
        ]
        i_min = int(np.argmin(betas))
        assert 0 < i_min < len(betas) - 1
        assert betas[i_min] < betas[0] and betas[i_min] < betas[-1]


class TestMonteCarlo:
    def test_general_numerical_perfect_separation(self):
        p = make_params()
        r = dense_covariance_R(p)
        g = dense_covariance_R(p)  # any SPD works for this check
        h = np.zeros(p.M, dtype=complex)
        beta, se = miss_rate_general_numerical(0.01, p, h, h + 1e6, r, g, 2000, RngStream(44))
        assert beta == 0.0

    def test_general_numerical_null_coincidence(self):
        p = make_params()
        r = dense_covariance_R(p)
        h = np.ones(p.M, dtype=complex)
        beta, se = miss_rate_general_numerical(0.01, p, h, h, r, r, 50_000, RngStream(45))
        assert abs(beta - 0.99) <= 3 * se

    def test_general_matches_low_bc_closed_form(self):
        p = make_params(Bc=1e-6 * 1e7, sigma_T=0.8, sigma_N2=0.5)
        r = dense_covariance_R(p)
        g = dense_covariance_G(p)
        h = np.zeros(p.M, dtype=complex)
        he = h + 0.9
        beta, _ = miss_rate_general_numerical(0.01, p, h, he, r, g, 100_000, RngStream(46))
        assert abs(beta - miss_rate_low_bc(0.01, p, h, he)) < 0.01

"""Link budget, per-pair miss rates, end-to-end simulation, room sweeps."""

import configparser
import csv
import math
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanauth import cli, raytrace
from chanauth.channel import ChannelParams, SpatialMode
from chanauth.cli import PRESETS, REGIME_NAMES, load_config
from chanauth.detect import (
    Regime,
    TestConfig,
    miss_rate_full_spatial,
    miss_rate_general_numerical,
    miss_rate_low_bc,
    miss_rate_time_invariant,
)
from chanauth.harness import (
    SweepAxis,
    _BLOCK_ELEMENTS,
    _select_pairs,
    _unrank_pairs,
    apply_sweep_value,
    false_alarm_rate,
    miss_rate_for_pair,
    miss_rates,
    noise_variance,
    regime_forms,
    resolve_variances,
    room_sweep,
    simulate_error_rates,
)
from chanauth.numerics import NotPositiveDefiniteError, RngStream, chi2_inv
from chanauth.raytrace import GridSpec, RoomScene, RoomTrace, grid_positions, response_matrix

import _oracles
from _oracles import (
    asymptotic_G_high_bc,
    asymptotic_R_high_bc,
    dense_covariance_G,
    dense_covariance_R,
    dense_miss_rates,
    gchi2_cdf_by_simpson,
)

TestConfig.__test__ = False


def make_params(**overrides) -> ChannelParams:
    base = dict(f0=5e9, W=1e7, M=10, a=0.9, Bc=2e6, sigma_T=1.0, sigma_N2=1.0)
    base.update(overrides)
    return ChannelParams(**base)


def resolve_name(params: ChannelParams, name: str) -> tuple[Regime, ChannelParams]:
    """The detector and channel that ``test.regime = name`` runs on ``params``,
    as load_config resolves a detector or a preset, in a room of unit gain
    (where b_T is sigma_T)."""
    if name not in PRESETS:
        return Regime(name), params
    params, _, b_T = apply_sweep_value(params, 1.0, params.sigma_T, *PRESETS[name])
    return Regime.GENERAL, replace(params, sigma_T=b_T)


# Case ids over test.regime names keep the ids these cases had while each
# name was a member of Regime, so a case's history reads across that change.
NAME_IDS = {
    "general": "Regime.GENERAL_KNOWN_PARAMS",
    "unknown": "Regime.UNKNOWN_PARAMS",
    "low_bc": "Regime.LOW_BC_CLOSED_FORM",
    "high_bc": "Regime.HIGH_BC_NUMERICAL",
    "time_invariant": "Regime.TIME_INVARIANT_BENCHMARK",
    "full_spatial": "Regime.FULL_SPATIAL_CORRELATION",
}


SCENE = RoomScene()
BOB = (8.0, 6.0, 2.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def count_traced_rows(monkeypatch) -> Counter:
    """Count the rows response_matrix traces, keyed by (f0, W, M, grid point)."""
    traced = Counter()
    real = raytrace.response_matrix

    def counting(scene, txs, rx, params):
        traced.update((params.f0, params.W, params.M, tuple(tx)) for tx in txs)
        return real(scene, txs, rx, params)

    monkeypatch.setattr(raytrace, "response_matrix", counting)
    return traced


class TestLinkBudget:
    def test_reference_value(self):
        # kT = 10^-17.4 mW/Hz, N_F = 10, b = 0.25 MHz, P_T = 10 mW, M = 10.
        s2 = noise_variance(10.0, 10)
        assert s2 == pytest.approx(9.95e-12, rel=1e-3)

    def test_linear_in_m(self):
        assert noise_variance(50.0, 20) == pytest.approx(2.0 * noise_variance(50.0, 10), rel=1e-12)

    def test_inverse_in_power(self):
        assert noise_variance(20.0, 10) == pytest.approx(0.5 * noise_variance(10.0, 10), rel=1e-12)

    def test_positive_fields(self):
        # noise_variance is the one check of the transmit power.
        for P_T in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                noise_variance(P_T, 10)

    def test_sigma_t_from_bt(self):
        # sigma_T = b_T * the room gain, and a b_T that is negative or not
        # finite is refused rather than read as no variation.
        grid = GridSpec(origin=(2.0, 2.0), spacing=0.2, counts=(4, 4), height=1.0)
        trace = RoomTrace(SCENE, grid, BOB)
        p = make_params()
        assert resolve_variances(trace, p, 10.0, 0.0).sigma_T == 0.0
        resolved = resolve_variances(trace, p, 10.0, 0.5)
        assert resolved.sigma_T == 0.5 * trace.rms_gain(p)
        assert resolved.sigma_N2 == noise_variance(10.0, p.M)
        for b_T in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                resolve_variances(trace, p, 10.0, b_T)


class TestPairMissRate:
    def test_indistinguishable_pair(self):
        # Same position, no variation, equal weights: miss rate is 1 - alpha.
        p = make_params(sigma_T=0.0, sigma_N2=1e-11)
        cfg = TestConfig(alpha=0.01)
        ha = response_matrix(SCENE, [(2.0, 2.0, 1.0)], BOB, p)[0]
        beta = miss_rate_for_pair(ha, ha, p, cfg)
        assert beta == pytest.approx(0.99, abs=1e-9)

    def test_huge_power_far_pair(self):
        p = make_params(sigma_T=0.0, sigma_N2=noise_variance(1e6, 10))
        cfg = TestConfig(alpha=0.01)
        ha, he = response_matrix(SCENE, [(2.0, 2.0, 1.0), (7.0, 5.5, 1.0)], BOB, p)
        beta = miss_rate_for_pair(ha, he, p, cfg)
        assert beta < 1e-6

    def test_time_invariant_reduction(self):
        # Without variation B_c has nothing to act on: the time-invariant
        # benchmark is the general detector at any B_c.
        p = make_params(sigma_T=0.0, sigma_N2=1e-11)
        alice, eve = (2.0, 2.0, 1.0), (2.4, 2.0, 1.0)
        cfg = TestConfig(alpha=0.01)
        ha, he = response_matrix(SCENE, [alice, eve], BOB, p)
        b1 = miss_rate_for_pair(ha, he, p, cfg)
        b2 = miss_rate_for_pair(ha, he, replace(p, Bc=0.0), cfg)
        assert b1 == b2
        assert b1 == pytest.approx(miss_rate_time_invariant(0.01, p.sigma_N2, ha, he, p.M), abs=1e-12)

    def test_general_regime_is_exact(self):
        # No random stream: the general regime is the Simpson oracle's
        # generalized chi-square, built here with plain numpy linear algebra.
        p = make_params(M=6, sigma_T=0.8, sigma_N2=0.3)
        ha = np.zeros(p.M, dtype=complex)
        he = ha + np.linspace(0.5, 1.5, p.M) * np.exp(1j * np.arange(p.M))
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL)
        beta = miss_rate_for_pair(ha, he, p, cfg)
        assert beta == miss_rate_for_pair(ha, he, p, cfg)
        lower = np.linalg.cholesky(dense_covariance_R(p))
        whiten = np.linalg.inv(lower)
        weights, basis = np.linalg.eigh(whiten @ dense_covariance_G(p) @ whiten.conj().T)
        offsets = 2.0 * np.abs(basis.conj().T @ whiten @ (he - ha)) ** 2
        assert beta == pytest.approx(gchi2_cdf_by_simpson(chi2_inv(0.99, 2 * p.M), weights, offsets), abs=1e-9)

    def test_unknown_requires_override(self):
        p = make_params()
        h = np.zeros(p.M, dtype=complex)
        with pytest.raises(ValueError):
            miss_rate_for_pair(h, h + 1.0, p, TestConfig(alpha=0.01, regime=Regime.UNKNOWN))


class TestMissRates:
    """Batched exact miss rates on real room pairs against the per-pair
    closed forms and the Monte Carlo evaluator."""

    GRID = GridSpec(origin=(1.5, 1.5), spacing=0.2, counts=(16, 16), height=1.0)

    @pytest.fixture(scope="class")
    def room(self):
        base = make_params(sigma_T=0.0, sigma_N2=0.0)
        gain = RoomTrace(SCENE, self.GRID, BOB).rms_gain(base)
        p = make_params(sigma_T=0.5 * gain, sigma_N2=noise_variance(100.0, base.M))
        responses = response_matrix(SCENE, grid_positions(self.GRID), BOB, p)
        pick = np.random.default_rng(8).choice(len(responses) - 1, size=40, replace=False)
        return p, responses[pick], responses[pick + 1]  # grid neighbours

    @pytest.mark.parametrize(
        "name, closed_form",
        [
            ("low_bc", lambda p, ha, he: miss_rate_low_bc(0.01, p, ha, he)),
            ("time_invariant", lambda p, ha, he: miss_rate_time_invariant(0.01, p.sigma_N2, ha, he, p.M)),
            ("full_spatial", lambda p, ha, he: miss_rate_full_spatial(0.01, p, ha, he, dense_covariance_R(p))),
        ],
        ids=[NAME_IDS[n] for n in ("low_bc", "time_invariant", "full_spatial")],
    )
    def test_equal_weight_regimes_match_closed_forms(self, room, name, closed_form):
        p, ha, he = room
        detector, p = resolve_name(p, name)
        batch = miss_rates(ha, he, p, TestConfig(alpha=0.01, regime=detector))
        closed = np.array([closed_form(p, a, e) for a, e in zip(ha, he)])
        assert np.max(np.abs(batch - closed)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        Bc=st.sampled_from([0.0, 2e6, math.inf]),
        mode=st.sampled_from(list(SpatialMode)),
        varies=st.booleans(),
        alphas=st.lists(st.floats(1e-6, 0.5), min_size=2, max_size=2),
    )
    def test_nonincreasing_in_alpha(self, room, Bc, mode, varies, alphas):
        # A larger size lowers the threshold, so on the same pairs the
        # exact miss rates can only fall; the evaluator may wobble by its
        # accuracy (1e-9), not more.  The general detector, with or without
        # variation, at B_c in {0, 2e6, inf}, against either spoofer.
        p, ha, he = room
        p = replace(p, Bc=Bc, spatial_mode=mode, sigma_T=p.sigma_T if varies else 0.0)
        lo, hi = sorted(alphas)
        beta_lo = miss_rates(ha, he, p, TestConfig(alpha=lo))
        beta_hi = miss_rates(ha, he, p, TestConfig(alpha=hi))
        assert np.all(beta_hi <= beta_lo + 1e-9)

    @pytest.mark.parametrize(
        "regime, Bc",
        [(Regime.GENERAL, 2e6), (Regime.GENERAL, math.inf), (Regime.UNKNOWN, 2e6)],
        ids=[NAME_IDS[n] for n in ("general", "high_bc", "unknown")],
    )
    def test_matches_monte_carlo(self, room, regime, Bc):
        p, ha, he = room
        p = replace(p, Bc=Bc)
        close = np.argsort(np.linalg.norm(he - ha, axis=1))[[0, 2, 4, 6]]  # miss rates of 0.02 to 0.42
        ha, he = ha[close], he[close]
        if Bc == math.inf:
            r, g = asymptotic_R_high_bc(p), asymptotic_G_high_bc(p)
        else:
            r, g = dense_covariance_R(p), dense_covariance_G(p)
        cfg = TestConfig(alpha=0.01, regime=regime)
        if regime is Regime.UNKNOWN:
            # |d|^2 / sigma_N^2 <= t is the whitened score for R = 2 sigma_N^2 I,
            # rescaled so the chi-square threshold at alpha = 0.01 lands on t.
            t = float(np.trace(g).real) / p.sigma_N2
            cfg = TestConfig(alpha=0.01, regime=regime, threshold_override=t)
            r = 2.0 * p.sigma_N2 * t / chi2_inv(0.99, 2 * p.M) * np.eye(p.M, dtype=complex)
        exact = miss_rates(ha, he, p, cfg)
        for i, (a, e) in enumerate(zip(ha, he)):
            mc, se = miss_rate_general_numerical(0.01, p, a, e, r, g, 200_000, RngStream(80, i))
            assert abs(exact[i] - mc) <= 4.0 * se, (i, exact[i], mc, se)


    @pytest.mark.parametrize("name", REGIME_NAMES, ids=NAME_IDS.get)
    @pytest.mark.parametrize("Bc", [0.0, 1e3, 2e6, 5e7, math.inf])
    def test_matches_dense_path(self, room, name, Bc):
        # The spectral forms against Cholesky + eigh of the dense Toeplitz
        # covariances, for each test.regime name on a channel at B_c (a
        # preset then fixes its own setting), against either spoofer, at
        # sigma_T in {0, 1x} and every a in {0, 0.5, 0.9, 1}.
        p, ha, he = room
        for mode in SpatialMode:
            for sigma_T in (0.0, p.sigma_T):
                for a in (0.0, 0.5, 0.9, 1.0):
                    q = replace(p, Bc=Bc, a=a, sigma_T=sigma_T, spatial_mode=mode)
                    detector, q = resolve_name(q, name)
                    override = 40.0 if detector is Regime.UNKNOWN else None
                    cfg = TestConfig(alpha=0.01, regime=detector, threshold_override=override)
                    err = np.abs(miss_rates(ha, he, q, cfg) - dense_miss_rates(ha, he, q, cfg)).max()
                    assert err <= 1e-12, (mode, sigma_T, a, err)

    @pytest.mark.parametrize("M", [1, 2, 5, 30])
    def test_matches_dense_path_tone_counts(self, M):
        gen = np.random.default_rng(M)
        ha = 1e-6 * (gen.standard_normal((8, M)) + 1j * gen.standard_normal((8, M)))
        he = ha + 3e-7 * (gen.standard_normal((8, M)) + 1j * gen.standard_normal((8, M)))
        for regime in Regime:
            cfg = TestConfig(alpha=0.01, regime=regime, threshold_override=4.0 * M if regime is Regime.UNKNOWN else None)
            for mode in SpatialMode:
                for sigma_T in (0.0, 3e-7):
                    for Bc in (0.0, 2e6, math.inf):
                        p = make_params(M=M, Bc=Bc, sigma_T=sigma_T, sigma_N2=2e-14, spatial_mode=mode)
                        err = np.abs(miss_rates(ha, he, p, cfg) - dense_miss_rates(ha, he, p, cfg)).max()
                        assert err <= 1e-12, (regime, mode, sigma_T, Bc, err)


    def test_working_memory_is_bounded(self):
        # 20 000 pairs at M = 30: the offsets are one (pairs x M) float array
        # (4.8 MB), and the gaps' complex temporaries are one chunk's, so the
        # peak stays under two such arrays; the whole-batch gaps took ~19 MB.
        pairs, M = 20_000, 30
        gen = np.random.default_rng(30)
        ha = 1e-6 * (gen.standard_normal((pairs, M)) + 1j * gen.standard_normal((pairs, M)))
        he = ha + 3e-7 * (gen.standard_normal((pairs, M)) + 1j * gen.standard_normal((pairs, M)))
        p = make_params(M=M, Bc=math.inf, sigma_T=0.0, sigma_N2=1e-13)  # miss rates 5e-5 to 0.75
        cfg = TestConfig(alpha=0.01)
        miss_rates(ha[:10], he[:10], p, cfg)  # first-call caches (FFT plans) out of the measurement
        tracemalloc.start()
        try:
            betas = miss_rates(ha, he, p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert betas.shape == (pairs,) and np.all((betas >= 0) & (betas <= 1))
        assert peak < 2 * pairs * M * 8, peak


class TestRegimeForms:
    def test_detector_sets_r_and_channel_sets_g(self):
        p = make_params(sigma_T=0.7, sigma_N2=0.2)
        shared = replace(p, spatial_mode=SpatialMode.FULLY_CORRELATED)
        general = TestConfig(alpha=0.01)
        unknown = TestConfig(alpha=0.01, regime=Regime.UNKNOWN, threshold_override=40.0)
        r, g, _ = regime_forms(p, general)
        assert np.array_equal(regime_forms(shared, general)[1], r)  # a shared variation cancels as in H0
        assert np.array_equal(regime_forms(p, unknown)[1], g)
        assert np.array_equal(regime_forms(shared, unknown)[1], r)
        assert np.all(regime_forms(shared, unknown)[0] == 2.0 * p.sigma_N2)

    def test_zero_noise_floor(self):
        # Without noise r_hat vanishes where the variation does not reach.
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL)
        with pytest.raises(NotPositiveDefiniteError):
            regime_forms(make_params(a=1.0, sigma_N2=0.0), cfg)
        r, _, _ = regime_forms(make_params(a=0.9, Bc=0.0, sigma_N2=0.0), cfg)
        assert np.all(r > 0)
        # The unknown regime whitens with the noise alone, so it has no floor at all.
        unknown = TestConfig(alpha=0.01, regime=Regime.UNKNOWN, threshold_override=40.0)
        with pytest.raises(NotPositiveDefiniteError):
            regime_forms(make_params(sigma_N2=0.0), unknown)


class TestSimulateErrorRates:
    def test_size_calibration_single_case(self):
        p = make_params(Bc=2e6, sigma_T=2e-6, sigma_N2=1e-11)
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL)
        rates = simulate_error_rates(p, cfg, trials=100_000, rng=RngStream(70))
        assert 0.007 <= rates.alpha_hat <= 0.013

    @pytest.mark.parametrize("mode", list(SpatialMode), ids=lambda m: m.value)
    def test_matches_oracle_bit_for_bit(self, mode):
        # The calibration draws what the both-hypotheses oracle draws under
        # H0 alone: taps, reference noise, one step and probe noise per block
        # (three blocks here, the last one short).
        p = make_params(M=7, Bc=2e6, sigma_T=0.8, sigma_N2=0.3, spatial_mode=mode)
        cfg = TestConfig(alpha=0.2, regime=Regime.GENERAL)
        zero = np.zeros(p.M, dtype=complex)
        trials = 2 * (_BLOCK_ELEMENTS // p.M) + 100
        rates = simulate_error_rates(p, cfg, trials, RngStream(77))
        oracle = _oracles.simulate_error_rates(zero, zero, p, cfg, trials, RngStream(77), include_h1=False)
        assert 0.0 < rates.alpha_hat < 1.0
        assert (rates.alpha_hat, rates.alpha_se, rates.trials) == (oracle.alpha_hat, oracle.alpha_se, oracle.trials)

    def test_fully_correlated_self_spoof(self):
        # A spoofer sharing both position and variation is accepted at 1 - alpha.
        p = make_params(Bc=2e6, sigma_T=2e-6, sigma_N2=1e-11, spatial_mode=SpatialMode.FULLY_CORRELATED)
        h = response_matrix(SCENE, [(2.0, 2.0, 1.0)], BOB, p)[0]
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL)
        rates = _oracles.simulate_error_rates(h, h, p, cfg, trials=50_000, rng=RngStream(71), include_h0=False)
        assert rates.beta_hat == pytest.approx(0.99, abs=3 * rates.beta_se + 1e-3)

    def test_matches_closed_form(self):
        p = make_params(Bc=0.0, M=5, sigma_T=2e-6, sigma_N2=noise_variance(100.0, 5))
        ha, he = response_matrix(SCENE, [(2.0, 2.0, 1.0), (2.6, 2.2, 1.0)], BOB, p)
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL)
        rates = _oracles.simulate_error_rates(ha, he, p, cfg, trials=100_000, rng=RngStream(72), include_h0=False)
        assert abs(rates.beta_hat - miss_rate_low_bc(0.01, p, ha, he)) < 0.01

    def test_empirical_wrapper(self):
        # One room pair end to end through the oracle: traced fixed
        # responses, then both hypotheses simulated.
        p = make_params(sigma_T=1e-6, sigma_N2=1e-11)
        cfg = TestConfig(alpha=0.05, regime=Regime.GENERAL)
        ha, he = response_matrix(SCENE, [(2.0, 2.0, 1.0), (3.0, 3.0, 1.0)], BOB, p)
        rates = _oracles.simulate_error_rates(ha, he, p, cfg, 5000, RngStream(73))
        assert 0.0 <= rates.alpha_hat <= 1.0
        assert 0.0 <= rates.beta_hat <= 1.0

    def test_working_memory_is_bounded(self):
        # room_grid's calibration (M = 20, one tap): every array it holds is
        # one trial block's, so the peak stays under one and a half
        # (4000 x M) complex arrays and does not grow with the trial count.
        p = make_params(W=2e7, M=20, Bc=math.inf, sigma_T=0.0, sigma_N2=noise_variance(100.0, 20))
        cfg = TestConfig(alpha=0.01)

        def peak(trials: int) -> int:
            tracemalloc.start()
            try:
                simulate_error_rates(p, cfg, trials, RngStream(75))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call caches (FFT plans) out of the measurement
        small, large = peak(4000), peak(40_000)
        assert small < 1.5 * 4000 * p.M * 16  # 1.92 MB; one (4000 x M) complex array is 1.28 MB
        assert large <= small + 4000  # no growth with the trial count

    def test_cost_is_flat_in_the_taps(self, time_limit):
        # The tones are one FFT of the folded taps, so a trial costs about
        # as much at L = M = 1000 taps as at one: these 300 trials take
        # ~0.05 s on a 2-core Xeon, where an L x M tone product took 1.4 s.
        p = make_params(M=1000, Bc=0.0)
        with time_limit(1):
            rates = simulate_error_rates(p, TestConfig(alpha=0.01, regime=Regime.GENERAL), 300, RngStream(78))
        assert rates.trials == 300

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_error_rates(make_params(), TestConfig(alpha=0.01), trials=0, rng=RngStream(0))


class TestFalseAlarmRate:
    @pytest.mark.parametrize("name", [n for n in REGIME_NAMES if n != "unknown"], ids=NAME_IDS.get)
    def test_matched_regimes_have_size_alpha(self, name):
        # A preset sets the channel that exact_alpha and the calibration run,
        # not only the sweep's, so every name on the general detector has
        # size alpha whatever B_c the config gives.
        for Bc in (0.0, 2e6, math.inf):
            detector, p = resolve_name(make_params(Bc=Bc, sigma_N2=0.1), name)
            assert detector is Regime.GENERAL
            assert false_alarm_rate(p, TestConfig(alpha=0.01, regime=detector)) == pytest.approx(0.01, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        Bc=st.sampled_from([0.0, 1e3, 2e6, 5e7, math.inf]),
        a=st.floats(0.0, 1.0),
        mode=st.sampled_from(list(SpatialMode)),
        M=st.integers(1, 30),
        sigma_T=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
        sigma_N2=st.floats(1e-12, 1e2),
    )
    def test_general_detector_size_is_alpha_on_every_channel(self, Bc, a, mode, M, sigma_T, sigma_N2):
        # The general detector whitens with the channel's own spectrum, so
        # its exact size is alpha wherever the channel sits.
        p = make_params(M=M, a=a, Bc=Bc, sigma_T=sigma_T, sigma_N2=sigma_N2, spatial_mode=mode)
        assert false_alarm_rate(p, TestConfig(alpha=0.01)) == pytest.approx(0.01, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("Bc, size", [(0.0, 0.4579), (1e3, 0.4579), (2e6, 0.4087), (math.inf, 0.3824)])
    def test_matches_monte_carlo(self, Bc, size):
        # The unknown detector whitens with the noise alone, so at its
        # override it has its own size on each channel.
        # M = 10, a = 0.9, sigma_T = 1, sigma_N^2 = 0.1, threshold 40.
        p = make_params(Bc=Bc, sigma_N2=0.1)
        cfg = TestConfig(alpha=0.01, regime=Regime.UNKNOWN, threshold_override=40.0)
        exact = false_alarm_rate(p, cfg)
        assert exact == pytest.approx(size, abs=5e-5)
        rates = simulate_error_rates(p, cfg, trials=40_000, rng=RngStream(76))
        assert abs(rates.alpha_hat - exact) <= 4.0 * rates.alpha_se


class TestSelectPairs:
    @pytest.mark.parametrize("n", [2, 3, 17, 60])
    def test_unrank_matches_triu_indices(self, n):
        ii, jj = np.triu_indices(n, k=1)
        got_i, got_j = _unrank_pairs(np.arange(len(ii)), n)
        assert np.array_equal(got_i, ii) and np.array_equal(got_j, jj)

    @pytest.mark.parametrize("n, budget", [(2, 1), (3, 2), (17, 40), (60, 500), (60, 5000)])
    def test_matches_materialised_indexing(self, n, budget):
        def reference(rng):  # indexes the materialised triangle
            ii, jj = np.triu_indices(n, k=1)
            if budget >= len(ii):
                return ii, jj
            pick = rng.generator.choice(len(ii), size=budget, replace=False)
            pick.sort()
            return ii[pick], jj[pick]

        got_i, got_j = _select_pairs(n, budget, RngStream(4, 1))
        ref_i, ref_j = reference(RngStream(4, 1))
        assert np.array_equal(got_i, ref_i) and np.array_equal(got_j, ref_j)


class TestRoomSweep:
    GRID = GridSpec(origin=(2.0, 2.0), spacing=0.4, counts=(3, 3), height=1.0)

    def sweep(self, seed=5, grid=None, **overrides):
        kwargs = dict(
            trace=raytrace.RoomTrace(SCENE, grid or self.GRID, BOB),
            P_T=100.0,
            base_params=make_params(Bc=0.0, sigma_T=0.0, sigma_N2=0.0),
            cfg=TestConfig(alpha=0.01),
            sweep_param=SweepAxis.B_T,
            sweep_values=[0.01, 0.1, 1.0],
            b_T=0.5,
            pair_budget=10,
            rng=RngStream(seed),
        )
        kwargs.update(overrides)
        return room_sweep(**kwargs)

    def test_two_point_grid_single_pair(self):
        grid = GridSpec(origin=(2.0, 2.0), spacing=0.4, counts=(2, 1), height=1.0)
        res = self.sweep(grid=grid, pair_budget=100)
        assert res.pair_count == 1

    def test_pair_budget_caps_at_total(self):
        res = self.sweep(pair_budget=10_000)
        assert res.pair_count == 9 * 8 // 2

    def test_deterministic(self):
        assert self.sweep(seed=9) == self.sweep(seed=9)

    def test_seed_changes_subsample(self):
        assert self.sweep(seed=1).beta_bar != self.sweep(seed=2).beta_bar

    def test_variation_trend(self):
        res = self.sweep(pair_budget=36)
        assert res.beta_bar[-1] < res.beta_bar[0]

    def test_traces_each_tone_set_once(self, monkeypatch):
        calls = []
        real = raytrace.response_matrix
        monkeypatch.setattr(raytrace, "response_matrix", lambda *a: calls.append(1) or real(*a))
        for axis, values, traces in [
            (SweepAxis.B_T, [0.01, 0.1, 1.0], 1),
            (SweepAxis.P_T, [1.0, 10.0, 100.0], 1),
            # 5, 10, 20 and 30 are columns of one 60-tone grid; 4, 8 and 10
            # would need 40 tones, more than their 22, so each is traced alone.
            (SweepAxis.M, [5, 10, 20, 30], 1),
            (SweepAxis.M, [4, 8, 4, 10], 3),
        ]:
            calls.clear()
            self.sweep(sweep_param=axis, sweep_values=values)
            assert len(calls) == traces, axis

    def test_time_invariant_run_traces_only_the_rows_it_reads(self, monkeypatch, tmp_path):
        # At b_T = 0 the room gain goes unread, so a run traces exactly the
        # rows of its sampled pairs, not the whole 2400-point grid: the
        # calibration draws no fixed response and traces nothing.
        traced = count_traced_rows(monkeypatch)
        config, _ = load_config(GOLDEN / "room_grid.cfg")
        assert config.b_T == 0.0
        assert cli.run(GOLDEN / "room_grid.cfg", tmp_path) == cli.EXIT_OK
        ii, jj = _select_pairs(config.grid.n_points, config.pair_budget, RngStream(config.seed).substream(1))
        assert sum(traced.values()) == len(np.unique(np.concatenate([ii, jj]))) < config.grid.n_points

    @pytest.mark.parametrize("path", [CONFIGS / "fig5.cfg", GOLDEN / "general_Bc.cfg"], ids=["fig5", "general_Bc"])
    def test_run_traces_each_tone_grid_row_once(self, monkeypatch, tmp_path, path):
        # At b_T > 0 the room gain reads the whole grid, so each grid point is
        # traced exactly once per tone grid; fig5's M = 5 ... 30 share one.
        traced = count_traced_rows(monkeypatch)
        config, _ = load_config(path)
        assert config.b_T > 0
        assert cli.run(path, tmp_path) == cli.EXIT_OK
        assert set(traced.values()) == {1}
        assert set(Counter(key[:3] for key in traced).values()) == {config.grid.n_points}

    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        M=st.integers(1, 12),
        b_T=st.sampled_from([0.0, 0.5]),
        pair_budget=st.integers(1, 80),
    )
    # 5 and 10 share a 10-tone grid and 4, 8 and 10 do not; the calibration's
    # M = 20 joins the 5 and 10 on a 20-tone grid at b_T > 0, and M = 8 is a
    # sweep value's set.
    @example(values=[5, 10], M=20, b_T=0.5, pair_budget=6)
    @example(values=[5, 10], M=20, b_T=0.0, pair_budget=6)
    @example(values=[4, 8, 10], M=8, b_T=0.5, pair_budget=80)
    @example(values=[4, 8, 10], M=3, b_T=0.0, pair_budget=6)
    def test_run_does_no_more_work_than_validate_priced(self, values, M, b_T, pair_budget):
        # validate prices raytrace.tone_grids of cli._tone_sets: a run traces
        # on those grids alone, each row once, the whole grid where a set reads
        # the room gain and at most the sampled pairs' rows elsewhere, and
        # evaluates the pairs and calibrates the trials it priced.
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read(CONFIGS / "fig5.cfg", encoding="utf-8")
        parser["grid"]["counts"] = "4 3"
        parser["channel"].update(M=str(M), b_T=str(b_T))
        parser["sweep"]["values"] = " ".join(map(str, values))
        parser["run"].update(trials="200", pair_budget=str(pair_budget))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "plan.cfg"
            with open(path, "w", encoding="utf-8") as fh:
                parser.write(fh)
            config, diags = load_config(path)
            assert not diags
            sets = cli._tone_sets(config.channel, config.P_T, config.b_T, config.sweep_param, config.sweep_values)
            plan = raytrace.tone_grids(params for params, _ in sets)
            whole = {plan[(params.f0, params.W, params.M)][0] for params, gain in sets if gain}
            traced = count_traced_rows(mp)
            assert cli.run(path, Path(tmp) / "out") == cli.EXIT_OK
            with open(Path(tmp) / "out" / "sweep.csv", encoding="utf-8") as fh:
                pair_counts = {int(row["pair_count"]) for row in csv.DictReader(fh)}
            with open(Path(tmp) / "out" / "calibration.csv", encoding="utf-8") as fh:
                (calibration,) = csv.DictReader(fh)
        n = config.grid.n_points
        pairs = min(config.pair_budget, n * (n - 1) // 2)
        rows = Counter(key[:3] for key in traced)  # rows traced per (f0, W, tones) grid
        assert set(traced.values()) <= {1}
        assert set(rows) <= {(grid.f0, grid.W, grid.M) for grid, _ in plan.values()}
        for grid, _ in plan.values():
            key = (grid.f0, grid.W, grid.M)
            assert rows[key] == n if grid in whole else rows[key] <= min(n, 2 * pairs), (key, rows)
        assert pair_counts == {pairs}
        assert int(calibration["trials"]) == config.trials

    def test_b_T_sweep_from_zero_traces_each_row_once(self, monkeypatch):
        # b_T = 0 traces the sampled pairs' rows; 0.1 then reads the room
        # gain and traces only the rest.
        traced = count_traced_rows(monkeypatch)
        self.sweep(sweep_values=[0.0, 0.1], pair_budget=2)
        assert set(traced.values()) == {1} and len(traced) == self.GRID.n_points

    def test_time_invariant_M_sweep_traces_only_its_tones(self, monkeypatch):
        # The sweep plans only its own tone sets, so the base M = 20 does not
        # join them: M = 5 and 10 trace on 10 tones.
        traced = count_traced_rows(monkeypatch)
        grid = GridSpec(origin=(2.0, 2.0), spacing=0.4, counts=(4, 4), height=1.0)
        base = make_params(M=20, Bc=0.0, sigma_T=0.0, sigma_N2=0.0)
        self.sweep(grid=grid, base_params=base, sweep_param=SweepAxis.M, sweep_values=[5, 10], b_T=0.0)
        assert traced and {key[2] for key in traced} == {10}

    def test_shared_trace_matches_fresh_one(self):
        # A trace that already holds the tones (as after an earlier sweep) gives the same result.
        trace = raytrace.RoomTrace(SCENE, self.GRID, BOB)
        first = self.sweep(trace=trace)
        assert self.sweep(trace=trace) == first == self.sweep()

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            self.sweep(sweep_values=[])

    @pytest.mark.parametrize("name, values", [("fig3", (0.01, 0.1, 1.0)), ("fig5", (5,))], ids=["fig3", "fig5"])
    def test_subsample_matches_all_pairs_average(self, name, values):
        # The seeded pair subsample estimates the exact room average over all
        # n(n-1)/2 pairs (32 640 on the 16 x 16 figure grids), and std_err
        # measures its error: every value lies within 4 standard errors.
        config, diags = load_config(CONFIGS / f"{name}.cfg")
        assert not diags
        trace = raytrace.RoomTrace(config.scene, config.grid, config.bob)
        res = room_sweep(
            trace, config.P_T, config.channel, config.test, config.sweep_param, values,
            b_T=config.b_T, pair_budget=config.pair_budget, rng=RngStream(config.seed),
        )
        n = len(trace.positions)
        ii, jj = _unrank_pairs(np.arange(n * (n - 1) // 2), n)
        for value, beta_bar, std_err in zip(values, res.beta_bar, res.std_err):
            params, P_T, b_T = apply_sweep_value(config.channel, config.P_T, config.b_T, config.sweep_param, value)
            params = resolve_variances(trace, params, P_T, b_T)
            responses = trace.responses(params, np.arange(n))
            total = sum(
                miss_rates(responses[ii[i : i + 4096]], responses[jj[i : i + 4096]], params, config.test).sum()
                for i in range(0, len(ii), 4096)
            )
            exact = total / len(ii)
            assert abs(beta_bar - exact) <= 4.0 * std_err, (value, beta_bar, exact, std_err)

    def test_spatial_mode_axis(self):
        res = self.sweep(
            base_params=make_params(sigma_T=0.0, sigma_N2=0.0),
            cfg=TestConfig(alpha=0.01, regime=Regime.GENERAL),
            sweep_param=SweepAxis.SPATIAL_MODE,
            sweep_values=[SpatialMode.INDEPENDENT.value, SpatialMode.FULLY_CORRELATED.value],
            pair_budget=5,
        )
        assert len(res.beta_bar) == 2
        assert all(0.0 <= b <= 1.0 for b in res.beta_bar)

    def test_spatial_mode_axis_keeps_the_detector(self):
        # A spatial_mode sweep changes the spoofer, not the detector: every
        # row under the unknown detector is its exact room average over all
        # 36 pairs at that mode, and none is the general detector's.
        base = make_params(sigma_T=0.0, sigma_N2=0.0)
        unknown = TestConfig(alpha=0.01, regime=Regime.UNKNOWN, threshold_override=30.0)
        modes = [SpatialMode.INDEPENDENT.value, SpatialMode.FULLY_CORRELATED.value]
        kwargs = dict(base_params=base, sweep_param=SweepAxis.SPATIAL_MODE, sweep_values=modes, pair_budget=36)
        res = self.sweep(cfg=unknown, **kwargs)
        general = self.sweep(cfg=TestConfig(alpha=0.01), **kwargs)
        trace = raytrace.RoomTrace(SCENE, self.GRID, BOB)
        ii, jj = _unrank_pairs(np.arange(36), 9)
        for mode, beta_bar, beta_general in zip(modes, res.beta_bar, general.beta_bar):
            params = resolve_variances(trace, replace(base, spatial_mode=SpatialMode(mode)), 100.0, 0.5)
            responses = trace.responses(params, np.arange(9))
            assert beta_bar == pytest.approx(miss_rates(responses[ii], responses[jj], params, unknown).mean(), rel=1e-12)
            assert beta_bar != pytest.approx(beta_general, rel=1e-3)

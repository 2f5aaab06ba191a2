"""Link budget, per-pair miss rates, end-to-end simulation, room sweeps."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanauth import channel as chan
from chanauth import raytrace
from chanauth.channel import ChannelParams, SpatialMode
from chanauth.cli import load_config
from chanauth.detect import (
    Regime,
    TestConfig,
    miss_rate_full_spatial,
    miss_rate_general_numerical,
    miss_rate_low_bc,
    miss_rate_time_invariant,
    statistic_batch,
)
from chanauth.harness import (
    LinkBudget,
    SweepAxis,
    _select_pairs,
    _unrank_pairs,
    apply_sweep_value,
    empirical_error_rates,
    false_alarm_rate,
    miss_rate_for_pair,
    miss_rates,
    noise_variance,
    pair_miss_rate,
    regime_forms,
    resolve_variances,
    room_sweep,
    sigma_T_from_bT,
    simulate_error_rates,
)
from chanauth.numerics import NotPositiveDefiniteError, RngStream, chi2_inv, cholesky
from chanauth.raytrace import GridSpec, RoomScene, RoomTrace, fixed_response, grid_positions, response_matrix, rms_gain

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


SCENE = RoomScene()
BOB = (8.0, 6.0, 2.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestLinkBudget:
    def test_reference_value(self):
        # kT = 10^-17.4 mW/Hz, N_F = 10, b = 0.25 MHz, P_T = 10 mW, M = 10.
        s2 = noise_variance(LinkBudget(P_T=10.0), 10)
        assert s2 == pytest.approx(9.95e-12, rel=1e-3)

    def test_linear_in_m(self):
        b = LinkBudget(P_T=50.0)
        assert noise_variance(b, 20) == pytest.approx(2.0 * noise_variance(b, 10), rel=1e-12)

    def test_inverse_in_power(self):
        assert noise_variance(LinkBudget(P_T=20.0), 10) == pytest.approx(
            0.5 * noise_variance(LinkBudget(P_T=10.0), 10), rel=1e-12
        )

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            LinkBudget(P_T=0.0)

    def test_sigma_t_from_bt(self):
        assert sigma_T_from_bT(0.0, 3.0) == 0.0
        assert sigma_T_from_bT(1.0, 1.0) == 1.0
        grid = GridSpec(origin=(2.0, 2.0), spacing=0.2, counts=(4, 4), height=1.0)
        gain = rms_gain(RoomTrace(SCENE, grid, BOB).responses(make_params()))
        assert sigma_T_from_bT(0.5, gain) == pytest.approx(0.5 * gain, rel=1e-12)
        with pytest.raises(ValueError):
            sigma_T_from_bT(-0.1, 1.0)


class TestPairMissRate:
    def test_indistinguishable_pair(self):
        # Same position, no variation, closed-form regime: miss rate is 1 - alpha.
        p = make_params(sigma_T=0.0, sigma_N2=1e-11)
        cfg = TestConfig(alpha=0.01, regime=Regime.LOW_BC_CLOSED_FORM)
        alice = (2.0, 2.0, 1.0)
        beta = pair_miss_rate(SCENE, alice, alice, BOB, p, cfg)
        assert beta == pytest.approx(0.99, abs=1e-9)

    def test_huge_power_far_pair(self):
        budget = LinkBudget(P_T=1e6)
        p = make_params(sigma_T=0.0, sigma_N2=noise_variance(budget, 10))
        cfg = TestConfig(alpha=0.01, regime=Regime.TIME_INVARIANT_BENCHMARK)
        beta = pair_miss_rate(SCENE, (2.0, 2.0, 1.0), (7.0, 5.5, 1.0), BOB, p, cfg)
        assert beta < 1e-6

    def test_time_invariant_reduction(self):
        p = make_params(sigma_T=0.0, sigma_N2=1e-11)
        alice, eve = (2.0, 2.0, 1.0), (2.4, 2.0, 1.0)
        b1 = pair_miss_rate(SCENE, alice, eve, BOB, p, TestConfig(alpha=0.01, regime=Regime.TIME_INVARIANT_BENCHMARK))
        b2 = pair_miss_rate(SCENE, alice, eve, BOB, p, TestConfig(alpha=0.01, regime=Regime.LOW_BC_CLOSED_FORM))
        assert b1 == b2

    def test_general_regime_is_exact(self):
        # No random stream: the general regime is the Simpson oracle's
        # generalized chi-square, built here with plain numpy linear algebra.
        p = make_params(M=6, sigma_T=0.8, sigma_N2=0.3)
        ha = np.zeros(p.M, dtype=complex)
        he = ha + np.linspace(0.5, 1.5, p.M) * np.exp(1j * np.arange(p.M))
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL_KNOWN_PARAMS)
        beta = miss_rate_for_pair(ha, he, p, cfg)
        assert beta == miss_rate_for_pair(ha, he, p, cfg)
        lower = np.linalg.cholesky(dense_covariance_R(p).entries)
        whiten = np.linalg.inv(lower)
        weights, basis = np.linalg.eigh(whiten @ dense_covariance_G(p).entries @ whiten.conj().T)
        offsets = 2.0 * np.abs(basis.conj().T @ whiten @ (he - ha)) ** 2
        assert beta == pytest.approx(gchi2_cdf_by_simpson(chi2_inv(0.99, 2 * p.M), weights, offsets), abs=1e-9)

    def test_unknown_requires_override(self):
        p = make_params()
        h = np.zeros(p.M, dtype=complex)
        with pytest.raises(ValueError):
            miss_rate_for_pair(h, h + 1.0, p, TestConfig(alpha=0.01, regime=Regime.UNKNOWN_PARAMS))


class TestMissRates:
    """Batched exact miss rates on real room pairs against the per-pair
    closed forms and the Monte Carlo evaluator."""

    GRID = GridSpec(origin=(1.5, 1.5), spacing=0.2, counts=(16, 16), height=1.0)

    @pytest.fixture(scope="class")
    def room(self):
        base = make_params(sigma_T=0.0, sigma_N2=0.0)
        gain = rms_gain(RoomTrace(SCENE, self.GRID, BOB).responses(base))
        p = make_params(sigma_T=0.5 * gain, sigma_N2=noise_variance(LinkBudget(P_T=100.0), base.M))
        responses = response_matrix(SCENE, grid_positions(self.GRID), BOB, p)
        pick = np.random.default_rng(8).choice(len(responses) - 1, size=40, replace=False)
        return p, responses[pick], responses[pick + 1]  # grid neighbours

    @pytest.mark.parametrize(
        "regime, closed_form",
        [
            (Regime.LOW_BC_CLOSED_FORM, lambda p, ha, he: miss_rate_low_bc(0.01, p, ha, he)),
            (Regime.TIME_INVARIANT_BENCHMARK, lambda p, ha, he: miss_rate_time_invariant(0.01, p.sigma_N2, ha, he, p.M)),
            (
                Regime.FULL_SPATIAL_CORRELATION,
                lambda p, ha, he: miss_rate_full_spatial(0.01, p, ha, he, dense_covariance_R(p)),
            ),
        ],
    )
    def test_equal_weight_regimes_match_closed_forms(self, room, regime, closed_form):
        p, ha, he = room
        batch = miss_rates(ha, he, p, TestConfig(alpha=0.01, regime=regime))
        closed = np.array([closed_form(p, a, e) for a, e in zip(ha, he)])
        assert np.max(np.abs(batch - closed)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        regime=st.sampled_from(
            [
                Regime.LOW_BC_CLOSED_FORM,
                Regime.TIME_INVARIANT_BENCHMARK,
                Regime.FULL_SPATIAL_CORRELATION,
                Regime.HIGH_BC_NUMERICAL,
                Regime.GENERAL_KNOWN_PARAMS,
            ]
        ),
        alphas=st.lists(st.floats(1e-6, 0.5), min_size=2, max_size=2),
    )
    def test_nonincreasing_in_alpha(self, room, regime, alphas):
        # A larger size lowers the threshold, so on the same pairs the
        # exact miss rates can only fall; the evaluator may wobble by its
        # accuracy (1e-9), not more.
        p, ha, he = room
        lo, hi = sorted(alphas)
        beta_lo = miss_rates(ha, he, p, TestConfig(alpha=lo, regime=regime))
        beta_hi = miss_rates(ha, he, p, TestConfig(alpha=hi, regime=regime))
        assert np.all(beta_hi <= beta_lo + 1e-9)

    @pytest.mark.parametrize("regime", [Regime.GENERAL_KNOWN_PARAMS, Regime.HIGH_BC_NUMERICAL, Regime.UNKNOWN_PARAMS])
    def test_matches_monte_carlo(self, room, regime):
        p, ha, he = room
        close = np.argsort(np.linalg.norm(he - ha, axis=1))[[0, 2, 4, 6]]  # miss rates of 0.02 to 0.42
        ha, he = ha[close], he[close]
        if regime is Regime.HIGH_BC_NUMERICAL:
            r, g = asymptotic_R_high_bc(p), asymptotic_G_high_bc(p)
        else:
            r, g = dense_covariance_R(p), dense_covariance_G(p)
        cfg = TestConfig(alpha=0.01, regime=regime)
        if regime is Regime.UNKNOWN_PARAMS:
            # |d|^2 / sigma_N^2 <= t is the whitened score for R = 2 sigma_N^2 I,
            # rescaled so the chi-square threshold at alpha = 0.01 lands on t.
            t = float(np.trace(g.entries).real) / p.sigma_N2
            cfg = TestConfig(alpha=0.01, regime=regime, threshold_override=t)
            r = cholesky(2.0 * p.sigma_N2 * t / chi2_inv(0.99, 2 * p.M) * np.eye(p.M, dtype=complex))
        exact = miss_rates(ha, he, p, cfg)
        for i, (a, e) in enumerate(zip(ha, he)):
            mc, se = miss_rate_general_numerical(0.01, p, a, e, r, g, 200_000, RngStream(80, i))
            assert abs(exact[i] - mc) <= 4.0 * se, (i, exact[i], mc, se)


    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("Bc", [0.0, 1e3, 2e6, 5e7, math.inf])
    def test_matches_dense_path(self, room, regime, Bc):
        # The spectral forms against Cholesky + eigh of the dense Toeplitz
        # covariances, at every a in {0, 0.5, 0.9, 1} and sigma_T in {0, 1x}.
        p, ha, he = room
        cfg = TestConfig(alpha=0.01, regime=regime, threshold_override=40.0 if regime is Regime.UNKNOWN_PARAMS else None)
        for a in (0.0, 0.5, 0.9, 1.0):
            for sigma_T in (0.0, p.sigma_T):
                q = replace(p, Bc=Bc, a=a, sigma_T=sigma_T)
                err = np.abs(miss_rates(ha, he, q, cfg) - dense_miss_rates(ha, he, q, cfg)).max()
                assert err <= 1e-12, (a, sigma_T, err)

    @pytest.mark.parametrize("M", [1, 2, 5, 30])
    def test_matches_dense_path_tone_counts(self, M):
        gen = np.random.default_rng(M)
        ha = 1e-6 * (gen.standard_normal((8, M)) + 1j * gen.standard_normal((8, M)))
        he = ha + 3e-7 * (gen.standard_normal((8, M)) + 1j * gen.standard_normal((8, M)))
        for regime in Regime:
            cfg = TestConfig(alpha=0.01, regime=regime, threshold_override=4.0 * M if regime is Regime.UNKNOWN_PARAMS else None)
            for Bc in (0.0, 2e6, math.inf):
                p = make_params(M=M, Bc=Bc, sigma_T=3e-7, sigma_N2=2e-14)
                err = np.abs(miss_rates(ha, he, p, cfg) - dense_miss_rates(ha, he, p, cfg)).max()
                assert err <= 1e-12, (regime, Bc, err)


class TestRegimeForms:
    def test_low_and_high_bc_are_general_at_the_limits(self):
        p = make_params(sigma_T=0.7, sigma_N2=0.2)
        general = TestConfig(alpha=0.01, regime=Regime.GENERAL_KNOWN_PARAMS)
        for regime, Bc in ((Regime.LOW_BC_CLOSED_FORM, 0.0), (Regime.HIGH_BC_NUMERICAL, math.inf)):
            got = regime_forms(p, TestConfig(alpha=0.01, regime=regime))
            want = regime_forms(replace(p, Bc=Bc), general)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]

    def test_zero_noise_floor(self):
        # Without noise r_hat vanishes where the variation does not reach.
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL_KNOWN_PARAMS)
        with pytest.raises(NotPositiveDefiniteError):
            regime_forms(make_params(a=1.0, sigma_N2=0.0), cfg)
        r, _, _ = regime_forms(make_params(a=0.9, Bc=0.0, sigma_N2=0.0), cfg)
        assert np.all(r > 0)
        # The unknown regime whitens with the noise alone, so it has no floor at all.
        unknown = TestConfig(alpha=0.01, regime=Regime.UNKNOWN_PARAMS, threshold_override=40.0)
        with pytest.raises(NotPositiveDefiniteError):
            regime_forms(make_params(sigma_N2=0.0), unknown)


class TestSimulateErrorRates:
    def test_size_calibration_single_case(self):
        p = make_params(Bc=2e6, sigma_T=2e-6, sigma_N2=1e-11)
        h = fixed_response(SCENE, (2.0, 2.0, 1.0), BOB, p)
        cfg = TestConfig(alpha=0.01, regime=Regime.GENERAL_KNOWN_PARAMS)
        rates = simulate_error_rates(h, h, p, cfg, trials=100_000, rng=RngStream(70), include_h1=False)
        assert 0.007 <= rates.alpha_hat <= 0.013
        assert math.isnan(rates.beta_hat)

    def test_fully_correlated_self_spoof(self):
        # A spoofer sharing both position and variation is accepted at 1 - alpha.
        p = make_params(Bc=2e6, sigma_T=2e-6, sigma_N2=1e-11)
        h = fixed_response(SCENE, (2.0, 2.0, 1.0), BOB, p)
        cfg = TestConfig(alpha=0.01, regime=Regime.FULL_SPATIAL_CORRELATION)
        rates = simulate_error_rates(h, h, p, cfg, trials=50_000, rng=RngStream(71), include_h0=False)
        assert rates.beta_hat == pytest.approx(0.99, abs=3 * rates.beta_se + 1e-3)

    def test_matches_closed_form(self):
        budget = LinkBudget(P_T=100.0)
        p = make_params(Bc=0.0, M=5, sigma_T=2e-6, sigma_N2=noise_variance(budget, 5))
        ha = fixed_response(SCENE, (2.0, 2.0, 1.0), BOB, p)
        he = fixed_response(SCENE, (2.6, 2.2, 1.0), BOB, p)
        cfg = TestConfig(alpha=0.01, regime=Regime.LOW_BC_CLOSED_FORM)
        rates = simulate_error_rates(ha, he, p, cfg, trials=100_000, rng=RngStream(72), include_h0=False)
        assert abs(rates.beta_hat - miss_rate_low_bc(0.01, p, ha, he)) < 0.01

    def test_empirical_wrapper(self):
        p = make_params(sigma_T=1e-6, sigma_N2=1e-11)
        cfg = TestConfig(alpha=0.05, regime=Regime.GENERAL_KNOWN_PARAMS)
        rates = empirical_error_rates(SCENE, (2.0, 2.0, 1.0), (3.0, 3.0, 1.0), BOB, p, cfg, 5000, RngStream(73))
        assert 0.0 <= rates.alpha_hat <= 1.0
        assert 0.0 <= rates.beta_hat <= 1.0

    @pytest.mark.parametrize("regime", [Regime.GENERAL_KNOWN_PARAMS, Regime.FULL_SPATIAL_CORRELATION])
    def test_matches_fresh_arrays_every_batch(self, regime):
        # The batch loop with fresh arrays for every stage, as the generator
        # is called without out=: the same draws, and differences equal to
        # rounding, give the same decisions.  5000 trials take one full
        # batch and one partial one.
        p = make_params(M=6, sigma_T=0.3, sigma_N2=0.05)
        ha = np.linspace(0.0, 0.2, p.M) + 0.1j
        he = ha[::-1]
        cfg = TestConfig(alpha=0.05, regime=regime)
        mode = SpatialMode.FULLY_CORRELATED if regime is Regime.FULL_SPATIAL_CORRELATION else SpatialMode.INDEPENDENT
        r, _, t = regime_forms(p, cfg)
        rng, false_alarms, misses, done = RngStream(74), 0, 0, 0
        while done < 5000:
            n = min(4000, 5000 - done)
            state = chan.init_taps(chan.build_delay_profile(p), rng, batch=n)
            ref = chan.sample_response(ha, state, p, rng)
            state = chan.step_taps(state, p.a, rng)
            z0 = statistic_batch(chan.sample_response(ha, state, p, rng) - ref, r)
            eve = chan.eve_variation(state, mode, rng, p)
            z1 = statistic_batch(chan.sample_response(he, eve, p, rng) - ref, r)
            false_alarms += int(np.count_nonzero(z0 > t))
            misses += int(np.count_nonzero(z1 <= t))
            done += n
        rates = simulate_error_rates(ha, he, p, cfg, trials=5000, rng=RngStream(74))
        assert (rates.alpha_hat, rates.beta_hat) == (false_alarms / 5000, misses / 5000)
        assert 0 < false_alarms < 5000 and 0 < misses < 5000

    def test_working_memory_is_bounded(self):
        # room_grid's calibration (M = 20, one tap): the reference, which the
        # probe overwrites with its difference, is most of what it holds at
        # its peak, and it is allocated once per call.
        budget = LinkBudget(P_T=100.0)
        p = make_params(W=2e7, M=20, Bc=math.inf, sigma_T=0.0, sigma_N2=noise_variance(budget, 20))
        cfg = TestConfig(alpha=0.01, regime=Regime.TIME_INVARIANT_BENCHMARK)
        h = np.linspace(0.0, 1.0, p.M) + 0.5j

        def peak(trials: int) -> int:
            tracemalloc.start()
            try:
                simulate_error_rates(h, h[::-1], p, cfg, trials, RngStream(75), include_h1=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call caches (FFT plans) out of the measurement
        small, large = peak(4000), peak(40_000)
        assert small < 1.5 * 4000 * p.M * 16  # 1.92 MB; one (4000 x M) complex array is 1.28 MB
        assert large <= small + 4000  # no growth with the trial count

    def test_input_validation(self):
        p = make_params()
        h = np.zeros(p.M, dtype=complex)
        cfg = TestConfig(alpha=0.01)
        with pytest.raises(ValueError):
            simulate_error_rates(h, h, p, cfg, trials=0, rng=RngStream(0))
        with pytest.raises(ValueError):
            simulate_error_rates(h, h, p, cfg, trials=10, rng=RngStream(0), include_h0=False, include_h1=False)


class TestFalseAlarmRate:
    @pytest.mark.parametrize("regime", [Regime.GENERAL_KNOWN_PARAMS, Regime.FULL_SPATIAL_CORRELATION])
    def test_matched_regimes_have_size_alpha(self, regime):
        cfg = TestConfig(alpha=0.01, regime=regime)
        assert false_alarm_rate(make_params(sigma_N2=0.1), cfg) == pytest.approx(0.01, rel=1e-12)
        low = TestConfig(alpha=0.01, regime=Regime.LOW_BC_CLOSED_FORM)
        assert false_alarm_rate(make_params(Bc=0.0, sigma_N2=0.1), low) == pytest.approx(0.01, rel=1e-12)

    @pytest.mark.parametrize(
        "regime, Bc, override, size",
        [
            (Regime.HIGH_BC_NUMERICAL, 2e6, None, 0.0903),
            (Regime.TIME_INVARIANT_BENCHMARK, 2e6, None, 0.4650),
            (Regime.UNKNOWN_PARAMS, 2e6, 40.0, 0.4087),
            (Regime.LOW_BC_CLOSED_FORM, 1e3, None, 0.0100),
        ],
    )
    def test_matches_monte_carlo(self, regime, Bc, override, size):
        # A regime whose covariance is not the channel's has its own size.
        # M = 10, a = 0.9, sigma_T = 1, sigma_N^2 = 0.1, alpha = 0.01.
        p = make_params(Bc=Bc, sigma_N2=0.1)
        cfg = TestConfig(alpha=0.01, regime=regime, threshold_override=override)
        exact = false_alarm_rate(p, cfg)
        assert exact == pytest.approx(size, abs=5e-5)
        h = np.zeros(p.M, dtype=complex)
        rates = simulate_error_rates(h, h, p, cfg, trials=40_000, rng=RngStream(76), include_h1=False)
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
            budget=LinkBudget(P_T=100.0),
            base_params=make_params(Bc=0.0, sigma_T=0.0, sigma_N2=0.0),
            cfg=TestConfig(alpha=0.01, regime=Regime.LOW_BC_CLOSED_FORM),
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
            (SweepAxis.M, [4, 8, 4, 10], 3),  # one per distinct M
        ]:
            calls.clear()
            self.sweep(sweep_param=axis, sweep_values=values)
            assert len(calls) == traces, axis

    def test_shared_trace_matches_fresh_one(self):
        # A trace that already holds the tones (as after an earlier sweep) gives the same result.
        trace = raytrace.RoomTrace(SCENE, self.GRID, BOB)
        first = self.sweep(trace=trace)
        assert self.sweep(trace=trace) == first == self.sweep()
        assert not trace.responses(make_params()).flags.writeable

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
            trace, config.budget, config.channel, config.test, config.sweep_param, values,
            b_T=config.b_T, pair_budget=config.pair_budget, rng=RngStream(config.seed),
        )
        n = len(trace.positions)
        ii, jj = _unrank_pairs(np.arange(n * (n - 1) // 2), n)
        for value, beta_bar, std_err in zip(values, res.beta_bar, res.std_err):
            params, budget, cfg = apply_sweep_value(config.channel, config.budget, config.test, config.sweep_param, value)
            b_T = float(value) if config.sweep_param is SweepAxis.B_T else config.b_T
            params, responses = resolve_variances(trace, params, budget, b_T)
            total = sum(
                miss_rates(responses[ii[i : i + 4096]], responses[jj[i : i + 4096]], params, cfg).sum()
                for i in range(0, len(ii), 4096)
            )
            exact = total / len(ii)
            assert abs(beta_bar - exact) <= 4.0 * std_err, (value, beta_bar, exact, std_err)

    def test_spatial_mode_axis(self):
        res = self.sweep(
            base_params=make_params(sigma_T=0.0, sigma_N2=0.0),
            cfg=TestConfig(alpha=0.01, regime=Regime.GENERAL_KNOWN_PARAMS),
            sweep_param=SweepAxis.SPATIAL_MODE,
            sweep_values=[SpatialMode.INDEPENDENT.value, SpatialMode.FULLY_CORRELATED.value],
            pair_budget=5,
        )
        assert len(res.beta_bar) == 2
        assert all(0.0 <= b <= 1.0 for b in res.beta_bar)

"""Tapped-delay-line channel generator: profiles, AR stepping, responses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanauth.channel import (
    ChannelParams,
    SpatialMode,
    TapState,
    build_delay_profile,
    init_taps,
    sample_response,
    step_taps,
    taps_to_frequency,
)
from chanauth.numerics import RngStream

from _oracles import dense_covariance_G, eve_variation, long_line_tone_covariance


def make_params(**overrides) -> ChannelParams:
    base = dict(f0=5e9, W=1e7, M=8, a=0.9, Bc=2e6, sigma_T=1.0, sigma_N2=1.0)
    base.update(overrides)
    return ChannelParams(**base)


def folded_tone_covariance(params: ChannelParams) -> np.ndarray:
    """E[eps eps^H] of one probe of the generator: the tones reached from
    unit tap amplitudes, weighted by the folded profile."""
    profile = build_delay_profile(params).profile
    assert len(profile) <= params.M  # folded, so the identity below stays small
    reach = taps_to_frequency(TapState(amps=np.eye(len(profile)), profile=profile), params)
    return (reach.T * profile) @ reach.conj()


def analytic_tone_covariance(params: ChannelParams) -> np.ndarray:
    """sigma_T^2 (1 - E) / (1 - E e^{-j2pi(m-n)/M}), E = e^{-2pi Bc/W}; Bc = 0 is sigma_T^2 I."""
    e = math.exp(-2 * math.pi * params.Bc / params.W)
    if e == 1.0:
        return params.sigma_T**2 * np.eye(params.M, dtype=complex)
    lag = np.subtract.outer(np.arange(params.M), np.arange(params.M))
    return params.sigma_T**2 * (1 - e) / (1 - e * np.exp(-2j * np.pi * lag / params.M))


class TestChannelParams:
    def test_derived_quantities(self):
        p = make_params(W=1e7, M=10)
        assert p.delta_f == 1e6
        assert np.array_equal(p.tones, 5e9 - 5e6 + 1e6 * np.arange(1, 11))
        assert p.tap_decay == pytest.approx(math.exp(-0.4 * math.pi), rel=1e-15)

    def test_tap_decay_limits(self):
        assert make_params(Bc=0.0).tap_decay == 1.0
        assert make_params(Bc=math.inf).tap_decay == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [("W", 0.0), ("M", 0), ("M", 5.0), ("M", 2.5), ("a", 1.5), ("a", -0.1), ("Bc", -1.0), ("sigma_T", -1.0),
         ("sigma_N2", -0.5), ("spatial_mode", "fully_correlated")],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})

    def test_numpy_integer_M(self):
        assert make_params(M=np.int64(5)).tones.shape == (5,)


FOLD_M = (1, 2, 5, 10, 30)


class TestDelayProfile:
    def test_zero_variation(self):
        state = build_delay_profile(make_params(sigma_T=0.0))
        assert state.profile.shape == (1,)
        assert state.profile[0] == 0.0

    def test_infinite_bc_single_tap(self):
        state = build_delay_profile(make_params(Bc=math.inf, sigma_T=0.5))
        assert np.array_equal(state.profile, [0.25])

    def test_zero_bc_even_split(self):
        state = build_delay_profile(make_params(Bc=0.0, sigma_T=0.5, M=5))
        assert np.array_equal(state.profile, np.full(5, 0.05))

    def test_exponential_profile_values(self):
        # W = 10 MHz, Bc = 2 MHz: adjacent taps keep the line's ratio
        # E = e^{-0.4 pi}, and the residue classes hold all the power.
        p = make_params(W=1e7, Bc=2e6, sigma_T=1.5)
        state = build_delay_profile(p)
        e = math.exp(-0.4 * math.pi)
        expected = p.sigma_T**2 * (1 - e) * e ** np.arange(p.M) / (1 - e**p.M)
        assert np.allclose(state.profile, expected, rtol=1e-13, atol=0)
        assert state.profile.sum() == pytest.approx(p.sigma_T**2, rel=1e-14)

    @pytest.mark.parametrize("Bc", [0.0, 1e3, 1e4, 2e6, 5e7, math.inf])
    @pytest.mark.parametrize("M", FOLD_M)
    def test_matches_analytic_covariance(self, M, Bc):
        p = make_params(M=M, Bc=Bc, sigma_T=1.3)
        err = np.abs(folded_tone_covariance(p) - analytic_tone_covariance(p)).max()
        assert err <= 1e-10 * p.sigma_T**2, err

    @pytest.mark.parametrize("Bc", [1e3, 1e4, 2e6, 5e7])
    @pytest.mark.parametrize("M", FOLD_M)
    def test_matches_long_line(self, M, Bc):
        # The unfolded line misses only the power it truncates.
        p = make_params(M=M, Bc=Bc, sigma_T=1.3)
        line, discarded = long_line_tone_covariance(p)
        err = np.abs(folded_tone_covariance(p) - line).max()
        assert err <= discarded + 1e-10 * p.sigma_T**2, (err, discarded)

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 40),
        Bc=st.one_of(st.just(0.0), st.floats(1e2, 1e9), st.just(math.inf)),
        sigma_T=st.floats(0.1, 3.0),
    )
    def test_dft_is_variation_part_of_G(self, M, Bc, sigma_T):
        # Column 0 of G holds lags 0..M-1: 2 sigma_T^2 (1 - E)/(1 - E e^{-j2pi m/M})
        # off the diagonal, 2 sigma_T^2 + 2 sigma_N^2 on it.
        p = make_params(M=M, Bc=Bc, sigma_T=sigma_T, sigma_N2=0.5)
        variation = dense_covariance_G(p)[:, 0] - 2 * p.sigma_N2 * (np.arange(M) == 0)
        dft = np.fft.fft(build_delay_profile(p).profile, n=M)  # zero taps dropped at the end
        assert np.abs(2 * dft - variation).max() <= 1e-10


class TestTapDynamics:
    def test_init_zero_profile(self):
        state = init_taps(build_delay_profile(make_params(sigma_T=0.0)), RngStream(0), batch=1)
        assert np.all(state.amps[0] == 0)

    def test_init_stationary_variance(self):
        p = make_params()
        profile = build_delay_profile(p)
        state = init_taps(profile, RngStream(1), batch=1_000_000)
        var0 = np.mean(np.abs(state.amps[:, 0]) ** 2)
        assert var0 == pytest.approx(profile.profile[0], rel=0.01)

    def test_init_distinct_streams_uncorrelated(self):
        p = make_params()
        profile = build_delay_profile(p)
        a = init_taps(profile, RngStream(9, 0), batch=100_000).amps[:, 0]
        b = init_taps(profile, RngStream(9, 1), batch=100_000).amps[:, 0]
        rho = np.abs(np.mean(a * b.conj())) / profile.profile[0]
        assert rho < 0.01

    def test_step_frozen(self):
        state = init_taps(build_delay_profile(make_params()), RngStream(2), batch=10)
        stepped = step_taps(state, 1.0, RngStream(3))
        assert np.array_equal(stepped.amps, state.amps)

    def test_step_memoryless(self):
        p = make_params()
        state = init_taps(build_delay_profile(p), RngStream(4), batch=200_000)
        stepped = step_taps(state, 0.0, RngStream(5))
        prof = state.profile
        rho = np.abs(np.mean(stepped.amps[:, 0] * state.amps[:, 0].conj())) / prof[0]
        assert rho < 0.01
        assert np.mean(np.abs(stepped.amps[:, 0]) ** 2) == pytest.approx(prof[0], rel=0.02)

    def test_step_lag_one_correlation(self):
        # Across a large batch of single steps, E[A[k] A[k-1]^*] = a P.
        p = make_params(a=0.9)
        state = init_taps(build_delay_profile(p), RngStream(6), batch=200_000)
        stepped = step_taps(state, p.a, RngStream(7))
        rho = np.real(np.mean(stepped.amps[:, 0] * state.amps[:, 0].conj())) / state.profile[0]
        assert rho == pytest.approx(0.9, abs=0.01)

    def test_stationarity_after_many_steps(self):
        p = make_params(a=0.8)
        rng = RngStream(8)
        state = init_taps(build_delay_profile(p), rng, batch=100_000)
        for _ in range(10):
            state = step_taps(state, p.a, rng)
        var = np.mean(np.abs(state.amps) ** 2, axis=0)
        assert np.allclose(var, state.profile, rtol=0.02)

    def test_uncorrelated_scattering(self):
        p = make_params()
        state = init_taps(build_delay_profile(p), RngStream(10), batch=200_000)
        c01 = np.mean(state.amps[:, 0] * state.amps[:, 1].conj())
        norm = math.sqrt(state.profile[0] * state.profile[1])
        assert np.abs(c01) / norm < 0.01


class TestTapsToFrequency:
    def test_single_tap_flat(self):
        p = make_params(Bc=math.inf)
        state = init_taps(build_delay_profile(p), RngStream(11), batch=1)
        eps = taps_to_frequency(state, p)[0]
        assert np.allclose(eps, state.amps[0, 0])

    def test_one_tap_line_is_every_tone(self):
        # Every tone of a one-tap line is the tap itself, bit for bit, even at
        # a prime M = 1021 where Bluestein's FFT would round it.
        p = make_params(M=1021, Bc=math.inf)
        state = init_taps(build_delay_profile(p), RngStream(11), batch=3)
        eps = taps_to_frequency(state, p)
        assert eps.shape == (3, p.M)
        assert np.array_equal(eps, np.broadcast_to(state.amps, eps.shape))

    def test_zero_amps(self):
        p = make_params()
        eps = taps_to_frequency(build_delay_profile(p), p)
        assert np.all(eps == 0)

    def test_against_double_loop_oracle(self):
        p = make_params(M=16)
        gen = RngStream(12).generator
        n_taps = 8
        amps = gen.standard_normal(n_taps) + 1j * gen.standard_normal(n_taps)
        state = build_delay_profile(p)
        state = type(state)(amps=amps, profile=np.ones(n_taps))
        eps = taps_to_frequency(state, p)
        expected = np.zeros(p.M, dtype=complex)
        for m in range(1, p.M + 1):
            f_m = p.f0 - p.W / 2 + m * p.delta_f
            for l in range(n_taps):
                expected[m - 1] += amps[l] * np.exp(-2j * np.pi * f_m * l / p.W)
        assert np.abs(eps - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("Bc", [math.inf, 0.0])  # L = 1 and L = M taps
    def test_fft_matches_long_double_dft(self, Bc):
        # The tones are an FFT of the taps phased to the first tone, which
        # reorders a DFT's sums: each tone stays within 2 log2(M) ulp(1)
        # times the sum of the amplitudes' magnitudes of a long double DFT
        # of the same phased taps.  M = 1021 is prime: Bluestein's FFT.
        pi = 4 * np.arctan(np.longdouble(1))
        for M in (1, 2, 7, 16, 97, 256, 1021):
            p = make_params(M=M, Bc=Bc)
            profile = build_delay_profile(p).profile
            gen = RngStream(26).generator
            amps = gen.standard_normal((10, len(profile))) + 1j * gen.standard_normal((10, len(profile)))
            taps = np.arange(len(profile))
            phased = amps * np.exp(-2j * np.pi * np.mod(p.tones[0] / p.W * taps, 1.0))
            turns = np.outer(taps, np.arange(M)) % M / np.longdouble(M)
            want = phased.astype(np.clongdouble) @ np.exp(np.clongdouble(-2j) * pi * turns)
            got = taps_to_frequency(TapState(amps=amps, profile=profile), p)
            bound = 2 * max(1.0, math.log2(M)) * 2.0**-52 * np.abs(amps).sum(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound), M

    def test_unfolded_line_is_refused(self):
        p = make_params(M=4)
        with pytest.raises(ValueError, match="5 taps on 4 tones"):
            taps_to_frequency(TapState(amps=np.ones(5, dtype=complex), profile=np.ones(5)), p)


class TestSampleResponse:
    def test_noiseless_static_equals_fixed(self):
        # Without variation or noise the random part is exactly zero, so a
        # probe is its fixed response.
        p = make_params(sigma_T=0.0, sigma_N2=0.0)
        resp = sample_response(build_delay_profile(p), p, RngStream(13))
        assert resp.shape == (p.M,) and np.all(resp == 0)

    def test_noise_moment(self):
        p = make_params(sigma_T=0.0, sigma_N2=0.3, M=2)
        state = init_taps(build_delay_profile(p), RngStream(14), batch=500_000)
        resp = sample_response(state, p, RngStream(15))
        var = np.mean(np.abs(resp) ** 2, axis=0)
        assert np.allclose(var, p.sigma_N2, rtol=0.01)

    def test_total_variance(self):
        p = make_params(sigma_T=0.7, sigma_N2=0.2)
        state = init_taps(build_delay_profile(p), RngStream(16), batch=100_000)
        resp = sample_response(state, p, RngStream(17))
        var = np.mean(np.abs(resp) ** 2, axis=0)
        assert np.allclose(var, p.sigma_T**2 + p.sigma_N2, rtol=0.02)


class TestEveVariation:
    """The spoofer's variation of the both-hypotheses Monte Carlo in _oracles."""

    def test_fully_correlated_shares_state(self):
        p = make_params(spatial_mode=SpatialMode.FULLY_CORRELATED)
        state = init_taps(build_delay_profile(p), RngStream(19), batch=1)
        eve = eve_variation(state, RngStream(20), p)
        assert eve is state
        assert np.array_equal(taps_to_frequency(eve, p), taps_to_frequency(state, p))

    def test_independent_uncorrelated(self):
        p = make_params()
        state = init_taps(build_delay_profile(p), RngStream(21), batch=100_000)
        eve = eve_variation(state, RngStream(22), p)
        eps_a = taps_to_frequency(state, p)[:, 0]
        eps_e = taps_to_frequency(eve, p)[:, 0]
        rho = np.abs(np.mean(eps_a * eps_e.conj())) / p.sigma_T**2
        assert rho < 0.01

    def test_independent_zero_variation(self):
        p = make_params(sigma_T=0.0)
        state = init_taps(build_delay_profile(p), RngStream(23), batch=1)
        eve = eve_variation(state, RngStream(24), p)
        assert np.all(eve.amps[0] == 0)


def test_tone_covariance_closed_form():
    """Same-probe tone covariance of the variable part matches the
    geometric-series closed form sigma_T^2 (1-E)/(1 - E e^{-j2pi(m-n)/M})
    with E = e^{-2pi Bc/W}."""
    p = make_params(M=6, Bc=2e6, sigma_T=1.3)
    rng = RngStream(25)
    state = init_taps(build_delay_profile(p), rng, batch=1_000_000)
    eps = taps_to_frequency(state, p)
    emp = eps.T @ eps.conj() / eps.shape[0]
    e = math.exp(-2 * math.pi * p.Bc / p.W)
    lags = np.arange(p.M)
    row = p.sigma_T**2 * (1 - e) / (1 - e * np.exp(-2j * np.pi * lags / p.M))
    expected = np.empty((p.M, p.M), dtype=complex)
    for m in range(p.M):
        for n in range(p.M):
            expected[m, n] = row[m - n] if m >= n else row[n - m].conjugate()
    rel = np.linalg.norm(emp - expected) / np.linalg.norm(expected)
    assert rel < 0.05

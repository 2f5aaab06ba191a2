"""End-to-end acceptance suite.

Each test states its tolerance inline and prints a one-line summary so the
suite doubles as a quantitative report.  Target wall time for the full file
is well under 25 minutes; individual budgets are noted per test.
"""

import math

import numpy as np
import pytest

from chanauth.channel import ChannelParams
from chanauth.cli import EXIT_OK, run as cli_run
from chanauth.detect import (
    Regime,
    TestConfig,
    miss_rate_full_spatial,
    miss_rate_low_bc,
    miss_rate_time_invariant,
)
from chanauth.harness import (
    LinkBudget,
    SweepAxis,
    noise_variance,
    room_sweep,
    simulate_error_rates,
)
from chanauth.numerics import (
    RngStream,
    chi2_cdf,
    chi2_inv,
    cholesky,
    half_whiten,
    noncentral_chi2_cdf,
    sample_complex_gaussian,
)
from chanauth.raytrace import GridSpec, RoomScene, RoomTrace, response_matrix

import _oracles
from _oracles import dense_covariance_G, dense_covariance_R, empirical_difference_covariances, relative_frobenius

TestConfig.__test__ = False

SCENE = RoomScene()
GRID = GridSpec(origin=(1.5, 1.5), spacing=0.2, counts=(16, 16), height=1.0)
BOB = (8.0, 6.0, 2.0)
ALPHA = 0.01


def combined_se(se_a: float, se_b: float) -> float:
    return math.hypot(se_a, se_b)


def test_criterion_1_size_calibration():
    """False-alarm rate within [0.007, 0.013] over 1e5 trials for 12
    parameter combinations (M x B_c x b_T grid).  Budget: 2 min."""
    budget = LinkBudget(P_T=10.0)
    results = []
    for M in (5, 10):
        for Bc in (0.0, 2e6, math.inf):
            for b_T in (0.0, 0.5):
                base = ChannelParams(f0=5e9, W=1e7, M=M, a=0.9, Bc=Bc, sigma_T=0.0, sigma_N2=1.0)
                gain = RoomTrace(SCENE, GRID, BOB).rms_gain(base)
                params = ChannelParams(
                    f0=5e9,
                    W=1e7,
                    M=M,
                    a=0.9,
                    Bc=Bc,
                    sigma_T=b_T * gain,
                    sigma_N2=noise_variance(budget, M),
                )
                cfg = TestConfig(alpha=ALPHA, regime=Regime.GENERAL)
                rates = simulate_error_rates(params, cfg, trials=100_000, rng=RngStream(1000 + M, int(b_T * 2)))
                results.append((M, Bc, b_T, rates.alpha_hat))
                assert 0.007 <= rates.alpha_hat <= 0.013, (M, Bc, b_T, rates.alpha_hat)
    worst = max(results, key=lambda r: abs(r[3] - ALPHA))
    print(f"criterion 1 PASS: 12/12 combos in [0.007, 0.013]; worst alpha_hat={worst[3]:.4f} at {worst[:3]}")


def test_criterion_2_difference_covariance_oracle():
    """Empirical covariances of the one-step difference vectors match the
    analytic R and G within 5% relative Frobenius error at 1e6 snapshots,
    for 5 randomized parameter sets.  Budget: 3 min."""
    rng = np.random.default_rng(42)
    for trial in range(5):
        M = int(rng.integers(3, 9))
        params = ChannelParams(
            f0=5e9,
            W=1e7,
            M=M,
            a=float(rng.uniform(0.5, 0.98)),
            Bc=float(rng.uniform(0.05, 0.5)) * 1e7,
            sigma_T=float(rng.uniform(0.5, 2.0)),
            sigma_N2=float(rng.uniform(0.05, 0.5)),
        )
        emp_R, emp_G = empirical_difference_covariances(params, 1_000_000, RngStream(900 + trial))
        err_R = relative_frobenius(emp_R, dense_covariance_R(params))
        err_G = relative_frobenius(emp_G, dense_covariance_G(params))
        assert err_R < 0.05, (trial, err_R)
        assert err_G < 0.05, (trial, err_G)
        print(f"criterion 2 set {trial}: M={M} frobenius R={err_R:.3f} G={err_G:.3f} (< 0.05)")
    print("criterion 2 PASS: 5/5 sets within 5% relative Frobenius error")


def test_criterion_3_closed_form_vs_simulation():
    """Closed-form miss rate agrees with full simulation within +/-0.01
    absolute at 1e5 trials when B_c/W <= 1e-3, for 5 parameter sets.
    Budget: 2 min."""
    cases = [
        dict(M=5, a=0.9, b_T=0.2, P_T=100.0, eve=(2.6, 2.2, 1.0)),
        dict(M=5, a=0.8, b_T=0.5, P_T=10.0, eve=(3.0, 3.0, 1.0)),
        dict(M=10, a=0.9, b_T=0.1, P_T=100.0, eve=(2.2, 2.4, 1.0)),
        dict(M=3, a=0.95, b_T=0.3, P_T=50.0, eve=(4.0, 2.0, 1.0)),
        dict(M=8, a=0.7, b_T=0.05, P_T=1000.0, eve=(2.4, 2.0, 1.0)),
    ]
    alice = (2.0, 2.0, 1.0)
    for i, case in enumerate(cases):
        base = ChannelParams(f0=5e9, W=1e7, M=case["M"], a=case["a"], Bc=1e4, sigma_T=0.0, sigma_N2=1.0)
        gain = RoomTrace(SCENE, GRID, BOB).rms_gain(base)
        params = ChannelParams(
            f0=5e9,
            W=1e7,
            M=case["M"],
            a=case["a"],
            Bc=1e4,
            sigma_T=case["b_T"] * gain,
            sigma_N2=noise_variance(LinkBudget(P_T=case["P_T"]), case["M"]),
        )
        ha, he = response_matrix(SCENE, [alice, case["eve"]], BOB, params)
        closed = miss_rate_low_bc(ALPHA, params, ha, he)
        cfg = TestConfig(alpha=ALPHA, regime=Regime.GENERAL)
        rates = _oracles.simulate_error_rates(
            ha, he, params, cfg, trials=100_000, rng=RngStream(1100 + i), include_h0=False
        )
        assert abs(rates.beta_hat - closed) < 0.01, (i, closed, rates.beta_hat)
        print(f"criterion 3 set {i}: closed={closed:.4f} simulated={rates.beta_hat:.4f} (|diff| < 0.01)")
    print("criterion 3 PASS: 5/5 sets within 0.01 absolute")


def test_criterion_4_reduction_identities():
    """Exact (1e-12) collapses between the closed forms and their limits."""
    params = ChannelParams(f0=5e9, W=1e7, M=6, a=0.9, Bc=1e4, sigma_T=0.0, sigma_N2=3e-11)
    rng = np.random.default_rng(7)
    ha = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 1e-5
    he = ha + (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 3e-6

    low = miss_rate_low_bc(ALPHA, params, ha, he)
    bench = miss_rate_time_invariant(ALPHA, params.sigma_N2, ha, he, params.M)
    full = miss_rate_full_spatial(ALPHA, params, ha, he, dense_covariance_R(params))
    assert abs(low - bench) < 1e-12
    assert abs(full - bench) < 1e-12

    for x, k in ((0.5, 2), (9.21034, 2), (37.5662, 20)):
        assert abs(noncentral_chi2_cdf(x, k, 0.0) - chi2_cdf(x, k)) < 1e-12

    frozen = ChannelParams(f0=5e9, W=1e7, M=6, a=1.0, Bc=1e4, sigma_T=2.0, sigma_N2=0.5)
    R = dense_covariance_R(frozen)
    assert np.max(np.abs(R - 2.0 * frozen.sigma_N2 * np.eye(6))) < 1e-12
    print("criterion 4 PASS: all reduction identities hold to 1e-12")


def test_criterion_5_variation_strength_trend():
    """Room-averaged miss rate falls as the variation index b_T rises from
    0.01 to 1, with >= 3 standard-error separation, at 2000 pairs.
    Budget: 5 min."""
    res = room_sweep(
        trace=RoomTrace(SCENE, GRID, BOB),
        budget=LinkBudget(P_T=100.0),
        base_params=ChannelParams(f0=5e9, W=1e7, M=10, a=0.9, Bc=0.0, sigma_T=0.0, sigma_N2=0.0),
        cfg=TestConfig(alpha=ALPHA, regime=Regime.GENERAL),
        sweep_param=SweepAxis.B_T,
        sweep_values=[0.01, 1.0],
        b_T=0.5,
        pair_budget=2000,
        rng=RngStream(500),
    )
    lo, hi = res.beta_bar[1], res.beta_bar[0]
    se = combined_se(res.std_err[0], res.std_err[1])
    assert hi - lo >= 3.0 * se, (hi, lo, se)
    print(
        f"criterion 5 PASS: beta_bar(b_T=0.01)={hi:.5f} > beta_bar(b_T=1)={lo:.2e}, "
        f"separation {(hi - lo) / se:.1f} SE (>= 3)"
    )


def test_criterion_6_bandwidth_trend_and_bracketing():
    """At B_c = 2 MHz the room-averaged miss rate is nonincreasing in W over
    {5, 10, 20, 50, 100} MHz, and at every W it is bracketed below by the
    B_c = 0 curve and above by the B_c = inf curve.  All comparisons allow
    3 combined standard errors of slack.  Budget: 5 min."""
    widths = [5e6, 1e7, 2e7, 5e7, 1e8]

    def sweep(Bc):
        return room_sweep(
            trace=RoomTrace(SCENE, GRID, BOB),
            budget=LinkBudget(P_T=10.0),
            base_params=ChannelParams(f0=5e9, W=1e7, M=5, a=0.9, Bc=Bc, sigma_T=0.0, sigma_N2=0.0),
            cfg=TestConfig(alpha=ALPHA, regime=Regime.GENERAL),
            sweep_param=SweepAxis.W,
            sweep_values=widths,
            b_T=0.5,
            pair_budget=200,
            rng=RngStream(600),
        )

    mid, low, high = sweep(2e6), sweep(0.0), sweep(math.inf)

    for i in range(len(widths) - 1):
        slack = 3.0 * combined_se(mid.std_err[i], mid.std_err[i + 1])
        assert mid.beta_bar[i + 1] <= mid.beta_bar[i] + slack, (widths[i], mid.beta_bar)
    for i, W in enumerate(widths):
        slack_lo = 3.0 * combined_se(low.std_err[i], mid.std_err[i])
        slack_hi = 3.0 * combined_se(mid.std_err[i], high.std_err[i])
        assert low.beta_bar[i] <= mid.beta_bar[i] + slack_lo, (W, low.beta_bar[i], mid.beta_bar[i])
        assert mid.beta_bar[i] <= high.beta_bar[i] + slack_hi, (W, mid.beta_bar[i], high.beta_bar[i])
    curve = " ".join(f"{b:.4f}" for b in mid.beta_bar)
    print(f"criterion 6 PASS: beta_bar(W) at B_c=2MHz nonincreasing [{curve}] and bracketed at every W")


def test_criterion_7_spatial_correlation_trend():
    """Fully correlated spoofer variation yields a higher room-averaged miss
    rate than independent variation, with >= 3 standard-error separation.
    Budget: 5 min."""
    res = room_sweep(
        trace=RoomTrace(SCENE, GRID, BOB),
        budget=LinkBudget(P_T=100.0),
        base_params=ChannelParams(f0=5e9, W=1e7, M=10, a=0.9, Bc=2e6, sigma_T=0.0, sigma_N2=0.0),
        cfg=TestConfig(alpha=ALPHA, regime=Regime.GENERAL),
        sweep_param=SweepAxis.SPATIAL_MODE,
        sweep_values=["independent", "fully_correlated"],
        b_T=0.5,
        pair_budget=300,
        rng=RngStream(700),
    )
    indep, full = res.beta_bar
    se = combined_se(*res.std_err)
    assert full - indep >= 3.0 * se, (indep, full, se)
    print(
        f"criterion 7 PASS: beta_bar(fully_correlated)={full:.4f} >= beta_bar(independent)={indep:.4f}, "
        f"separation {(full - indep) / se:.1f} SE (>= 3)"
    )


def test_criterion_8_numerics_suite():
    """Round-trip quantiles at 1e-9, noncentral CDF vs Monte Carlo at 2e-3,
    Cholesky reconstruction at 1e-10, whitened covariance 2I within 5%.
    Budget: 1 min."""
    for k in (2, 10, 20):
        for p in (0.01, 0.5, 0.99):
            assert abs(chi2_cdf(chi2_inv(p, k), k) - p) < 1e-9

    x, k, mu = 37.5662, 20, 50.0
    gen = np.random.default_rng(11)
    hits = 0
    n = 10_000_000
    for _ in range(10):
        z = gen.standard_normal((n // 10, k), dtype=np.float32)
        z[:, 0] += np.float32(math.sqrt(mu))
        hits += int(np.count_nonzero(np.sum(z * z, axis=1) <= x))
    assert abs(noncentral_chi2_cdf(x, k, mu) - hits / n) < 2e-3

    gen = np.random.default_rng(12)
    A = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
    R = A.conj().T @ A + 6 * np.eye(6)
    chol = cholesky(R)
    assert np.max(np.abs(chol.conj().T @ chol - R)) < 1e-10 * np.abs(R).max()

    w = sample_complex_gaussian(RngStream(13), 1.0, size=(100_000, 6))
    z = half_whiten(chol, w @ chol.conj())
    cov = z.T @ z.conj() / len(z)
    assert np.max(np.abs(cov - 2.0 * np.eye(6))) < 0.05 * 2.0
    print("criterion 8 PASS: quantile round-trip 1e-9, noncentral-vs-MC 2e-3, Cholesky 1e-10, whitening 5%")


def test_criterion_9_run_determinism(tmp_path):
    """An example config run twice with the same seed and different thread
    counts emits byte-identical CSV files."""
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_run("configs/fig3.cfg", out1, seed=21, threads=1) == EXIT_OK
    assert cli_run("configs/fig3.cfg", out2, seed=21, threads=8) == EXIT_OK
    for name in ("sweep.csv", "calibration.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print("criterion 9 PASS: sweep.csv and calibration.csv byte-identical across repeated seeded runs")

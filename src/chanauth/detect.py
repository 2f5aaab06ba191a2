"""Hypothesis tests deciding whether the current transmitter is the stored one.

The receiver compares the freshly probed response against its stored
reference.  Under the null hypothesis (same transmitter) the whitened
difference statistic is chi-square with 2M degrees of freedom, which fixes
the threshold for a target false-alarm rate.  The closed-form miss rates
here cover the regimes that admit one; harness.miss_rates evaluates every
regime exactly, and the Monte Carlo evaluator here cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.fft  # every run transforms through it (here and in harness); numpy would otherwise load it on first use

from . import channel
from .channel import ChannelParams
from .numerics import HermitianMatrix, RngStream, block_rows, chi2_cdf, chi2_inv, noncentral_chi2_cdf


class Regime(Enum):
    GENERAL_KNOWN_PARAMS = "general"
    LOW_BC_CLOSED_FORM = "low_bc"
    HIGH_BC_NUMERICAL = "high_bc"
    UNKNOWN_PARAMS = "unknown"
    FULL_SPATIAL_CORRELATION = "full_spatial"
    TIME_INVARIANT_BENCHMARK = "time_invariant"


class Decision(Enum):
    ACCEPT_H0 = "accept"
    REJECT_H0 = "reject"


@dataclass(frozen=True)
class TestConfig:
    alpha: float
    regime: Regime = Regime.GENERAL_KNOWN_PARAMS
    threshold_override: float | None = None

    def __post_init__(self):
        if self.threshold_override is None and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1) unless threshold_override is set")
        if self.threshold_override is not None and not self.threshold_override >= 0:
            raise ValueError("threshold_override must be nonnegative")


@dataclass(frozen=True)
class TestOutcome:
    Z: float
    threshold: float
    decision: Decision


def statistic_general(h_now, h_ref, R: HermitianMatrix) -> float:
    """Whitened-difference statistic Z = 2 d^H R^-1 d, d = h_now - h_ref.

    Computed as |sqrt(2) (R_d^H)^-1 d|^2 via a triangular solve.  Under the
    null hypothesis with the correct R this is chi-square with 2M dof.
    """
    d = np.asarray(h_now, dtype=complex) - np.asarray(h_ref, dtype=complex)
    if d.shape[-1] != R.dim:
        raise ValueError(f"difference length {d.shape[-1]} does not match R dim {R.dim}")
    z = R.half_whiten(d)
    return float(np.real(np.vdot(z, z)))


def statistic_batch(diffs: np.ndarray, r_hat: np.ndarray) -> np.ndarray:
    """statistic_general over difference rows of shape (n, M) for a circulant R.

    R is given by its spectrum r_hat (stats.covariance_R), so the whitening
    is diagonal in DFT coordinates: Z = 2M sum |ifft(d)|^2 / r_hat.  The
    rows go a block at a time (numerics.block_rows), so the transforms'
    scratch stays small however many rows are scored.
    """
    diffs = np.asarray(diffs)
    rows = diffs.reshape(-1, diffs.shape[-1])
    out = np.empty(len(rows))
    step = block_rows(rows.shape[1])
    for i in range(0, len(rows), step):
        z = np.fft.ifft(rows[i : i + step], axis=-1)
        out[i : i + len(z)] = np.sum(np.abs(z) ** 2 / r_hat, axis=-1)
    out *= 2.0 * len(r_hat)
    return out.reshape(diffs.shape[:-1])[()]


def threshold_for(cfg: TestConfig, M: int) -> float:
    """Decision threshold: the (1-alpha) chi-square(2M) quantile, or an override."""
    if cfg.threshold_override is not None:
        return float(cfg.threshold_override)
    return chi2_inv(1.0 - cfg.alpha, 2 * M)


def decide(Z: float, cfg: TestConfig, M: int) -> TestOutcome:
    """Accept the stored-transmitter hypothesis iff Z <= threshold.

    Rejection is strict (Z > threshold); equality accepts, fixing the
    measure-zero boundary deterministically.
    """
    t = threshold_for(cfg, M)
    decision = Decision.REJECT_H0 if Z > t else Decision.ACCEPT_H0
    return TestOutcome(Z=float(Z), threshold=t, decision=decision)


def calibrate_threshold(h0_statistics: np.ndarray, alpha: float) -> float:
    """Empirical (1-alpha) quantile of null-hypothesis statistics.

    A pragmatic threshold rule for the unknown-parameters test, which has
    no tractable null distribution; feed it a training window of statistics
    observed while the legitimate transmitter is known to be present.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return float(np.quantile(np.asarray(h0_statistics, dtype=float), 1.0 - alpha))


def _fixed_gap_energy(hbar_A, hbar_E) -> float:
    d = np.asarray(hbar_E, dtype=complex) - np.asarray(hbar_A, dtype=complex)
    return float(np.real(np.sum(np.abs(d) ** 2)))


def miss_rate_low_bc(alpha: float, params: ChannelParams, hbar_A, hbar_E) -> float:
    """Closed-form miss rate in the tone-independent (Bc/W << 1) regime.

    beta = F_{chi2(2M, mu)}(rho * F^-1_{chi2(2M)}(1 - alpha)) with
    rho = ((1-a) sigma_T^2 + sigma_N^2) / (sigma_T^2 + sigma_N^2) and
    mu = |hbar_E - hbar_A|^2 / (sigma_T^2 + sigma_N^2).
    """
    total_var = params.sigma_T**2 + params.sigma_N2
    rho = ((1.0 - params.a) * params.sigma_T**2 + params.sigma_N2) / total_var
    mu = _fixed_gap_energy(hbar_A, hbar_E) / total_var
    t = chi2_inv(1.0 - alpha, 2 * params.M)
    return float(noncentral_chi2_cdf(rho * t, 2 * params.M, mu))


def miss_rate_time_invariant(alpha: float, sigma_N2: float, hbar_A, hbar_E, M: int) -> float:
    """Benchmark miss rate for a frozen channel (no time variation).

    beta = F_{chi2(2M, mu)}(F^-1_{chi2(2M)}(1 - alpha)) with
    mu = |hbar_E - hbar_A|^2 / sigma_N^2.
    """
    if sigma_N2 <= 0:
        raise ValueError("sigma_N2 must be positive")
    mu = _fixed_gap_energy(hbar_A, hbar_E) / sigma_N2
    t = chi2_inv(1.0 - alpha, 2 * M)
    return float(noncentral_chi2_cdf(t, 2 * M, mu))


def miss_rate_full_spatial(alpha: float, params: ChannelParams, hbar_A, hbar_E, R: HermitianMatrix) -> float:
    """Closed-form miss rate when the spoofer shares the variation exactly.

    The shared variable part cancels in the difference, so the alternative
    is noncentral chi-square with mu = |sqrt(2) (R_d^H)^-1 (hbar_E - hbar_A)|^2
    against the unscaled chi-square threshold.
    """
    d = np.asarray(hbar_E, dtype=complex) - np.asarray(hbar_A, dtype=complex)
    w = R.factored().half_whiten(d)
    mu = float(np.real(np.vdot(w, w)))
    t = chi2_inv(1.0 - alpha, 2 * params.M)
    return float(noncentral_chi2_cdf(t, 2 * params.M, mu))


def miss_rate_large_variation(alpha: float, a: float, M: int) -> float:
    """Limit miss rate when the variation dwarfs both noise and fixed gap.

    beta ~= F_{chi2(2M)}((1-a) F^-1_{chi2(2M)}(1 - alpha)); depends only on
    the temporal correlation, the tone count, and the false-alarm rate.
    """
    if a == 1.0:
        return 0.0
    t = chi2_inv(1.0 - alpha, 2 * M)
    return float(chi2_cdf((1.0 - a) * t, 2 * M))


def miss_rate_general_numerical(
    alpha: float,
    params: ChannelParams,
    hbar_A,
    hbar_E,
    R: HermitianMatrix,
    G: HermitianMatrix,
    trials: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo miss rate for arbitrary covariance structure.

    Samples the cross-difference directly as CN(hbar_E - hbar_A, G), scores
    it with the R-whitened statistic, and returns the acceptance fraction
    (Z <= t) with its binomial standard error.  Equivalent to, and much
    faster than, simulating full probe time series.  Sweeps use the exact
    harness.miss_rates; this stays as an independent cross-check.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    delta = np.asarray(hbar_E, dtype=complex) - np.asarray(hbar_A, dtype=complex)
    m = params.M
    g = G.factored()
    gen = rng.generator
    w = (gen.standard_normal((trials, m)) + 1j * gen.standard_normal((trials, m))) / math.sqrt(2.0)
    diffs = delta + g.sample_offset(w)
    z = np.sum(np.abs(R.factored().half_whiten(diffs)) ** 2, axis=-1)  # dense, so it cross-checks the spectral path
    t = chi2_inv(1.0 - alpha, 2 * m)
    beta = float(np.mean(z <= t))  # accept on Z <= t, as decide() does
    se = math.sqrt(max(beta * (1.0 - beta), 1.0 / trials) / trials)
    return beta, se


def roc_unknown_params(
    params: ChannelParams,
    hbar_A,
    hbar_E,
    thresholds,
    trials: int,
    rng: RngStream,
) -> list[tuple[float, float]]:
    """Empirical (alpha, beta) pairs for the parameter-free statistic |d|^2 / sigma_N^2.

    Both hypotheses' sample paths go through the full channel generator,
    and every threshold is scored against the same paths, so the returned
    staircase is exactly monotone: alpha nonincreasing and beta
    nondecreasing in the threshold.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("thresholds must be nonempty")
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be ascending")
    if params.sigma_N2 <= 0:
        raise ValueError("the unknown-parameters statistic needs sigma_N2 > 0")

    state = channel.build_delay_profile(params)
    state = channel.init_taps(state, rng, batch=trials)
    ref = channel.sample_response(hbar_A, state, params, rng)
    state = channel.step_taps(state, params.a, rng)
    probe_alice = channel.sample_response(hbar_A, state, params, rng)
    eve_state = channel.eve_variation(state, channel.SpatialMode.INDEPENDENT, rng, params)
    probe_eve = channel.sample_response(hbar_E, eve_state, params, rng)

    noise = np.full(params.M, 2.0 * params.sigma_N2)  # whitening by the noise alone: |d|^2 / sigma_N^2
    z0 = statistic_batch(probe_alice - ref, noise)
    z1 = statistic_batch(probe_eve - ref, noise)
    return [(float(np.mean(z0 > t)), float(np.mean(z1 <= t))) for t in thresholds]

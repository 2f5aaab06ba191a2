"""The detector: the whitened-difference statistic and its threshold.

The receiver compares the freshly probed response against its stored
reference and accepts the stored transmitter iff Z <= t.  Under the null
hypothesis (same transmitter) the whitened difference statistic is
chi-square with 2M degrees of freedom, which fixes the threshold for a
target false-alarm rate.  harness.miss_rates evaluates every channel's miss
rate exactly; the closed forms here (for the channels that admit one) and
the Monte Carlo evaluator are the references it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.fft  # every run transforms through it (here and in harness); numpy would otherwise load it on first use

from .channel import ChannelParams
from .numerics import RngStream, chi2_cdf, chi2_inv, cholesky, half_whiten, noncentral_chi2_cdf


class Regime(Enum):
    """The detector: whitening by the channel's R, or by the noise alone (|d|^2 / sigma_N^2)."""

    GENERAL = "general"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TestConfig:
    alpha: float
    regime: Regime = Regime.GENERAL
    threshold_override: float | None = None

    def __post_init__(self):
        if self.threshold_override is None and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1) unless threshold_override is set")
        if self.threshold_override is not None and not self.threshold_override >= 0:
            raise ValueError("threshold_override must be nonnegative")


def statistic_batch(diffs: np.ndarray, r_hat: np.ndarray) -> np.ndarray:
    """Whitened-difference statistic Z = 2 d^H R^-1 d for rows d of shape (n, M), R circulant.

    R is given by its spectrum r_hat (stats.covariance_R), so the whitening
    is diagonal in DFT coordinates: Z = 2M sum |ifft(d)|^2 / r_hat.
    """
    z = np.fft.ifft(diffs, axis=-1)
    return 2.0 * len(r_hat) * np.sum(np.abs(z) ** 2 / r_hat, axis=-1)


def threshold_for(cfg: TestConfig, M: int) -> float:
    """Decision threshold: the (1-alpha) chi-square(2M) quantile, or an override."""
    if cfg.threshold_override is not None:
        return float(cfg.threshold_override)
    return chi2_inv(1.0 - cfg.alpha, 2 * M)


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


def miss_rate_full_spatial(alpha: float, params: ChannelParams, hbar_A, hbar_E, R) -> float:
    """Closed-form miss rate when the spoofer shares the variation exactly.

    The shared variable part cancels in the difference, so the alternative
    is noncentral chi-square with mu = |sqrt(2) (R_d^H)^-1 (hbar_E - hbar_A)|^2
    against the unscaled chi-square threshold; R_d is the Cholesky factor
    of the dense covariance R.
    """
    d = np.asarray(hbar_E, dtype=complex) - np.asarray(hbar_A, dtype=complex)
    w = half_whiten(cholesky(R), d)
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
    R,
    G,
    trials: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo miss rate for arbitrary covariance structure.

    R and G are dense M x M covariances.  Samples the cross-difference
    directly as CN(hbar_E - hbar_A, G), scores it with the R-whitened
    statistic, and returns the acceptance fraction (Z <= t) with its
    binomial standard error.  Equivalent to, and much faster than,
    simulating full probe time series.  Sweeps use the exact
    harness.miss_rates; this stays as an independent cross-check.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    delta = np.asarray(hbar_E, dtype=complex) - np.asarray(hbar_A, dtype=complex)
    m = params.M
    gen = rng.generator
    w = (gen.standard_normal((trials, m)) + 1j * gen.standard_normal((trials, m))) / math.sqrt(2.0)
    diffs = delta + w @ cholesky(G).conj()  # w ~ CN(0, I) mapped to CN(0, G)
    z = np.sum(np.abs(half_whiten(cholesky(R), diffs)) ** 2, axis=-1)  # dense, so it cross-checks the spectral path
    t = chi2_inv(1.0 - alpha, 2 * m)
    beta = float(np.mean(z <= t))  # accept on Z <= t, as the sweeps do
    se = math.sqrt(max(beta * (1.0 - beta), 1.0 / trials) / trials)
    return beta, se

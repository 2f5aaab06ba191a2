"""Experiment protocol: grids of transmitter pairs, miss-rate sweeps, and
the empirical size of the test.

For each candidate spoofer/legitimate position pair the ray tracer supplies
the fixed responses and the link budget sets the noise floor.  A detector
on a channel is a triple (r_hat, g_hat, t) of covariance spectra and a
threshold (regime_forms), under which the score is a generalized
chi-square, so miss rates are exact: one inverse FFT and one batched
evaluation per sweep value cover all pairs (miss_rates).  Room-level
sweeps average the per-pair miss rates over a seeded subsample of position
pairs.  Only the calibration (simulate_error_rates), which simulates the
generator under H0 and so checks the test's size, is Monte Carlo, and
``run.trials`` sets its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import channel as chan
from . import detect, raytrace, stats
from .channel import ChannelParams, SpatialMode
from .detect import Regime, TestConfig
from .numerics import _WORK_BUDGET, NotPositiveDefiniteError, RngStream, generalized_chi2_cdf

BOLTZMANN_NOISE_DENSITY = 10.0 ** (-17.4)  # thermal noise density kT in mW/Hz

# Elements (trials x M) in one block of simulate_error_rates; bounds its
# memory.  The block size also fixes the order of the draws (each block
# draws its taps, then its noise), so changing it moves calibration.csv.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power and receiver noise description (milliwatts, Hz)."""

    P_T: float
    kT: float = BOLTZMANN_NOISE_DENSITY
    N_F: float = 10.0
    b: float = 0.25e6

    def __post_init__(self):
        for name in ("P_T", "kT", "N_F", "b"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class SweepResult:
    """Room-averaged miss rates along one swept parameter axis."""

    swept_param: str
    values: tuple
    beta_bar: tuple[float, ...]
    std_err: tuple[float, ...]
    pair_count: int


@dataclass(frozen=True)
class ErrorRates:
    """Empirical false-alarm rate with its binomial standard error."""

    alpha_hat: float
    alpha_se: float
    trials: int


def noise_variance(budget: LinkBudget, M: int) -> float:
    """Per-tone noise-to-signal variance M * kT * N_F * b / P_T.

    The per-tone transmit power is P_T / M, so the dimensionless noise
    variance grows linearly with the tone count.
    """
    return M * budget.kT * budget.N_F * budget.b / budget.P_T


def sigma_T_from_bT(b_T: float, room_gain: float) -> float:
    """Absolute variation scale from the relative index: sigma_T = b_T * gain."""
    if not (0 <= b_T < math.inf and 0 <= room_gain < math.inf):
        raise ValueError("b_T and room_gain must be nonnegative and finite")
    return b_T * room_gain


def regime_forms(params: ChannelParams, cfg: TestConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The configured detector on the channel ``params`` as (r_hat, g_hat, t).

    r_hat is the spectrum of the covariance the statistic whitens with,
    g_hat that of the spoofed difference H_E[k] - H_A[k-1], and t the
    acceptance threshold (see stats: both covariances are circulant).  The
    score Z = 2M sum |ifft(delta + n)|^2 / r_hat with n ~ CN(0, G) then
    fixes the miss rate for a fixed-response gap delta.  The detector sets
    r_hat (the channel's R, or the noise alone for unknown); the channel
    sets g_hat, which is R when the spoofer shares the variation.

    Raises NotPositiveDefiniteError if r_hat has a bin that is not
    positive, which takes a zero noise floor (sigma_N2 = 0).
    """
    r_true = stats.covariance_R(params)
    if cfg.regime is Regime.UNKNOWN:
        if cfg.threshold_override is None:
            raise ValueError("the unknown-parameters detector needs threshold_override")
        r = np.full(params.M, 2.0 * params.sigma_N2)
    else:
        r = r_true
    g = r_true if params.spatial_mode is SpatialMode.FULLY_CORRELATED else stats.covariance_G(params)
    if not np.all(r > 0):
        raise NotPositiveDefiniteError(f"covariance spectrum has a bin {r.min():.3e} <= 0")
    return r, g, detect.threshold_for(cfg, params.M)


def false_alarm_rate(params: ChannelParams, cfg: TestConfig) -> float:
    """Exact size P(Z > t) of the configured test when the transmitter is the stored one.

    The fixed part cancels in the self-difference, whose true spectrum is
    stats.covariance_R(params); the statistic whitens with regime_forms'
    r_hat instead, so Z is a generalized chi-square with weights
    r_true / r_hat and no offsets.  The general detector whitens with the
    true spectrum, so its size is alpha on every channel; it differs from
    alpha for the unknown detector at its override, and for any threshold
    override.
    """
    r, _, t = regime_forms(params, cfg)
    return 1.0 - float(generalized_chi2_cdf(t, stats.covariance_R(params) / r, np.zeros(params.M)))


def miss_rates(hbar_a: np.ndarray, hbar_e: np.ndarray, params: ChannelParams, cfg: TestConfig) -> np.ndarray:
    """Exact miss rates P(Z <= t) for rows of fixed-response pairs, shape (pairs, M).

    In DFT coordinates R and G are both diagonal, so Z is a generalized
    chi-square with weights g_hat / r_hat (shared by every pair) and
    offsets 2M |ifft(hbar_e - hbar_a)|^2 / r_hat: inverse FFTs of the gaps
    and one batched CDF cover all pairs.  The offsets are filled
    _WORK_BUDGET (pairs x M) elements at a time, so the gaps' complex
    temporaries stay one chunk's however many pairs there are.  Equal
    weights (general at B_c = 0, without variation, or against a spoofer
    that shares it) fall back to the closed-form noncentral chi-square.
    """
    r, g, t = regime_forms(params, cfg)
    hbar_a = np.asarray(hbar_a, dtype=complex)
    hbar_e = np.asarray(hbar_e, dtype=complex)
    offsets = np.empty(hbar_e.shape)
    step = max(1, _WORK_BUDGET // params.M)
    for start in range(0, len(offsets), step):
        rows = slice(start, start + step)
        gaps = np.fft.ifft(hbar_e[rows] - hbar_a[rows], axis=-1)
        offsets[rows] = 2.0 * params.M * np.abs(gaps) ** 2 / r
    return generalized_chi2_cdf(t, g / r, offsets)


def miss_rate_for_pair(hbar_a: np.ndarray, hbar_e: np.ndarray, params: ChannelParams, cfg: TestConfig) -> float:
    """Miss rate from precomputed fixed responses: miss_rates for one pair."""
    return float(miss_rates(np.atleast_2d(hbar_a), np.atleast_2d(hbar_e), params, cfg)[0])


def simulate_error_rates(params: ChannelParams, cfg: TestConfig, trials: int, rng: RngStream) -> ErrorRates:
    """Empirical size of the configured test: its false-alarm rate under H0.

    Every trial probes the channel at k-1 (the stored reference), steps the
    taps once, probes again at k and scores the difference with the
    configured statistic.  The fixed response cancels in that difference,
    so only the probes' random parts are drawn.  Trials run in blocks of
    _BLOCK_ELEMENTS / M, each through the plain generator stages on
    block-sized arrays, so memory stays bounded however many trials are
    asked for.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r, _, threshold = regime_forms(params, cfg)
    profile = chan.build_delay_profile(params)

    block = max(1, _BLOCK_ELEMENTS // params.M)
    false_alarms = 0
    for start in range(0, trials, block):
        state = chan.init_taps(profile, rng, batch=min(block, trials - start))
        ref = chan.sample_response(state, params, rng)
        state = chan.step_taps(state, params.a, rng)
        z = detect.statistic_batch(chan.sample_response(state, params, rng) - ref, r)
        false_alarms += int(np.count_nonzero(z > threshold))

    a_hat = false_alarms / trials
    return ErrorRates(
        alpha_hat=a_hat,
        alpha_se=math.sqrt(max(a_hat * (1 - a_hat), 1.0 / trials) / trials),
        trials=trials,
    )


class SweepAxis(Enum):
    B_T = "b_T"
    W = "W"
    M = "M"
    P_T = "P_T"
    B_C = "B_c"
    SPATIAL_MODE = "spatial_mode"


def _unrank_pairs(ranks: np.ndarray, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, at the given positions of np.triu_indices(n_points, k=1).

    Row i of that row-major listing starts at rank i (2n - i - 1) / 2, so a
    search over the n row starts replaces the n(n-1)/2 index arrays.
    """
    rows = np.arange(n_points, dtype=np.int64)
    starts = rows * (2 * n_points - rows - 1) // 2
    ii = np.searchsorted(starts, ranks, side="right") - 1
    return ii, ranks - starts[ii] + ii + 1


def _select_pairs(n_points: int, pair_budget: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform subsample of position pairs, or all of them."""
    total = n_points * (n_points - 1) // 2
    if total == 0:
        raise ValueError("the grid needs at least 2 points to form a pair")
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    if pair_budget >= total:
        return _unrank_pairs(np.arange(total), n_points)
    pick = rng.generator.choice(total, size=pair_budget, replace=False)
    pick.sort()
    return _unrank_pairs(pick, n_points)


def apply_sweep_value(
    params: ChannelParams, budget: LinkBudget, b_T: float, axis: SweepAxis, value
) -> tuple[ChannelParams, LinkBudget, float]:
    """Channel, link budget and b_T with one sweep value applied.

    Rebuilding through dataclasses.replace reruns each class's validation,
    and a b_T value is checked as sigma_T_from_bT checks it.
    """
    if axis is SweepAxis.B_T:
        b_T = float(value)
        if not 0 <= b_T < math.inf:
            raise ValueError("b_T must be nonnegative and finite")
    elif axis is SweepAxis.W:
        params = replace(params, W=float(value))
    elif axis is SweepAxis.M:
        params = replace(params, M=int(value))
    elif axis is SweepAxis.B_C:
        params = replace(params, Bc=float(value))
    elif axis is SweepAxis.P_T:
        budget = replace(budget, P_T=float(value))
    elif axis is SweepAxis.SPATIAL_MODE:
        params = replace(params, spatial_mode=SpatialMode(value))
    return params, budget, b_T


def resolve_variances(trace: raytrace.RoomTrace, params: ChannelParams, budget: LinkBudget, b_T: float) -> ChannelParams:
    """``params`` with sigma_T and sigma_N2 set for the room.

    sigma_T = b_T * rms_gain of the whole grid ``trace`` holds for the
    tones of ``params``, and sigma_N2 = noise_variance(budget, M).  Only
    b_T > 0 reads the room gain, so only then is the whole grid traced.
    The fixed responses depend on neither, so a caller asks
    ``trace.responses`` for just the rows it reads.
    """
    gain = raytrace.rms_gain(trace.responses(params)) if b_T > 0 else 0.0
    return replace(params, sigma_T=sigma_T_from_bT(b_T, gain), sigma_N2=noise_variance(budget, params.M))


def room_sweep(
    trace: raytrace.RoomTrace,
    budget: LinkBudget,
    base_params: ChannelParams,
    cfg: TestConfig,
    sweep_param: SweepAxis,
    sweep_values,
    b_T: float,
    pair_budget: int,
    rng: RngStream,
) -> SweepResult:
    """Room-averaged exact miss rate along one parameter axis.

    apply_sweep_value applies each sweep value to the channel, the link
    budget and b_T; ``base_params.sigma_T`` and ``sigma_N2`` are then
    derived per value from b_T, the room gain, and the link budget (see
    resolve_variances).  The fixed responses and the room gain come from
    ``trace``, which is told every tone set of the sweep before the first
    value is evaluated: each grid point is traced at most once in all for
    b_T, P_T, B_c and spatial_mode sweeps, once for an M sweep whose tone
    counts share a small common multiple (RoomTrace.prepare), and once per
    distinct value otherwise.  A value asks the trace for just the rows of
    its sampled pairs, so at b_T = 0 only those are traced.  The pair
    subsample is drawn once from ``rng``, so every sweep value sees the same
    pairs; each value's miss rates come from one batched miss_rates call.
    ``std_err`` is the standard error of the room average over the sampled
    pairs.  When ``pair_budget`` covers all n (n - 1) / 2 pairs the average
    is exact, and ``std_err`` is then the spread of the per-pair miss rates
    over sqrt(pairs), not a sampling error.
    """
    sweep_values = list(sweep_values)
    if not sweep_values:
        raise ValueError("sweep_values must be nonempty")

    applied = [apply_sweep_value(base_params, budget, b_T, sweep_param, value) for value in sweep_values]
    trace.prepare([params for params, _, _ in applied])
    ii, jj = _select_pairs(len(trace.positions), pair_budget, rng.substream(1))

    beta_bar, std_err = [], []
    for params, val_budget, val_b_T in applied:
        params = resolve_variances(trace, params, val_budget, val_b_T)
        pairs = trace.responses(params, np.concatenate([ii, jj]))
        betas = miss_rates(pairs[: len(ii)], pairs[len(ii) :], params, cfg)
        beta_bar.append(float(betas.mean()))
        std_err.append(float(betas.std(ddof=1) / math.sqrt(len(betas))) if len(betas) > 1 else 0.0)

    return SweepResult(
        swept_param=sweep_param.value,
        values=tuple(sweep_values),
        beta_bar=tuple(beta_bar),
        std_err=tuple(std_err),
        pair_count=len(ii),
    )

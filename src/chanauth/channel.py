"""Time-variant channel generation.

The per-tone response at probe k is the sum of a fixed location-specific
part, a zero-mean variable part produced by an AR(1) tapped delay line with
a one-sided exponential delay profile, and fresh receiver noise.  The
spoofer's variable part is either independent of the legitimate one or
bit-identical to it (the two spatial-correlation extremes).

Taps sit at l/W and tones W/M apart, so tap l reaches tone m through
e^{-j2pi f_m l/W}, which depends on l only through l mod M up to a unit
phase per tap.  The infinite exponential line therefore folds, exactly and
jointly over time, onto M independent AR(1) taps (build_delay_profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .numerics import RngStream, sample_complex_gaussian


class SpatialMode(Enum):
    """Spatial correlation of the variable part between the two transmitters."""

    INDEPENDENT = "independent"
    FULLY_CORRELATED = "fully_correlated"


@dataclass(frozen=True)
class ChannelParams:
    """Physical and statistical parameters of the channel and measurement.

    Bc may be 0 (tone-independent variation) or ``math.inf`` (a single
    tap, fully tone-correlated); the generator is exact at both.  Temporal
    correlation over one probe interval enters solely through a, and
    spatial_mode says whether the spoofer shares the variable part.
    """

    f0: float
    W: float
    M: int
    a: float
    Bc: float
    sigma_T: float
    sigma_N2: float
    spatial_mode: SpatialMode = SpatialMode.INDEPENDENT

    def __post_init__(self):
        # Comparisons are written so that NaN fails them.
        if not 0 < self.f0 < math.inf:
            raise ValueError("f0 must be positive and finite")
        if not 0 < self.W < math.inf:
            raise ValueError("W must be positive and finite")
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must lie in [0, 1]")
        if not self.Bc >= 0:
            raise ValueError("Bc must be nonnegative")
        if not 0 <= self.sigma_T < math.inf:
            raise ValueError("sigma_T must be nonnegative and finite")
        if not 0 <= self.sigma_N2 < math.inf:
            raise ValueError("sigma_N2 must be nonnegative and finite")
        if not isinstance(self.spatial_mode, SpatialMode):
            raise ValueError("spatial_mode must be a SpatialMode")

    @property
    def delta_f(self) -> float:
        """Tone spacing W/M."""
        return self.W / self.M

    @property
    def tones(self) -> np.ndarray:
        """Tone frequencies f_m = f0 - W/2 + m W/M for m = 1..M."""
        return self.f0 - self.W / 2.0 + np.arange(1, self.M + 1) * self.delta_f

    @property
    def tap_decay(self) -> float:
        """Power ratio E = e^{-2 pi Bc/W} of adjacent taps: 1 at Bc = 0, 0 at Bc = inf."""
        return math.exp(-2.0 * math.pi * self.Bc / self.W)


@dataclass(frozen=True)
class TapState:
    """Amplitudes and power profile of the folded delay line.

    ``amps`` has shape (..., L), L <= M for a folded line; leading axes
    are independent realizations.
    """

    amps: np.ndarray
    profile: np.ndarray


def build_delay_profile(params: ChannelParams) -> TapState:
    """The exponential delay line folded onto M circular taps.

    The line's tap l has power sigma_T^2 (1 - E) E^l, E = e^{-2 pi Bc/W};
    folding l onto l mod M sums each residue class, which leaves
    profile[r] = sigma_T^2 E^r / sum_{s<M} E^s for r = 0..M-1.  Its DFT is
    the exact tone covariance sigma_T^2 (1 - E)/(1 - E e^{-j2pi m/M}).
    Bc = 0 (E = 1) spreads the power evenly, so tones are independent;
    Bc = inf (E = 0) puts it all on tap 0.  Trailing taps of zero power
    (all but tap 0 at Bc = inf or sigma_T = 0) are dropped, since they
    carry nothing.
    """
    weights = params.tap_decay ** np.arange(params.M)
    profile = params.sigma_T**2 * weights / weights.sum()
    profile = profile[: max(1, np.count_nonzero(profile))]
    return TapState(amps=np.zeros_like(profile, dtype=complex), profile=profile)


def init_taps(state: TapState, rng: RngStream, batch: int | None = None) -> TapState:
    """Draw tap amplitudes from the AR(1) stationary law CN(0, profile[l]).

    Starting from stationarity means no burn-in is needed.  ``batch``
    produces shape (batch, L) for vectorized independent realizations.
    """
    size = state.profile.shape if batch is None else (batch, len(state.profile))
    return TapState(amps=sample_complex_gaussian(rng, state.profile, size=size), profile=state.profile)


def step_taps(state: TapState, a: float, rng: RngStream) -> TapState:
    """Advance every tap one probe interval: A <- a A + sqrt((1-a^2) P) u.

    Innovations u are i.i.d. CN(0, 1), so the marginal variance stays at
    the profile value.
    """
    u = sample_complex_gaussian(rng, 1.0, size=state.amps.shape)
    amps = a * state.amps + np.sqrt((1.0 - a**2) * state.profile) * u
    return replace(state, amps=amps)


def taps_to_frequency(state: TapState, params: ChannelParams) -> np.ndarray:
    """Variable part over the M tones: eps_m = sum_l A_l e^{-j2pi f_m l/W}.

    Taken as one real product of the amplitudes' (re, im) pairs with the
    2L x 2M real form of the tone phasors: after a complex product (zgemm)
    OpenBLAS leaves every later complex exp and log in the process several
    times slower.
    """
    amps = np.ascontiguousarray(state.amps, dtype=complex)
    phasors = np.exp(-2j * np.pi * np.outer(np.arange(len(state.profile)) / params.W, params.tones))
    # Rows 2l and 2l + 1: tap l's phasors and j times them, as (re, im) pairs.
    basis = np.stack([phasors, 1j * phasors], axis=1).view(float).reshape(2 * len(state.profile), 2 * params.M)
    return np.matmul(amps.view(float), basis).view(complex)


def sample_response(fixed: np.ndarray, state: TapState, params: ChannelParams, rng: RngStream) -> np.ndarray:
    """One noisy probe: fixed part + variable part + fresh CN(0, sigma_N^2) noise.

    ``fixed`` is the length-M fixed response; the probe has shape
    state.amps.shape[:-1] + (M,).  Noise is drawn anew on every call; a
    stored reference is always a noisy observation, never the clean response.
    """
    fixed = np.asarray(fixed, dtype=complex)
    if fixed.shape[-1] != params.M:
        raise ValueError(f"fixed response has length {fixed.shape[-1]}, expected M={params.M}")
    probe = taps_to_frequency(state, params)
    probe += fixed
    probe += sample_complex_gaussian(rng, params.sigma_N2, size=probe.shape)
    return probe


def eve_variation(alice_state: TapState, rng: RngStream, params: ChannelParams) -> TapState:
    """The spoofer's tap state under ``params.spatial_mode``.

    INDEPENDENT draws a fresh stationary realization with the same profile;
    FULLY_CORRELATED shares the identical amplitudes, so the two variable
    parts coincide sample-for-sample.
    """
    if params.spatial_mode is SpatialMode.FULLY_CORRELATED:
        return alice_state
    batch = None if alice_state.amps.ndim == 1 else alice_state.amps.shape[0]
    return init_taps(alice_state, rng, batch=batch)

"""Time-variant channel generation.

The per-tone response at probe k is the sum of a fixed location-specific
part, a zero-mean variable part produced by an AR(1) tapped delay line with
a one-sided exponential delay profile, and fresh receiver noise.  The
fixed part is the ray tracer's; this module draws the other two.  The
spoofer's variable part is either independent of the legitimate one or
identical to it (the two spatial-correlation extremes); ChannelParams'
spatial_mode records which, and it selects the covariance G of the
spoofed difference (stats, harness.regime_forms), since only the
legitimate transmitter is ever simulated.

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
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
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

    Tones W/M apart step tap l's phase by l/M turns, so eps is a length-M
    DFT of the taps phased to the first tone, A_l e^{-j2pi c_l}, with
    c_l = (f_1 l/W) mod 1 turns (reduced before the 2pi, so the phase stays
    exact to ulp(1)).  A one-tap line (B_c = inf or sigma_T = 0) gives every
    tone the tap itself, copied rather than rounded through an FFT.  An
    unfolded line, of more than M taps, is refused.
    """
    n_taps = state.amps.shape[-1]
    if n_taps > params.M:
        raise ValueError(f"{n_taps} taps on {params.M} tones: fold the line first")
    if n_taps == 1:
        return np.repeat(state.amps, params.M, axis=-1)
    turns = np.mod(params.tones[0] / params.W * np.arange(n_taps), 1.0)
    return np.fft.fft(state.amps * np.exp(-2j * np.pi * turns), n=params.M, axis=-1)


def sample_response(state: TapState, params: ChannelParams, rng: RngStream) -> np.ndarray:
    """A probe's random part: the variable part plus fresh CN(0, sigma_N^2) noise.

    The probe has shape state.amps.shape[:-1] + (M,); the fixed response,
    which every difference of two probes of one transmitter cancels, is
    left out.  Noise is drawn anew on every call.
    """
    probe = taps_to_frequency(state, params)
    probe += sample_complex_gaussian(rng, params.sigma_N2, size=probe.shape)
    return probe

"""Time-variant channel generation.

The per-tone response at probe k is the sum of a fixed location-specific
part, a zero-mean variable part produced by an AR(1) tapped delay line with
a one-sided exponential delay profile, and fresh receiver noise.  The
spoofer's variable part is either independent of the legitimate one or
bit-identical to it (the two spatial-correlation extremes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .numerics import RngStream, sample_complex_gaussian

#: Fraction of variable-part power allowed to fall beyond the tap truncation.
TAP_TRUNCATION = 1e-6

#: Effective coherence-bandwidth-to-bandwidth ratio used to emulate the
#: tone-independent limit (Bc = 0), which a finite delay line cannot
#: represent exactly.
BC_ZERO_EMULATION_RATIO = 1e-3


@dataclass(frozen=True)
class ChannelParams:
    """Physical and statistical parameters of the channel and measurement.

    Bc may be 0 (tone-independent variation, emulated by the generator) or
    ``math.inf`` (a single tap, fully tone-correlated).  The probe interval
    T is bookkeeping only; temporal correlation enters solely through a.
    """

    f0: float
    W: float
    M: int
    a: float
    Bc: float
    sigma_T: float
    sigma_N2: float
    T: float = 0.0

    def __post_init__(self):
        # Comparisons are written so that NaN fails them.
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

    @property
    def delta_f(self) -> float:
        """Tone spacing W/M."""
        return self.W / self.M

    @property
    def delta_tau(self) -> float:
        """Tap delay spacing 1/W (the receiver's delay resolution)."""
        return 1.0 / self.W

    def effective_bc(self) -> float:
        """Coherence bandwidth actually used by the tap generator."""
        if self.Bc == 0:
            return BC_ZERO_EMULATION_RATIO * self.W
        return self.Bc

    def gamma(self) -> float:
        """Inverse average delay spread, 2*pi*Bc (generator-effective)."""
        return 2.0 * math.pi * self.effective_bc()


class SpatialMode(Enum):
    """Spatial correlation of the variable part between the two transmitters."""

    INDEPENDENT = "independent"
    FULLY_CORRELATED = "fully_correlated"


@dataclass(frozen=True)
class TapState:
    """Amplitudes and power profile of the truncated delay line at time k.

    ``amps`` has shape (..., L); leading axes are independent realizations.
    """

    amps: np.ndarray
    profile: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class FreqResponse:
    """Length-M response vector (or a batch of them) at time index k."""

    samples: np.ndarray
    k: int = 0


def build_delay_profile(params: ChannelParams) -> TapState:
    """Tap variance profile from the one-sided exponential delay spectrum.

    profile[l] = sigma_T^2 (1 - e^{-gamma/W}) e^{-gamma l/W}, truncated so
    that the discarded power is at most TAP_TRUNCATION * sigma_T^2.
    Bc = inf collapses to a single tap of full power.
    """
    if params.sigma_T == 0:
        profile = np.zeros(1)
    elif math.isinf(params.Bc):
        profile = np.array([params.sigma_T**2])
    else:
        decay = params.gamma() * params.delta_tau  # 2*pi*Bc/W
        n_taps = max(1, math.ceil(-math.log(TAP_TRUNCATION) / decay))
        taps = np.arange(n_taps)
        profile = params.sigma_T**2 * (1.0 - math.exp(-decay)) * np.exp(-decay * taps)
    return TapState(amps=np.zeros_like(profile, dtype=complex), profile=profile, k=0)


def init_taps(
    state: TapState, rng: RngStream, batch: int | None = None, dtype=np.float64
) -> TapState:
    """Draw tap amplitudes from the AR(1) stationary law CN(0, profile[l]).

    Starting from stationarity means no burn-in is needed.  ``batch``
    produces shape (batch, L) for vectorized independent realizations.
    """
    size = state.profile.shape if batch is None else (batch, len(state.profile))
    amps = sample_complex_gaussian(rng, state.profile, size=size, dtype=dtype)
    return TapState(amps=np.asarray(amps), profile=state.profile, k=0)


def step_taps(state: TapState, a: float, rng: RngStream) -> TapState:
    """Advance every tap one probe interval: A <- a A + sqrt((1-a^2) P) u.

    Innovations u are i.i.d. CN(0, 1), so the marginal variance stays at
    the profile value.  Innovation precision follows the state's dtype.
    """
    dtype = np.float32 if state.amps.dtype == np.complex64 else np.float64
    u = sample_complex_gaussian(rng, 1.0, size=state.amps.shape, dtype=dtype)
    amps = a * state.amps + (np.sqrt((1.0 - a**2) * state.profile).astype(dtype) * u)
    return replace(state, amps=amps, k=state.k + 1)


@lru_cache(maxsize=32)
def _phase_matrix(f0: float, w: float, m: int, n_taps: int) -> np.ndarray:
    """(M, L) matrix of e^{-j 2 pi f_m l / W} for tones f_m = f0 - W/2 + m*W/M."""
    tones = f0 - w / 2.0 + (np.arange(1, m + 1) * (w / m))
    delays = np.arange(n_taps) / w
    return np.exp(-2j * np.pi * np.outer(tones, delays))


def taps_to_frequency(state: TapState, params: ChannelParams) -> np.ndarray:
    """Variable part over the M tones: eps_m = sum_l A_l e^{-j2pi f_m l/W}."""
    e = _phase_matrix(params.f0, params.W, params.M, len(state.profile))
    return state.amps @ e.T


def sample_response(
    fixed: np.ndarray, state: TapState, params: ChannelParams, rng: RngStream
) -> FreqResponse:
    """One noisy probe: fixed part + variable part + fresh CN(0, sigma_N^2) noise.

    Noise is drawn anew on every call; a stored reference is always a noisy
    observation, never the clean response.
    """
    fixed = np.asarray(fixed, dtype=complex)
    if fixed.shape[-1] != params.M:
        raise ValueError(f"fixed response has length {fixed.shape[-1]}, expected M={params.M}")
    eps = taps_to_frequency(state, params)
    noise = sample_complex_gaussian(rng, params.sigma_N2, size=eps.shape[:-1] + (params.M,))
    return FreqResponse(samples=fixed + eps + noise, k=state.k)


def eve_variation(
    alice_state: TapState, mode: SpatialMode, rng: RngStream, params: ChannelParams
) -> TapState:
    """The spoofer's tap state under the chosen spatial-correlation extreme.

    INDEPENDENT draws a fresh stationary realization with the same profile;
    FULLY_CORRELATED shares the identical amplitudes, so the two variable
    parts coincide sample-for-sample.
    """
    if mode is SpatialMode.FULLY_CORRELATED:
        return alice_state
    batch = None if alice_state.amps.ndim == 1 else alice_state.amps.shape[0]
    dtype = np.float32 if alice_state.amps.dtype == np.complex64 else np.float64
    fresh = init_taps(alice_state, rng, batch=batch, dtype=dtype)
    return replace(fresh, k=alice_state.k)

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

from .numerics import RngStream, add_complex_gaussian, block_rows


@dataclass(frozen=True)
class ChannelParams:
    """Physical and statistical parameters of the channel and measurement.

    Bc may be 0 (tone-independent variation) or ``math.inf`` (a single
    tap, fully tone-correlated); the generator is exact at both.  Temporal
    correlation over one probe interval enters solely through a.
    """

    f0: float
    W: float
    M: int
    a: float
    Bc: float
    sigma_T: float
    sigma_N2: float

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


class SpatialMode(Enum):
    """Spatial correlation of the variable part between the two transmitters."""

    INDEPENDENT = "independent"
    FULLY_CORRELATED = "fully_correlated"


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


def init_taps(
    state: TapState, rng: RngStream, batch: int | None = None, out: np.ndarray | None = None
) -> TapState:
    """Draw tap amplitudes from the AR(1) stationary law CN(0, profile[l]).

    Starting from stationarity means no burn-in is needed.  ``batch``
    produces shape (batch, L) for vectorized independent realizations.
    ``out``, a C-contiguous complex array of that shape, receives the
    amplitudes instead of a new array.
    """
    if out is None:
        out = np.empty(state.profile.shape if batch is None else (batch, len(state.profile)), dtype=complex)
    out.fill(0.0)
    add_complex_gaussian(rng, out, np.sqrt(state.profile / 2.0))
    return TapState(amps=out, profile=state.profile)


def step_taps(state: TapState, a: float, rng: RngStream, out: np.ndarray | None = None) -> TapState:
    """Advance every tap one probe interval: A <- a A + sqrt((1-a^2) P) u.

    Innovations u are i.i.d. CN(0, 1), so the marginal variance stays at
    the profile value.  ``out`` (state.amps itself, to step in place)
    receives the new amplitudes instead of a new array.
    """
    amps = np.multiply(state.amps, a, out=out, dtype=complex)
    add_complex_gaussian(rng, amps, math.sqrt(0.5), np.sqrt((1.0 - a**2) * state.profile))
    return replace(state, amps=amps)


def taps_to_frequency(
    state: TapState, params: ChannelParams, out: np.ndarray | None = None, subtract: bool = False
) -> np.ndarray:
    """Variable part over the M tones: eps_m = sum_l A_l e^{-j2pi f_m l/W}.

    Taken as one real product of the amplitudes' (re, im) pairs with the
    2L x 2M real form of the tone phasors: after a complex product (zgemm)
    OpenBLAS leaves every later complex exp and log in the process several
    times slower.  ``out``, a C-contiguous complex array of the result's
    shape, receives eps instead of a new array.  With ``subtract`` it holds
    an array on entry and receives eps minus it; eps is then formed a block
    of rows at a time (numerics.block_rows), so it is never held whole.
    """
    amps = np.ascontiguousarray(state.amps, dtype=complex)
    phasors = np.exp(-2j * np.pi * np.outer(np.arange(len(state.profile)) / params.W, params.tones))
    # Rows 2l and 2l + 1: tap l's phasors and j times them, as (re, im) pairs.
    basis = np.stack([phasors, 1j * phasors], axis=1).view(float).reshape(2 * len(state.profile), 2 * params.M)
    if not subtract:
        if out is None:
            out = np.empty(amps.shape[:-1] + (params.M,), dtype=complex)
        np.matmul(amps.view(float), basis, out=out.view(float))
        return out
    if out is None:
        raise ValueError("subtract needs the array to subtract in out")
    rows, amps = out.reshape(-1, params.M), amps.reshape(-1, len(state.profile)).view(float)
    step = block_rows(params.M)
    block = np.empty((min(step, len(rows)), params.M), dtype=complex)
    for i in range(0, len(rows), step):
        b = block[: len(rows) - i]
        np.matmul(amps[i : i + len(b)], basis, out=b.view(float))
        np.subtract(b, rows[i : i + len(b)], out=rows[i : i + len(b)])
    return out


def sample_response(
    fixed: np.ndarray,
    state: TapState,
    params: ChannelParams,
    rng: RngStream,
    out: np.ndarray | None = None,
    subtract: bool = False,
) -> np.ndarray:
    """One noisy probe: fixed part + variable part + fresh CN(0, sigma_N^2) noise.

    ``fixed`` is the length-M fixed response; the probe has shape
    state.amps.shape[:-1] + (M,), and ``out``, a C-contiguous complex array
    of that shape, receives it instead of a new array.  With ``subtract``,
    ``out`` holds an earlier probe (the stored reference) on entry and
    receives this probe minus it, and the new probe is never held whole
    (see taps_to_frequency).  Noise is drawn anew on every call; a stored
    reference is always a noisy observation, never the clean response.
    """
    fixed = np.asarray(fixed, dtype=complex)
    if fixed.shape[-1] != params.M:
        raise ValueError(f"fixed response has length {fixed.shape[-1]}, expected M={params.M}")
    probe = taps_to_frequency(state, params, out=out, subtract=subtract)
    probe += fixed
    return add_complex_gaussian(rng, probe, math.sqrt(params.sigma_N2 / 2.0))


def eve_variation(
    alice_state: TapState, mode: SpatialMode, rng: RngStream, params: ChannelParams, out: np.ndarray | None = None
) -> TapState:
    """The spoofer's tap state under the chosen spatial-correlation extreme.

    INDEPENDENT draws a fresh stationary realization with the same profile,
    into ``out`` if given (see init_taps); FULLY_CORRELATED shares the
    identical amplitudes, so the two variable parts coincide
    sample-for-sample.
    """
    if mode is SpatialMode.FULLY_CORRELATED:
        return alice_state
    batch = None if alice_state.amps.ndim == 1 else alice_state.amps.shape[0]
    return init_taps(alice_state, rng, batch=batch, out=out)

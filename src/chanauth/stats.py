"""Spectra of the probe-difference covariances.

Two difference vectors drive the detectors: the legitimate self-difference
H_A[k] - H_A[k-1] with covariance R, and the cross-difference
H_E[k] - H_A[k-1] (independent variation) with covariance G.  Taps sit at
l/W and tones W/M apart, so each entry depends on the tone lag only mod M:
both matrices are circulant (cf. R. M. Gray, Toeplitz and Circulant
Matrices: A Review, 2006).  The unitary DFT U d = sqrt(M) ifft(d)
diagonalizes them, and their eigenvalues are the folded tap profile of
channel.build_delay_profile, scaled by M and lifted by the noise floor:

    r_hat = 2 (1-a) M profile + 2 sigma_N^2,    g_hat = 2 M profile + 2 sigma_N^2.

So each covariance is held as its length-M spectrum, indexed like the
profile (U R U^H = diag(r_hat)), and a quadratic form d^H R^-1 d is
M sum |ifft(d)|^2 / r_hat.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelParams, build_delay_profile


def _variation_spectrum(params: ChannelParams) -> np.ndarray:
    """2 M profile, the profile zero-padded to M taps (a-free, noise-free)."""
    profile = build_delay_profile(params).profile
    return 2.0 * params.M * np.pad(profile, (0, params.M - len(profile)))


def covariance_R(params: ChannelParams) -> np.ndarray:
    """Spectrum r_hat = 2 (1-a) M profile + 2 sigma_N^2 of H_A[k] - H_A[k-1]."""
    return (1.0 - params.a) * _variation_spectrum(params) + 2.0 * params.sigma_N2


def covariance_G(params: ChannelParams) -> np.ndarray:
    """Spectrum g_hat = 2 M profile + 2 sigma_N^2 of H_E[k] - H_A[k-1] under
    independent variation; a does not enter, so a = 1 is well defined."""
    return _variation_spectrum(params) + 2.0 * params.sigma_N2

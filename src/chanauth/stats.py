"""Closed-form covariance structure of the probe-difference vectors.

Two difference vectors drive the detectors: the legitimate self-difference
H_A[k] - H_A[k-1] with covariance R, and the cross-difference
H_E[k] - H_A[k-1] (independent variation) with covariance G.  Both are
Toeplitz Hermitian with lag entries determined by the AR(1) coefficient,
the coherence bandwidth, the variation power, and the noise floor.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import toeplitz

from .channel import ChannelParams
from .numerics import HermitianMatrix, cholesky


def _tone_decay(params: ChannelParams) -> float:
    """e^{-2*pi*Bc/W}: 1 at Bc = 0 (independent tones), 0 at Bc = inf."""
    if math.isinf(params.Bc):
        return 0.0
    return math.exp(-2.0 * math.pi * params.Bc / params.W)


def _variation_lag(m: int, params: ChannelParams) -> complex:
    """Per-probe tone cross-correlation of the variable part at lag m = row - col.

    2 sigma_T^2 (1 - E) / (1 - E e^{-j 2 pi m / M}) with E = e^{-2 pi Bc/W};
    this is the a-free core shared by the off-diagonals of R and G.
    """
    e = _tone_decay(params)
    if e == 1.0:  # Bc = 0: tones are exactly independent
        return 0.0
    return 2.0 * params.sigma_T**2 * (1.0 - e) / (1.0 - e * np.exp(-2j * math.pi * m / params.M))


def r_lag(m: int, params: ChannelParams) -> complex:
    """Lag-m entry of the self-difference covariance R.

    r(0) = 2(1-a) sigma_T^2 + 2 sigma_N^2 (the noise enters only on the
    diagonal); for m != 0 the noise drops out and the entry is
    (1-a) times the variation core.  Satisfies r(m) = conj(r(-m)).
    """
    if abs(m) > params.M - 1:
        raise ValueError(f"lag {m} out of range for M={params.M}")
    if m == 0:
        return complex(2.0 * (1.0 - params.a) * params.sigma_T**2 + 2.0 * params.sigma_N2)
    return (1.0 - params.a) * _variation_lag(m, params)


def covariance_R(params: ChannelParams) -> HermitianMatrix:
    """Toeplitz Hermitian covariance of H_A[k] - H_A[k-1], Cholesky-factored."""
    lags = np.array([r_lag(m, params) for m in range(params.M)])
    return cholesky(toeplitz(lags, lags.conj()))


def covariance_G(params: ChannelParams) -> HermitianMatrix:
    """Covariance of H_E[k] - H_A[k-1] under independent variation.

    Diagonal is exactly 2 sigma_T^2 + 2 sigma_N^2; off-diagonals equal
    r(m-n)/(1-a), evaluated through the a-free closed form so that a = 1
    is perfectly well defined.
    """
    lags = np.array([_variation_lag(m, params) for m in range(params.M)], dtype=complex)
    lags[0] = 2.0 * params.sigma_T**2 + 2.0 * params.sigma_N2
    g = toeplitz(lags, lags.conj())
    return HermitianMatrix(entries=g)


def asymptotic_R_high_bc(params: ChannelParams) -> HermitianMatrix:
    """High-Bc/W limit of R: 2 sigma_N^2 I + 2 (1-a) sigma_T^2 * ones."""
    m = params.M
    r = 2.0 * params.sigma_N2 * np.eye(m) + 2.0 * (1.0 - params.a) * params.sigma_T**2 * np.ones((m, m))
    return HermitianMatrix(entries=r.astype(complex))


def asymptotic_G_high_bc(params: ChannelParams) -> HermitianMatrix:
    """High-Bc/W limit of G: 2 sigma_N^2 I + 2 sigma_T^2 * ones."""
    m = params.M
    g = 2.0 * params.sigma_N2 * np.eye(m) + 2.0 * params.sigma_T**2 * np.ones((m, m))
    return HermitianMatrix(entries=g.astype(complex))

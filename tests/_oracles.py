"""Independent oracles shared by the test modules.

Everything here is deliberately written without touching the library's own
numerics beyond the channel generator under test: Simpson integration for
chi-square probabilities, brute-force enumerations, and Monte Carlo
covariance estimation of the probe-difference vectors.
"""

import math

import numpy as np

from chanauth import channel as chan
from chanauth.channel import ChannelParams, SpatialMode
from chanauth.numerics import RngStream


def chi2_pdf(x: float, k: int) -> float:
    """Central chi-square density, via log-gamma to stay finite for large k."""
    if x <= 0:
        return 0.0
    return math.exp((k / 2 - 1) * math.log(x) - x / 2 - (k / 2) * math.log(2) - math.lgamma(k / 2))


def _simpson(f, a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(f, a, m, fa, flm, fm)
    right = _simpson(f, m, b, fm, frm, fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive(f, a, m, fa, flm, fm, left, tol / 2, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, tol / 2, depth - 1
    )


def adaptive_simpson(f, a, b, tol=1e-12, depth=60):
    """Adaptive Simpson quadrature with Richardson correction."""
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return _adaptive(f, a, b, fa, fm, fb, _simpson(f, a, b, fa, fm, fb), tol, depth)


def chi2_cdf_by_integration(x: float, k: int) -> float:
    """P(X <= x) for chi-square(k), by direct quadrature of the density."""
    if x <= 0:
        return 0.0
    return adaptive_simpson(lambda t: chi2_pdf(t, k), 0.0, x)


def empirical_difference_covariances(
    params: ChannelParams, snapshots: int, rng: RngStream, chunk: int = 100_000
):
    """Monte Carlo covariances of the two probe differences.

    Simulates the full probe protocol (reference at k-1, legitimate and
    independent-spoofer probes at k, both fixed parts zero) and accumulates
    the second-moment matrices E[d_m d_n^*] of

      d_A = H_A[k] - H_A[k-1]   and   d_E = H_E[k] - H_A[k-1].

    Returns (R_hat, G_hat), each (M, M) complex.
    """
    m = params.M
    zero = np.zeros(m, dtype=complex)
    profile = chan.build_delay_profile(params)
    acc_r = np.zeros((m, m), dtype=complex)
    acc_g = np.zeros((m, m), dtype=complex)
    done = 0
    while done < snapshots:
        n = min(chunk, snapshots - done)
        state = chan.init_taps(profile, rng, batch=n, dtype=np.float32)
        ref = chan.sample_response(zero, state, params, rng)
        state = chan.step_taps(state, params.a, rng)
        probe_a = chan.sample_response(zero, state, params, rng)
        eve = chan.eve_variation(state, SpatialMode.INDEPENDENT, rng, params)
        probe_e = chan.sample_response(zero, eve, params, rng)
        d_a = (probe_a.samples - ref.samples).astype(complex)
        d_e = (probe_e.samples - ref.samples).astype(complex)
        acc_r += d_a.T @ d_a.conj()
        acc_g += d_e.T @ d_e.conj()
        done += n
    return acc_r / snapshots, acc_g / snapshots


def relative_frobenius(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def _imhof_integrand(u: np.ndarray, lam: np.ndarray, m: np.ndarray, x: float) -> np.ndarray:
    """sin(theta(u)) / (u rho(u)) from Imhof (1961), eq. 3.2, with two-dof terms.

    theta = sum_k [arctan(lam_k u) + m_k u / (2 (1 + lam_k^2 u^2))] - x u / 2 and
    rho = prod_k (1 + lam_k^2 u^2)^(1/2) exp(m_k lam_k u^2 / (2 (1 + lam_k^2 u^2))).
    At u = 0 the integrand tends to theta'(0) = sum_k (lam_k + m_k / 2) - x / 2.
    """
    safe = np.where(u > 0, u, 1.0)[:, None]
    lu = safe * lam
    d = 1.0 + lu * lu
    theta = np.sum(np.arctan(lu) + 0.5 * m * safe / d, axis=1) - 0.5 * x * safe[:, 0]
    log_rho = np.sum(0.5 * np.log(d) + 0.5 * m * lam * safe * safe / d, axis=1)
    f = np.sin(theta) * np.exp(-log_rho) / safe[:, 0]
    return np.where(u > 0, f, np.sum(lam + 0.5 * m) - 0.5 * x)


def gchi2_cdf_by_simpson(
    x: float, weights, offsets, eps: float = 1e-11, per_radian: int = 48, max_points: float = 2e7
) -> float:
    """P(Q <= x) for Q = sum_k weights_k * chi2(2, offsets_k / weights_k).

    Imhof's real-axis inversion integral, P = 1/2 - (1/pi) int_0^U
    sin(theta)/(u rho) du, by composite Simpson: panels double in width
    from 1/max(weight), and each panel gets ``per_radian`` intervals per
    radian the phase theta can turn (|theta'| <= x/2 + sum(lam + m/2)).
    U is the first point where the tail bound U env(U) / q(U) falls below
    pi * eps, with env = 1/(u rho) and q(U) = sum lam^2 U^2 / (1 + lam^2 U^2)
    the smallest log-slope of rho beyond U.  The cost grows with x * U, so
    wide weight spreads with few terms are slow; more than ``max_points``
    integrand evaluations is refused.
    """
    lam = np.asarray(weights, dtype=float)
    m = np.asarray(offsets, dtype=float)
    upper = 1.0 / lam.max()
    while True:
        lu2 = (upper * lam) ** 2
        log_tail = -np.sum(0.5 * np.log1p(lu2) + 0.5 * m * lam * upper**2 / (1.0 + lu2))
        if log_tail - math.log(np.sum(lu2 / (1.0 + lu2))) < math.log(math.pi * eps):
            break
        upper *= 1.25
    omega = 0.5 * x + float(np.sum(lam + 0.5 * m))
    if per_radian * omega * upper > max_points:
        raise ValueError(f"about {per_radian * omega * upper:.2g} Simpson points needed; raise max_points")
    total = 0.0
    a, b = 0.0, min(1.0 / lam.max(), upper)
    chunk = 1 << 15
    while a < upper:
        n = 2 * max(8, math.ceil(0.5 * per_radian * omega * (b - a)))
        h = (b - a) / n
        for i in range(0, n + 1, chunk):
            idx = np.arange(i, min(i + chunk, n + 1))
            coeff = np.where((idx == 0) | (idx == n), 1.0, np.where(idx % 2 == 1, 4.0, 2.0))
            total += h / 3.0 * float(coeff @ _imhof_integrand(a + h * idx, lam, m, x))
        a, b = b, min(2.0 * b, upper)
    return 0.5 - total / math.pi


def central_gchi2_cdf(x: float, weights) -> float:
    """Closed form for distinct weights and zero offsets (partial fractions):
    P(Q > x) = sum_k exp(-x / (2 lam_k)) prod_{j != k} lam_k / (lam_k - lam_j)."""
    lam = [float(w) for w in weights]
    tail = 0.0
    for k, lk in enumerate(lam):
        coef = math.prod(lk / (lk - lj) for j, lj in enumerate(lam) if j != k)
        tail += coef * math.exp(-x / (2.0 * lk))
    return 1.0 - tail

"""Independent oracles shared by the test modules.

Everything here is deliberately written without touching the library's own
numerics beyond the channel generator under test: Simpson integration for
chi-square probabilities, brute-force enumerations, an extended-precision
image-source sum, the three-part probe (fixed + variable + noise) and
with it a Monte Carlo covariance estimation of the probe-difference
vectors and a Monte Carlo of both hypotheses (the spoofer simulated too)
for the miss rates, and the dense Toeplitz covariances with the dense
statistic and the Cholesky/eigh miss-rate path that the library's
spectral core replaced.
The dense path feeds its weights and offsets to the library's
generalized_chi2_cdf (checked on its own against the Simpson oracle here),
so it checks the spectral representation, not the CDF.  That evaluator's
Chernoff screen and real-axis cutoff are also kept here as single
expressions over all rows, the reference for their row-chunked versions.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from chanauth import channel as chan
from chanauth import detect
from chanauth.channel import ChannelParams, SpatialMode, TapState
from chanauth.detect import Regime, TestConfig, threshold_for
from chanauth.harness import _BLOCK_ELEMENTS, regime_forms
from chanauth.numerics import RngStream, cholesky, generalized_chi2_cdf, half_whiten, sample_complex_gaussian


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
    """P(X <= x) for chi-square(k), by quadrature of the density in s = sqrt(t).

    With t = s^2 the integrand is 2 s pdf(s^2), which is smooth at 0 even
    for k = 1, whose density has a t^(-1/2) singularity there; its limit at
    s = 0 is sqrt(2 / pi) for k = 1 and 0 for k > 1.
    """
    if x <= 0:
        return 0.0

    def integrand(s: float) -> float:
        if s == 0:
            return math.sqrt(2 / math.pi) if k == 1 else 0.0
        return 2.0 * s * chi2_pdf(s * s, k)

    return adaptive_simpson(integrand, 0.0, math.sqrt(x))


def sample_probe(fixed: np.ndarray, state: TapState, params: ChannelParams, rng: RngStream) -> np.ndarray:
    """One noisy probe: fixed part + variable part + fresh CN(0, sigma_N^2) noise.

    ``fixed`` is the length-M fixed response; the probe has shape
    state.amps.shape[:-1] + (M,).  Noise is drawn anew on every call; a
    stored reference is always a noisy observation, never the clean response.
    """
    fixed = np.asarray(fixed, dtype=complex)
    if fixed.shape[-1] != params.M:
        raise ValueError(f"fixed response has length {fixed.shape[-1]}, expected M={params.M}")
    probe = chan.taps_to_frequency(state, params)
    probe += fixed
    probe += sample_complex_gaussian(rng, params.sigma_N2, size=probe.shape)
    return probe


def empirical_difference_covariances(
    params: ChannelParams, snapshots: int, rng: RngStream, chunk: int = 100_000
):
    """Monte Carlo covariances of the two probe differences.

    Simulates the full probe protocol (reference at k-1, legitimate and
    spoofer probes at k, both fixed parts zero; the spoofer's variation is
    independent at the default params.spatial_mode) and accumulates
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
        state = chan.init_taps(profile, rng, batch=n)
        ref = sample_probe(zero, state, params, rng)
        state = chan.step_taps(state, params.a, rng)
        probe_a = sample_probe(zero, state, params, rng)
        eve = eve_variation(state, rng, params)
        probe_e = sample_probe(zero, eve, params, rng)
        d_a = probe_a - ref
        d_e = probe_e - ref
        acc_r += d_a.T @ d_a.conj()
        acc_g += d_e.T @ d_e.conj()
        done += n
    return acc_r / snapshots, acc_g / snapshots


def eve_variation(alice_state: TapState, rng: RngStream, params: ChannelParams) -> TapState:
    """The spoofer's tap state under ``params.spatial_mode``.

    INDEPENDENT draws a fresh stationary realization with the same profile;
    FULLY_CORRELATED shares the identical amplitudes, so the two variable
    parts coincide sample-for-sample.
    """
    if params.spatial_mode is SpatialMode.FULLY_CORRELATED:
        return alice_state
    batch = None if alice_state.amps.ndim == 1 else alice_state.amps.shape[0]
    return chan.init_taps(alice_state, rng, batch=batch)


@dataclass(frozen=True)
class ErrorRates:
    """Empirical false-alarm and miss rates with binomial standard errors."""

    alpha_hat: float
    beta_hat: float
    alpha_se: float
    beta_se: float
    trials: int


def simulate_error_rates(
    hbar_a: np.ndarray,
    hbar_e: np.ndarray,
    params: ChannelParams,
    cfg: TestConfig,
    trials: int,
    rng: RngStream,
    include_h0: bool = True,
    include_h1: bool = True,
) -> ErrorRates:
    """End-to-end empirical error rates from precomputed fixed responses.

    Every trial probes the channel at k-1 (the stored reference), steps the
    taps once, and scores both the legitimate probe and the spoofed probe
    at k with the configured statistic.  Trials run in blocks of
    _BLOCK_ELEMENTS / M, each through the plain generator stages on
    block-sized arrays, so memory stays bounded however many trials are
    asked for.  A skipped hypothesis (include_h0/include_h1) reports nan
    for its rate.  With include_h1=False on a zero fixed response it draws
    exactly what harness.simulate_error_rates draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (include_h0 or include_h1):
        raise ValueError("at least one hypothesis must be simulated")
    hbar_a = np.asarray(hbar_a, dtype=complex)
    hbar_e = np.asarray(hbar_e, dtype=complex)
    r, _, threshold = regime_forms(params, cfg)
    profile = chan.build_delay_profile(params)
    # Stepping the legitimate taps only matters when its k-probe is scored
    # or when the spoofer shares the variation.
    need_step = include_h0 or params.spatial_mode is SpatialMode.FULLY_CORRELATED

    block = max(1, _BLOCK_ELEMENTS // params.M)
    false_alarms = 0
    misses = 0
    for start in range(0, trials, block):
        state = chan.init_taps(profile, rng, batch=min(block, trials - start))
        ref = sample_probe(hbar_a, state, params, rng)
        if need_step:
            state = chan.step_taps(state, params.a, rng)
        if include_h0:
            z0 = detect.statistic_batch(sample_probe(hbar_a, state, params, rng) - ref, r)
            false_alarms += int(np.count_nonzero(z0 > threshold))
        if include_h1:
            eve_state = eve_variation(state, rng, params)
            z1 = detect.statistic_batch(sample_probe(hbar_e, eve_state, params, rng) - ref, r)
            misses += int(np.count_nonzero(z1 <= threshold))

    a_hat = false_alarms / trials if include_h0 else math.nan
    b_hat = misses / trials if include_h1 else math.nan
    return ErrorRates(
        alpha_hat=a_hat,
        beta_hat=b_hat,
        alpha_se=math.sqrt(max(a_hat * (1 - a_hat), 1.0 / trials) / trials),
        beta_se=math.sqrt(max(b_hat * (1 - b_hat), 1.0 / trials) / trials),
        trials=trials,
    )


def long_line_tone_covariance(params: ChannelParams, truncation: float = 1e-6):
    """One-probe tone covariance of a truncated exponential delay line.

    The unfolded line: taps at l/W with power sigma_T^2 (1 - E) E^l,
    E = e^{-2 pi Bc/W}, cut at the first length L whose discarded power
    sigma_T^2 E^L is at most ``truncation * sigma_T^2``; tap l reaches tone
    f_m = f0 - W/2 + m W/M through e^{-j 2 pi f_m l/W}.  Needs 0 < Bc < inf.
    Returns (covariance (M, M), discarded power).
    """
    decay = 2.0 * math.pi * params.Bc / params.W
    n_taps = max(1, math.ceil(-math.log(truncation) / decay))
    power = params.sigma_T**2 * (1.0 - math.exp(-decay)) * np.exp(-decay * np.arange(n_taps))
    tones = params.f0 - params.W / 2.0 + np.arange(1, params.M + 1) * (params.W / params.M)
    phase = np.exp(-2j * np.pi * np.outer(tones, np.arange(n_taps) / params.W))
    return (phase * power) @ phase.conj().T, params.sigma_T**2 - float(power.sum())


def _variation_lag(m: int, params: ChannelParams) -> complex:
    """Per-probe tone cross-correlation of the variable part at lag m = row - col.

    2 sigma_T^2 (1 - E) / (1 - E e^{-j 2 pi m / M}) with E = e^{-2 pi Bc/W};
    this is the a-free core shared by the off-diagonals of R and G.
    """
    e = params.tap_decay
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


def toeplitz(lags: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix whose (i, j) entry is lags[i - j] for i >= j
    and conj(lags[j - i]) above the diagonal."""
    m = len(lags)
    ladder = np.concatenate([lags[:0:-1].conj(), lags])  # lags -(m-1) .. m-1
    return ladder[np.subtract.outer(np.arange(m), np.arange(m)) + m - 1]


def dense_covariance_R(params: ChannelParams) -> np.ndarray:
    """Toeplitz Hermitian covariance of H_A[k] - H_A[k-1]."""
    lags = np.array([r_lag(m, params) for m in range(params.M)])
    return toeplitz(lags)


def dense_covariance_G(params: ChannelParams) -> np.ndarray:
    """Covariance of H_E[k] - H_A[k-1] under independent variation.

    Diagonal is exactly 2 sigma_T^2 + 2 sigma_N^2; off-diagonals equal
    r(m-n)/(1-a), evaluated through the a-free closed form so that a = 1
    is perfectly well defined.
    """
    lags = np.array([_variation_lag(m, params) for m in range(params.M)], dtype=complex)
    lags[0] = 2.0 * params.sigma_T**2 + 2.0 * params.sigma_N2
    return toeplitz(lags)


def asymptotic_R_high_bc(params: ChannelParams) -> np.ndarray:
    """High-Bc/W limit of R: 2 sigma_N^2 I + 2 (1-a) sigma_T^2 * ones."""
    m = params.M
    r = 2.0 * params.sigma_N2 * np.eye(m) + 2.0 * (1.0 - params.a) * params.sigma_T**2 * np.ones((m, m))
    return r.astype(complex)


def asymptotic_G_high_bc(params: ChannelParams) -> np.ndarray:
    """High-Bc/W limit of G: 2 sigma_N^2 I + 2 sigma_T^2 * ones."""
    m = params.M
    g = 2.0 * params.sigma_N2 * np.eye(m) + 2.0 * params.sigma_T**2 * np.ones((m, m))
    return g.astype(complex)


def statistic_general(h_now, h_ref, R) -> float:
    """Whitened-difference statistic Z = 2 d^H R^-1 d, d = h_now - h_ref.

    R is a dense M x M covariance.  Z is |sqrt(2) (R_d^H)^-1 d|^2 with R_d
    its Cholesky factor.  Under the null hypothesis with the correct R this
    is chi-square with 2M dof.
    """
    d = np.asarray(h_now, dtype=complex) - np.asarray(h_ref, dtype=complex)
    if d.shape[-1] != len(R):
        raise ValueError(f"difference length {d.shape[-1]} does not match R dim {len(R)}")
    z = half_whiten(cholesky(R), d)
    return float(np.real(np.vdot(z, z)))


def dense_regime_forms(params: ChannelParams, cfg: TestConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The detector's (R, G, t) on the channel ``params`` as dense M x M
    matrices, as the library built them before its covariances became
    spectra: the general detector whitens with the channel's R, the unknown
    one with the noise alone, and a spoofer that shares the variation
    differs from the reference with covariance R instead of G."""
    r_true = dense_covariance_R(params)
    r = 2.0 * params.sigma_N2 * np.eye(params.M, dtype=complex) if cfg.regime is Regime.UNKNOWN else r_true
    g = r_true if params.spatial_mode is SpatialMode.FULLY_CORRELATED else dense_covariance_G(params)
    return r, g, threshold_for(cfg, params.M)


def dense_miss_rates(hbar_a, hbar_e, params: ChannelParams, cfg: TestConfig) -> np.ndarray:
    """Miss rates P(Z <= t) for rows of fixed-response pairs by whitening densely.

    With R = L L^H, the score 2 |L^-1 d|^2 for d ~ CN(gap, G) has the
    eigenvalues of C = L^-1 G L^-H as weights and 2 |V^H L^-1 gap|^2 as
    offsets, V the eigenvectors of C (one Cholesky, one eigh).
    """
    r, g, t = dense_regime_forms(params, cfg)
    lower = np.linalg.cholesky(r)
    left = np.linalg.solve(lower, g)  # L^-1 G
    weights, basis = np.linalg.eigh(np.linalg.solve(lower, left.conj().T))  # L^-1 (L^-1 G)^H
    gaps = np.asarray(hbar_e, dtype=complex) - np.asarray(hbar_a, dtype=complex)
    offsets = 2.0 * np.abs(basis.conj().T @ np.linalg.solve(lower, gaps.T)).T ** 2
    return generalized_chi2_cdf(t, weights, offsets)


def circulant_basis(m: int) -> np.ndarray:
    """The unitary DFT U with U d = sqrt(M) ifft(d), so U R U^H = diag(r_hat)."""
    k = np.arange(m)
    return np.exp(2j * np.pi * np.outer(k, k) / m) / math.sqrt(m)


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


LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def image_source_sum_longdouble(scene, txs, rx, params: ChannelParams) -> np.ndarray:
    """Image-source responses (n_tx, M) summed in np.longdouble.

    Mirror images of ``rx`` are enumerated per axis (2nL + c with 2|n|
    bounces, 2nL - c with |2n - 1|), kept if their total bounce count fits
    scene.max_order, and every path contributes
    amplitude_scale * Gamma^bounces / d * e^{-j 2 pi f_m d / c}, with a
    long-double pi, long-double tones f_m = f0 - W/2 + m W/M and each tone's
    phase taken directly.  Returned as complex128.
    """
    ld = np.longdouble
    per_axis = []
    for length, coord in zip(scene.dimensions, rx):
        length, coord = ld(length), ld(coord)
        cands = []
        for n in range(-scene.max_order - 1, scene.max_order + 2):
            cands.append((2 * n * length + coord, abs(2 * n)))
            cands.append((2 * n * length - coord, abs(2 * n - 1)))
        per_axis.append([c for c in cands if c[1] <= scene.max_order])
    images, bounces = [], []
    for (x, bx), (y, by), (z, bz) in itertools.product(*per_axis):
        if bx + by + bz <= scene.max_order:
            images.append((x, y, z))
            bounces.append(bx + by + bz)
    images = np.array(images, dtype=ld)  # (K, 3)
    gain = ld(scene.amplitude_scale) * np.clongdouble(scene.wall_reflectivity) ** np.array(bounces)
    tones = ld(params.f0) - ld(params.W) / 2 + np.arange(1, params.M + 1, dtype=ld) * (ld(params.W) / params.M)
    txs = np.atleast_2d(np.asarray(txs, dtype=ld))
    out = np.empty((len(txs), params.M), dtype=complex)
    for i, tx in enumerate(txs):
        d = np.sqrt(np.sum((tx - images) ** 2, axis=1))  # (K,)
        phase = (-2 * LONG_PI / ld(scene.c)) * np.outer(d, tones)  # (K, M)
        phasor = np.cos(phase) + 1j * np.sin(phase)
        out[i] = ((gain / d) @ phasor).astype(complex)
    return out


def chernoff_screen_one_shot(x: float, lam: np.ndarray, m: np.ndarray, points: np.ndarray) -> np.ndarray:
    """numerics._chernoff_screen as one (rows x points) array: the row-chunked screen must return the same mask."""
    s = points / (2.0 * lam.max())
    d = 1.0 - 2.0 * np.outer(lam, s)
    return (m @ (s / d) - np.log(d).sum(axis=0) - s * x).min(axis=1) < math.log(1e-13)


def real_axis_cutoff_one_shot(lam: np.ndarray, m: np.ndarray) -> float:
    """numerics._real_axis_cutoff as one (rows x grid) array: the row-chunked cutoff must return the same point."""
    u = np.logspace(math.log10(1e-3 / lam.max()), math.log10(1e3 / lam.min()), 240)
    z2 = (2.0 * np.outer(lam, u)) ** 2
    log_tail = (
        -0.5 * np.log1p(z2).sum(axis=0)
        - m @ (0.5 * z2 / ((1.0 + z2) * lam[:, None]))
        - np.log((z2 / (1.0 + z2)).sum(axis=0))
    )
    ok = np.nonzero(log_tail.max(axis=0) < math.log(math.pi * 1e-13))[0]
    return float(u[ok[0]]) if len(ok) else math.inf

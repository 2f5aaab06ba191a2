"""Special functions, complex linear algebra, and seeded random sampling.

Everything downstream (channel generation, covariance builders, detectors)
funnels its numerical needs through here: chi-square CDFs/quantiles, the
noncentral and generalized chi-square CDFs, Hermitian Cholesky
factorization with whitening solves, and reproducible complex-Gaussian
sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.linalg import solve_triangular


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix that must be positive definite is not."""


# Pivot threshold relative to the largest diagonal entry.  A failure here
# normally signals a zero noise floor combined with degenerate variation;
# callers should diagonally load or reject.
_PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class HermitianMatrix:
    """An M x M complex Hermitian matrix, optionally with its Cholesky factor.

    ``chol`` is the upper-triangular factor R_d satisfying
    ``entries = R_d^H @ R_d`` with positive real diagonal.
    """

    entries: np.ndarray
    chol: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def factored(self) -> "HermitianMatrix":
        """Return a copy with the Cholesky factor populated."""
        if self.chol is not None:
            return self
        return cholesky(self)

    def half_whiten(self, d: np.ndarray) -> np.ndarray:
        """Compute sqrt(2) * (R_d^H)^-1 @ d for vectors d of shape (..., M).

        For d ~ CN(0, R) the result is CN(0, 2I), turning quadratic forms
        2 d^H R^-1 d into plain squared norms.  Solved triangularly; R is
        never inverted explicitly.
        """
        if self.chol is None:
            raise ValueError("matrix is not factored; call factored() first")
        d = np.asarray(d, dtype=complex)
        # chol is upper triangular R_d, so R_d^H is lower triangular.
        z = solve_triangular(self.chol.conj().T, d.reshape(-1, self.dim).T, lower=True)
        return np.sqrt(2.0) * z.T.reshape(d.shape)

    def congruence(self, g: np.ndarray) -> np.ndarray:
        """Compute (R_d^H)^-1 @ g @ R_d^-1, i.e. g in whitened coordinates.

        If d ~ CN(0, g), then half_whiten(d) ~ CN(0, 2 * congruence(g)).
        """
        if self.chol is None:
            raise ValueError("matrix is not factored; call factored() first")
        lower = self.chol.conj().T
        left = solve_triangular(lower, np.asarray(g, dtype=complex), lower=True)
        return solve_triangular(lower, left.conj().T, lower=True).conj().T

    def sample_offset(self, w: np.ndarray) -> np.ndarray:
        """Map unit-variance draws w ~ CN(0, I), shape (..., M), to CN(0, R)."""
        if self.chol is None:
            raise ValueError("matrix is not factored; call factored() first")
        w = np.asarray(w, dtype=complex)
        return (w.reshape(-1, self.dim) @ self.chol.conj()).reshape(w.shape)


def cholesky(a: HermitianMatrix | np.ndarray) -> HermitianMatrix:
    """Factor a Hermitian positive-definite matrix as R_d^H R_d.

    Raises NotPositiveDefiniteError if any pivot falls at or below
    1e-14 times the largest diagonal entry.
    """
    entries = a.entries if isinstance(a, HermitianMatrix) else np.asarray(a, dtype=complex)
    if not np.allclose(entries, entries.conj().T, rtol=0, atol=1e-10 * max(np.abs(entries).max(), 1.0)):
        raise ValueError("matrix is not Hermitian")
    max_diag = float(np.real(np.diag(entries)).max(initial=0.0))
    try:
        lower = np.linalg.cholesky(entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    pivots = np.real(np.diag(lower)) ** 2
    if np.any(pivots <= _PIVOT_RTOL * max_diag):
        raise NotPositiveDefiniteError(
            f"pivot {pivots.min():.3e} below {_PIVOT_RTOL:.0e} * max diagonal {max_diag:.3e}"
        )
    return HermitianMatrix(entries=entries, chol=lower.conj().T)


def chi2_cdf(x, k: int):
    """CDF of the central chi-square distribution with k degrees of freedom.

    Evaluated as the regularized lower incomplete gamma P(k/2, x/2).
    Accepts scalars or arrays in x.
    """
    _check_dof(k)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    out = special.gammainc(k / 2.0, x / 2.0)
    return float(out) if out.ndim == 0 else out


def chi2_inv(p, k: int):
    """Quantile of the central chi-square distribution with k dof.

    Defined for 0 <= p < 1; p >= 1 is a domain error (the quantile is
    infinite, and a zero false-alarm rate must be special-cased upstream).
    """
    _check_dof(k)
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p >= 1)):
        raise ValueError("p must lie in [0, 1)")
    out = 2.0 * special.gammaincinv(k / 2.0, p)
    return float(out) if out.ndim == 0 else out


def noncentral_chi2_cdf(x, k: int, mu):
    """CDF of the noncentral chi-square with k dof and noncentrality mu.

    mu = 0 collapses exactly to the central CDF.  Evaluated through the
    Poisson-mixture representation (via scipy's ncx2), which handles large
    mu without loss of mass.
    """
    _check_dof(k)
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    if np.any(mu < 0):
        raise ValueError("mu must be nonnegative")
    out = np.where(
        mu == 0,
        special.gammainc(k / 2.0, x / 2.0),
        special.chndtr(x, k, np.where(mu == 0, 1.0, mu)),
    )
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


# Gil-Pelaez quadrature for the generalized chi-square CDF.  The nodes depend
# on the weights, x and a bound over the offsets, so rows can share them.
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_GCHI2_EPS = 1e-13  # truncation and screening level, absolute in probability
_PANEL_PHASE = 8.0  # radians the integrand may turn through in one 16-node panel
_TAIL_TILT = np.exp(-0.25j * np.pi)  # the tail ray runs 45 degrees below the real axis
_CHERNOFF_S = -np.logspace(-3.0, 9.0, 97)  # lower-tail Chernoff points, in units of 1/(2 max weight)


def generalized_chi2_cdf(x: float, weights, offsets):
    """P(Q <= x) for Q = sum_k weights_k * chi2(2, offsets_k / weights_k).

    Each term is a positive weight lam_k times a noncentral chi-square with
    two degrees of freedom, i.e. |b_k + sqrt(lam_k) (u + jv)|^2 with u, v
    ~ N(0, 1) and offsets_k = |b_k|^2.  This is the law of 2|L^-1 d|^2 for
    any complex Gaussian d (see HermitianMatrix.congruence).  ``weights``
    has shape (M,); ``offsets`` has shape (..., M), one row per quadratic
    form sharing the weights; the result has shape offsets.shape[:-1].

    Equal weights reduce exactly to noncentral_chi2_cdf, which is used
    directly.  Otherwise the CDF is the Gil-Pelaez inversion integral
    (Imhof 1961; cf. Davies 1980) on contours shared by groups of rows:
    Gauss-Legendre panels along the real axis, then a ray rotated 45
    degrees into the lower half plane, where the characteristic function
    has no singularities and e^{-iux} decays exponentially.  A wide weight
    spread therefore costs few more nodes than a narrow one.  Rows whose
    Chernoff bound puts the probability below 1e-13 return 0.
    """
    lam = np.asarray(weights, dtype=float)
    m = np.asarray(offsets, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or m.shape[-1:] != lam.shape:
        raise ValueError(f"offsets of shape {m.shape} do not match weights of shape {lam.shape}")
    if not np.all((lam > 0) & (lam < np.inf)):
        raise ValueError("weights must be positive and finite")
    if not np.all((m >= 0) & (m < np.inf)):
        raise ValueError("offsets must be nonnegative and finite")
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    shape = m.shape[:-1]
    m = m.reshape(-1, lam.size)
    if lam.max() - lam.min() <= 1e-10 * lam.max():
        scale = lam.mean()
        out = np.atleast_1d(noncentral_chi2_cdf(x / scale, 2 * lam.size, m.sum(axis=1) / scale))
    else:
        out = np.zeros(len(m))
        s = _CHERNOFF_S / (2.0 * lam.max())
        d = 1.0 - 2.0 * np.outer(lam, s)
        log_bound = (m @ (s / d) - np.log(d).sum(axis=0) - s * x).min(axis=1)
        live = log_bound >= math.log(_GCHI2_EPS)
        if x > 0 and live.any():
            out[live] = _gil_pelaez(float(x), lam, m[live])
    return float(out[0]) if not shape else out.reshape(shape)


def _gil_pelaez(x: float, lam: np.ndarray, m: np.ndarray) -> np.ndarray:
    """F(x) = 1/2 - (1/pi) Im int e^{-iux} phi(u) / u du along a tilted contour.

    phi(u) = prod_k exp(i m_k u / (1 - 2i lam_k u)) / (1 - 2i lam_k u) is the
    characteristic function; its log is linear in the offsets, so each chunk
    of nodes costs one (rows x M) @ (M x nodes) product.  The contour runs
    along the real axis to u0 = 1/(2 lam_j) (weights sorted descending) and
    then down the ray u0 + r e^{-i pi/4}, which is allowed because phi is
    analytic except at u = -i/(2 lam_k).  The ray clears the heavier terms'
    essential singularities, and e^{-iux} outruns the growth of the lighter
    terms k > j when x >= 4 * their mean, so each row has a smallest such j
    (and any larger j also works).  Rows whose smallest j falls in the same
    octave of lam_j share one contour, turning at the group's largest j.
    """
    order = np.argsort(lam)[::-1]
    lam, m = lam[order], m[:, order]
    suffix = np.cumsum((2.0 * lam + m)[:, ::-1], axis=1)[:, ::-1]
    light_mean = np.hstack([suffix[:, 1:], np.zeros((len(m), 1))])  # [p, j]: mean of row p's terms after j
    split = np.argmax(x >= 4.0 * light_mean, axis=1)
    octave = np.floor(np.log2(lam[split]))
    out = np.empty(len(m))
    for level in np.unique(octave):
        rows = octave == level
        j = int(split[rows].max())
        nodes, weights = _gil_pelaez_contour(x, lam, m[rows], j, light_mean[rows, j].max())
        offsets = m[rows].astype(complex)  # same dtype on both sides keeps the product in BLAS
        total = np.zeros(len(offsets), dtype=complex)
        step = max(1, 2**16 // len(offsets))  # bounds the (rows x nodes) work arrays
        for i in range(0, len(nodes), step):
            u = nodes[i : i + step]
            den = 1.0 - 2j * np.outer(lam, u)
            log_phi = offsets @ (1j * u / den) - np.log(den).sum(axis=0)
            total += (np.exp(log_phi - 1j * u * x) / u) @ weights[i : i + step]
        out[rows] = 0.5 - total.imag / math.pi
    return np.clip(out, 0.0, 1.0)


def _gil_pelaez_contour(
    x: float, lam: np.ndarray, m: np.ndarray, split: int, light_mean: float
) -> tuple[np.ndarray, np.ndarray]:
    """Complex nodes and weights for rows that turn onto the ray at u0 = 1/(2 lam[split]).

    Along the ray the integrand decays at least like
    e^{-r (x - 2 * light_mean) sin(pi/4)}.  If every row's real-axis tail is
    already below the truncation level before u0, the ray is dropped.
    Panel widths follow a bound on how fast the integrand's phase turns.
    """
    u0 = 0.5 / lam[split]
    m_max = m.max(axis=0)

    def real_rate(u):  # |d/du arg(e^{-iux} phi(u))| on [u, inf)
        return x + np.sum((2.0 * lam + m_max) / (1.0 + (2.0 * lam * u) ** 2))

    def ray_rate(r):  # same along the ray, using |1 - 2i lam u| >= both bounds below
        d = 1.0 / np.maximum(math.sqrt(0.5) * (1.0 + 2.0 * lam * u0), 2.0 * lam * u0 + math.sqrt(2.0) * lam * r)
        return x + np.sum(2.0 * lam * d + m_max * d * d)

    stop = min(u0, _real_axis_cutoff(lam, m))
    nodes, weights = _gauss_legendre(_panel_edges(stop, min(0.5 / lam[0], stop), real_rate))
    nodes, weights = nodes.astype(complex), weights.astype(complex)
    if stop == u0:
        decay = (x - 2.0 * light_mean) * math.sin(math.pi / 4)
        length = (math.log(1.0 / _GCHI2_EPS) + max(0.0, -math.log(u0 * decay))) / decay
        r, wr = _gauss_legendre(_panel_edges(length, u0, ray_rate))
        nodes = np.concatenate([nodes, u0 + r * _TAIL_TILT])
        weights = np.concatenate([weights, wr * _TAIL_TILT])
    return nodes, weights


def _real_axis_cutoff(lam: np.ndarray, m: np.ndarray) -> float:
    """A u beyond which every row's real-axis integral is below the truncation level.

    |integrand| = env(u) = prod_k (1 + z_k^2)^(-1/2) e^{-m_k z_k^2 / (2 lam_k (1 + z_k^2))} / u
    with z_k = 2 lam_k u.  Its log-slope in log u is at most -(1 + q(U))
    beyond U, with q(U) = sum_k z_k^2 / (1 + z_k^2), so the tail past U is
    at most U env(U) / q(U) (Davies-style bound).  Infinite if no grid
    point qualifies.
    """
    u = np.logspace(math.log10(1e-3 / lam.max()), math.log10(1e3 / lam.min()), 240)
    z2 = (2.0 * np.outer(lam, u)) ** 2
    log_tail = (
        -0.5 * np.log1p(z2).sum(axis=0)
        - m @ (0.5 * z2 / ((1.0 + z2) * lam[:, None]))
        - np.log((z2 / (1.0 + z2)).sum(axis=0))
    )
    ok = np.nonzero(log_tail.max(axis=0) < math.log(math.pi * _GCHI2_EPS))[0]
    return float(u[ok[0]]) if len(ok) else math.inf


def _panel_edges(stop: float, first: float, rate) -> np.ndarray:
    """Panel edges on [0, stop]: widths at most double, start at ``first``, and
    never let the phase turn more than _PANEL_PHASE, given the nonincreasing
    phase-rate bound ``rate(left edge)``."""
    edges = [0.0]
    b = min(first, _PANEL_PHASE / rate(0.0))
    while b < stop:
        edges.append(b)
        b += min(b, _PANEL_PHASE / rate(b))
    edges.append(stop)
    return np.array(edges)


def _gauss_legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on each panel between edges."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _check_dof(k: int):
    if int(k) != k or k < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {k}")


class RngStream:
    """A seeded, stream-addressed random source.

    Identical (seed, stream) pairs reproduce the same sample sequence;
    distinct stream ids give statistically independent sequences.  A stream
    is single-owner: hand each parallel worker its own id.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        )

    def substream(self, stream: int) -> "RngStream":
        """A fresh independent stream under the same seed."""
        return RngStream(self.seed, stream)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def sample_complex_gaussian(rng: RngStream, variance, size=None, dtype=np.float64) -> np.ndarray | complex:
    """Draw zero-mean circular complex Gaussians with E|x|^2 = variance.

    ``variance`` may be an array; it broadcasts against ``size``.  ``dtype``
    selects the precision of the underlying normal draws; float32 roughly
    halves generation cost for bulk Monte Carlo and its quantization error
    (~1e-7 relative) is far below any statistical resolution used here.
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise ValueError("variance must be nonnegative")
    if size is None:
        size = ()
    elif np.isscalar(size):
        size = (size,)
    shape = np.broadcast_shapes(variance.shape, tuple(size))
    g = rng.generator
    x = g.standard_normal(shape, dtype=dtype) + 1j * g.standard_normal(shape, dtype=dtype)
    x *= np.sqrt(variance / 2.0).astype(dtype)
    return x if shape else complex(x)

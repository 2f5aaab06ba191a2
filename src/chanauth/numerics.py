"""Special functions, complex linear algebra, and seeded random sampling.

Everything downstream (channel generation, detectors, miss rates) funnels
its numerical needs through here: chi-square CDFs/quantiles, the
noncentral and generalized chi-square CDFs, unit phasors e^{i theta} in
real arithmetic (the ray trace's and the contour integral's), the
Cholesky factor of a dense Hermitian covariance and the whitening solve
against it (the Monte Carlo cross-check; the run path is spectral and
factors nothing), and reproducible complex-Gaussian sampling.  Only numpy
and the standard library are used: the incomplete gamma function is one
scalar series or continued fraction around Loader's saddle-point Poisson pmf.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random  # RngStream needs it in every run; numpy would otherwise load it on first use


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix that must be positive definite is not."""


# Pivot threshold relative to the largest diagonal entry.  A failure here
# normally signals a zero noise floor combined with degenerate variation;
# callers should diagonally load or reject.
_PIVOT_RTOL = 1e-14


def cholesky(a) -> np.ndarray:
    """Factor a Hermitian positive-definite matrix as R_d^H R_d and return R_d.

    R_d is upper triangular with a positive real diagonal.  Raises
    NotPositiveDefiniteError if any pivot falls at or below 1e-14 times the
    largest diagonal entry.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.conj().T, rtol=0, atol=1e-10 * max(np.abs(a).max(), 1.0)):
        raise ValueError("matrix is not Hermitian")
    max_diag = float(np.real(np.diag(a)).max(initial=0.0))
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    pivots = np.real(np.diag(lower)) ** 2
    if np.any(pivots <= _PIVOT_RTOL * max_diag):
        raise NotPositiveDefiniteError(
            f"pivot {pivots.min():.3e} below {_PIVOT_RTOL:.0e} * max diagonal {max_diag:.3e}"
        )
    return lower.conj().T


def half_whiten(chol: np.ndarray, d) -> np.ndarray:
    """Compute sqrt(2) (R_d^H)^-1 d for the factor R_d = cholesky(R) and d of shape (..., M).

    For d ~ CN(0, R) the result is CN(0, 2I), turning quadratic forms
    2 d^H R^-1 d into plain squared norms.  R is never inverted explicitly.
    """
    d = np.asarray(d, dtype=complex)
    z = np.linalg.solve(chol.conj().T, d.reshape(-1, len(chol)).T)
    return np.sqrt(2.0) * z.T.reshape(d.shape)


_EPS = 2.0**-52  # double-precision machine epsilon
_MAX_TERMS = 2**20  # bounds the work and memory of one noncentral CDF evaluation


def chi2_cdf(x, k: int):
    """CDF of the central chi-square distribution with k degrees of freedom.

    Evaluated as the regularized lower incomplete gamma P(k/2, x/2).
    Accepts scalars or arrays in x.
    """
    _check_dof(k)
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("x must be nonnegative")
    out = _gammainc(k / 2.0, x / 2.0)
    return float(out) if out.ndim == 0 else out


def chi2_inv(p: float, k: int) -> float:
    """Quantile of the central chi-square distribution with k dof.

    Defined for 0 <= p < 1; p >= 1 is a domain error (the quantile is
    infinite, and a zero false-alarm rate must be special-cased upstream).
    """
    _check_dof(k)
    if not 0 <= p < 1:  # NaN fails too
        raise ValueError("p must lie in [0, 1)")
    return 2.0 * _gamma_quantile(k / 2.0, p)


def noncentral_chi2_cdf(x, k: int, mu):
    """CDF of the noncentral chi-square with k dof and noncentrality mu.

    mu = 0 collapses exactly to the central CDF.  Otherwise it is the
    Poisson mixture sum_j Pois(j; mu/2) P(k/2 + j, x/2); every term is
    positive, so small values keep their relative accuracy, and the P terms
    are computed once per distinct x and shared by every mu.  Where the
    mixture would need more than 2^20 terms (x/2 above ~2.7e9) it is the
    Lugannani-Rice saddle point instead.
    """
    _check_dof(k)
    x, mu = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(mu, dtype=float))
    if not np.all(x >= 0):
        raise ValueError("x must be nonnegative")
    if not np.all(mu >= 0):
        raise ValueError("mu must be nonnegative")
    out = np.empty(x.shape)
    lam = mu / 2.0
    central = lam == 0  # also where mu is so small that mu/2 underflows
    out[central] = chi2_cdf(x[central], k)
    for xv in sorted(set(x[~central].tolist())):  # np.unique would import numpy.ma (~15 ms) on first use
        rows = ~central & (x == xv)
        out[rows] = _poisson_mixture(xv / 2.0, k / 2.0, lam[rows])
    return float(out) if out.ndim == 0 else out


def _poisson_mixture(y: float, h: float, lam: np.ndarray) -> np.ndarray:
    """sum_j Pois(j; lam) P(h + j, y) for each lam > 0.

    P(h + j, y) is the tail sum_{i >= j} pmf(h + i; y), so one reverse
    cumulative sum gives every P term.  Each sum stops where what it drops
    is below about e^-50 of its largest term: P is 0 past j_max = y - h +
    10 sqrt(y) + 20 and 1 below j_min = y - h - 10 sqrt(y) - 20, and a row's
    Poisson weights vanish outside lam -+ (10 sqrt(lam) + 20).  A row's
    Poisson mass below j_min then enters as the one term Q(j_min, lam).
    """
    if not 0 < y < math.inf:  # the CDF is 0 at x = 0 and 1 at x = inf
        return np.full(len(lam), 1.0 if y else 0.0)
    out = np.zeros(len(lam))
    spread = 10.0 * math.sqrt(y) + 20.0
    j_min, j_max = math.floor(y - h - spread), math.floor(y - h + spread)
    # Rows whose weights all sit past j_max (lam - 10 sqrt(lam) - 20 > j_max) stay 0.
    live = np.sqrt(lam) <= 5.0 + math.sqrt(45.0 + j_max) if j_max >= 0 else np.zeros(len(lam), dtype=bool)
    if not live.any():
        return out
    rows = lam[live]
    first = max(0, math.floor(float(np.min(rows - 10.0 * np.sqrt(rows) - 20.0))))
    last = min(j_max, math.ceil(float(np.max(rows + 10.0 * np.sqrt(rows) + 20.0))))
    lo = max(first, j_min)
    if lo > last:  # every row's weights sit below j_min, where P is 1
        out[live] = 1.0
        return out
    if j_max - lo >= _MAX_TERMS:  # from y ~ 2.7e9, where the saddle point's error is ~4e-17
        out[live] = _lugannani_rice(y, h, rows)
        return out
    j = np.arange(lo, j_max + 1, dtype=float)
    p_terms = np.cumsum(np.exp(_log_pmf(h + j[::-1], y)))[::-1][: last - lo + 1]
    j = j[: last - lo + 1]
    order = np.argsort(rows)
    f = np.empty(len(rows))
    step = max(1, _WORK_BUDGET // len(j))  # bounds the (terms x rows) weight arrays
    for i in range(0, len(rows), step):
        chunk = order[i : i + step]
        f[chunk] = p_terms @ _poisson_weights(j, rows[chunk])
    if lo > first:
        f += p_terms[0] * (1.0 - _gammainc(float(lo), rows))
    out[live] = np.clip(f, 0.0, 1.0)
    return out


def _lugannani_rice(y: float, h: float, lam: np.ndarray) -> np.ndarray:
    """sum_j Pois(j; lam) P(h + j, y) for each lam > 0, by the Lugannani-Rice saddle point.

    The sum is P(Y <= y) for Y ~ Gamma(h + J), J ~ Pois(lam), whose cumulant
    generating function is K(s) = -h log(1 - s) + lam s / (1 - s).  At the
    saddle point K'(s) = y, t = 1/(1 - s) solves lam t^2 + h t = y; with e =
    t - 1 the formula F = Phi(w) + phi(w) (1/w - 1/u) takes
        w = sign(s) sqrt(2 (s y - K(s))) = e sqrt(2 (h s2(e) + lam)) = e W,
        u = s sqrt(K''(s)) = e sqrt(h + 2 lam t) = e U,
        1/w - 1/u = 2 (h s3(e) + lam) / (W U (W + U)),
    where s2(e) = (e - log(1 + e)) / e^2 and s3(e) = (log(1 + e) - e +
    e^2/2) / e^3 are series near e = 0.  Nothing cancels: e comes from
    y - lam - h directly, and the last form has no pole at the mean (e = 0).
    The formula's own relative error falls as y^(-3/2), ~5e-12 at y = 1e6.
    """
    root = np.hypot(h, 2.0 * np.sqrt(lam) * math.sqrt(y))  # sqrt(h^2 + 4 lam y)
    t = 2.0 * y / (h + root)
    e = 4.0 * y / (2.0 * y - h + root) * (((y - lam) - h) / (h + root))
    near = np.abs(e) < 0.1
    small, far = np.where(near, e, 0.0), np.where(near, 1.0, e)
    s2 = s3 = 0.0
    for j in range(16, -1, -1):  # |e|^17 / 19 < 1e-18
        s2 = s2 * -small + 1.0 / (j + 2)
        s3 = s3 * -small + 1.0 / (j + 3)
    ratio = np.log(t) / far  # log(1 + e), with t > 0 where e rounds to -1
    s2 = np.where(near, s2, (1.0 - ratio) / far)
    s3 = np.where(near, s3, ((ratio - 1.0) / far + 0.5) / far)
    w_unit = np.sqrt(2.0 * (h * s2 + lam))
    u_unit = np.sqrt(h + 2.0 * lam * t)
    w = np.clip(e * w_unit, -40.0, 40.0)  # Phi is 0 or 1 in double precision beyond
    tail = np.array([math.erfc(v) for v in (-w / math.sqrt(2.0)).tolist()]) / 2.0
    bend = 2.0 * (h * s3 + lam) / (w_unit + u_unit) / w_unit / u_unit
    return np.clip(tail + np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * bend, 0.0, 1.0)


# Loader's (2000) Stirling remainder, from lgamma at the half-integers n <= 15
# (index 2n); above them its five-term asymptotic series is exact to rounding.
_STIRLERR_HALVES = np.array(
    [0.0] + [math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi) for n in np.arange(1, 31) / 2]
)


def _poisson_weights(j: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Pois(j; lam) for integers j >= 0 and ascending lam > 0, shape (len(j), len(lam)).

    Most entries take the direct j log(lam) - lam - log(j!), whose rounding
    grows with its terms; where |j - lam| >= 0.1 (j + lam) the weights are
    small enough that it costs about 1e-15 absolute at most.  Inside that
    band, where the weights peak, entries take Loader's form (see _log_pmf);
    with lam sorted the band is one run of columns per j.
    """
    m = np.maximum(j, 1.0)  # 0! = 1!, and j = 0 never falls in the band
    base = 0.5 * np.log(2.0 * math.pi * m) + _stirlerr(m)  # log(j!) - (j log j - j)
    log_w = np.multiply.outer(j, np.log(lam))
    log_w -= lam
    log_w -= (m * np.log(m) - m + base)[:, None]
    first = np.searchsorted(lam, j * (9 / 11), side="right")
    count = np.searchsorted(lam, j * (11 / 9)) - first
    band_j = np.repeat(np.arange(len(j)), count)
    band_lam = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    log_w[band_j, band_lam] = -base[band_j] - _bd0(j[band_j], lam[band_lam])
    return np.exp(log_w, out=log_w)


def _stirlerr(n):
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for n > 0 a multiple of 1/2."""
    n2 = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * n2)) / n2) / n2) / n2) / n
    return np.where(n <= 15.0, _STIRLERR_HALVES[np.minimum(2.0 * n, 30.0).astype(int)], series)


def _log_pmf(n, lam):
    """log(lam^n e^-lam / n!) for n >= 0 a multiple of 1/2 and lam > 0, elementwise.

    Loader's saddle-point form -stirlerr(n) - log(2 pi n)/2 - bd0(n, lam)
    keeps the pmf's full relative accuracy where n and lam are large and
    close, where n log(lam) - lam - lgamma(n + 1) cancels away digits.
    Terms in n alone are computed at n's shape, before broadcasting.
    """
    n, lam = np.asarray(n, dtype=float), np.asarray(lam, dtype=float)
    m = np.maximum(n, 0.5)  # n = 0 is set apart at the end
    log_pmf = -(_stirlerr(m) + 0.5 * np.log(2.0 * math.pi * m)) - _bd0(m, lam)
    return np.where(n == 0, -lam, log_pmf)


def _bd0(m: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """m log(m/lam) + lam - m >= 0, broadcast over m and lam.

    Where |t| < 0.1, t = (m - lam)/(m + lam), the direct form loses digits
    to cancellation; there it is (m - lam) t + 2m sum_{j>=1} t^(2j+1)/(2j+1),
    which nine terms fix to rounding.
    """
    with np.errstate(over="ignore"):  # m/lam overflows only where the pmf is 0 anyway
        bd0 = np.asarray(m * np.log(m / lam) + lam - m)
    m, lam = np.broadcast_arrays(m, lam)
    t = (m - lam) / (m + lam)
    near = np.abs(t) < 0.1
    if near.any():
        t, m, gap = t[near], m[near], (m - lam)[near]
        term, total = 2.0 * m * t, gap * t
        for odd in range(3, 21, 2):
            term = term * t * t
            total = total + term / odd
        bd0[near] = total
    return bd0


def _gammainc(a, y):
    """Regularized lower incomplete gamma P(a, y), elementwise, for a > 0 a
    multiple of 1/2 and y >= 0.

    Exactly 0 at y = 0 and 1 at y = inf; elsewhere _log_pmf runs once over
    the batch and _log_gamma_tail once per element, on plain floats.
    """
    a, y = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(y, dtype=float))
    out = np.where(y == math.inf, 1.0, 0.0)
    live = (y > 0) & (y < math.inf)
    if live.any():
        a, y = a[live], y[live]
        elements = zip(a.tolist(), y.tolist(), _log_pmf(a, y).tolist())
        out[live] = [math.exp(_log_gamma_tail(ai, yi, False, lp)[0]) for ai, yi, lp in elements]
    return out


def _gamma_quantile(a: float, p: float) -> float:
    """The y with P(a, y) = p, for 0 <= p < 1.

    Newton steps on the log of the smaller tail: log Q(a, y) = log(1 - p)
    in y when p >= 1/2, else log P(a, y) = log p in log y, where each is
    close to linear.  A step that leaves the bracket found so far bisects
    it instead.  The steps take the pmf in its direct form, whose rounding
    grows with a and y, and one last step with _log_pmf removes it.
    """
    if p == 0.0:
        return 0.0
    upper = p >= 0.5
    target = math.log1p(-p) if upper else math.log(p)
    log_gamma = math.lgamma(a + 1.0)

    def newton(y: float, log_pmf: float) -> tuple[bool, float]:
        """Whether y lies below the quantile, and the Newton step from y."""
        log_tail, ratio = _log_gamma_tail(a, y, upper, log_pmf)
        g = log_tail - target
        step = y + g * ratio if upper else y * math.exp(min(-g * ratio / y, 700.0))
        return (g > 0) == upper, step

    lo, hi, y = 0.0, math.inf, a
    for _ in range(100):
        below, new = newton(y, a * math.log(y) - y - log_gamma)
        if abs(new - y) <= 1e-10 * y:
            break
        lo, hi = (y, hi) if below else (lo, y)
        y = new if lo < new < hi else 0.5 * (lo + hi) if hi < math.inf else 2.0 * y
    return newton(new, float(_log_pmf(a, new)))[1]


def _log_gamma_tail(a: float, y: float, upper: bool, log_pmf: float) -> tuple[float, float]:
    """log Q(a, y) if ``upper`` else log P(a, y), and that tail over the Gamma(a)
    density at y > 0, given log pmf = log(y^a e^-y / Gamma(a + 1)).

    The only series and continued fraction for P and Q, on plain floats,
    which beat numpy's per-call cost at the few elements each caller passes.
    """
    if y < a + 1.0:
        term = total = 1.0
        n = a
        while term > _EPS * total:
            n += 1.0
            term *= y / n
            total += term
        log_tail, is_upper = log_pmf + math.log(total), False
    else:
        b = y + 1.0 - a
        c, d = 1e300, 1.0 / b
        h, step, i = d, 0.0, 0
        while abs(step - 1.0) > _EPS:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            step = c * d
            h *= step
        log_tail, is_upper = math.log(a * h) + log_pmf, True
    if is_upper != upper:
        log_tail = math.log(-math.expm1(log_tail))
    log_density = math.log(a / y) + log_pmf
    return log_tail, math.exp(min(log_tail - log_density, 700.0))


# Unit phasors e^{i theta}: theta = n * step + r with step = 2 pi / 1024, a
# table of cos and sin at n * step, and Taylor series in |r| <= step / 2.  The
# step is split in three (Cody-Waite): _CIS_STEP1 and _CIS_STEP2 have 21
# significant bits, so n * _CIS_STEP1 and n * _CIS_STEP2 are exact for
# |n| <= 2^32, and r is exact to about 1e-18 up to _CIS_LIMIT.  The table is
# rounded from np.longdouble once, at import.
_CIS_STEP1, _CIS_STEP2, _CIS_STEP3 = 0.00613592192530632, 1.2262360016279672e-09, 2.4310047546471146e-16
_CIS_LIMIT = 2.0**32 * _CIS_STEP1
_CIS_ANGLES = np.arange(1024) * (np.longdouble(_CIS_STEP1) + np.longdouble(_CIS_STEP2) + np.longdouble(_CIS_STEP3))
_CIS_COS, _CIS_SIN = np.cos(_CIS_ANGLES).astype(float), np.sin(_CIS_ANGLES).astype(float)
_CIS_WORK = 6  # work arrays _cos_sin needs


def _cos_sin(theta: np.ndarray, cos: np.ndarray, sin: np.ndarray, work) -> None:
    """Write cos(theta) into ``cos`` and sin(theta) into ``sin``.

    Within about 1.2e-16 of the exact values for |theta| < _CIS_LIMIT
    (~2.6e7); beyond it, and for non-finite theta, they are the parts of
    np.exp(1j * theta).  A few times faster than np.exp(1j * theta), which
    takes the complex exponential's general path.

    ``theta`` is overwritten, and ``work`` holds _CIS_WORK contiguous float
    arrays of theta's shape; callers that evaluate many equal-sized blocks
    reuse them, so the kernel allocates nothing and touches no fresh memory.
    """
    far = None
    if not (theta.min(initial=0.0) > -_CIS_LIMIT and theta.max(initial=0.0) < _CIS_LIMIT):  # NaN fails too
        far = ~(np.abs(theta) < _CIS_LIMIT)
        far_theta = theta[far]
        theta[far] = 0.0
    n, cm1, c, s, t, sr = work
    k = cm1.view(np.int64)
    np.multiply(theta, 1.0 / (_CIS_STEP1 + _CIS_STEP2), out=n)
    np.rint(n, out=n)
    np.copyto(k, n, casting="unsafe")
    k &= 1023
    np.take(_CIS_COS, k, out=c, mode="clip")
    np.take(_CIS_SIN, k, out=s, mode="clip")
    r = theta  # theta - n * step
    r -= np.multiply(n, _CIS_STEP1, out=t)
    r -= np.multiply(n, _CIS_STEP2, out=t)
    r -= np.multiply(n, _CIS_STEP3, out=t)
    u = np.multiply(r, r, out=n)
    np.multiply(u, 1.0 / 24.0, out=cm1)  # cos r - 1 = u (-1/2 + u / 24), to 1.2e-18
    cm1 -= 0.5
    cm1 *= u
    np.multiply(u, 1.0 / 120.0, out=sr)  # sin r = r + r u (-1/6 + u / 120), to 5e-22
    sr -= 1.0 / 6.0
    sr *= u
    sr *= r
    sr += r
    # cos = c + (c (cos r - 1) - s sin r) and sin = s + (s (cos r - 1) + c sin r):
    # the corrections are below 3.1e-3, so the table's rounding dominates.
    np.multiply(c, cm1, out=t)
    t -= np.multiply(s, sr, out=u)
    cm1 *= s
    sr *= c
    cm1 += sr
    np.add(c, t, out=cos)
    np.add(s, cm1, out=sin)
    if far is not None:
        z = np.exp(1j * far_theta)
        cos[far], sin[far] = z.real, z.imag


# Gil-Pelaez quadrature for the generalized chi-square CDF.  The nodes depend
# on the weights, x and a bound over the offsets, so rows can share them.
# 16-point Gauss-Legendre rule on [-1, 1], equal to
# numpy.polynomial.legendre.leggauss(16) bit for bit; as constants they spare
# every process the import of numpy.polynomial (~1.5 MB and ~5 ms).
_GL_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
_GL_NODES = np.concatenate([-np.array(_GL_HALF_NODES[::-1]), _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
_GCHI2_EPS = 1e-13  # truncation and screening level, absolute in probability
_WORK_BUDGET = 2**14  # elements per chunk of the Poisson weights, screen, cutoff and contour: they stay in cache
# Radians the integrand may turn through in one 16-node panel, on the real
# axis and on the ray.  On random cases (M 2-30, weight spread 1-1e4,
# offsets up to 1e3 weights, x within 3 sd of the mean), real-axis panels of
# 8 rad stayed within 9.5e-14 of the same evaluator at 2 rad, while 10 and
# 12 rad exceeded _GCHI2_EPS in the lower tail (up to 3.4e-13 and 1.1e-11).
# Ray panels of 16 to 32 rad stayed within 5.6e-16 of 2-rad ones, and 48 rad
# reached 8.1e-15.
_PANEL_PHASE = 8.0
_RAY_PANEL_PHASE = 24.0
_TAIL_TILT = np.exp(-0.25j * np.pi)  # the tail ray runs 45 degrees below the real axis
# Chernoff points, in units of 1/(2 max weight): s < 0 bounds P(Q <= x), 0 < s < 1 bounds P(Q >= x).
_CHERNOFF_LOWER = -np.logspace(-3.0, 9.0, 97)
_CHERNOFF_UPPER = 1.0 - np.logspace(-9.0, 0.0, 37)[:-1]


def generalized_chi2_cdf(x: float, weights, offsets):
    """P(Q <= x) for Q = sum_k weights_k * chi2(2, offsets_k / weights_k).

    Each term is a positive weight lam_k times a noncentral chi-square with
    two degrees of freedom, i.e. |b_k + sqrt(lam_k) (u + jv)|^2 with u, v
    ~ N(0, 1) and offsets_k = |b_k|^2.  This is the law of 2 d^H R^-1 d for
    any complex Gaussian d, with weights the eigenvalues of R^-1 cov(d);
    harness.miss_rates gets them as ratios of circulant spectra.
    ``weights`` has shape (M,); ``offsets`` has shape (..., M), one row per
    quadratic form sharing the weights; the result has shape
    offsets.shape[:-1].

    Equal weights reduce exactly to noncentral_chi2_cdf, which is used
    directly.  Otherwise the CDF is the Gil-Pelaez inversion integral
    (Imhof 1961; cf. Davies 1980) on contours shared by groups of rows:
    Gauss-Legendre panels along the real axis, then a ray rotated 45
    degrees into the lower half plane, where the characteristic function
    has no singularities and e^{-iux} decays exponentially.  A wide weight
    spread therefore costs few more nodes than a narrow one.  Rows whose
    Chernoff bound puts the probability below 1e-13 return 0, and rows
    whose bound puts it above 1 - 1e-13 return 1.
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
        live = ~_chernoff_screen(x, lam, m, _CHERNOFF_LOWER)
        one = _chernoff_screen(x, lam, m, _CHERNOFF_UPPER)
        out[one] = 1.0
        live &= ~one
        if x > 0 and live.any():
            out[live] = _gil_pelaez(float(x), lam, m[live])
    return float(out[0]) if not shape else out.reshape(shape)


def _chernoff_screen(x: float, lam: np.ndarray, m: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows whose Chernoff bound over ``points`` puts a tail of Q below 1e-13.

    log E[e^{sQ}] - s x bounds log P(Q <= x) for s < 0 and log P(Q >= x)
    for 0 < s < 1/(2 max weight); ``points`` are s in units of that limit.
    Rows go through in chunks of _WORK_BUDGET (rows x points) elements, each
    reduced to its rows' least bound, so the work does not grow with the rows.
    """
    s = points / (2.0 * lam.max())
    d = 1.0 - 2.0 * np.outer(lam, s)
    slope, free, tilt = s / d, np.log(d).sum(axis=0), s * x
    bound = np.empty(len(m))
    step = max(1, _WORK_BUDGET // len(s))
    for i in range(0, len(m), step):
        bound[i : i + step] = (m[i : i + step] @ slope - free - tilt).min(axis=1)
    return bound < math.log(_GCHI2_EPS)


def _gil_pelaez(x: float, lam: np.ndarray, m: np.ndarray) -> np.ndarray:
    """F(x) = 1/2 - (1/pi) Im int e^{-iux} phi(u) / u du along a tilted contour.

    phi(u) = prod_k exp(i m_k u / (1 - 2i lam_k u)) / (1 - 2i lam_k u) is the
    characteristic function; its log is linear in the real offsets, so each
    chunk of nodes takes its real and imaginary parts as two real (rows x M)
    @ (M x nodes) products.  The integrand is then e^{real part} times the
    unit phasor of the imaginary part (_cos_sin), and the imaginary part of
    its node sum is two real products with the weights over u; no complex
    product, exp or log touches a (rows x nodes) array.  The contour runs
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
    for level in sorted(set(octave.tolist())):  # not np.unique, which imports numpy.ma on first use
        rows = octave == level
        j = int(split[rows].max())
        offsets = m[rows]
        nodes, weights = _gil_pelaez_contour(x, lam, offsets, j, light_mean[rows, j].max())
        total = np.zeros(len(offsets))
        step = max(1, _WORK_BUDGET // len(offsets))
        work = np.empty((4 + _CIS_WORK, len(offsets) * min(step, len(nodes))))  # reused by every chunk
        for i in range(0, len(nodes), step):
            u = nodes[i : i + step]
            modulus, phase, cos, sin, *cis_work = (w[: len(offsets) * len(u)].reshape(len(offsets), len(u)) for w in work)
            den = 1.0 - 2j * np.outer(lam, u)
            slope = 1j * u / den  # d log phi / d m_k, (M x nodes)
            free = -np.log(den).sum(axis=0) - 1j * u * x  # the rest of log(e^{-iux} phi)
            v = weights[i : i + step] / u
            np.matmul(offsets, np.ascontiguousarray(slope.real), out=modulus)
            modulus += free.real
            np.matmul(offsets, np.ascontiguousarray(slope.imag), out=phase)
            phase += free.imag
            _cos_sin(phase, cos, sin, cis_work)
            np.exp(modulus, out=modulus)
            total += np.multiply(cos, modulus, out=cos) @ v.imag
            total += np.multiply(sin, modulus, out=sin) @ v.real
        out[rows] = 0.5 - total / math.pi
    return np.clip(out, 0.0, 1.0)


def _gil_pelaez_contour(
    x: float, lam: np.ndarray, m: np.ndarray, split: int, light_mean: float
) -> tuple[np.ndarray, np.ndarray]:
    """Complex nodes and weights for rows that turn onto the ray at u0 = 1/(2 lam[split]).

    Along the ray the integrand decays at least like
    e^{-r (x - 2 * light_mean) sin(pi/4)}.  If every row's real-axis tail is
    already below the truncation level before u0, the ray is dropped.
    Panel widths follow a bound on how fast the integrand's phase turns:
    at most _PANEL_PHASE radians per panel on the real axis and
    _RAY_PANEL_PHASE on the ray.
    """
    u0 = 0.5 / lam[split]
    m_max = m.max(axis=0)

    def real_rate(u):  # |d/du arg(e^{-iux} phi(u))| on [u, inf)
        return x + np.sum((2.0 * lam + m_max) / (1.0 + (2.0 * lam * u) ** 2))

    def ray_rate(r):  # same along the ray, using |1 - 2i lam u| >= both bounds below
        d = 1.0 / np.maximum(math.sqrt(0.5) * (1.0 + 2.0 * lam * u0), 2.0 * lam * u0 + math.sqrt(2.0) * lam * r)
        return x + np.sum(2.0 * lam * d + m_max * d * d)

    stop = min(u0, _real_axis_cutoff(lam, m))
    nodes, weights = _gauss_legendre(_panel_edges(stop, min(0.5 / lam[0], stop), real_rate, _PANEL_PHASE))
    nodes, weights = nodes.astype(complex), weights.astype(complex)
    if stop == u0:
        decay = (x - 2.0 * light_mean) * math.sin(math.pi / 4)
        length = (math.log(1.0 / _GCHI2_EPS) + max(0.0, -math.log(u0 * decay))) / decay
        r, wr = _gauss_legendre(_panel_edges(length, u0, ray_rate, _RAY_PANEL_PHASE))
        nodes = np.concatenate([nodes, u0 + r * _TAIL_TILT])
        weights = np.concatenate([weights, wr * _TAIL_TILT])
    return nodes, weights


def _real_axis_cutoff(lam: np.ndarray, m: np.ndarray) -> float:
    """A u beyond which every row's real-axis integral is below the truncation level.

    |integrand| = env(u) = prod_k (1 + z_k^2)^(-1/2) e^{-m_k z_k^2 / (2 lam_k (1 + z_k^2))} / u
    with z_k = 2 lam_k u.  Its log-slope in log u is at most -(1 + q(U))
    beyond U, with q(U) = sum_k z_k^2 / (1 + z_k^2), so the tail past U is
    at most U env(U) / q(U) (Davies-style bound).  Infinite if no grid
    point qualifies.  Only the row with the least offset term sets the
    largest bound at each grid point, so rows go through in chunks of
    _WORK_BUDGET (rows x grid) elements that keep a running minimum of
    that term; the work does not grow with the rows.
    """
    u = np.logspace(math.log10(1e-3 / lam.max()), math.log10(1e3 / lam.min()), 240)
    z2 = (2.0 * np.outer(lam, u)) ** 2
    rate = 0.5 * z2 / ((1.0 + z2) * lam[:, None])
    least = np.full(len(u), math.inf)
    step = max(1, _WORK_BUDGET // len(u))
    for i in range(0, len(m), step):
        np.minimum(least, (m[i : i + step] @ rate).min(axis=0), out=least)
    log_tail = -0.5 * np.log1p(z2).sum(axis=0) - least - np.log((z2 / (1.0 + z2)).sum(axis=0))
    ok = np.nonzero(log_tail < math.log(math.pi * _GCHI2_EPS))[0]
    return float(u[ok[0]]) if len(ok) else math.inf


def _panel_edges(stop: float, first: float, rate, turn: float) -> np.ndarray:
    """Panel edges on [0, stop]: widths at most double, start at ``first``, and
    never let the phase turn more than ``turn`` radians, given the
    nonincreasing phase-rate bound ``rate(left edge)``."""
    edges = [0.0]
    b = min(first, turn / rate(0.0))
    while b < stop:
        edges.append(b)
        b += min(b, turn / rate(b))
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


def sample_complex_gaussian(rng: RngStream, variance, size) -> np.ndarray:
    """Draw an array of zero-mean circular complex Gaussians with E|x|^2 = variance.

    ``variance`` may be an array; it broadcasts against ``size`` (an int
    or a shape).  A negative, NaN or infinite variance raises ValueError.
    """
    variance = np.asarray(variance, dtype=float)
    if np.count_nonzero((variance >= 0) & (variance < np.inf)) < variance.size:  # NaN fails too
        raise ValueError("variance must be nonnegative and finite")
    shape = np.broadcast_shapes(variance.shape, size)
    g = rng.generator
    x = np.empty(shape, dtype=complex)  # filled in place: no complex temporaries
    x.real = g.standard_normal(shape)
    x.imag = g.standard_normal(shape)
    x *= np.sqrt(variance / 2.0)
    return x


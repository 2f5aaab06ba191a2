"""Special functions, Cholesky whitening, and sampling primitives."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanauth import numerics
from chanauth.numerics import (
    NotPositiveDefiniteError,
    RngStream,
    chi2_cdf,
    chi2_inv,
    cholesky,
    generalized_chi2_cdf,
    half_whiten,
    noncentral_chi2_cdf,
    sample_complex_gaussian,
)

from _oracles import (
    adaptive_simpson,
    central_gchi2_cdf,
    chernoff_screen_one_shot,
    chi2_cdf_by_integration,
    chi2_pdf,
    gchi2_cdf_by_simpson,
    real_axis_cutoff_one_shot,
)


class TestChi2Cdf:
    def test_at_origin(self):
        assert chi2_cdf(0.0, 20) == 0.0

    def test_two_dof_closed_form(self):
        # With 2 dof the CDF is 1 - e^{-x/2}.
        for x in (0.5, 1.0, 9.21034, 40.0):
            assert chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2), abs=1e-12)

    def test_against_quadrature_oracle(self):
        assert chi2_cdf(37.5662, 20) == pytest.approx(0.99, abs=1e-4)
        for x, k in ((37.5662, 20), (5.0, 4), (120.0, 100), (1.0, 1)):
            assert chi2_cdf(x, k) == pytest.approx(chi2_cdf_by_integration(x, k), abs=1e-9)

    def test_quadrature_oracle_against_exact_values(self):
        # The oracle itself, against the regularized lower incomplete gamma
        # P(k/2, x/2) evaluated in 40-digit arithmetic (mpmath.gammainc).
        exact = {
            (37.5662, 20): 0.98999990292083027,
            (5.0, 4): 0.71270250481635422,
            (120.0, 100): 0.91559331890630817,
            (1.0, 1): 0.68268949213708590,
        }
        for (x, k), value in exact.items():
            assert chi2_cdf_by_integration(x, k) == pytest.approx(value, abs=1e-11)

    def test_monotone_and_bounded(self):
        xs = np.linspace(0.0, 200.0, 400)
        vals = chi2_cdf(xs, 12)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_cdf(-1.0, 4)
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0)


class TestChi2Inv:
    def test_zero_quantile(self):
        assert chi2_inv(0.0, 20) == 0.0

    def test_two_dof_closed_form(self):
        assert chi2_inv(0.99, 2) == pytest.approx(-2.0 * math.log(0.01), abs=1e-9)

    def test_round_trip(self):
        for p in (0.01, 0.5, 0.9, 0.99, 0.999):
            for k in (2, 10, 20, 64):
                assert chi2_cdf(chi2_inv(p, k), k) == pytest.approx(p, abs=1e-9)

    def test_against_quadrature_root(self):
        # Bisect the integrated density to locate the 0.99 quantile for 20 dof.
        lo, hi = 0.0, 200.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if chi2_cdf_by_integration(mid, 20) < 0.99:
                lo = mid
            else:
                hi = mid
        assert chi2_inv(0.99, 20) == pytest.approx(0.5 * (lo + hi), abs=1e-4)
        assert chi2_inv(0.99, 20) == pytest.approx(37.5662, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_inv(1.0, 4)
        with pytest.raises(ValueError):
            chi2_inv(-0.1, 4)


class TestNoncentralChi2Cdf:
    def test_zero_noncentrality_collapses(self):
        for x in (0.0, 3.0, 37.5662):
            assert noncentral_chi2_cdf(x, 20, 0.0) == chi2_cdf(x, 20)

    def test_at_origin(self):
        assert noncentral_chi2_cdf(0.0, 8, 5.0) == 0.0

    def test_strictly_decreasing_in_mu(self):
        mus = np.linspace(0.0, 80.0, 30)
        vals = noncentral_chi2_cdf(37.5662, 20, mus)
        assert np.all(np.diff(vals) < 0)

    def test_against_monte_carlo(self):
        # Sum of k squared unit normals with means carrying total mu.
        k, mu, x = 20, 50.0, 37.5662
        shift = np.float32(math.sqrt(mu / k))
        gen = RngStream(123).generator
        n = 10_000_000
        below = 0
        for _ in range(10):
            z = gen.standard_normal((n // 10, k), dtype=np.float32)
            z += shift
            total = np.sum(np.square(z), axis=1)
            below += int(np.count_nonzero(total < x))
        estimate = below / n
        assert 0.0 < estimate < 1.0
        assert noncentral_chi2_cdf(x, k, mu) == pytest.approx(estimate, abs=2e-3)

    @pytest.mark.parametrize("y", [1e8, 1e9])
    def test_saddle_point_matches_mixture(self, y):
        # x/2 = y at 1 and 3 standard deviations either side of the mean h + lam
        # (k = 10 dof, so h = 5); the saddle point's own error there is ~1e-14.
        h = 5.0
        lam = []
        for sds in (-3.0, -1.0, 1.0, 3.0):
            value = y - h
            for _ in range(8):  # fixed point of lam = y - h - sds * sqrt(h + 2 lam)
                value = y - h - sds * math.sqrt(h + 2.0 * value)
            lam.append(value)
        lam = np.array(lam)
        mixture = numerics._poisson_mixture(y, h, lam)
        assert np.abs(numerics._lugannani_rice(y, h, lam) - mixture).max() <= 2e-13
        assert mixture == pytest.approx([0.00135, 0.15866, 0.84134, 0.99865], abs=1e-4)  # ~Phi(sds)

    def test_past_the_term_cap(self):
        # At x/2 = mu/2 = 5.2e19 the mixture would need ~1.4e11 terms; the
        # saddle point gives the CDF at the mean, 1/2 + O(1/sqrt(mu)).
        x = 1.043219786681157e20
        assert noncentral_chi2_cdf(x, 20, x) == pytest.approx(0.5, abs=1e-9)
        # One standard deviation of mu/2 is ~1e-10 of it.
        values = noncentral_chi2_cdf(x, 20, x * (1.0 + 1e-10 * np.arange(-3.0, 4.0)))
        assert np.all(np.diff(values) < 0) and 0.0 < values[-1] < values[0] < 1.0
        assert noncentral_chi2_cdf(x, 20, [1.0, 1e30]).tolist() == [1.0, 0.0]

    def test_working_memory_is_bounded(self):
        # The Poisson weights go through in chunks of a fixed number of
        # (terms x rows) elements, so ten times the rows adds a few per-row
        # arrays to the peak, not (73 terms x rows) ones.
        def peak(rows: int) -> int:
            mu = np.linspace(0.0, 80.0, rows)
            tracemalloc.start()
            try:
                noncentral_chi2_cdf(37.5662, 20, mu)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations out of the measurement
        small, large = peak(2000), peak(20_000)
        assert large - small <= 10 * 18_000 * 8  # ten (18 000,) float arrays, 1.4 MB

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(-1.0, 4, 1.0)
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(1.0, 4, -1.0)


class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(5, dtype=complex))
        assert np.allclose(f, np.eye(5))

    def test_diagonal(self):
        d = np.array([1.0, 4.0, 9.0])
        f = cholesky(np.diag(d).astype(complex))
        assert np.allclose(f, np.diag(np.sqrt(d)))

    def test_reconstruction(self):
        gen = RngStream(7).generator
        b = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
        a = b.conj().T @ b + np.eye(6)
        f = cholesky(a)
        # Upper-triangular factor with positive real diagonal.
        assert np.allclose(f, np.triu(f))
        assert np.all(np.real(np.diag(f)) > 0)
        err = np.abs(f.conj().T @ f - a).max()
        assert err <= 1e-10 * np.abs(a).max()

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.ones((3, 3), dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            cholesky(np.eye(3, 2, dtype=complex))


class TestWhitening:
    def test_half_whiten_covariance(self):
        # v ~ CN(0, R)  ->  sqrt(2) (R_d^H)^-1 v ~ CN(0, 2I).
        gen = RngStream(11).generator
        b = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        r = cholesky(b.conj().T @ b + np.eye(4))
        n = 100_000
        w = (gen.standard_normal((n, 4)) + 1j * gen.standard_normal((n, 4))) / math.sqrt(2)
        v = w @ r.conj()
        z = half_whiten(r, v)
        cov = z.T @ z.conj() / n
        assert np.abs(cov - 2.0 * np.eye(4)).max() <= 0.05 * 2.0

    def test_sample_offset_covariance(self):
        gen = RngStream(12).generator
        b = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        a = b.conj().T @ b + np.eye(3)
        r = cholesky(a)
        n = 200_000
        w = (gen.standard_normal((n, 3)) + 1j * gen.standard_normal((n, 3))) / math.sqrt(2)
        v = w @ r.conj()
        cov = v.T @ v.conj() / n
        assert np.abs(cov - a).max() <= 0.05 * np.abs(a).max()


class TestSampling:
    def test_zero_variance(self):
        x = sample_complex_gaussian(RngStream(1), 0.0, size=100)
        assert np.all(x == 0)

    def test_mean_power(self):
        x = sample_complex_gaussian(RngStream(2), 2.0, size=1_000_000)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(2.0, abs=0.01)

    def test_determinism(self):
        a = sample_complex_gaussian(RngStream(5, 3), 1.0, size=64)
        b = sample_complex_gaussian(RngStream(5, 3), 1.0, size=64)
        assert np.array_equal(a, b)

    def test_stream_independence(self):
        a = sample_complex_gaussian(RngStream(5, 0), 1.0, size=100_000)
        b = sample_complex_gaussian(RngStream(5, 1), 1.0, size=100_000)
        rho = np.abs(np.mean(a * b.conj()))
        assert rho < 0.01

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(RngStream(1), -1.0, size=1)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, [1.0, math.nan], [math.inf, 1.0]])
    def test_non_finite_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="finite"):
            sample_complex_gaussian(RngStream(1), variance, size=2)


def cos_sin(theta) -> np.ndarray:
    """numerics._cos_sin of a copy of ``theta``, as e^{i theta}."""
    theta = np.array(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    numerics._cos_sin(theta, out.real, out.imag, np.empty((numerics._CIS_WORK, *theta.shape)))
    return out


class TestCis:
    def test_split_of_the_table_step(self):
        # Two 21-bit leading parts (n * part exact for |n| <= 2^32) and a
        # remainder that sum to 2 pi / 1024 far below double precision.
        pi = Fraction("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899")
        parts = [Fraction(p) for p in (numerics._CIS_STEP1, numerics._CIS_STEP2, numerics._CIS_STEP3)]
        for part in (numerics._CIS_STEP1, numerics._CIS_STEP2):
            assert (math.frexp(part)[0] * 2**21).is_integer()
        assert abs(sum(parts) - pi / 512) < Fraction(1, 2**100)
        assert round(Fraction(numerics._CIS_LIMIT) / (pi / 512)) <= 2**32

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, numerics._CIS_LIMIT])
    def test_against_long_double(self, scale):
        theta = np.random.default_rng(int(scale) % 97).uniform(-scale, scale, 200_000)
        theta[:4] = [0.0, -0.0, np.nextafter(scale, 0.0), -np.nextafter(scale, 0.0)]
        theta = theta[np.abs(theta) < numerics._CIS_LIMIT]
        z = cos_sin(theta)
        exact = theta.astype(np.longdouble)
        assert np.max(np.abs(z.real - np.cos(exact))) <= 2.5e-16
        assert np.max(np.abs(z.imag - np.sin(exact))) <= 2.5e-16

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.lists(
            st.one_of(
                st.floats(-1e300, 1e300, allow_nan=False),
                st.floats(-4 * numerics._CIS_LIMIT, 4 * numerics._CIS_LIMIT, allow_nan=False),
                st.sampled_from([0.0, -0.0, numerics._CIS_LIMIT, -numerics._CIS_LIMIT]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_complex_exp(self, theta):
        # Near and far elements mixed in one call; both sides agree to a few
        # ulp of theta (np.exp reduces theta exactly) and both are unit phasors.
        theta = np.array(theta)
        z = cos_sin(theta)
        assert z.shape == theta.shape and np.all(np.isfinite(z))
        assert np.all(np.abs(np.abs(z) - 1.0) <= 4e-16)
        assert np.all(np.abs(z - np.exp(1j * theta)) <= 4.0 * np.spacing(np.abs(theta)) + 2.5e-16)


def test_gauss_legendre_constants_are_leggauss():
    # The run path never imports numpy.polynomial; its rule is kept as constants.
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert np.array_equal(numerics._GL_NODES, nodes)
    assert np.array_equal(numerics._GL_WEIGHTS, weights)


def test_simpson_oracle_self_check():
    # The quadrature itself must integrate a known polynomial exactly.
    val = adaptive_simpson(lambda t: 3.0 * t**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, abs=1e-12)
    assert chi2_pdf(-1.0, 4) == 0.0


def _gchi2_case(weights, offset_scale, quantile, seed=0):
    """Weights, offsets and a threshold at ``quantile`` times the mean of Q."""
    weights = np.asarray(weights, dtype=float)
    offsets = np.random.default_rng(seed).exponential(1.0, weights.size) * weights * offset_scale
    return weights, offsets, quantile * float(np.sum(2.0 * weights + offsets))


@st.composite
def gchi2_cases(draw):
    m = draw(st.integers(1, 6))
    weights = 10.0 ** np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m)))
    log_offsets = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
    central = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    offsets = np.where(central, 0.0, weights * 10.0**log_offsets)
    x = float(np.sum(2.0 * weights + offsets)) * 10.0 ** draw(st.floats(-2.0, 1.0))
    return weights, offsets, x


@st.composite
def panel_budget_cases(draw):
    """M from 2 to 30, weight spreads up to 1e4, offsets up to 1e3 weights, x within 3 sd of the mean."""
    m = draw(st.integers(2, 30))
    spread = draw(st.floats(0.0, 4.0))
    weights = 10.0 ** np.array(draw(st.lists(st.floats(0.0, spread), min_size=m, max_size=m)))
    log_ratio = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
    central = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    offsets = np.where(central, 0.0, weights * 10.0**log_ratio)
    mean = float(np.sum(2.0 * weights + offsets))
    sd = math.sqrt(float(np.sum(4.0 * weights * (weights + offsets))))
    return weights, offsets, max(0.0, mean + draw(st.floats(-3.0, 3.0)) * sd)


@st.composite
def chunked_rows_cases(draw, points: int, least_rows: int = 0):
    """Weights, offsets and x, with row counts at and around the chunk of ``points`` columns."""
    step = max(1, numerics._WORK_BUDGET // points)
    edges = [r for r in (0, 1, step - 1, step, step + 1) if r >= least_rows]
    rows = draw(st.sampled_from(edges) | st.integers(2 * step, 4 * step + 1))
    m = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = 10.0 ** rng.uniform(0.0, draw(st.floats(0.0, 4.0)), m)
    offsets = rng.exponential(1.0, (rows, m)) * weights * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    return weights, offsets, float(np.sum(2.0 * weights)) * 10.0 ** draw(st.floats(-1.0, 3.0))


class TestGeneralizedChi2Cdf:
    def test_equal_weights_are_noncentral_chi2(self):
        offsets = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5], [40.0, 0.0, 3.0]])
        got = generalized_chi2_cdf(7.0, [2.0, 2.0, 2.0], offsets)
        want = noncentral_chi2_cdf(3.5, 6, offsets.sum(axis=1) / 2.0)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("weights", [[1.0, 3.0, 7.0], [1.0, 1e4], [1.0, 30.0, 1e4], list(np.logspace(0, 4, 5))])
    def test_central_closed_form(self, weights):
        # Partial fractions are exact for distinct weights and zero offsets,
        # including spreads of 1e4 with only two terms.
        for quantile in (0.05, 0.3, 1.0, 3.0):
            x = quantile * 2.0 * sum(weights)
            got = generalized_chi2_cdf(x, weights, np.zeros(len(weights)))
            assert got == pytest.approx(central_gchi2_cdf(x, weights), abs=1e-10)

    @pytest.mark.parametrize(
        "weights, offset_scale",
        [
            ([1.0, 2.0, 5.0, 9.0], 0.3),
            (list(np.linspace(1.0, 7.9, 10)), 3.0),
            ([1.0, 46.0, 1.0, 1.0, 1.0], 1.0),
            (list(np.logspace(0, 2, 4)), 0.0),
            (list(np.logspace(0, 4, 6)), 0.0),
            (list(np.logspace(0, 4, 6)), 3.0),
            ([1e4, 1e4, 1.0, 1.0, 1.0], 3.0),
        ],
    )
    def test_matches_simpson_oracle(self, weights, offset_scale):
        for quantile in (0.3, 1.0, 2.0):
            w, m, x = _gchi2_case(weights, offset_scale, quantile, seed=len(weights))
            assert generalized_chi2_cdf(x, w, m) == pytest.approx(gchi2_cdf_by_simpson(x, w, m), abs=1e-9)

    def test_rows_match_single_evaluation(self):
        # Rows share one contour; each row's value must not depend on the others.
        weights = np.array([1.0, 4.0, 30.0, 200.0])
        offsets = np.random.default_rng(5).exponential(1.0, (25, 4)) * weights * np.logspace(-2, 1.5, 25)[:, None]
        x = 300.0
        batch = generalized_chi2_cdf(x, weights, offsets)
        single = np.array([generalized_chi2_cdf(x, weights, row) for row in offsets])
        assert batch.shape == (25,)
        assert np.max(np.abs(batch - single)) <= 1e-11

    @pytest.mark.parametrize("weights", [[2.0, 2.0, 2.0], [1.0, 4.0, 30.0]])
    def test_zero_rows(self, weights):
        # Both paths, the noncentral one and the screened contour.
        assert generalized_chi2_cdf(5.0, weights, np.zeros((0, 3))).shape == (0,)

    def test_working_memory_is_bounded(self):
        # The Chernoff screen and the real-axis cutoff stream rows through a
        # fixed work budget, so ten times the rows adds a few (rows x M)
        # arrays to the peak, not (rows x 240) ones; x keeps about 2/3 of
        # the rows live for the contour.
        weights = np.array([3.0, 1.5, 0.7, 0.3, 0.1])
        x = 2.5 * float(np.sum(2.0 * weights))

        def peak(rows: int) -> int:
            offsets = np.random.default_rng(11).exponential(20.0, (rows, weights.size))
            tracemalloc.start()
            try:
                generalized_chi2_cdf(x, weights, offsets)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations out of the measurement
        small, large = peak(2000), peak(20_000)
        assert large - small <= 4 * 18_000 * weights.size * 8  # four (18 000 x M) arrays, 2.9 MB

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), points=st.sampled_from([numerics._CHERNOFF_LOWER, numerics._CHERNOFF_UPPER]))
    def test_chunked_screen_is_one_shot(self, data, points):
        weights, offsets, x = data.draw(chunked_rows_cases(len(points)))
        got = numerics._chernoff_screen(x, weights, offsets, points)
        assert np.array_equal(got, chernoff_screen_one_shot(x, weights, offsets, points))

    @settings(max_examples=60, deadline=None)
    @given(case=chunked_rows_cases(240, least_rows=1))
    def test_chunked_cutoff_is_one_shot(self, case):
        # The contour asks for a cutoff only over live rows, so at least one.
        weights, offsets, _ = case
        assert numerics._real_axis_cutoff(weights, offsets) == real_axis_cutoff_one_shot(weights, offsets)

    def test_far_lower_tail_is_zero(self):
        assert generalized_chi2_cdf(10.0, [1.0, 2.0, 3.0], [1e6, 0.0, 0.0]) == 0.0
        assert generalized_chi2_cdf(0.0, [1.0, 2.0], [0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("x, screened_to", [(30.0, 0.0), (300.0, 0.0), (3e4, 1.0), (1e5, 1.0)])
    def test_screened_rows_match_contour(self, x, screened_to):
        # Rows the Chernoff screens return as exactly 0 or 1 agree with the
        # contour integral they skip, to the truncation level.
        weights = np.array([1.0, 4.0, 30.0, 200.0])
        offsets = np.random.default_rng(5).exponential(1.0, (25, 4)) * weights * np.logspace(-2, 2.5, 25)[:, None]
        zero = numerics._chernoff_screen(x, weights, offsets, numerics._CHERNOFF_LOWER)
        one = numerics._chernoff_screen(x, weights, offsets, numerics._CHERNOFF_UPPER)
        screened = one if screened_to else zero
        assert screened.any() and not (zero & one).any()
        assert np.all(generalized_chi2_cdf(x, weights, offsets)[screened] == screened_to)
        contour = numerics._gil_pelaez(x, weights, offsets[screened])
        assert np.max(np.abs(contour - screened_to)) <= 1e-13

    def test_far_upper_tail_is_one(self, time_limit):
        # Panel widths shrink like 1/x, so without the upper screen this never finishes.
        weights = [1.0, 4.0, 30.0, 200.0]
        offsets = np.random.default_rng(6).exponential(1.0, (8, 4)) * 1e3
        with time_limit(30):
            assert np.all(generalized_chi2_cdf(1e100, weights, offsets) == 1.0)
            assert generalized_chi2_cdf(1e6, [1e-3, 2e-3], [0.0, 5.0]) == 1.0

    @pytest.mark.parametrize(
        "x, weights, offsets",
        [
            (1.0, [1.0, -2.0], [0.0, 0.0]),
            (1.0, [1.0, 2.0], [0.0, float("nan")]),
            (1.0, [1.0, 2.0], [0.0, 0.0, 0.0]),
            (-1.0, [1.0, 2.0], [0.0, 0.0]),
            (float("nan"), [1.0, 2.0], [0.0, 0.0]),
        ],
    )
    def test_input_validation(self, x, weights, offsets):
        with pytest.raises(ValueError):
            generalized_chi2_cdf(x, weights, offsets)

    @settings(max_examples=200, deadline=None)
    @given(case=panel_budget_cases())
    # Lower-tail pairs that real-axis panels of 10 rad miss by 3.5e-13 and
    # 2.3e-13, and 12 rad by 1.1e-11 and 7.0e-12.
    @example(case=(np.array([134.74, 101.14]), np.array([2543.6, 138.8]), 38.7))
    @example(case=(np.array([49.66, 550.19]), np.array([23.6, 13193.2]), 59.0))
    def test_panel_budgets_match_narrow_panels(self, case):
        # The panel budgets stay within the truncation level of 2-rad
        # panels, which take four (real axis) to twelve (ray) times the nodes.
        weights, offsets, x = case
        got = generalized_chi2_cdf(x, weights, offsets)
        with mock.patch.multiple(numerics, _PANEL_PHASE=2.0, _RAY_PANEL_PHASE=2.0):
            narrow = generalized_chi2_cdf(x, weights, offsets)
        assert abs(got - narrow) <= 1e-13

    @settings(max_examples=80, deadline=None)
    @given(case=gchi2_cases(), stretch=st.floats(0.0, 1.0))
    def test_bounded_and_nondecreasing(self, case, stretch):
        # Exact values are nondecreasing in x; the evaluator may wobble by
        # its accuracy (1e-9), not more.
        weights, offsets, x = case
        lo = generalized_chi2_cdf(x, weights, offsets)
        hi = generalized_chi2_cdf(x * (1.0 + stretch), weights, offsets)
        assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
        assert hi >= lo - 1e-9

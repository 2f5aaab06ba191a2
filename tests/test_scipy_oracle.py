"""The numpy chi-square functions against scipy.special, the test-only oracle.

Every call of the functions under test runs with warnings raised as errors,
so an overflow, a division by zero or an invalid operation fails the test.
"""

import math
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from chanauth.numerics import chi2_cdf, chi2_inv, noncentral_chi2_cdf

dof = st.integers(1, 2000)
noncentrality = st.one_of(
    st.just(0.0),
    st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1e6),
)


def quietly(f, *args):
    """f(*args) with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


@st.composite
def cdf_points(draw, mu=noncentrality):
    """(x, k, mu): x across the body and both tails of chi2(k, mu), or far out."""
    k, m = draw(dof), draw(mu)
    mean, sd = k + m, math.sqrt(2.0 * k + 4.0 * m)
    if draw(st.booleans()):
        x = max(0.0, mean + draw(st.floats(-15.0, 15.0)) * sd)
    else:
        x = mean * 10.0 ** draw(st.floats(-4.0, 1.0))
    return x, k, m


@settings(max_examples=300, deadline=None)
@given(point=cdf_points(mu=st.just(0.0)))
def test_chi2_cdf_matches_gammainc(point):
    x, k, _ = point
    assert abs(quietly(chi2_cdf, x, k) - special.gammainc(k / 2.0, x / 2.0)) <= 2e-13


@settings(max_examples=300, deadline=None)
@given(point=cdf_points())
def test_noncentral_chi2_cdf_matches_chndtr(point):
    x, k, mu = point
    # chndtr is off by up to 3e-12 for subnormal mu; there the CDF is the
    # central one to within mu / 2.
    want = special.chndtr(x, k, mu) if mu >= sys.float_info.min else special.gammainc(k / 2.0, x / 2.0)
    assert abs(quietly(noncentral_chi2_cdf, x, k, mu) - want) <= 2e-13


@settings(max_examples=300, deadline=None)
@given(k=dof, log_tail=st.floats(-15.0, math.log10(0.99)))
def test_chi2_inv_matches_gammaincinv(k, log_tail):
    p = 1.0 - 10.0**log_tail
    want = 2.0 * special.gammaincinv(k / 2.0, p)
    assert abs(quietly(chi2_inv, p, k) - want) <= 1e-13 * want


@settings(max_examples=100, deadline=None)
@given(k=dof, mu=noncentrality)
def test_zero_at_origin(k, mu):
    assert quietly(chi2_cdf, 0.0, k) == 0.0
    assert quietly(noncentral_chi2_cdf, 0.0, k, mu) == 0.0


@settings(max_examples=100, deadline=None)
@given(point=cdf_points(mu=st.just(0.0)))
def test_zero_noncentrality_is_central(point):
    x, k, _ = point
    assert quietly(noncentral_chi2_cdf, x, k, 0.0) == quietly(chi2_cdf, x, k)
    xs = np.array([x, 2.0 * x, 0.5 * x])
    assert np.array_equal(quietly(noncentral_chi2_cdf, xs, k, np.zeros(3)), quietly(chi2_cdf, xs, k))


@settings(max_examples=100, deadline=None)
@given(point=cdf_points(mu=st.just(0.0)), mu=st.sampled_from([1e7, 1e12, 1e300, math.inf]))
def test_huge_noncentrality_is_a_probability(point, mu):
    x, k, _ = point
    value = quietly(noncentral_chi2_cdf, x, k, mu)
    assert math.isfinite(value) and 0.0 <= value <= 1.0

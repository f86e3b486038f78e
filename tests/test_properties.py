"""Seeded property tests of the closed-form bosonic negativity.

The draws cover both evaluators of S(t) = Li_{-1/2}(t)/t: the direct series
below t = tanh^2 r = 0.9 (r < 1.82) and the expansion about t = 1 above it;
tanh^2 r rounds to 1 from r ~ 19 on.
"""

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bhent import channels

SERIES_LIMIT = math.log2(1.0 + math.sqrt(math.pi) / 2.0)
# Rounding slack: at t = 1 - 2^-52 the exact E_N exceeds SERIES_LIMIT by
# about 5e-17, under an ulp, and the computed value can land one ulp below it.
ROUNDING = 4.5e-16

PROPERTY = settings(max_examples=300, deadline=500, database=None)

r_values = st.floats(min_value=0.0, max_value=40.0)
tolerances = st.floats(min_value=-30.0, max_value=-3.0).map(
    lambda e: min(max(10.0**e, channels.MIN_SERIES_TOL), 1e-3)
)


@seed(7)
@PROPERTY
@given(r=r_values, tol=tolerances)
def test_value_finite_and_between_limits(r, tol):
    value = channels.log_negativity_boson(r, tol).value
    assert math.isfinite(value)
    assert SERIES_LIMIT - ROUNDING <= value <= 1.0


@seed(8)
@PROPERTY
@given(r1=r_values, r2=r_values, tol=tolerances)
def test_does_not_rise_with_r(r1, r2, tol):
    lo, hi = sorted((r1, r2))
    at_lo = channels.log_negativity_boson(lo, tol)
    at_hi = channels.log_negativity_boson(hi, tol)
    # each value is within its tail_bound / ln 2 of the exact, decreasing one
    slack = (at_lo.tail_bound + at_hi.tail_bound) / math.log(2.0) + ROUNDING
    assert at_hi.value <= at_lo.value + slack


@seed(9)
@PROPERTY
@given(r=r_values, tol=tolerances)
def test_bookkeeping_certifies_tol(r, tol):
    result = channels.log_negativity_boson(r, tol)
    if math.tanh(r) ** 2 < 1.0:
        assert result.terms_used >= 1
        assert 0.0 <= result.tail_bound < tol
    else:
        assert (result.terms_used, result.tail_bound) == (0, 0.0)

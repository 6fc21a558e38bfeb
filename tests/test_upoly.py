from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skeinlab import upoly
from skeinlab.coeffs import CyclotomicScalar, LaurentPoly, RationalFunction
from skeinlab.multipoly import MultiPoly

_coeff = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
_poly = st.lists(_coeff, max_size=6).map(upoly.trim)
_nonzero = _poly.filter(bool)


def _monic(p):
    return [c / Fraction(p[-1]) for c in p]


@settings(max_examples=80, deadline=None)
@given(_poly, _nonzero)
def test_divmod_is_euclidean_division(a, b):
    q, r = upoly.divmod(a, b)
    assert len(r) < len(b)
    assert upoly.add(upoly.mul(q, b), r) == a
    assert all(isinstance(c, (int, Fraction)) for c in q + r)


@settings(max_examples=80, deadline=None)
@given(_nonzero, _poly, _poly)
def test_gcd_is_monic_common_divisor_divisible_by_common_factors(c, x, y):
    a, b = upoly.mul(c, x), upoly.mul(c, y)
    assume(a or b)
    g = upoly.gcd(a, b)
    assert g[-1] == 1
    assert upoly.divmod(a, g)[1] == [] and upoly.divmod(b, g)[1] == []
    assert upoly.divmod(g, c)[1] == []


@settings(max_examples=80, deadline=None)
@given(_poly, _poly)
def test_ext_gcd_satisfies_bezout(a, b):
    assume(a or b)
    g, u, v = upoly.ext_gcd(a, b)
    assert g == upoly.gcd(a, b)
    assert upoly.add(upoly.mul(u, a), upoly.mul(v, b)) == g


@settings(max_examples=80, deadline=None)
@given(_nonzero, _nonzero)
def test_lcm_times_gcd_is_product_up_to_a_unit(a, b):
    lcm = upoly.lcm(a, b)
    assert lcm[-1] == 1
    assert upoly.mul(lcm, upoly.gcd(a, b)) == _monic(upoly.mul(a, b))


@settings(max_examples=60, deadline=None)
@given(st.lists(_coeff, min_size=1, max_size=5))
def test_reduction_rows_agree_with_divmod(low):
    m = low + [1]
    d = len(m) - 1
    rows = upoly.reduction_rows(m)
    assert len(rows) == d
    for j, row in enumerate(rows):
        _, r = upoly.divmod([0] * (d + j) + [1], m)
        assert row == r + [0] * (d - len(r))


def test_power_rejects_negative_exponents_of_rings():
    x = MultiPoly.variable(("x",), "x")
    assert x**3 == x * x * x
    with pytest.raises(ValueError):
        x**-1
    with pytest.raises(ValueError):
        LaurentPoly.q_power(1) ** -2
    # the fields invert first
    q = RationalFunction(LaurentPoly.q_power(1))
    assert q**-2 == RationalFunction(LaurentPoly.q_power(-2))
    assert CyclotomicScalar.zeta_power(5, 1) ** -1 == CyclotomicScalar.zeta_power(5, 4)

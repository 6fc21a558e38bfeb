from fractions import Fraction

import pytest
import sympy
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


def _sympy_factor(coeffs):
    """The oracle: sympy's factor_list over QQ, each factor made monic."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(str(Fraction(c))) for c in reversed(coeffs)], x, domain="QQ")
    out = []
    for f, e in poly.factor_list()[1]:
        fc = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        out.append(([c / fc[-1] for c in fc], e))
    return out


def _assert_factor_matches_sympy(coeffs):
    got = upoly.factor(coeffs)
    assert got == _sympy_factor(coeffs)
    assert all(type(c) is Fraction for g, _ in got for c in g)
    product = [1]
    for g, e in got:
        for _ in range(e):
            product = upoly.mul(product, g)
    assert product == (_monic(coeffs) if len(coeffs) > 1 else [1])


_small_int_poly = st.lists(st.integers(-5, 5), min_size=2, max_size=4).map(upoly.trim).filter(
    lambda p: len(p) > 1
)


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool),
    st.lists(st.tuples(_small_int_poly, st.integers(1, 3)), max_size=4),
)
def test_factor_matches_sympy_on_products_with_repeated_factors(scale, parts):
    f = [scale]
    for g, e in parts:
        for _ in range(e):
            f = upoly.mul(f, g)
    _assert_factor_matches_sympy(f)


def _two_cos_minpoly(p):
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / p), x), x)
    return [int(c) for c in reversed(poly.all_coeffs())]


_SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # roots +-sqrt2 +-sqrt3 +-sqrt5


@pytest.mark.parametrize("p", range(1, 31))
def test_factor_matches_sympy_on_two_cos_minimal_polynomials(p):
    m = _two_cos_minpoly(p)
    _assert_factor_matches_sympy(m)
    assert upoly.factor(m) == [(_monic(m), 1)]
    # with a repeated rational factor, a square and a conjugate factor
    _assert_factor_matches_sympy(upoly.mul(upoly.mul(m, m), [Fraction(-1, 2), 3, Fraction(5, 3)]))
    _assert_factor_matches_sympy(upoly.mul(m, _two_cos_minpoly(p + 1)))


def test_factor_swinnerton_dyer_polynomial_is_irreducible():
    # it splits into linear and quadratic factors modulo every prime, so
    # recombination has to try subsets of every size
    _assert_factor_matches_sympy(_SWINNERTON_DYER_8)
    assert upoly.factor(_SWINNERTON_DYER_8) == [(_monic(_SWINNERTON_DYER_8), 1)]
    _assert_factor_matches_sympy(upoly.mul(_SWINNERTON_DYER_8, [-6, 0, 1, 0, 1]))


def test_factor_of_constants_and_zero_is_empty():
    assert upoly.factor([]) == []
    assert upoly.factor([Fraction(3, 2)]) == []
    assert upoly.factor([0, 0, 5]) == [([Fraction(0), Fraction(1)], 2)]

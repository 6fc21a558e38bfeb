from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab import coeffs, upoly
from skeinlab.coeffs import (
    CyclotomicScalar,
    GenericQ,
    LaurentPoly,
    RationalFunction,
    Rationals,
    ZetaField,
    cyclotomic_polynomial,
    field_from_tag,
    root_spec,
    specialize_scalar,
)
from skeinlab.diagrams import AnnulusSkein
from skeinlab.errors import FieldMismatchError, FourDividesOrderError, SkeinError
from skeinlab.multipoly import MultiPoly
from skeinlab.torus import TorusSkein


def test_root_spec_examples():
    assert (root_spec(6).m, root_spec(6).epsilon) == (3, -1)
    assert (root_spec(5).m, root_spec(5).epsilon) == (5, 1)
    assert (root_spec(2).m, root_spec(2).epsilon) == (1, -1)
    assert (root_spec(1).m, root_spec(1).epsilon) == (1, 1)


def test_root_spec_rejects_multiples_of_four():
    for n in (4, 8, 12, 20):
        with pytest.raises(FourDividesOrderError):
            root_spec(n)
    with pytest.raises(ValueError):
        root_spec(0)


def test_root_spec_epsilon_matches_specialization():
    for n in range(1, 31):
        if n % 4 == 0:
            continue
        spec = root_spec(n)
        val = specialize_scalar(LaurentPoly.q_power(spec.m**2), ZetaField(n))
        assert val.as_fraction() == spec.epsilon


def test_specialize_examples():
    assert specialize_scalar(LaurentPoly.q_power(6), ZetaField(5)) == CyclotomicScalar.zeta_power(5, 1)
    assert specialize_scalar(LaurentPoly({2: 1, -2: 1}), ZetaField(2)).as_fraction() == 2
    assert not specialize_scalar(LaurentPoly({2: 1, 1: 1, 0: 1}), ZetaField(3))


def test_cyclotomic_inverse_examples():
    one = CyclotomicScalar.one(3)
    assert one.inv() == one
    z = CyclotomicScalar.zeta_power(3, 1)
    assert z.inv() == CyclotomicScalar(3, [-1, -1])  # zeta^2 = -1 - zeta
    x = one + z
    assert x * x.inv() == one
    with pytest.raises(ZeroDivisionError):
        CyclotomicScalar.zero(3).inv()
    # a unit +-zeta^e, read off the zeta-power table, against the general inverse
    for n in (1, 2, 3, 5, 6, 7, 9, 10, 15):
        phi_n = cyclotomic_polynomial(n)
        for e in range(n):
            for u in (CyclotomicScalar.zeta_power(n, e), -CyclotomicScalar.zeta_power(n, e)):
                _, general, _ = upoly.ext_gcd(upoly.trim(list(u.coeffs)), phi_n)
                assert u.inv() == CyclotomicScalar(n, upoly.divmod(general, phi_n)[1])
                assert u * u.inv() == CyclotomicScalar.one(n)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 121):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = upoly.mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_cyclotomic_polynomial_divides_once_per_divisor(monkeypatch):
    # Phi_n is x^n - 1 over the product of the Phi_d held for the proper
    # divisors d, so a cold build of Phi_630 divides once for each divisor
    divisions = []
    plain = upoly.divmod

    def counting(a, b):
        divisions.append(len(b) - 1)
        return plain(a, b)

    monkeypatch.setattr(upoly, "divmod", counting)
    coeffs._cyclo_data.cache_clear()
    phi = cyclotomic_polynomial(630)
    assert len(phi) - 1 == 144  # Euler's phi(630)
    assert 0 < len(divisions) <= sum(1 for d in range(1, 631) if 630 % d == 0)


def test_zeta_powers_are_shared_and_keyed_by_the_exponent_mod_n():
    coeffs._zeta_power.cache_clear()
    for e in range(-21, 21):
        assert CyclotomicScalar.zeta_power(7, e) is CyclotomicScalar.zeta_power(7, e + 7)
    assert coeffs._zeta_power.cache_info().currsize == 7  # one entry per power of zeta_7


def _cyclo(n):
    deg = len(cyclotomic_polynomial(n)) - 1
    return st.builds(
        lambda cs: CyclotomicScalar(n, cs),
        st.lists(st.fractions(min_value=-3, max_value=3), min_size=deg, max_size=deg),
    )


@settings(max_examples=60, deadline=None)
@given(_cyclo(5), _cyclo(5), _cyclo(5))
def test_cyclotomic_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    if a:
        assert a * a.inv() == CyclotomicScalar.one(5)


def _laurent():
    return st.builds(
        lambda terms: LaurentPoly(dict(terms)),
        st.lists(
            st.tuples(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3)),
            max_size=4,
        ),
    )


@settings(max_examples=60, deadline=None)
@given(_laurent(), _laurent(), _laurent())
def test_rational_function_field_axioms(pa, pb, pc):
    a, b, c = RationalFunction(pa), RationalFunction(pb, LaurentPoly({0: 1, 1: 1})), RationalFunction(pc)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    if a:
        assert a * a.inv() == RationalFunction(1)
    assert a - a == RationalFunction(0)


@settings(max_examples=60, deadline=None)
@given(_laurent(), _laurent())
def test_specialize_is_ring_homomorphism(a, b):
    z7 = ZetaField(7)
    assert specialize_scalar(a * b, z7) == specialize_scalar(a, z7) * specialize_scalar(b, z7)
    assert specialize_scalar(a + b, z7) == specialize_scalar(a, z7) + specialize_scalar(b, z7)


_MAP_FIELDS = [ZetaField(n) for n in (1, 2, 3, 5, 6, 7, 10, 15)] + [Rationals(1), Rationals(-1), GenericQ()]


def _wide_laurent():
    # exponents past every order above, so that the folds mod n are exercised
    return st.builds(
        lambda terms: LaurentPoly(dict(terms)),
        st.lists(
            st.tuples(st.integers(-40, 40), st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=4))),
            max_size=8,
        ),
    )


@settings(max_examples=40, deadline=None)
@given(_wide_laurent(), _wide_laurent())
def test_specialize_scalar_is_the_ring_map_sending_q_to_the_field_q(a, b):
    # a ring map from Q[q, q^-1] is fixed by the images of the rationals and of q
    for field in _MAP_FIELDS:

        def image(x):
            return specialize_scalar(x, field)

        assert image(a + b) == image(a) + image(b), field.tag
        assert image(a * b) == image(a) * image(b), field.tag
        assert image(LaurentPoly.q_power(1)) == field.q_power(1), field.tag
        assert image(LaurentPoly.from_fraction(Fraction(-3, 4))) == field.from_fraction(Fraction(-3, 4)), field.tag
        assert image(RationalFunction(a)) == image(a), field.tag


def test_specialize_scalar_needs_a_value_for_q():
    with pytest.raises(SkeinError):
        specialize_scalar(LaurentPoly.one(), Rationals())
    with pytest.raises(ZeroDivisionError):
        specialize_scalar(RationalFunction(1, LaurentPoly({2: 1, 1: 1, 0: 1})), ZetaField(3))


def test_rational_function_normal_form():
    q = LaurentPoly.q_power
    r = RationalFunction(q(1) - q(0), q(2) - q(0))  # (q-1)/(q^2-1) = 1/(q+1)
    assert r.num == LaurentPoly.one()
    assert r.den == LaurentPoly({1: 1, 0: 1})
    # denominator normalized monic with lowest exponent zero
    r2 = RationalFunction(LaurentPoly({0: 1}), LaurentPoly({-1: 2, 0: 2}))
    assert r2.den.min_exp() == 0
    assert r2.den.terms[max(r2.den.terms)] == 1


def _assert_canonical(values):
    # int when integral, Fraction otherwise, never a float
    for c in values:
        assert type(c) in (int, Fraction), c
        assert (type(c) is int) == (Fraction(c).denominator == 1), c


def test_rational_function_never_divides_into_floats():
    r = RationalFunction(1, LaurentPoly({2: 3}))
    assert r.num.terms == {-2: Fraction(1, 3)} and type(r.num.terms[-2]) is Fraction
    r2 = RationalFunction(1, LaurentPoly({0: 1, 1: 2}))  # leading coefficient 2
    assert r2.num.terms == {0: Fraction(1, 2)}
    assert r2.den.terms == {0: Fraction(1, 2), 1: 1}
    for x in (r, r2):
        _assert_canonical([*x.num.terms.values(), *x.den.terms.values()])


_coeff = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _mixed_laurent():
    return st.builds(LaurentPoly, st.lists(st.tuples(st.integers(-3, 3), _coeff), max_size=4))


def _mixed_cyclo(n):
    deg = len(cyclotomic_polynomial(n)) - 1
    return st.builds(lambda cs: CyclotomicScalar(n, cs), st.lists(_coeff, min_size=deg, max_size=deg))


@settings(max_examples=80, deadline=None)
@given(_mixed_laurent(), _mixed_laurent(), _coeff, st.integers(0, 3))
def test_laurent_coefficients_stay_canonical(a, b, c, k):
    for x in (a, b, a + b, a - b, a * b, a * c, c * b, a + c, b - c, a**k, (a - b) ** k):
        _assert_canonical(x.terms.values())


@settings(max_examples=80, deadline=None)
@given(_mixed_laurent(), _mixed_laurent(), st.one_of(_coeff, _mixed_laurent()))
def test_laurent_valued_rational_functions_match_the_general_constructor(pa, pb, c):
    # a Laurent sum or product skips the normalization the constructor runs,
    # and so does an int, Fraction or LaurentPoly operand c (zero included)
    a, b = RationalFunction(pa), RationalFunction(pb)
    num_a, num_b, den = a.num * b.den, b.num * a.den, a.den * b.den
    num_c = RationalFunction(c).num
    cases = [
        (a + b, RationalFunction(num_a + num_b, den)),
        (a - b, RationalFunction(num_a - num_b, den)),
        (a * b, RationalFunction(a.num * b.num, den)),
        (a + c, RationalFunction(a.num + num_c)),
        (a - c, RationalFunction(a.num - num_c)),
        (a * c, RationalFunction(a.num * num_c)),
    ]
    if num_c:
        cases.append((a / c, RationalFunction(a.num, num_c)))
    if isinstance(c, LaurentPoly):
        cases += [(GenericQ().q_power(e), RationalFunction(LaurentPoly.q_power(e))) for e in c.terms]
    else:
        cases += [(c * a, RationalFunction(num_c * a.num)), (GenericQ().from_fraction(c), RationalFunction(c))]
    assert (a == c) == (a == RationalFunction(c))
    for got, want in cases:
        assert got.num.terms == want.num.terms and got.den.terms == want.den.terms
        for x, y in ((got.num, want.num), (got.den, want.den)):
            assert [type(x.terms[e]) for e in sorted(x.terms)] == [type(y.terms[e]) for e in sorted(y.terms)]
        assert got.to_json() == want.to_json() and repr(got) == repr(want)


@settings(max_examples=80, deadline=None)
@given(_mixed_cyclo(5), _mixed_cyclo(5), _coeff, st.integers(0, 3))
def test_cyclotomic_coefficients_stay_canonical(a, b, c, k):
    for x in (a, b, a + b, a - b, a * b, a * c, a + c, a**k, (a - b) ** k):
        _assert_canonical(x.coeffs)


def _typed_terms(x):
    # the value of a Laurent polynomial with the type of each coefficient
    return [(e, c, type(c)) for e, c in sorted(x.terms.items())]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), _mixed_laurent()), _mixed_laurent(), _mixed_laurent())
def test_fused_laurent_steps_equal_their_operator_expressions(v, w, c):
    # v - w*c with v absent, as given, and holding w*c, so that terms cancel
    # exactly (Fractions summing to integers among them) or everything does
    for u in (v, w * c if v is None else w * c + v):
        want = -(w * c) if u is None else u - w * c
        assert _typed_terms(LaurentPoly.sub_mul(u, w, c)) == _typed_terms(want)
    assert not LaurentPoly.sub_mul(w * c, w, c).terms


def _mixed_rational():
    # denominator one (a Laurent element) or any nonzero mixed Laurent polynomial
    return st.builds(RationalFunction, _mixed_laurent(), st.one_of(st.none(), _mixed_laurent().filter(bool)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.none(), _mixed_rational()), _mixed_rational(), _mixed_rational())
def test_fused_rational_step_equals_its_operator_expression(v, w, c):
    # the Laurent path when every operand has denominator one, the operators
    # otherwise; v absent, as given, and holding w*c, so that terms cancel
    for u in (v, w * c if v is None else w * c + v):
        want = -(w * c) if u is None else u - w * c
        got = RationalFunction.sub_mul(u, w, c)
        assert _typed_terms(got.num) == _typed_terms(want.num)
        assert _typed_terms(got.den) == _typed_terms(want.den)
    zero = RationalFunction.sub_mul(w * c, w, c)
    assert not zero.num.terms and zero.den.terms == {0: 1}


def _cyclo_step_operands():
    return st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15]).flatmap(
        lambda n: st.tuples(st.one_of(st.none(), _mixed_cyclo(n)), _mixed_cyclo(n), _mixed_cyclo(n))
    )


@settings(max_examples=200, deadline=None)
@given(_cyclo_step_operands())
def test_fused_cyclotomic_step_equals_its_operator_expression(operands):
    v, w, c = operands
    for u in (v, w * c if v is None else w * c + v):
        want = -(w * c) if u is None else u - w * c
        got = CyclotomicScalar.sub_mul(u, w, c)
        assert (got.n, got.coeffs) == (want.n, want.coeffs)
        assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
    assert not CyclotomicScalar.sub_mul(w * c, w, c)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=5), st.integers(1, 4))
def test_int_and_fraction_inputs_give_the_same_value(terms, d):
    as_int = LaurentPoly(terms)
    as_frac = LaurentPoly([(e, Fraction(c)) for e, c in terms])
    via_ops = LaurentPoly([(e, Fraction(c, d)) for e, c in terms]) * d
    coeffs = [c for _, c in terms[:4]]
    z_int = CyclotomicScalar(5, coeffs)
    z_frac = CyclotomicScalar(5, [Fraction(c) for c in coeffs])
    z_ops = CyclotomicScalar(5, [Fraction(c, d) for c in coeffs]) * d
    for x, y in ((as_int, as_frac), (as_int, via_ops), (z_int, z_frac), (z_int, z_ops)):
        assert x == y and hash(x) == hash(y) and x.to_json() == y.to_json()
        assert repr(x) == repr(y)


def test_field_tags_round_trip():
    for tag in ("generic", "rationals", "rationals(q=-1)", "zeta:5"):
        field = field_from_tag(tag)
        assert field_from_tag(field.tag) == field


def test_zeta_field_reads_the_order_before_building_the_field(monkeypatch):
    field = ZetaField(5)
    build = coeffs._cyclo_data

    def only_zeta_5(n):
        if n != 5:
            raise AssertionError(f"built Q(zeta_{n}) to read a scalar of the field zeta:5")
        return build(n)

    monkeypatch.setattr(coeffs, "_cyclo_data", only_zeta_5)
    with pytest.raises(ValueError, match=r"a scalar of Q\(zeta_5040\) in the field zeta:5"):
        field.scalar_from_json({"n": 5040, "coeffs": ["1", "2"]})
    assert field.scalar_from_json({"n": 5, "coeffs": ["0", "1"]}) == field.q_power(1)


def test_scalars_have_no_instance_dict():
    # every scalar class and its bases declare __slots__, which keeps scalars small
    values = [LaurentPoly.one(), RationalFunction(1), CyclotomicScalar.one(5), MultiPoly.constant(("x",), 1)]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_laurent_json_round_trip():
    p = LaurentPoly({3: Fraction(1, 2), -2: -1})
    assert LaurentPoly.from_json(p.to_json()) == p
    z = CyclotomicScalar(5, [1, Fraction(2, 3), 0, -1])
    assert CyclotomicScalar.from_json(z.to_json()) == z


def test_specialize_scalar_into_zeta():
    f = ZetaField(5)
    x = RationalFunction(LaurentPoly.q_power(7))
    assert specialize_scalar(x, f) == f.q_power(7)


def test_delta_values():
    assert GenericQ().delta() == RationalFunction(LaurentPoly({2: -1, -2: -1}))
    assert Rationals(-1).delta() == -2
    assert ZetaField(3).delta().as_fraction() == 1  # -(zeta^2 + zeta) = 1


def _pinned_skeins():
    G, Z, R = GenericQ(), ZetaField(5), Rationals(-1)
    rf = RationalFunction(LaurentPoly({-1: Fraction(1, 2), 2: -3}), LaurentPoly({0: 1, 1: 2, 2: 1}))
    cz = CyclotomicScalar(5, [1, Fraction(-2, 3), 0, 5])
    return [
        AnnulusSkein(G, {0: rf, 2: G.q_power(3)}),
        AnnulusSkein(Z, {1: cz, 3: Z.q_power(2)}),
        AnnulusSkein(R, {0: Fraction(1, 3), 4: R.q_power(3)}),
        AnnulusSkein.zero(G),
        TorusSkein(G, {(0, 0): G.q_power(-1), (-1, 2): rf}),
        TorusSkein(Z, {(2, 0): cz, (0, -1): Z.q_power(1)}),
        TorusSkein(R, {(1, 1): Fraction(-5, 2), (0, 0): R.one()}),
    ]


def test_skein_json_and_text_forms_are_pinned():
    rf_json = {"num": {"terms": [[-1, "1/2"], [2, "-3"]]}, "den": {"terms": [[0, "1"], [1, "2"], [2, "1"]]}}
    rf_str = "(-3*q^2 + 1/2*q^-1) / (q^2 + 2*q + 1)"
    cz_json = {"n": 5, "coeffs": ["1", "-2/3", "0", "5"]}
    expected = [
        (
            {"field": "generic", "terms": [[0, rf_json], [2, {"num": {"terms": [[3, "1"]]}}]]},
            f"({rf_str}) + (q^3)*z^2",
        ),
        (
            {"field": "zeta:5", "terms": [[1, cz_json], [3, {"n": 5, "coeffs": ["0", "0", "1", "0"]}]]},
            "(1 - 2/3*z + 5*z^3)*z + (z^2)*z^3",
        ),
        ({"field": "rationals(q=-1)", "terms": [[0, "1/3"], [4, "-1"]]}, "(1/3) + (-1)*z^4"),
        ({"field": "generic", "terms": []}, "0"),
        (
            {"field": "generic", "terms": [[0, 0, {"num": {"terms": [[-1, "1"]]}}], [1, -2, rf_json]]},
            f"(q^-1)*empty + ({rf_str})*(1,-2)",
        ),
        (
            {"field": "zeta:5", "terms": [[0, 1, {"n": 5, "coeffs": ["0", "1", "0", "0"]}], [2, 0, cz_json]]},
            "(z)*(0,1) + (1 - 2/3*z + 5*z^3)*(2,0)",
        ),
        ({"field": "rationals(q=-1)", "terms": [[0, 0, "1"], [1, 1, "-5/2"]]}, "(1)*empty + (-5/2)*(1,1)"),
    ]
    skeins = _pinned_skeins()
    for skein, (data, text) in zip(skeins, expected):
        assert skein.to_json() == data
        assert str(skein) == text
        assert repr(skein) == f"{type(skein).__name__}({text})"
        assert type(skein).from_json(data) == skein


def test_skein_sums_across_fields_are_rejected():
    skeins = _pinned_skeins()
    generic, zeta = skeins[0], skeins[1]
    with pytest.raises(FieldMismatchError):
        generic + zeta
    with pytest.raises(FieldMismatchError):
        zeta - generic
    with pytest.raises(FieldMismatchError):
        generic.mul(zeta)
    with pytest.raises(FieldMismatchError):
        skeins[4] + skeins[5]
    assert generic - generic == AnnulusSkein.zero(GenericQ())
    assert generic + generic == generic.scale(GenericQ().from_int(2))
    assert -(skeins[4]) == skeins[4].scale(GenericQ().from_int(-1))

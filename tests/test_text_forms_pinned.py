"""Text forms pinned byte for byte: ``str`` and ``repr`` of every scalar and
polynomial type and of both skeins, the derived operators with an ``int`` or
``Fraction`` on either side, and the constants, inverses and JSON forms of
the three coefficient fields."""

import json
from fractions import Fraction as F

from skeinlab.chebyshev import ChebPoly, cheb_T
from skeinlab.coeffs import (
    CyclotomicScalar as C,
    GenericQ,
    LaurentPoly as L,
    RationalFunction as R,
    Rationals,
    ZetaField,
)
from skeinlab.diagrams import AnnulusSkein
from skeinlab.multipoly import MultiPoly
from skeinlab.torus import TorusSkein

q = L.q_power(1)
rq = R(q)
z = C.zeta_power(5, 1)
V = ("x", "y", "z")
x = MultiPoly.variable(V, "x")
y = MultiPoly.variable(V, "y")
w = MultiPoly.variable(V, "z")

# (value, str, repr)
TEXT = [
    (lambda: L(), '0', 'LaurentPoly(0)'),
    (lambda: L.one(), '1', 'LaurentPoly(1)'),
    (lambda: L({0: -1}), '-1', 'LaurentPoly(-1)'),
    (lambda: L({0: F(1, 2)}), '1/2', 'LaurentPoly(1/2)'),
    (lambda: L({0: F(-7, 3)}), '-7/3', 'LaurentPoly(-7/3)'),
    (lambda: L({2: -3, 0: 1, -1: F(1, 2)}), '-3*q^2 + 1 + 1/2*q^-1', 'LaurentPoly(-3*q^2 + 1 + 1/2*q^-1)'),
    (lambda: L({1: 1, -2: -1}), 'q - q^-2', 'LaurentPoly(q - q^-2)'),
    (lambda: L({3: F(-2, 3), 1: 1, 0: F(4, 2)}), '-2/3*q^3 + q + 2', 'LaurentPoly(-2/3*q^3 + q + 2)'),
    (lambda: L({-1: -1, -3: 5}), '-q^-1 + 5*q^-3', 'LaurentPoly(-q^-1 + 5*q^-3)'),
    (lambda: L({5: 2, 0: 0}), '2*q^5', 'LaurentPoly(2*q^5)'),
    (lambda: q - 1, 'q - 1', 'LaurentPoly(q - 1)'),
    (lambda: 1 - q, '-q + 1', 'LaurentPoly(-q + 1)'),
    (lambda: 2 + q, 'q + 2', 'LaurentPoly(q + 2)'),
    (lambda: q + F(1, 3), 'q + 1/3', 'LaurentPoly(q + 1/3)'),
    (lambda: F(1, 3) - q, '-q + 1/3', 'LaurentPoly(-q + 1/3)'),
    (lambda: F(-1, 2) + q, 'q - 1/2', 'LaurentPoly(q - 1/2)'),
    (lambda: q - F(5, 2), 'q - 5/2', 'LaurentPoly(q - 5/2)'),
    (lambda: q * 0, '0', 'LaurentPoly(0)'),
    (lambda: q - q, '0', 'LaurentPoly(0)'),
    (lambda: -q, '-q', 'LaurentPoly(-q)'),
    (lambda: q ** 3 - 2 * q, 'q^3 - 2*q', 'LaurentPoly(q^3 - 2*q)'),
    (lambda: (q - 1) * F(3, 2), '3/2*q - 3/2', 'LaurentPoly(3/2*q - 3/2)'),
    (lambda: R(0), '0', 'RationalFunction(0)'),
    (lambda: R(1), '1', 'RationalFunction(1)'),
    (lambda: R(F(-1, 2)), '-1/2', 'RationalFunction(-1/2)'),
    (lambda: R(-3), '-3', 'RationalFunction(-3)'),
    (lambda: rq, 'q', 'RationalFunction(q)'),
    (lambda: R(L({1: 1, 0: 1}), L({0: 2, 2: -1})), '(-q - 1) / (q^2 - 2)', 'RationalFunction((-q - 1) / (q^2 - 2))'),
    (lambda: R(L({-1: 3, 2: -1}), L({0: 1, 1: 1})), '(-q^2 + 3*q^-1) / (q + 1)', 'RationalFunction((-q^2 + 3*q^-1) / (q + 1))'),
    (lambda: R(q, L({1: F(2, 3), 3: 1})), '(1) / (q^2 + 2/3)', 'RationalFunction((1) / (q^2 + 2/3))'),
    (lambda: rq - 1, 'q - 1', 'RationalFunction(q - 1)'),
    (lambda: 1 - rq, '-q + 1', 'RationalFunction(-q + 1)'),
    (lambda: 2 + rq, 'q + 2', 'RationalFunction(q + 2)'),
    (lambda: F(1, 2) - R(q, q + 1), '(-1/2*q + 1/2) / (q + 1)', 'RationalFunction((-1/2*q + 1/2) / (q + 1))'),
    (lambda: R(q, q + 1) + F(-1, 3), '(2/3*q - 1/3) / (q + 1)', 'RationalFunction((2/3*q - 1/3) / (q + 1))'),
    (lambda: (rq + 1) ** -1, '(1) / (q + 1)', 'RationalFunction((1) / (q + 1))'),
    (lambda: R(L({-1: 3, 2: -1}), L({0: 1, 1: 1})) ** -1, '(-q^2 - q) / (q^3 - 3)', 'RationalFunction((-q^2 - q) / (q^3 - 3))'),
    (lambda: rq ** -2, 'q^-2', 'RationalFunction(q^-2)'),
    (lambda: R(F(2, 5)) ** -1, '5/2', 'RationalFunction(5/2)'),
    (lambda: -R(q, q - 1), '(-q) / (q - 1)', 'RationalFunction((-q) / (q - 1))'),
    (lambda: R(q - 1, q + 1) - R(q - 1, q + 1), '0', 'RationalFunction(0)'),
    (lambda: C(5, []), '0', 'CyclotomicScalar(n=5, 0)'),
    (lambda: C(5, [1]), '1', 'CyclotomicScalar(n=5, 1)'),
    (lambda: C(5, [-1]), '-1', 'CyclotomicScalar(n=5, -1)'),
    (lambda: C(5, [F(1, 2)]), '1/2', 'CyclotomicScalar(n=5, 1/2)'),
    (lambda: C(5, [0, 1]), 'z', 'CyclotomicScalar(n=5, z)'),
    (lambda: C(5, [0, -1]), '-z', 'CyclotomicScalar(n=5, -z)'),
    (lambda: C(5, [F(1, 2), 0, -3, 1]), '1/2 - 3*z^2 + z^3', 'CyclotomicScalar(n=5, 1/2 - 3*z^2 + z^3)'),
    (lambda: C(5, [0, F(-2, 3), 0, -1]), '-2/3*z - z^3', 'CyclotomicScalar(n=5, -2/3*z - z^3)'),
    (lambda: C(7, [0, 0, 0, 0, 0, -1]), '-z^5', 'CyclotomicScalar(n=7, -z^5)'),
    (lambda: C(3, [F(5, 4), 2]), '5/4 + 2*z', 'CyclotomicScalar(n=3, 5/4 + 2*z)'),
    (lambda: C.zeta_power(5, 4), '-1 - z - z^2 - z^3', 'CyclotomicScalar(n=5, -1 - z - z^2 - z^3)'),
    (lambda: C.zeta_power(6, 1), 'z', 'CyclotomicScalar(n=6, z)'),
    (lambda: z - 1, '-1 + z', 'CyclotomicScalar(n=5, -1 + z)'),
    (lambda: 1 - z, '1 - z', 'CyclotomicScalar(n=5, 1 - z)'),
    (lambda: 2 + z, '2 + z', 'CyclotomicScalar(n=5, 2 + z)'),
    (lambda: F(1, 2) - z, '1/2 - z', 'CyclotomicScalar(n=5, 1/2 - z)'),
    (lambda: z + F(-2, 7), '-2/7 + z', 'CyclotomicScalar(n=5, -2/7 + z)'),
    (lambda: z ** -1, '-1 - z - z^2 - z^3', 'CyclotomicScalar(n=5, -1 - z - z^2 - z^3)'),
    (lambda: (z + 1) ** -1, '-z - z^3', 'CyclotomicScalar(n=5, -z - z^3)'),
    (lambda: (z * 2 - F(1, 3)) ** -1, '-777/1555 - 774/1555*z - 756/1555*z^2 - 648/1555*z^3', 'CyclotomicScalar(n=5, -777/1555 - 774/1555*z - 756/1555*z^2 - 648/1555*z^3)'),
    (lambda: z - z, '0', 'CyclotomicScalar(n=5, 0)'),
    (lambda: -(z * 3), '-3*z', 'CyclotomicScalar(n=5, -3*z)'),
    (lambda: MultiPoly.zero(V), '0', 'MultiPoly(0)'),
    (lambda: MultiPoly.constant(V, 0), '0', 'MultiPoly(0)'),
    (lambda: MultiPoly.constant(V, 1), '1', 'MultiPoly(1)'),
    (lambda: MultiPoly.constant(V, -1), '-1', 'MultiPoly(-1)'),
    (lambda: MultiPoly.constant(V, 3), '3', 'MultiPoly(3)'),
    (lambda: MultiPoly.constant(V, F(-1, 2)), '-(1/2)', 'MultiPoly(-(1/2))'),
    (lambda: x, 'x', 'MultiPoly(x)'),
    (lambda: -y, '-y', 'MultiPoly(-y)'),
    (lambda: x * y - w ** 2 * 2 + F(1, 3), 'x*y - 2*z^2 + (1/3)', 'MultiPoly(x*y - 2*z^2 + (1/3))'),
    (lambda: x - 1, 'x - 1', 'MultiPoly(x - 1)'),
    (lambda: 1 - x, '-x + 1', 'MultiPoly(-x + 1)'),
    (lambda: 2 + x, 'x + 2', 'MultiPoly(x + 2)'),
    (lambda: F(1, 2) - x, '-x + (1/2)', 'MultiPoly(-x + (1/2))'),
    (lambda: y + F(-3, 4), 'y - (3/4)', 'MultiPoly(y - (3/4))'),
    (lambda: x ** 2 * y * F(-3, 4) + x - F(1, 2), '-(3/4)*x^2*y + x - (1/2)', 'MultiPoly(-(3/4)*x^2*y + x - (1/2))'),
    (lambda: x * y * w - x ** 2, 'x*y*z - x^2', 'MultiPoly(x*y*z - x^2)'),
    (lambda: MultiPoly(V, {(1, 0, 0): 2, (0, 3, 0): -1}), '-y^3 + 2*x', 'MultiPoly(-y^3 + 2*x)'),
    (lambda: MultiPoly(V, {(2, 1, 0): F(6, 3), (0, 0, 0): F(-4, 6)}), '2*x^2*y - (2/3)', 'MultiPoly(2*x^2*y - (2/3))'),
    (lambda: (x + y) ** 3, 'x^3 + 3*x^2*y + 3*x*y^2 + y^3', 'MultiPoly(x^3 + 3*x^2*y + 3*x*y^2 + y^3)'),
    (lambda: x - x, '0', 'MultiPoly(0)'),
    (lambda: MultiPoly(('t',), {(0,): F(1, 5), (2,): -1, (1,): F(7, 2)}), '-t^2 + (7/2)*t + (1/5)', 'MultiPoly(-t^2 + (7/2)*t + (1/5))'),
    (lambda: cheb_T(0), '2', 'ChebPoly(T_0 = 2)'),
    (lambda: cheb_T(1), 'x', 'ChebPoly(T_1 = x)'),
    (lambda: cheb_T(2), 'x^2 - 2', 'ChebPoly(T_2 = x^2 - 2)'),
    (lambda: cheb_T(3), 'x^3 - 3*x', 'ChebPoly(T_3 = x^3 - 3*x)'),
    (lambda: cheb_T(6), 'x^6 - 6*x^4 + 9*x^2 - 2', 'ChebPoly(T_6 = x^6 - 6*x^4 + 9*x^2 - 2)'),
    (lambda: ChebPoly(0, []), '0', 'ChebPoly(T_0 = 0)'),
    (lambda: ChebPoly(9, [0, -1]), '-x', 'ChebPoly(T_9 = -x)'),
    (lambda: ChebPoly(9, [-1]), '-1', 'ChebPoly(T_9 = -1)'),
    (lambda: ChebPoly(9, [1, 0, -3]), '-3*x^2 + 1', 'ChebPoly(T_9 = -3*x^2 + 1)'),
    (lambda: ChebPoly(9, [-2, 1, 0, 4]), '4*x^3 + x - 2', 'ChebPoly(T_9 = 4*x^3 + x - 2)'),
    (lambda: AnnulusSkein(GenericQ(), {0: R(q, q + 1), 2: R(q ** 3) * -1}), '((q) / (q + 1)) + (-q^3)*z^2', 'AnnulusSkein(((q) / (q + 1)) + (-q^3)*z^2)'),
    (lambda: AnnulusSkein(ZetaField(5), {1: z - 1, 3: C(5, [F(1, 2)])}), '(-1 + z)*z + (1/2)*z^3', 'AnnulusSkein((-1 + z)*z + (1/2)*z^3)'),
    (lambda: AnnulusSkein(Rationals(-1), {0: F(1, 3), 4: F(-1)}), '(1/3) + (-1)*z^4', 'AnnulusSkein((1/3) + (-1)*z^4)'),
    (lambda: AnnulusSkein(GenericQ()), '0', 'AnnulusSkein(0)'),
    (lambda: AnnulusSkein(ZetaField(5), {0: z - z, 2: C(5, [1])}), '(1)*z^2', 'AnnulusSkein((1)*z^2)'),
    (lambda: TorusSkein(GenericQ(), {(0, 0): R(L.q_power(-1)), (1, -2): R(2 - q, q)}), '(q^-1)*empty + (-1 + 2*q^-1)*(1,-2)', 'TorusSkein((q^-1)*empty + (-1 + 2*q^-1)*(1,-2))'),
    (lambda: TorusSkein(ZetaField(5), {(0, 1): z, (2, 0): C(5, [0, 0, -1, F(3, 2)])}), '(z)*(0,1) + (-z^2 + 3/2*z^3)*(2,0)', 'TorusSkein((z)*(0,1) + (-z^2 + 3/2*z^3)*(2,0))'),
    (lambda: TorusSkein(Rationals(-1), {(0, 0): F(1), (1, 1): F(-5, 2), (-1, -1): F(1, 2)}), '(1)*empty + (-2)*(1,1)', 'TorusSkein((1)*empty + (-2)*(1,1))'),
    (lambda: TorusSkein(Rationals()), '0', 'TorusSkein(0)'),
]

# (value, its type's name, repr)
CONSTANTS = [
    (lambda: Rationals(-1).zero(), 'Fraction', 'Fraction(0, 1)'),
    (lambda: Rationals(-1).one(), 'Fraction', 'Fraction(1, 1)'),
    (lambda: Rationals(-1).from_int(3), 'Fraction', 'Fraction(3, 1)'),
    (lambda: Rationals(-1).from_int(-2), 'Fraction', 'Fraction(-2, 1)'),
    (lambda: Rationals(-1).from_fraction(F(-3, 4)), 'Fraction', 'Fraction(-3, 4)'),
    (lambda: Rationals(-1).inv(Rationals(-1).from_int(3)), 'Fraction', 'Fraction(1, 3)'),
    (lambda: Rationals(-1).inv(Rationals(-1).from_fraction(F(-3, 4))), 'Fraction', 'Fraction(-4, 3)'),
    (lambda: Rationals(-1).inv(Rationals(-1).one()), 'Fraction', 'Fraction(1, 1)'),
    (lambda: GenericQ().zero(), 'RationalFunction', 'RationalFunction(0)'),
    (lambda: GenericQ().one(), 'RationalFunction', 'RationalFunction(1)'),
    (lambda: GenericQ().from_int(3), 'RationalFunction', 'RationalFunction(3)'),
    (lambda: GenericQ().from_int(-2), 'RationalFunction', 'RationalFunction(-2)'),
    (lambda: GenericQ().from_fraction(F(-3, 4)), 'RationalFunction', 'RationalFunction(-3/4)'),
    (lambda: GenericQ().inv(GenericQ().from_int(3)), 'RationalFunction', 'RationalFunction(1/3)'),
    (lambda: GenericQ().inv(GenericQ().from_fraction(F(-3, 4))), 'RationalFunction', 'RationalFunction(-4/3)'),
    (lambda: GenericQ().inv(GenericQ().one()), 'RationalFunction', 'RationalFunction(1)'),
    (lambda: ZetaField(5).zero(), 'CyclotomicScalar', 'CyclotomicScalar(n=5, 0)'),
    (lambda: ZetaField(5).one(), 'CyclotomicScalar', 'CyclotomicScalar(n=5, 1)'),
    (lambda: ZetaField(5).from_int(3), 'CyclotomicScalar', 'CyclotomicScalar(n=5, 3)'),
    (lambda: ZetaField(5).from_int(-2), 'CyclotomicScalar', 'CyclotomicScalar(n=5, -2)'),
    (lambda: ZetaField(5).from_fraction(F(-3, 4)), 'CyclotomicScalar', 'CyclotomicScalar(n=5, -3/4)'),
    (lambda: ZetaField(5).inv(ZetaField(5).from_int(3)), 'CyclotomicScalar', 'CyclotomicScalar(n=5, 1/3)'),
    (lambda: ZetaField(5).inv(ZetaField(5).from_fraction(F(-3, 4))), 'CyclotomicScalar', 'CyclotomicScalar(n=5, -4/3)'),
    (lambda: ZetaField(5).inv(ZetaField(5).one()), 'CyclotomicScalar', 'CyclotomicScalar(n=5, 1)'),
]

# (value, its JSON text)
JSON = [
    (lambda: Rationals(-1).scalar_to_json(Rationals(-1).zero()), '"0"'),
    (lambda: Rationals(-1).scalar_to_json(Rationals(-1).one()), '"1"'),
    (lambda: Rationals(-1).scalar_to_json(Rationals(-1).from_int(-2)), '"-2"'),
    (lambda: Rationals(-1).scalar_to_json(Rationals(-1).inv(Rationals(-1).from_fraction(F(-3, 4)))), '"-4/3"'),
    (lambda: Rationals(-1).scalar_to_json(Rationals(-1).q_power(3)), '"-1"'),
    (lambda: GenericQ().scalar_to_json(GenericQ().zero()), '{"num": {"terms": []}}'),
    (lambda: GenericQ().scalar_to_json(GenericQ().one()), '{"num": {"terms": [[0, "1"]]}}'),
    (lambda: GenericQ().scalar_to_json(GenericQ().from_int(-2)), '{"num": {"terms": [[0, "-2"]]}}'),
    (lambda: GenericQ().scalar_to_json(GenericQ().inv(GenericQ().from_fraction(F(-3, 4)))), '{"num": {"terms": [[0, "-4/3"]]}}'),
    (lambda: GenericQ().scalar_to_json(GenericQ().q_power(3)), '{"num": {"terms": [[3, "1"]]}}'),
    (lambda: ZetaField(5).scalar_to_json(ZetaField(5).zero()), '{"coeffs": ["0", "0", "0", "0"], "n": 5}'),
    (lambda: ZetaField(5).scalar_to_json(ZetaField(5).one()), '{"coeffs": ["1", "0", "0", "0"], "n": 5}'),
    (lambda: ZetaField(5).scalar_to_json(ZetaField(5).from_int(-2)), '{"coeffs": ["-2", "0", "0", "0"], "n": 5}'),
    (lambda: ZetaField(5).scalar_to_json(ZetaField(5).inv(ZetaField(5).from_fraction(F(-3, 4)))), '{"coeffs": ["-4/3", "0", "0", "0"], "n": 5}'),
    (lambda: ZetaField(5).scalar_to_json(ZetaField(5).q_power(3)), '{"coeffs": ["0", "0", "0", "1"], "n": 5}'),
]


def test_str_and_repr_are_pinned():
    for make, text, rep in TEXT:
        value = make()
        assert (str(value), repr(value)) == (text, rep)


def test_field_constants_are_pinned():
    for make, kind, rep in CONSTANTS:
        value = make()
        assert (type(value).__name__, repr(value)) == (kind, rep)


def test_scalar_json_is_pinned():
    for make, text in JSON:
        assert json.dumps(make(), sort_keys=True) == text

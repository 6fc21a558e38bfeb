import random
from fractions import Fraction

import pytest
import sympy

from skeinlab.charring import (
    GroupPresentation,
    Word,
    char_ring,
    character_ideal,
    commutator_trace,
    free_reduce,
    inverse_word,
    trace_poly,
    trivial_character_eval,
)
from skeinlab.chebyshev import cheb_T
from skeinlab.errors import SkeinError
from skeinlab.groebner import buchberger
from skeinlab.multipoly import MultiPoly


def test_free_reduction():
    assert free_reduce("aA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abAB") == "abAB"
    assert Word("aaAB").letters == "aB"
    assert inverse_word("ab") == "BA"


def test_trace_base_cases():
    assert trace_poly("") == MultiPoly.constant(("x", "y", "z"), Fraction(2))
    assert trace_poly("a") == MultiPoly.variable(("x", "y", "z"), "x")
    assert trace_poly("A") == trace_poly("a")
    assert trace_poly("b") == MultiPoly.variable(("x", "y", "z"), "y")
    assert trace_poly("ab") == MultiPoly.variable(("x", "y", "z"), "z")
    assert trace_poly("ba") == trace_poly("ab")
    assert trace_poly("AB") == trace_poly("ab")


def test_commutator_trace():
    vs = ("x", "y", "z")
    x, y, z = (MultiPoly.variable(vs, v) for v in vs)
    assert commutator_trace() == x * x + y * y + z * z - x * y * z - 2
    assert trace_poly("abAB") == commutator_trace()


def test_power_traces_are_chebyshev():
    vs = ("x", "y", "z")
    x = MultiPoly.variable(vs, "x")
    for k in range(1, 8):
        tk = cheb_T(k)
        expected = MultiPoly(vs, {(e, 0, 0): Fraction(c) for e, c in enumerate(tk.coeffs) if c})
        assert trace_poly("a" * k) == expected


def _mat2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _rand_sl2(rng):
    m = ((1, 0), (0, 1))
    for _ in range(4):
        r = rng.randint(-3, 3)
        e = ((1, r), (0, 1)) if rng.random() < 0.5 else ((1, 0), (r, 1))
        m = _mat2(m, e)
    return m


def test_trace_polynomial_numeric_oracle():
    rng = random.Random(123)
    for _ in range(200):
        A, B = _rand_sl2(rng), _rand_sl2(rng)
        inv = lambda m: ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        word = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 12)))
        M = ((1, 0), (0, 1))
        for ch in word:
            M = _mat2(M, {"a": A, "b": B, "A": inv(A), "B": inv(B)}[ch])
        AB = _mat2(A, B)
        vals = {
            "x": Fraction(A[0][0] + A[1][1]),
            "y": Fraction(B[0][0] + B[1][1]),
            "z": Fraction(AB[0][0] + AB[1][1]),
        }
        assert trace_poly(word).evaluate(vals) == M[0][0] + M[1][1]


def test_trace_product_identity():
    # tr(uv) + tr(u v^-1) = tr(u) tr(v) as polynomials
    rng = random.Random(5)
    for _ in range(25):
        u = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 8)))
        v = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 8)))
        lhs = trace_poly(free_reduce(u + v)) + trace_poly(free_reduce(u + inverse_word(v)))
        assert lhs == trace_poly(u) * trace_poly(v)


def test_character_ideal_of_z2():
    group = GroupPresentation(1, ["aa"])
    ideal = character_ideal(group)
    gens = {tuple(sorted(g.terms.items())) for g in ideal.generators}
    vs = ("x",)
    x = MultiPoly.variable(vs, "x")
    t2 = x * x - 4  # tr(a^2) - tr(1)
    t3 = x**3 - 4 * x  # tr(a^3) - tr(a)
    assert tuple(sorted(t2.terms.items())) in gens
    assert tuple(sorted(t3.terms.items())) in gens
    assert buchberger(ideal).dimension() == 2


def test_free_group_is_positive_dimensional():
    rep = char_ring(GroupPresentation(2, []))
    assert rep.total_dim is None
    assert not character_ideal(GroupPresentation(2, [])).generators


def test_trivial_group():
    rep = char_ring(GroupPresentation(1, ["a"]))
    assert rep.total_dim == 1
    assert len(rep.factors) == 1
    assert tuple(rep.factors[0].point["x"]) == (-2, 1)  # x = 2
    assert rep.irreducible_flags == (False,)


@pytest.mark.parametrize("p", range(2, 9))
def test_cyclic_groups(p):
    rep = char_ring(GroupPresentation.cyclic(p))
    assert rep.total_dim == p // 2 + 1
    assert all(flag is False for flag in rep.irreducible_flags)
    assert sum(f.point_count for f in rep.factors) == p // 2 + 1
    assert all(f.point_multiplicity == 1 for f in rep.factors)
    # cluster minimal polynomials multiply to gcd(T_p - 2, T_{p+1} - x),
    # the squarefree polynomial whose roots are the 2 cos(2 pi j / p)
    from skeinlab import upoly

    prod = [Fraction(1)]
    for f in rep.factors:
        prod = upoly.mul(prod, [Fraction(c) for c in f.point["x"]])
    tp = [Fraction(c) for c in cheb_T(p).coeffs]
    tp[0] -= 2
    tp1 = [Fraction(c) for c in cheb_T(p + 1).coeffs]
    tp1[1] -= 1
    expected = upoly.gcd(tp, tp1)
    assert prod == expected
    # numeric root confirmation at high precision
    t = sympy.Symbol("t")
    expr = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator) for c in prod])), t)
    for j in range(p // 2 + 1):
        val = expr.as_expr().subs(t, 2 * sympy.cos(2 * sympy.pi * j / p)).evalf(50)
        assert abs(val) < sympy.Float(10) ** -30


def test_poincare_sphere():
    rep = char_ring(GroupPresentation(2, ["ababAAA", "aaaBBBBB"]))
    assert rep.total_dim == 3
    assert rep.irreducible_point_count() == 2
    flags = dict(zip([f.point_count for f in rep.factors], rep.irreducible_flags))
    # trivial character: reducible; golden pair: irreducible
    assert flags[1] is False and flags[2] is True


def test_trivial_character_eval():
    assert trivial_character_eval(0) == 1
    assert trivial_character_eval(1) == -2
    assert trivial_character_eval(3) == -8
    with pytest.raises(ValueError):
        trivial_character_eval(-1)


def test_presentation_parsing():
    text = """
# Poincare sphere
gens: a b
rel: a b a b A A A
rel: a a a B B B B B
"""
    group = GroupPresentation.parse(text)
    assert group.ngens == 2
    assert [w.letters for w in group.relators] == ["ababAAA", "aaaBBBBB"]
    with pytest.raises(SkeinError):
        GroupPresentation.parse("rel: a\n")
    with pytest.raises(SkeinError):
        GroupPresentation(1, ["ab"])

import random
from fractions import Fraction

import pytest

from skeinlab.groebner import PolyIdeal, buchberger, _s_poly
from skeinlab.multipoly import ORDERS, MultiPoly


def V(*names):
    return tuple(names)


def var(vs, name):
    return MultiPoly.variable(vs, name)


def test_univariate():
    vs = V("x")
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [x * x - 1]))
    assert [dict(g.terms) for g in ring.groebner] == [{(2,): 1, (0,): -1}]
    assert ring.standard_monomials == ((0,), (1,))
    assert ring.dimension() == 2


def test_linear_elimination():
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    ring = buchberger(PolyIdeal(vs, [x + y, x - y]), "lex")
    assert ring.dimension() == 1
    assert {tuple(g.leading(ORDERS["lex"])[0]) for g in ring.groebner} == {(1, 0), (0, 1)}


def test_fat_point():
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    ring = buchberger(PolyIdeal(vs, [x * x, x * y, y * y]))
    assert ring.dimension() == 3
    assert set(ring.standard_monomials) == {(0, 0), (1, 0), (0, 1)}


def test_positive_dimensional():
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    ring = buchberger(PolyIdeal(vs, [x * x + y * y - 1]))
    assert ring.dimension() is None


def test_unit_ideal():
    vs = V("x",)
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [x, x - 1]))
    assert ring.dimension() == 0


def _random_poly(rng, vs, max_deg=3, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, max_deg) for _ in vs)
        terms[e] = Fraction(rng.randint(-3, 3))
    return MultiPoly(vs, terms)


@pytest.mark.parametrize("seed", range(8))
def test_groebner_division_oracle(seed):
    """Every S-polynomial reduces to zero and every input generator lies in
    the basis's span: the defining property, checked by the division
    algorithm itself."""
    rng = random.Random(seed)
    vs = V("x", "y", "z")
    gens = [p for p in (_random_poly(rng, vs) for _ in range(3)) if p]
    ring = buchberger(PolyIdeal(vs, gens))
    key = ORDERS[ring.order]
    for i in range(len(ring.groebner)):
        for j in range(i):
            s = _s_poly(ring.groebner[i], ring.groebner[j], key)
            assert not ring.normal_form(s)
    for g in gens:
        assert ring.contains(g)


def test_normal_form_idempotent():
    rng = random.Random(3)
    vs = V("x", "y")
    gens = [_random_poly(rng, vs) for _ in range(2)]
    ring = buchberger(PolyIdeal(vs, [g for g in gens if g]))
    p = _random_poly(rng, vs, max_deg=4, n_terms=5)
    nf = ring.normal_form(p)
    assert ring.normal_form(nf) == nf
    assert ring.contains(p - nf)


def test_mult_tables_consistent_with_normal_form():
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    ring = buchberger(PolyIdeal(vs, [x**2 - y, y**2 - 1]))
    tables = ring.mult_tables()
    d = ring.dimension()
    # multiplying basis vectors through the table equals normal-form product
    for name in vs:
        table = tables[name]
        g = MultiPoly.variable(vs, name)
        for j, mono in enumerate(ring.standard_monomials):
            prod = ring.coords(g * MultiPoly(vs, {mono: Fraction(1)}))
            assert [table[i][j] for i in range(d)] == prod


def test_ideal_json_round_trip():
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    ideal = PolyIdeal(vs, [x * y - 1, x + y])
    again = PolyIdeal.from_json(ideal.to_json())
    assert again.vars == ideal.vars
    assert [g.terms for g in again.generators] == [g.terms for g in ideal.generators]

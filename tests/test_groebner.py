import random
from fractions import Fraction
from itertools import permutations

import pytest

from skeinlab.charring import GroupPresentation, character_ideal
from skeinlab.errors import SkeinError
from skeinlab.groebner import PolyIdeal, buchberger, _s_poly
from skeinlab.multipoly import ORDERS, MultiPoly, monomial_divides


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


def _oracle_gens(seed):
    rng = random.Random(seed)
    vs = V("x", "y", "z")
    return [p for p in (_random_poly(rng, vs) for _ in range(3)) if p]


@pytest.mark.parametrize("seed", range(8))
def test_groebner_division_oracle(seed):
    """Every S-polynomial reduces to zero and every input generator lies in
    the basis's span: the defining property, checked by the division
    algorithm itself. The basis is also reduced: monic, and no term of an
    element is divisible by another element's leading monomial."""
    gens = _oracle_gens(seed)
    ring = buchberger(PolyIdeal(V("x", "y", "z"), gens))
    key = ORDERS[ring.order]
    for i in range(len(ring.groebner)):
        for j in range(i):
            s = _s_poly(ring.groebner[i], ring.groebner[j], key)
            assert not ring.normal_form(s)
    for g in gens:
        assert ring.contains(g)
    leads = [g.leading(key) for g in ring.groebner]
    assert all(lc == 1 for _, lc in leads)
    for i, g in enumerate(ring.groebner):
        for j, (lt, _) in enumerate(leads):
            if i != j:
                assert not any(monomial_divides(lt, e) for e in g.terms)


# the two-generator presentations of the benchmark's character-ring queries
_CHARACTER_RELATORS = [["ababAAA", "aaa" + "B" * r] for r in (2, 5, 6)] + [["abababAAA", "aaaBB"]]


def _generator_orders(gens, rng):
    if len(gens) <= 4:
        return list(permutations(gens))
    orders = [tuple(reversed(gens))]
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        orders.append(tuple(shuffled))
    return orders


@pytest.mark.parametrize(
    "ideal",
    [PolyIdeal(V("x", "y", "z"), _oracle_gens(seed)) for seed in range(8)]
    + [character_ideal(GroupPresentation(2, rels)) for rels in _CHARACTER_RELATORS],
    ids=[f"seed{seed}" for seed in range(8)] + ["=".join(rels) for rels in _CHARACTER_RELATORS],
)
def test_reduced_basis_independent_of_generator_order(ideal):
    """The reduced Groebner basis is unique, so the order in which the
    generators arrive (and hence which pairs are formed and selected first)
    cannot change it."""
    expected = buchberger(ideal).groebner
    for gens in _generator_orders(ideal.generators, random.Random(11)):
        assert buchberger(PolyIdeal(ideal.vars, gens)).groebner == expected


def test_int_coefficients_never_become_floats():
    vs = V("x", "y")
    two = MultiPoly(vs, {(2, 0): 2, (0, 0): -2})
    three = MultiPoly(vs, {(1, 1): 3, (0, 1): 1, (0, 0): 2})
    ring = buchberger(PolyIdeal(vs, [two, three]))
    assert ring.dimension() is not None
    univariate = buchberger(PolyIdeal(("x",), [MultiPoly(("x",), {(2,): 2, (0,): -2})]))
    assert [g.terms for g in univariate.groebner] == [{(2,): 1, (0,): -1}]
    nf = ring.normal_form(MultiPoly(vs, {(3, 2): 5, (1, 0): 7, (0, 3): 1}))
    s_poly = _s_poly(two, three, ORDERS["degrevlex"])
    for p in list(ring.groebner) + list(univariate.groebner) + [nf, s_poly]:
        assert all(type(c) in (int, Fraction) for c in p.terms.values())
        str(p)
    assert ring.contains(nf - MultiPoly(vs, {(3, 2): 5, (1, 0): 7, (0, 3): 1}))


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


def test_ideal_rejects_bad_variable_lists():
    # a repeated name used to give an "infinite" quotient, and no variables
    # at all reported Q itself, of dimension 1, as infinite
    for variables in (("x", "x"), ()):
        with pytest.raises(SkeinError):
            PolyIdeal(variables, [])


def test_from_json_rejects_exponents_that_are_not_natural_numbers():
    # x^-1 used to be read as a generator of the unit ideal, x^1.5 and x^true as x
    for exponent in (-1, 1.5, True):
        with pytest.raises(SkeinError):
            MultiPoly.from_json(("x",), {"terms": [[[exponent], "1"]]})

import random
from fractions import Fraction
from itertools import permutations

import pytest

from skeinlab import upoly
from skeinlab.acceptance import _random_artinian_ring
from skeinlab.artinian import (
    PresentedModule,
    artinian_decompose,
    local_multiplicity,
    specialize_vs_localize,
)
from skeinlab.errors import SkeinError
from skeinlab.groebner import PolyIdeal, buchberger
from skeinlab.linalg import span
from skeinlab.multipoly import MultiPoly


def V(*names):
    return tuple(names)


def var(vs, name):
    return MultiPoly.variable(vs, name)


def test_univariate_decomposition():
    vs = V("x")
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [(x - 1) ** 2 * (x + 2)]))
    factors = artinian_decompose(ring)
    data = sorted((tuple(f.point["x"]), f.multiplicity) for f in factors)
    assert data == [((-1, 1), 2), ((2, 1), 1)]  # x=1 double, x=-2 simple


def test_two_variable_fat_point():
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    ring = buchberger(PolyIdeal(vs, [x * x, y - 1]))
    factors = artinian_decompose(ring)
    assert len(factors) == 1
    f = factors[0]
    assert f.multiplicity == 2 and f.point_count == 1
    assert tuple(f.point["x"]) == (0, 1) and tuple(f.point["y"]) == (-1, 1)


def test_conjugate_clusters_are_not_split():
    vs = V("x",)
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [x * x - 2]))
    factors = artinian_decompose(ring)
    assert len(factors) == 1
    assert factors[0].point_count == 2 and factors[0].multiplicity == 2


def test_galois_stable_pairs_separate():
    # solutions (t,t) and (t,-t) for t^2 = 2: two distinct clusters that
    # single-variable minimal polynomials cannot tell apart
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    ring = buchberger(PolyIdeal(vs, [x * x - 2, y * y - 2]))
    factors = artinian_decompose(ring)
    assert sorted(f.multiplicity for f in factors) == [2, 2]
    assert all(f.point_count == 2 for f in factors)


def test_three_square_roots_need_a_combination():
    # the 8 points (+-r, +-r, +-r), r^2 = 2, form 4 conjugate pairs; every
    # pair has the same minimal polynomial t^2 - 2 in each variable, so no
    # single variable separates them and the split needs lam >= 1
    vs = V("x", "y", "z")
    x, y, z = (var(vs, v) for v in vs)
    ring = buchberger(PolyIdeal(vs, [x * x - 2, y * y - 2, z * z - 2]))
    factors = artinian_decompose(ring)
    assert len(factors) == 4
    for f in factors:
        assert f.point_count == 2 and f.multiplicity == 2 and f.point_multiplicity == 1
        assert all(tuple(f.point[v]) == (-2, 0, 1) for v in vs)


def test_tied_clusters_come_out_in_canonical_order():
    # (r, r) double and (r, -r) simple for r^2 = 2: two factors with the same
    # per-variable minimal polynomials, ordered by their idempotents
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    gens = [x * x - 2, (y - x) ** 2 * (y + x), (x * x - 2) * (y + 1)]
    reference = None
    for perm in permutations(gens):
        factors = artinian_decompose(buchberger(PolyIdeal(vs, list(perm))))
        keys = [(sorted(f.point.items()), f.idempotent) for f in factors]
        assert keys == sorted(keys)
        got = ([f.to_json() for f in factors], [f.idempotent for f in factors])
        if reference is None:
            reference = got
        assert got == reference
    assert sorted(f["multiplicity"] for f in reference[0]) == [2, 4]
    assert reference[0][0]["point"] == reference[0][1]["point"]


def test_point_multiplicity_matches_fat_point_powers():
    # criterion 12's rings have rational points only; local_multiplicity gets
    # the same number from quotients by powers of the point's ideal
    rng = random.Random(24)
    seen = []
    for _ in range(8):
        ring = _random_artinian_ring(rng)
        if not ring.dimension():
            continue
        ideal = PolyIdeal(ring.vars, ring.groebner)
        for f in artinian_decompose(ring):
            assert f.point_count == 1
            point = [-f.point[v][0] for v in ring.vars]
            assert local_multiplicity(ideal, point) == f.point_multiplicity
            seen.append(f.point_multiplicity)
    assert sorted(set(seen)) == [1, 2, 3, 4]


def test_factor_bases_lie_in_their_blocks():
    # criterion 12's rings: each basis row is fixed by its idempotent, and
    # the rows are independent, as many as the factor's dimension
    rng = random.Random(5150)
    rings = 0
    while rings < 20:
        ring = _random_artinian_ring(rng)
        d = ring.dimension()
        if not d or d > 9:
            continue
        rings += 1
        for f in artinian_decompose(ring):
            e = ring.from_coords(f.idempotent)
            for row in f.basis:
                assert ring.coords(e * ring.from_coords(row)) == row
            assert len(f.basis) == span(f.basis).rank() == f.multiplicity


def test_multiplicity_sums_on_random_rings():
    rng = random.Random(42)
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    for _ in range(10):
        px = MultiPoly.constant(vs, Fraction(1))
        for _ in range(rng.randint(1, 3)):
            px = px * (x - rng.randint(-2, 2))
        py = MultiPoly.constant(vs, Fraction(1))
        for _ in range(rng.randint(1, 2)):
            py = py * (y - rng.randint(-2, 2))
        ring = buchberger(PolyIdeal(vs, [px, py]))
        factors = artinian_decompose(ring)
        assert sum(f.multiplicity for f in factors) == ring.dimension()
        for f in factors:
            assert f.multiplicity == f.point_count * f.point_multiplicity


def test_idempotents_are_idempotent():
    vs = V("x")
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [(x - 1) * (x + 1) * x]))
    factors = artinian_decompose(ring)
    assert len(factors) == 3
    for f in factors:
        e = ring.from_coords(f.idempotent)
        assert ring.normal_form(e * e - e) == MultiPoly.zero(vs)


def test_local_multiplicity_examples():
    vs2 = V("x", "y")
    x, y = var(vs2, "x"), var(vs2, "y")
    assert local_multiplicity(PolyIdeal(vs2, [x * x, y]), [0, 0]) == 2
    vs1 = V("x")
    x1 = var(vs1, "x")
    assert local_multiplicity(PolyIdeal(vs1, [x1 - 1]), [1]) == 1
    assert local_multiplicity(PolyIdeal(vs1, [(x1 - 1) ** 3]), [1]) == 3


def test_local_multiplicity_rejects_non_isolated():
    vs = V("x", "y")
    x, y = var(vs, "x"), var(vs, "y")
    with pytest.raises(SkeinError):
        local_multiplicity(PolyIdeal(vs, [x * y]), [0, 0], max_power=6)


def test_specialize_vs_localize_free_module():
    vs = V("x")
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [(x - 1) ** 2 * (x + 2)]))
    factors = artinian_decompose(ring)
    module = PresentedModule(ring, 1, [])
    by_mult = {f.multiplicity: f for f in factors}
    assert specialize_vs_localize(module, by_mult[2]) == (2, 2, True)
    assert specialize_vs_localize(module, by_mult[1]) == (1, 1, True)


def test_specialize_vs_localize_zero_module():
    vs = V("x")
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [x * x - 1]))
    factors = artinian_decompose(ring)
    module = PresentedModule(ring, 1, [[MultiPoly.constant(vs, Fraction(1))]])
    for f in factors:
        assert specialize_vs_localize(module, f) == (0, 0, True)


def test_specialize_vs_localize_random_modules():
    rng = random.Random(9)
    vs = V("x")
    x = var(vs, "x")
    ring = buchberger(PolyIdeal(vs, [(x - 1) * x * (x + 1) * (x - 2)]))
    factors = artinian_decompose(ring)
    for _ in range(6):
        r = rng.randint(1, 2)
        cols = []
        for _ in range(rng.randint(0, 2)):
            col = []
            for _ in range(r):
                terms = {m: Fraction(rng.randint(-2, 2)) for m in ring.standard_monomials if rng.random() < 0.5}
                col.append(MultiPoly(vs, terms))
            cols.append(col)
        module = PresentedModule(ring, r, cols)
        total = module.total_dim()
        spec_sum = 0
        for f in factors:
            ds, dl, eq = specialize_vs_localize(module, f)
            assert eq
            spec_sum += ds
        # module decomposition: dim M = sum of local dims
        assert spec_sum == total


def test_factor_rational_poly():
    # (x^2-2)(x-1)^2 = (x^2-2)*(x^2-2x+1)
    built = upoly.mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(1), Fraction(-2), Fraction(1)])
    facs = upoly.factor(built)
    normalized = sorted((tuple(f), e) for f, e in facs)
    assert ((Fraction(-2), Fraction(0), Fraction(1)), 1) in normalized
    assert ((Fraction(-1), Fraction(1)), 2) in normalized
"""Buchberger's algorithm, reduced Groebner bases, and zero-dimensional
quotient rings with multiplication tables.

Plain Buchberger with the sugar selection strategy and the coprime-lcm
criterion; inputs here are tiny, so exactness beats cleverness. Normal forms
against a reduced basis are canonical, which makes quotient-ring equality
coefficient-wise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

from .errors import SkeinError
from .multipoly import (
    ORDERS,
    MultiPoly,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


class PolyIdeal:
    __slots__ = ("vars", "generators")

    def __init__(self, variables, generators):
        self.vars = tuple(variables)
        gens = []
        for g in generators:
            if g.vars != self.vars:
                raise SkeinError("ideal generator in wrong variable context")
            if g:
                gens.append(g)
        self.generators = tuple(gens)

    def to_json(self):
        return {"vars": list(self.vars), "gens": [g.to_json() for g in self.generators]}

    @classmethod
    def from_json(cls, data):
        variables = tuple(data["vars"])
        return cls(variables, [MultiPoly.from_json(variables, g) for g in data["gens"]])

    def __repr__(self):
        return f"PolyIdeal({self.vars}, {len(self.generators)} gens)"


def _reduce(poly, basis, key):
    """Full normal form of poly against basis (leading terms precomputed)."""
    remainder = MultiPoly(poly.vars)
    work = poly
    while work:
        e, c = work.leading(key)
        hit = None
        for lt, lc, g in basis:
            if monomial_divides(lt, e):
                hit = (lt, lc, g)
                break
        if hit is None:
            t = MultiPoly(poly.vars, {e: c})
            remainder = remainder + t
            work = work - t
        else:
            lt, lc, g = hit
            factor = MultiPoly(poly.vars, {monomial_div(e, lt): c / lc})
            work = work - factor * g
    return remainder


def _s_poly(f, g, key):
    ef, cf = f.leading(key)
    eg, cg = g.leading(key)
    l = monomial_lcm(ef, eg)
    mf = MultiPoly(f.vars, {monomial_div(l, ef): 1 / cf})
    mg = MultiPoly(g.vars, {monomial_div(l, eg): 1 / cg})
    return mf * f - mg * g


class QuotientRing:
    """Reduced Groebner basis plus, when zero-dimensional, the standard
    monomial basis and multiplication-by-variable matrices."""

    __slots__ = ("vars", "order", "groebner", "_lead", "standard_monomials", "_key")

    def __init__(self, variables, order, groebner):
        self.vars = tuple(variables)
        self.order = order
        self._key = ORDERS[order]
        self.groebner = tuple(groebner)
        self._lead = tuple(g.leading(self._key) for g in self.groebner)
        self.standard_monomials = self._staircase()

    def normal_form(self, poly: MultiPoly) -> MultiPoly:
        basis = [(lt, lc, g) for (lt, lc), g in zip(self._lead, self.groebner)]
        return _reduce(poly, basis, self._key)

    def contains(self, poly: MultiPoly) -> bool:
        return not self.normal_form(poly)

    def _staircase(self):
        """Standard monomials when finite, else None."""
        n = len(self.vars)
        if any((lc == 0) for (_, lc) in self._lead):  # pragma: no cover
            raise SkeinError("zero leading coefficient")
        leads = [lt for lt, _ in self._lead]
        if not leads:
            return None  # zero ideal: infinite for n >= 1
        # finite iff some pure power of each variable appears among the leads
        bounds = [None] * n
        for lt in leads:
            nz = [i for i, e in enumerate(lt) if e]
            if len(nz) == 1:
                i = nz[0]
                if bounds[i] is None or lt[i] < bounds[i]:
                    bounds[i] = lt[i]
            elif len(nz) == 0:
                return ()  # unit ideal
        if any(b is None for b in bounds):
            return None
        out = []
        for exps in iter_product(*(range(b) for b in bounds)):
            if not any(monomial_divides(lt, exps) for lt in leads):
                out.append(exps)
        out.sort(key=self._key)
        return tuple(out)

    def dimension(self):
        """Vector-space dimension of the quotient, or None when infinite."""
        return None if self.standard_monomials is None else len(self.standard_monomials)

    def coords(self, poly: MultiPoly):
        """Coordinate vector of the normal form in the standard basis."""
        nf = self.normal_form(poly)
        index = {m: i for i, m in enumerate(self.standard_monomials)}
        vec = [Fraction(0)] * len(self.standard_monomials)
        for e, c in nf.terms.items():
            vec[index[e]] += c
        return vec

    def from_coords(self, vec):
        return MultiPoly(self.vars, {m: c for m, c in zip(self.standard_monomials, vec) if c})

    def mult_matrix(self, poly: MultiPoly):
        """Matrix of multiplication by poly on the standard basis (columns)."""
        if self.standard_monomials is None:
            raise SkeinError("multiplication matrices need a zero-dimensional quotient")
        cols = []
        for m in self.standard_monomials:
            cols.append(self.coords(poly * MultiPoly(self.vars, {m: Fraction(1)})))
        d = len(self.standard_monomials)
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def mult_tables(self):
        """Multiplication-by-variable matrices, one per variable."""
        return {
            v: self.mult_matrix(MultiPoly.variable(self.vars, v)) for v in self.vars
        }

    def __repr__(self):
        dim = self.dimension()
        return (
            f"QuotientRing({self.vars}, order={self.order}, |GB|={len(self.groebner)}, "
            f"dim={'inf' if dim is None else dim})"
        )


def buchberger(ideal: PolyIdeal, order: str = "degrevlex") -> QuotientRing:
    """Reduced Groebner basis via Buchberger with sugar selection."""
    key = ORDERS[order]
    basis = []
    for g in ideal.generators:
        if g:
            e, c = g.leading(key)
            basis.append(g.scale(1 / c))
    if not basis:
        return QuotientRing(ideal.vars, order, ())

    def sugar(f):
        return f.total_degree()

    pairs = []
    for i in range(len(basis)):
        for j in range(i):
            pairs.append((i, j))

    def pair_key(ij):
        i, j = ij
        ei, _ = basis[i].leading(key)
        ej, _ = basis[j].leading(key)
        l = monomial_lcm(ei, ej)
        return (sum(l) + max(sugar(basis[i]), sugar(basis[j])), key(l))

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        ei, _ = basis[i].leading(key)
        ej, _ = basis[j].leading(key)
        if monomial_lcm(ei, ej) == monomial_mul(ei, ej):
            continue  # coprime leading monomials reduce to zero
        lead_triples = [(g.leading(key)[0], g.leading(key)[1], g) for g in basis]
        s = _reduce(_s_poly(basis[i], basis[j], key), lead_triples, key)
        if s:
            e, c = s.leading(key)
            s = s.scale(1 / c)
            basis.append(s)
            for t in range(len(basis) - 1):
                pairs.append((len(basis) - 1, t))

    # minimalize: drop elements whose lead is divisible by another lead
    basis.sort(key=lambda g: key(g.leading(key)[0]))
    minimal = []
    for g in basis:
        e, _ = g.leading(key)
        if not any(monomial_divides(h.leading(key)[0], e) for h in minimal):
            minimal.append(g)
    # reduce tails
    reduced = []
    for idx, g in enumerate(minimal):
        others = [
            (h.leading(key)[0], h.leading(key)[1], h)
            for t, h in enumerate(minimal)
            if t != idx
        ]
        r = _reduce(g, others, key)
        e, c = r.leading(key)
        reduced.append(r.scale(1 / c))
    reduced.sort(key=lambda g: key(g.leading(key)[0]))
    return QuotientRing(ideal.vars, order, reduced)

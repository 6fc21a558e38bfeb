"""Buchberger's algorithm, reduced Groebner bases, and zero-dimensional
quotient rings with multiplication tables.

Buchberger's algorithm with the sugar selection strategy: the critical pairs
wait in a heap keyed by (sugar, lcm), each basis element's leading term,
leading coefficient and sugar are computed once, and the Gebauer-Moeller
update (criterion B on the old pairs, M and F on the new ones, then the
coprime-lcm product criterion; J. Symb. Comp. 6, 1988) discards pairs before
they are reduced. Normal forms keep their pending terms in a dict with a heap
of monomials. Coefficients stay exact (int or Fraction, never float). Normal
forms against a reduced basis are canonical, which makes quotient-ring
equality coefficient-wise.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, count, product as iter_product
from operator import neg

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
        if not self.vars:
            raise SkeinError("an ideal needs at least one variable")
        if not all(isinstance(v, str) and v for v in self.vars):
            raise SkeinError(f"variable names must be non-empty strings, got {list(self.vars)}")
        if len(set(self.vars)) != len(self.vars):
            raise SkeinError(f"repeated variable in {list(self.vars)}")
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
    """Full normal form of poly against basis, an iterable of (lead monomial,
    lead coefficient, element) triples with Fraction lead coefficients.

    The terms still to reduce sit in a dict, and their monomials in a heap
    that pops the largest first: every order key is linear in the exponents,
    so key(-e) = -key(e). A cancelled term stays in the dict as 0, so each
    monomial has one heap entry. A reduction step costs the size of the
    reducer."""
    work = dict(poly.terms)
    heap = [(key(tuple(map(neg, e))), e) for e in work]
    heapify(heap)
    remainder = {}
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        for lt, lc, g in basis:
            if monomial_divides(lt, e):
                f = c / lc
                shift = monomial_div(e, lt)
                for ge, gc in g.terms.items():
                    if ge != lt:
                        m = monomial_mul(ge, shift)
                        old = work.get(m)
                        if old is None:
                            work[m] = -f * gc
                            heappush(heap, (key(tuple(map(neg, m))), m))
                        else:
                            work[m] = old - f * gc
                break
        else:
            remainder[e] = c
    r = MultiPoly(poly.vars)
    r.terms = remainder
    return r


def _s_poly(f, g, key):
    ef, cf = f.leading(key)
    eg, cg = g.leading(key)
    l = monomial_lcm(ef, eg)
    mf = MultiPoly(f.vars, {monomial_div(l, ef): 1 / Fraction(cf)})
    mg = MultiPoly(g.vars, {monomial_div(l, eg): 1 / Fraction(cg)})
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
        leads = (g.leading(self._key) for g in self.groebner)
        self._lead = tuple((lt, Fraction(lc), g) for (lt, lc), g in zip(leads, self.groebner))
        self.standard_monomials = self._staircase()

    def normal_form(self, poly: MultiPoly) -> MultiPoly:
        return _reduce(poly, self._lead, self._key)

    def contains(self, poly: MultiPoly) -> bool:
        return not self.normal_form(poly)

    def _staircase(self):
        """Standard monomials when finite, else None."""
        n = len(self.vars)
        if any((lc == 0) for (_, lc, _) in self._lead):  # pragma: no cover
            raise SkeinError("zero leading coefficient")
        leads = [lt for lt, _, _ in self._lead]
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
    """Reduced Groebner basis via Buchberger with sugar selection and the
    Gebauer-Moeller criteria."""
    key = ORDERS[order]
    elems = []  # (lead monomial, lead coefficient, element) of every element added
    sugars = []
    live = {}  # index -> elems entry, for the elements whose lead no later lead divides
    pairs = []  # heap of (sugar, key(lcm), insertion counter, lcm, i, j)
    counter = count()

    def insert(h, sugar):
        # every element added stays a reducer, oldest first: reducing by the
        # low-sugar elements that a later lead made redundant keeps the
        # intermediate coefficients small
        h = _reduce(h, elems, key)
        if not h:
            return
        t, c = h.leading(key)
        h = h.scale(1 / Fraction(c))
        new = len(elems)
        elems.append((t, h.terms[t], h))
        sugars.append(max(sugar, h.total_degree()))
        # criterion B: t divides the lcm of an old pair and differs from both
        # of its lcms with the pair's elements
        pairs[:] = [
            p for p in pairs
            if not monomial_divides(t, p[3])
            or monomial_lcm(t, elems[p[4]][0]) == p[3]
            or monomial_lcm(t, elems[p[5]][0]) == p[3]
        ]
        heapify(pairs)
        # criteria M and F: of the new pairs, keep those whose lcm no other
        # new lcm divides (one of each equal lcm); coprime ones stay long
        # enough to rule out others, then the product criterion drops them
        fresh = [(monomial_lcm(t, lt), k) for k, (lt, _, _) in live.items()]
        kept = []
        while fresh:
            l, k = fresh.pop()
            coprime = l == monomial_mul(t, elems[k][0])
            if coprime or not any(monomial_divides(p[0], l) for p in chain(fresh, kept)):
                kept.append((l, k, coprime))
        for l, k, coprime in kept:
            if not coprime:
                s = sum(l) + max(sugars[new] - sum(t), sugars[k] - sum(elems[k][0]))
                heappush(pairs, (s, key(l), next(counter), l, new, k))
        for k in [k for k, (lt, _, _) in live.items() if monomial_divides(t, lt)]:
            del live[k]
        live[new] = elems[new]

    for g in ideal.generators:
        insert(g, g.total_degree())
    while pairs:
        sugar, *_, i, j = heappop(pairs)
        insert(_s_poly(elems[i][2], elems[j][2], key), sugar)

    # live is minimal (no lead divides another) and monic; reduce the tails
    basis = sorted(live.values(), key=lambda e: key(e[0]))
    reduced = [_reduce(g, basis[:i] + basis[i + 1:], key) for i, (_, _, g) in enumerate(basis)]
    return QuotientRing(ideal.vars, order, reduced)

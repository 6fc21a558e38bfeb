"""Artinian decomposition of zero-dimensional quotient rings, local
multiplicities, and the specialization-vs-localization comparison for
presented modules.

A finite-dimensional commutative Q-algebra A = Q[x_1..x_n]/I splits as a
product of local factors, one for each Galois orbit of its points over the
algebraic closure. The split is one pass:

- the trace form (b_i, b_j) -> Tr(L_{b_i b_j}) on the standard monomials has
  rank s, the number of distinct points (Cox, Little, O'Shea, *Using
  Algebraic Geometry*, ch. 2 section 5);
- the linear form a = x_1 + lam x_2 + lam^2 x_3 + ... separates the points
  when it takes s distinct values on them, that is, when the irreducible
  factors over Q (``upoly.factor``) of the minimal polynomial of L_a have
  degrees that sum to s. Two distinct points agree on a for at most n - 1
  values of lam, the roots of a nonzero polynomial of degree at most n - 1,
  so one of lam = 0, 1, ..., (n - 1) s (s - 1) / 2 separates;
- for a separating a, each prime-power factor f^e of that minimal polynomial
  cuts out one local factor, the kernel of f(L_a)^e, whose points are the
  deg f conjugates on which a is a root of f.

Factors are Q-local: a cluster of Galois-conjugate points is one factor; its
``point_count`` is the residue-field degree and ``multiplicity`` the full
Q-dimension of the factor, so multiplicities add up to the quotient dimension.
Factors are sorted by their points and then their idempotents, an order that
does not depend on the generators the ideal was given by.
"""

from __future__ import annotations

from fractions import Fraction

from . import upoly
from .errors import SkeinError
from .groebner import PolyIdeal, QuotientRing, buchberger
from .linalg import (
    Echelon,
    coordinates,
    dense,
    identity,
    mat_mul,
    mat_vec,
    minimal_polynomial,
    span,
    sparse,
)
from .multipoly import MultiPoly


def _poly_of_matrix(coeffs, mat):
    n = len(mat)
    out = [[c * coeffs[0] for c in row] for row in identity(n)]
    power = identity(n)
    for c in coeffs[1:]:
        power = mat_mul(power, mat)
        if c:
            out = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(out, power)]
    return out


class LocalFactor:
    """One local factor of an Artinian algebra.

    point: variable -> ascending minimal-polynomial coefficients over Q of
    that coordinate on the cluster. multiplicity is the Q-dimension of the
    factor; point_count the number of conjugate points in the cluster;
    point_multiplicity the scheme multiplicity at each point.
    """

    __slots__ = ("point", "multiplicity", "point_count", "point_multiplicity", "basis", "idempotent")

    def __init__(self, point, multiplicity, point_count, point_multiplicity, basis, idempotent):
        self.point = point
        self.multiplicity = multiplicity
        self.point_count = point_count
        self.point_multiplicity = point_multiplicity
        self.basis = basis  # rows: coordinates in the ambient standard basis
        self.idempotent = idempotent  # ambient coordinate vector

    def to_json(self):
        return {
            "point": {v: [upoly.frac_str(c) for c in cs] for v, cs in sorted(self.point.items())},
            "multiplicity": self.multiplicity,
            "point_count": self.point_count,
            "point_multiplicity": self.point_multiplicity,
        }

    def __repr__(self):
        pt = ", ".join(f"{v}:{_poly_str(cs)}" for v, cs in sorted(self.point.items()))
        return f"LocalFactor({pt}; mult={self.multiplicity}, points={self.point_count})"


def _poly_str(cs):
    return "+".join(f"{c}t^{i}" if i else str(c) for i, c in enumerate(cs) if c) or "0"


def _restrict(mat, basis_rows):
    """Matrix of an operator restricted to an invariant subspace (rows basis)."""
    coords = coordinates(basis_rows)
    cols = []
    for row in basis_rows:
        sol = coords(mat_vec(mat, row))
        if sol is None:
            raise SkeinError("subspace is not invariant")
        cols.append(sol)
    d = len(basis_rows)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _block_minpoly(mat):
    """Minimal polynomial of a matrix via cyclic subspaces."""
    n = len(mat)
    done = [Fraction(1)]
    invariant = Echelon()  # sum of the cyclic subspaces so far
    for i in range(n):
        if not invariant.insert({i: Fraction(1)}):
            continue  # a dependent start adds nothing to the lcm
        v = [Fraction(int(t == i)) for t in range(n)]
        mp = minimal_polynomial(lambda w: mat_vec(mat, w), v, n)
        done = upoly.lcm(done, mp)
        # the cyclic subspace of v is spanned by v, Av, ..., A^(deg mp - 1) v
        for _ in range(len(mp) - 2):
            v = mat_vec(mat, v)
            invariant.insert(sparse(v))
        if len(done) == n + 1:
            break
    return done


def _point_count(ring):
    """Number of distinct points over the algebraic closure: the rank of the
    trace form. Column i of L_{b_j} holds the coordinates of b_i b_j, so
    Tr(L_{b_i b_j}) is their dot product with the traces of the L_{b_k}."""
    mats = [ring.mult_matrix(MultiPoly(ring.vars, {m: Fraction(1)})) for m in ring.standard_monomials]
    traces = [sum(mat[t][t] for t in range(len(mat))) for mat in mats]
    gram = [[sum(t * c for t, c in zip(traces, col)) for col in zip(*mat)] for mat in mats]
    return span(gram).rank()


def artinian_decompose(ring: QuotientRing):
    """Split a zero-dimensional quotient ring into Q-local factors."""
    d = ring.dimension()
    if d is None:
        raise SkeinError("artinian decomposition needs a finite-dimensional quotient")
    if d == 0:
        return []
    tables = ring.mult_tables()
    s = _point_count(ring)
    n = len(ring.vars)
    for lam in range((n - 1) * s * (s - 1) // 2 + 1):
        weights = [(lam**i, tables[v]) for i, v in enumerate(ring.vars)]
        form = [[sum(w * t[r][c] for w, t in weights) for c in range(d)] for r in range(d)]
        primes = upoly.factor(_block_minpoly(form))
        if sum(len(f) - 1 for f, _ in primes) == s:
            break
    else:  # pragma: no cover - some lam in the range separates
        raise SkeinError("no separating linear form")

    # the kernel of f(L_a)^e: ambient vector j goes in as its image (column j)
    # tagged with -1 - j, so the rows left with only tags span the kernel
    blocks = []
    for f, e in primes:
        pw = [Fraction(1)]
        for _ in range(e):
            pw = upoly.mul(pw, f)
        m = _poly_of_matrix(pw, form)
        ker = Echelon()
        for j in range(d):
            row = {i: m[i][j] for i in range(d) if m[i][j]}
            row[-1 - j] = Fraction(1)
            ker.insert(row)
        kernel = [row for lead, row in ker.pivots.items() if lead < 0]
        blocks.append([dense({-1 - k: x for k, x in row.items()}, d) for row in kernel])

    # idempotents: the components of 1 along the direct sum of the blocks
    unit = ring.coords(MultiPoly.constant(ring.vars, Fraction(1)))
    split = iter(coordinates([row for rows in blocks for row in rows])(unit))
    factors = []
    for (f, _), rows in zip(primes, blocks):
        idem = [Fraction(0)] * d
        for row in rows:
            c = next(split)
            if c:
                idem = [a + c * b for a, b in zip(idem, row)]
        point = {}
        for v in ring.vars:
            [(g, _)] = upoly.factor(_block_minpoly(_restrict(tables[v], rows)))
            point[v] = tuple(g)
        mult, count = len(rows), len(f) - 1
        factors.append(LocalFactor(point, mult, count, mult // count, rows, idem))
    factors.sort(key=lambda fac: (sorted(fac.point.items()), fac.idempotent))
    return factors


def local_multiplicity(ideal: PolyIdeal, point, max_power: int = 24) -> int:
    """Stabilized dim of quotients by increasing powers of the point's ideal."""
    variables = ideal.vars
    if len(point) != len(variables):
        raise SkeinError("point coordinate count mismatch")
    linear = [
        MultiPoly.variable(variables, v) - MultiPoly.constant(variables, Fraction(c))
        for v, c in zip(variables, point)
    ]
    prev = None
    for s in range(1, max_power + 1):
        powers = []
        _accumulate_power_products(linear, s, MultiPoly.constant(variables, Fraction(1)), 0, powers)
        ring = buchberger(PolyIdeal(variables, list(ideal.generators) + powers))
        d = ring.dimension()
        if d is None:
            raise SkeinError("quotient by a fat point power is infinite; bad input")
        if prev is not None and d == prev:
            return d
        prev = d
    raise SkeinError(f"local multiplicity did not stabilize by power {max_power}; is the point isolated?")


def _accumulate_power_products(linear, s, acc, start, out):
    if s == 0:
        out.append(acc)
        return
    for i in range(start, len(linear)):
        _accumulate_power_products(linear, s - 1, acc * linear[i], i, out)


class PresentedModule:
    """M = A^r / column span of a relation matrix over a quotient ring."""

    __slots__ = ("ring", "rank", "relations")

    def __init__(self, ring: QuotientRing, rank_: int, relations):
        self.ring = ring
        self.rank = rank_
        self.relations = [
            [ring.normal_form(entry) for entry in col] for col in relations
        ]
        for col in self.relations:
            if len(col) != rank_:
                raise SkeinError("relation column of wrong length")

    def _ground_relation_rows(self):
        """Ground-field row vectors spanning the relation submodule of A^r."""
        ring = self.ring
        rows = []
        monos = [MultiPoly(ring.vars, {m: Fraction(1)}) for m in ring.standard_monomials]
        for col in self.relations:
            for mono in monos:
                row = []
                for entry in col:
                    row.extend(ring.coords(entry * mono))
                rows.append(row)
        return rows

    def total_dim(self):
        d = self.ring.dimension()
        rows = self._ground_relation_rows()
        return self.rank * d - span(rows).rank()


def specialize_vs_localize(module: PresentedModule, factor: LocalFactor):
    """dim M/aM by two routes: quotient by the complementary ideal versus
    projection by the factor's idempotent. Returns (dim_spec, dim_loc, equal)."""
    ring = module.ring
    d = ring.dimension()
    r = module.rank

    # route 1: specialization. a = complementary ideal: ambient vectors of all
    # other blocks; M/aM = A^r / (relations + a * A^r)
    idem = ring.from_coords(factor.idempotent)
    one = MultiPoly.constant(ring.vars, Fraction(1))
    comp = ring.normal_form(one - idem)
    rows = module._ground_relation_rows()
    monos = [MultiPoly(ring.vars, {m: Fraction(1)}) for m in ring.standard_monomials]
    for unit in range(r):
        for mono in monos:
            entry = ring.normal_form(comp * mono)
            row = []
            for t in range(r):
                row.extend(ring.coords(entry) if t == unit else [Fraction(0)] * d)
            rows.append(row)
    dim_spec = r * d - span(rows).rank()

    # route 2: localization by idempotent projection. e*M = e*A^r / e*relations,
    # with e*relations in ambient coordinates: coordinates against a basis of
    # the e-ideal are an injective linear image of them, with the same rank
    block_dim = span(_ideal_rows(ring, idem)).rank()
    localized = [[idem * entry for entry in col] for col in module.relations]
    localized = PresentedModule(ring, r, localized)
    dim_loc = r * block_dim - span(localized._ground_relation_rows()).rank()
    return dim_spec, dim_loc, dim_spec == dim_loc


def _ideal_rows(ring, gen):
    monos = [MultiPoly(ring.vars, {m: Fraction(1)}) for m in ring.standard_monomials]
    return [ring.coords(gen * mono) for mono in monos]

"""Artinian decomposition of zero-dimensional quotient rings, local
multiplicities, and the specialization-vs-localization comparison for
presented modules.

A finite-dimensional commutative Q-algebra A = Q[x_1..x_n]/I splits as a
product of local factors eA, one for each Galois orbit of its points over
the algebraic closure, where e runs over the primitive idempotents. The
split is one pass:

- the trace form (b_i, b_j) -> Tr(L_{b_i b_j}) on the standard monomials has
  rank s, the number of distinct points (Cox, Little, O'Shea, *Using
  Algebraic Geometry*, ch. 2 section 5);
- the linear form a = x_1 + lam x_2 + lam^2 x_3 + ... separates the points
  when it takes s distinct values on them, that is, when the irreducible
  factors over Q (``upoly.factor``) of the minimal polynomial mu of L_a have
  degrees that sum to s. Two distinct points agree on a for at most n - 1
  values of lam, the roots of a nonzero polynomial of degree at most n - 1,
  so one of lam = 0, 1, ..., (n - 1) s (s - 1) / 2 separates;
- for a separating a, each prime-power factor f^e of mu gives one local
  factor, whose points are the deg f conjugates on which a is a root of f.
  Its idempotent is eps(a) with eps = u (mu / f^e) mod mu, where
  u (mu / f^e) + v f^e = 1 (``upoly.ext_gcd``).

A is commutative with a unit, so p(L_a) vanishes exactly when p(a) does:
mu is the minimal polynomial of the unit vector under L_a, and on a factor
eA the minimal polynomial of L_v is that of the vector e. Every fact is
therefore one Krylov sequence (``linalg.minimal_polynomial``) in the
ambient space, and the factor itself is spanned by the products b_k e.

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
from .linalg import Echelon, mat_vec, minimal_polynomial, span, sparse
from .multipoly import MultiPoly


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
        self.basis = basis  # rows: a basis of the factor eA, in ambient coordinates
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


def _point_count(mats):
    """Number of distinct points over the algebraic closure: the rank of the
    trace form. Column i of L_{b_j} holds the coordinates of b_i b_j, so
    Tr(L_{b_i b_j}) is their dot product with the traces of the L_{b_k}."""
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
    mats = [ring.mult_matrix(MultiPoly(ring.vars, {m: Fraction(1)})) for m in ring.standard_monomials]
    s = _point_count(mats)
    unit = ring.coords(MultiPoly.constant(ring.vars, Fraction(1)))
    n = len(ring.vars)
    for lam in range((n - 1) * s * (s - 1) // 2 + 1):
        weights = [(lam**i, tables[v]) for i, v in enumerate(ring.vars)]
        form = [[sum(w * t[r][c] for w, t in weights) for c in range(d)] for r in range(d)]
        mu = minimal_polynomial(lambda w: mat_vec(form, w), unit, d)
        primes = upoly.factor(mu)
        if sum(len(f) - 1 for f, _ in primes) == s:
            break
    else:  # pragma: no cover - some lam in the range separates
        raise SkeinError("no separating linear form")

    powers = [unit]  # a^k for k < deg mu
    for _ in range(len(mu) - 2):
        powers.append(mat_vec(form, powers[-1]))
    factors = []
    for f, e in primes:
        f_e = [Fraction(1)]
        for _ in range(e):
            f_e = upoly.mul(f_e, f)
        rest = upoly.divmod(mu, f_e)[0]
        _, u, _ = upoly.ext_gcd(rest, f_e)
        eps = upoly.divmod(upoly.mul(u, rest), mu)[1]
        idem = [Fraction(0)] * d
        for c, vec in zip(eps, powers):
            if c:
                idem = [x + c * y for x, y in zip(idem, vec)]
        block = Echelon()
        rows = [row for row in (mat_vec(mat, idem) for mat in mats) if block.insert(sparse(row))]
        point = {}
        for v in ring.vars:
            [(g, _)] = upoly.factor(minimal_polynomial(lambda w: mat_vec(tables[v], w), idem, d))
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
    # where e*A has dimension factor.multiplicity and e*relations are taken in
    # ambient coordinates: coordinates against a basis of e*A are an injective
    # linear image of them, with the same rank
    localized = [[idem * entry for entry in col] for col in module.relations]
    localized = PresentedModule(ring, r, localized)
    dim_loc = r * factor.multiplicity - span(localized._ground_relation_rows()).rank()
    return dim_spec, dim_loc, dim_spec == dim_loc

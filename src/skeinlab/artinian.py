"""Artinian decomposition of zero-dimensional quotient rings, local
multiplicities, and the specialization-vs-localization comparison for
presented modules.

A finite-dimensional commutative Q-algebra splits as a product of local
factors. The splitting is computed by factoring minimal polynomials of
multiplication operators over Q with ``upoly.factor`` (single variables
first, then separating linear combinations) and cutting along kernels of the
prime-power factors. Factors are Q-local: a cluster of Galois-conjugate
points is one factor and is never split heuristically; its ``point_count``
is the residue-field degree and ``multiplicity`` the full Q-dimension of the
factor, so multiplicities add up to the quotient dimension.
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


def artinian_decompose(ring: QuotientRing):
    """Split a zero-dimensional quotient ring into Q-local factors."""
    if ring.dimension() is None:
        raise SkeinError("artinian decomposition needs a finite-dimensional quotient")
    d = ring.dimension()
    if d == 0:
        return []
    tables = ring.mult_tables()

    # ambient coordinates: standard monomial basis; blocks are row bases
    blocks = [identity(d)]

    def split_by(op_matrix, blocks):
        out = []
        for basis_rows in blocks:
            sub = _restrict(op_matrix, basis_rows)
            mp = _block_minpoly(sub)
            factors = upoly.factor(mp)
            if len(factors) == 1:
                out.append(basis_rows)
                continue
            for fc, e in factors:
                pw = [Fraction(1)]
                for _ in range(e):
                    pw = upoly.mul(pw, fc)
                m = _poly_of_matrix(pw, sub)
                # kernel inside the block, lifted to ambient rows: block vector
                # j goes in as its image (column j of m) tagged with its ambient
                # row, so the rows left with only tags span the lifted kernel
                ker = Echelon()
                for j, amb in enumerate(basis_rows):
                    row = {i: m[i][j] for i in range(len(sub)) if m[i][j]}
                    row.update({-1 - a: x for a, x in enumerate(amb) if x})
                    ker.insert(row)
                lifted = [row for lead, row in ker.pivots.items() if lead < 0]
                out.append([dense({-1 - k: x for k, x in row.items()}, d) for row in lifted])
        return out

    for v in ring.vars:
        blocks = split_by(tables[v], blocks)

    # separate any block that is still a product (same single-variable minimal
    # polynomials, different points): refine with generic linear combinations
    def is_local(basis_rows):
        return _residue_data(ring, tables, basis_rows) is not None

    lam = 1
    while True:
        pending = [b for b in blocks if not is_local(b)]
        if not pending:
            break
        combo = [[Fraction(0)] * d for _ in range(d)]
        for i, v in enumerate(ring.vars):
            combo = [
                [a + Fraction(lam**i) * b for a, b in zip(ra, rb)]
                for ra, rb in zip(combo, tables[v])
            ]
        blocks = split_by(combo, blocks)
        lam += 1
        if lam > 8 + d:  # pragma: no cover
            raise SkeinError("failed to separate local factors")

    factors = []
    unit = ring.coords(MultiPoly.constant(ring.vars, Fraction(1)))
    for basis_rows in blocks:
        data = _residue_data(ring, tables, basis_rows)
        assert data is not None
        residue_dim = data
        mult = len(basis_rows)
        point = {}
        for v in ring.vars:
            sub = _restrict(tables[v], basis_rows)
            mp = _block_minpoly(sub)
            facs = upoly.factor(mp)
            assert len(facs) == 1
            point[v] = tuple(facs[0][0])
        # idempotent: component of 1 in this block along the others
        others = [row for b in blocks if b is not basis_rows for row in b]
        idem = _project(unit, basis_rows, others)
        factors.append(
            LocalFactor(
                point,
                mult,
                residue_dim,
                mult // residue_dim,
                [list(r) for r in basis_rows],
                idem,
            )
        )
    factors.sort(key=lambda f: sorted(f.point.items()))
    return factors


def _project(vec, block_rows, other_rows):
    """Component of vec in span(block_rows) along span(other_rows)."""
    sol = coordinates(list(block_rows) + list(other_rows))(vec)
    if sol is None:
        raise SkeinError("vector not in the direct sum of blocks")
    out = [Fraction(0)] * len(vec)
    for c, row in zip(sol[: len(block_rows)], block_rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return out


def _residue_data(ring, tables, basis_rows):
    """Residue-field dimension if the block algebra is local, else None.

    The radical of a finite-dimensional commutative Q-algebra is the kernel
    of the trace form; the block is local exactly when the semisimple part
    is a field, detected by a primitive element whose minimal polynomial is
    irreducible of full residue degree.
    """
    dsub = len(basis_rows)
    subs = {v: _restrict(tables[v], basis_rows) for v in ring.vars}
    # multiplication matrices of the block algebra in its own basis: the
    # product of two block elements computed through ambient normal forms
    amb_elems = [ring.from_coords(row) for row in basis_rows]
    coords = coordinates(basis_rows)
    mat_cols = {}
    for j, bj in enumerate(amb_elems):
        col = []
        for i, bi in enumerate(amb_elems):
            sol = coords(ring.coords(bi * bj))
            if sol is None:
                raise SkeinError("block not closed under multiplication")
            col.append(sol)
        mat_cols[j] = col
    mult_mats = []
    for i in range(dsub):
        mult_mats.append([[mat_cols[j][i][t] for j in range(dsub)] for t in range(dsub)])
    # mult_mats[i] = matrix of multiplication by e_i on the block
    gram = [
        [sum(mat_mul(mult_mats[i], mult_mats[j])[t][t] for t in range(dsub)) for j in range(dsub)]
        for i in range(dsub)
    ]
    res_dim = span(gram).rank()  # dsub minus the radical, the trace form's kernel
    # local iff the semisimple quotient is a field: one orbit iff some small
    # integer combination of coordinates has an irreducible minimal polynomial
    # of degree res_dim on the semisimple quotient
    for lam in range(0, 8 + dsub):
        combo = [[Fraction(0)] * dsub for _ in range(dsub)]
        for i, v in enumerate(ring.vars):
            combo = [
                [a + Fraction(lam**i if lam else (1 if i == 0 else 0)) * b for a, b in zip(ra, rb)]
                for ra, rb in zip(combo, subs[v])
            ]
        mp = _block_minpoly(combo)
        facs = upoly.factor(mp)
        if len(facs) == 1:
            fc, e = facs[0]
            if len(fc) - 1 == res_dim:
                return res_dim
        else:
            return None  # splits further: not local
    return None


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

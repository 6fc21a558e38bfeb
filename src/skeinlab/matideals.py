"""Left/right ideals of matrix algebras over finite-dimensional commutative
algebras, their row/column spaces, and the quotient comparison

    M_n(A)/(L+R)  vs  (A^n/V(R)) (x)_A (A^n/V(L)).

Everything is ground-field linear algebra over Q: algebra elements are
coordinate vectors against structure constants, matrices over A are n x n
arrays of vectors, ideals are completed from generators by closing the span
under matrix units and the A-action.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SkeinError
from .linalg import in_span, rank, row_space_basis
from .upoly import reduction_rows

# ---------------------------------------------------------------------------


class FinAlg:
    """Commutative associative unital algebra over Q by structure constants.

    mult[i][j] is the coordinate vector of e_i * e_j; unit is a coordinate
    vector. The axioms are verified on construction.
    """

    __slots__ = ("dim", "mult", "unit")

    def __init__(self, dim, mult, unit, check=True):
        self.dim = dim
        self.mult = tuple(tuple(tuple(Fraction(c) for c in vec) for vec in row) for row in mult)
        self.unit = tuple(Fraction(c) for c in unit)
        if check:
            self._verify()

    def _verify(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                if self.mult[i][j] != self.mult[j][i]:
                    raise SkeinError("structure constants are not commutative")
        for i in range(d):
            ei = tuple(Fraction(1) if t == i else Fraction(0) for t in range(d))
            if self.mul(self.unit, ei) != ei:
                raise SkeinError("unit fails")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    ei = self.basis_vec(i)
                    ej = self.basis_vec(j)
                    ek = self.basis_vec(k)
                    if self.mul(self.mul(ei, ej), ek) != self.mul(ei, self.mul(ej, ek)):
                        raise SkeinError("associativity fails")

    def basis_vec(self, i):
        return tuple(Fraction(1) if t == i else Fraction(0) for t in range(self.dim))

    def zero(self):
        return tuple(Fraction(0) for _ in range(self.dim))

    def mul(self, a, b):
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if a[i]:
                for j in range(d):
                    if b[j]:
                        c = a[i] * b[j]
                        row = self.mult[i][j]
                        for t in range(d):
                            if row[t]:
                                out[t] += c * row[t]
        return tuple(out)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(self, a, c):
        return tuple(x * c for x in a)

    @classmethod
    def univariate(cls, modulus):
        """Q[t]/(modulus), modulus ascending monic coefficients."""
        m = [Fraction(c) for c in modulus]
        lead = m[-1]
        m = [c / lead for c in m]
        d = len(m) - 1
        if d < 1:
            raise SkeinError("modulus must have positive degree")
        # powers[k] = t^k mod modulus for k = 0..2d-1
        powers = [[int(t == k) for t in range(d)] for k in range(d)] + reduction_rows(m)
        mult = [[powers[i + j] for j in range(d)] for i in range(d)]
        unit = tuple(Fraction(1) if t == 0 else Fraction(0) for t in range(d))
        return cls(d, mult, unit, check=False)

    @classmethod
    def product(cls, a, b):
        """Direct product algebra A x B."""
        d = a.dim + b.dim
        mult = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                if i < a.dim and j < a.dim:
                    v = a.mult[i][j]
                    mult[i][j] = tuple(v) + b.zero()
                elif i >= a.dim and j >= a.dim:
                    v = b.mult[i - a.dim][j - a.dim]
                    mult[i][j] = a.zero() + tuple(v)
                else:
                    mult[i][j] = a.zero() + b.zero()
        unit = tuple(a.unit) + tuple(b.unit)
        return cls(d, mult, unit, check=False)

    def __repr__(self):
        return f"FinAlg(dim={self.dim})"


# ---------------------------------------------------------------------------
# matrices over A, flattened to ground-field vectors of length n*n*dim


def _flatten(mat, n, d):
    out = []
    for i in range(n):
        for j in range(n):
            out.extend(mat[i][j])
    return out


def _unflatten(vec, n, d):
    mat = []
    pos = 0
    for i in range(n):
        row = []
        for j in range(n):
            row.append(tuple(vec[pos : pos + d]))
            pos += d
        mat.append(row)
    return mat


class MatIdeal:
    """One-sided ideal of M_n(A) given by generators."""

    __slots__ = ("side", "algebra", "n", "generators")

    def __init__(self, side, algebra: FinAlg, n: int, generators):
        if side not in ("left", "right"):
            raise SkeinError("side must be 'left' or 'right'")
        self.side = side
        self.algebra = algebra
        self.n = n
        self.generators = [
            [[tuple(Fraction(c) for c in entry) for entry in row] for row in g] for g in generators
        ]

    def completed_basis(self):
        """Ground-field basis of the full one-sided ideal the generators span.

        Closure under matrix units from the ideal side and under the central
        A-action; finite dimension guarantees the fixed point.
        """
        A, n, d = self.algebra, self.n, self.algebra.dim
        vecs = [_flatten(g, n, d) for g in self.generators]
        basis = row_space_basis([v for v in vecs if any(v)])
        changed = True
        while changed:
            changed = False
            current = [list(v) for v in basis]
            for vec in current:
                mat = _unflatten(vec, n, d)
                images = []
                for i in range(n):
                    for j in range(n):
                        images.append(_matrix_unit_mul(A, n, mat, i, j, self.side))
                for t in range(d):
                    images.append(
                        [
                            [A.mul(A.basis_vec(t), entry) for entry in row]
                            for row in mat
                        ]
                    )
                for img in images:
                    fl = _flatten(img, n, d)
                    if any(fl) and not in_span(fl, basis):
                        basis = row_space_basis(basis + [fl])
                        changed = True
        return basis


def _matrix_unit_mul(A: FinAlg, n, mat, i, j, side):
    """E_ij * mat (left) or mat * E_ij (right)."""
    out = [[A.zero() for _ in range(n)] for _ in range(n)]
    if side == "left":
        # (E_ij M)_{i t} = M_{j t}
        for t in range(n):
            out[i][t] = mat[j][t]
    else:
        # (M E_ij)_{t j} = M_{t i}
        for t in range(n):
            out[t][j] = mat[t][i]
    return out


def row_space(ideal: MatIdeal):
    """Ground-field basis of V(L) <= A^n for a left ideal: the A-span of all
    generator rows (left multiplication only recombines rows)."""
    if ideal.side != "left":
        raise SkeinError("row_space expects a left ideal")
    return _side_space(ideal, rows=True)


def column_space(ideal: MatIdeal):
    if ideal.side != "right":
        raise SkeinError("column_space expects a right ideal")
    return _side_space(ideal, rows=False)


def _side_space(ideal: MatIdeal, rows: bool):
    A, n, d = ideal.algebra, ideal.n, ideal.algebra.dim
    vecs = []
    for g in ideal.generators:
        for t in range(n):
            tup = [g[t][j] for j in range(n)] if rows else [g[i][t] for i in range(n)]
            for s in range(d):
                scaled = [A.mul(A.basis_vec(s), entry) for entry in tup]
                flat = []
                for entry in scaled:
                    flat.extend(entry)
                if any(flat):
                    vecs.append(flat)
    return row_space_basis(vecs)


def _module_quotient_data(A: FinAlg, n, subspace_rows):
    """A^n / subspace: ground-field basis (coset reps) and A-action data."""
    d = A.dim
    total = n * d
    sub = row_space_basis(subspace_rows)
    leads = set()
    for r in sub:
        leads.add(next(i for i, x in enumerate(r) if x))
    reps = [i for i in range(total) if i not in leads]

    def reduce_vec(v):
        v = list(v)
        for r in sub:
            lead = next(i for i, x in enumerate(r) if x)
            if v[lead]:
                c = v[lead]
                v = [a - c * b for a, b in zip(v, r)]
        return v

    return sub, reps, reduce_vec


def verify_lr_quotient(L: MatIdeal, R: MatIdeal):
    """dim M_n(A)/(L+R) versus dim (A^n/V(R)) (x)_A (A^n/V(L)); returns
    (dim_lhs, dim_rhs, equal)."""
    if L.side != "left" or R.side != "right":
        raise SkeinError("verify_lr_quotient wants (left, right)")
    if L.algebra is not R.algebra or L.n != R.n:
        raise SkeinError("ideals over different matrix algebras")
    A, n, d = L.algebra, L.n, L.algebra.dim

    lhs_rows = L.completed_basis() + R.completed_basis()
    dim_lhs = n * n * d - (rank(lhs_rows) if lhs_rows else 0)

    vr = column_space(R)
    vl = row_space(L)
    _, reps_p, red_p = _module_quotient_data(A, n, vr)  # P = A^n / V(R)
    _, reps_q, red_q = _module_quotient_data(A, n, vl)  # Q = A^n / V(L)

    def vec_p(i):
        v = [Fraction(0)] * (n * d)
        v[i] = Fraction(1)
        return red_p(v)

    def vec_q(i):
        v = [Fraction(0)] * (n * d)
        v[i] = Fraction(1)
        return red_q(v)

    def a_act(vec, t, reducer):
        # componentwise A-multiplication by basis element e_t
        out = []
        for c in range(n):
            entry = tuple(vec[c * d : (c + 1) * d])
            out.extend(A.mul(A.basis_vec(t), entry))
        return reducer(out)

    np_, nq = len(reps_p), len(reps_q)
    # tensor over Q first; then impose (a p) (x) q - p (x) (a q)
    relations = []
    for t in range(d):
        for ip, gi in enumerate(reps_p):
            p_img = a_act(vec_p(gi), t, red_p)
            for iq, gj in enumerate(reps_q):
                q_img = a_act(vec_q(gj), t, red_q)
                row = [Fraction(0)] * (np_ * nq)
                # (a p) (x) q
                for pp, c1 in _coords(p_img, reps_p):
                    row[pp * nq + iq] += c1
                # - p (x) (a q)
                for qq, c2 in _coords(q_img, reps_q):
                    row[ip * nq + qq] -= c2
                if any(row):
                    relations.append(row)
    dim_rhs = np_ * nq - (rank(relations) if relations else 0)
    return dim_lhs, dim_rhs, dim_lhs == dim_rhs


def _coords(reduced_vec, reps):
    out = []
    for idx, pos in enumerate(reps):
        if reduced_vec[pos]:
            out.append((idx, reduced_vec[pos]))
    # sanity: nothing outside coset representatives
    return out


# ---------------------------------------------------------------------------
# randomized instances


def random_finalg(rng: random.Random, max_dim: int = 4) -> FinAlg:
    """Random Artinian algebra: product of small univariate quotients."""
    pieces = []
    total = 0
    while total < 1 or (total < max_dim and rng.random() < 0.7):
        deg = rng.randint(1, max_dim - total) if max_dim - total > 1 else 1
        # random monic polynomial of that degree
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(deg)] + [Fraction(1)]
        pieces.append(FinAlg.univariate(coeffs))
        total += deg
    alg = pieces[0]
    for extra in pieces[1:]:
        alg = FinAlg.product(alg, extra)
    return alg


def random_matrix(rng: random.Random, algebra: FinAlg, n: int, density: float = 0.6):
    d = algebra.dim
    return [
        [
            tuple(
                Fraction(rng.randint(-2, 2)) if rng.random() < density else Fraction(0)
                for _ in range(d)
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def random_instance(seed: int, max_dim: int = 4, max_n: int = 3):
    rng = random.Random(seed)
    algebra = random_finalg(rng, max_dim)
    n = rng.randint(1, max_n)
    n_gen_l = rng.randint(0, 2)
    n_gen_r = rng.randint(0, 2)
    L = MatIdeal("left", algebra, n, [random_matrix(rng, algebra, n) for _ in range(n_gen_l)])
    R = MatIdeal("right", algebra, n, [random_matrix(rng, algebra, n) for _ in range(n_gen_r)])
    return algebra, n, L, R

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
from .linalg import Echelon, dense, span, sparse
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
        A-action; finite dimension guarantees the fixed point. A span closed
        under some linear maps is closed under their products, so the units
        E_{i,i+1} and E_{i+1,i} stand for all of them: E_ii = E_{i,i+1} E_{i+1,i}
        (or E_{i,i-1} E_{i-1,i}), and E_ij is a product along the chain.
        """
        A, n, d = self.algebra, self.n, self.algebra.dim
        ech = Echelon()
        basis = []

        def add(mat):
            vec = _flatten(mat, n, d)
            if ech.insert(sparse(vec)):
                basis.append(vec)

        for g in self.generators:
            add(g)
        # the loop also visits the vectors it appends: the images of every
        # basis vector go in once, and then the span is closed
        for vec in basis:
            mat = _unflatten(vec, n, d)
            for i in range(n - 1):
                add(_matrix_unit_mul(A, n, mat, i, i + 1, self.side))
                add(_matrix_unit_mul(A, n, mat, i + 1, i, self.side))
            for t in range(d):
                add([[A.mul(A.basis_vec(t), entry) for entry in row] for row in mat])
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
    generator rows (left multiplication only recombines rows). The basis is
    the RREF one: each vector's last nonzero entry is one and is zero in every
    other vector, in order of that position, so it depends on V(L) alone and
    not on the order of the generators."""
    if ideal.side != "left":
        raise SkeinError("row_space expects a left ideal")
    return _basis(_side_space(ideal, rows=True), ideal.n * ideal.algebra.dim)


def column_space(ideal: MatIdeal):
    """Ground-field basis of V(R) <= A^n for a right ideal, the A-span of all
    generator columns, as the same RREF basis as ``row_space``."""
    if ideal.side != "right":
        raise SkeinError("column_space expects a right ideal")
    return _basis(_side_space(ideal, rows=False), ideal.n * ideal.algebra.dim)


def _basis(ech, size):
    return [dense(row, size) for _, row in sorted(ech.pivots.items())]


def _side_space(ideal: MatIdeal, rows: bool):
    """Echelon of V(L) (rows of a left ideal) or V(R) (columns of a right one)."""
    A, n, d = ideal.algebra, ideal.n, ideal.algebra.dim
    ech = Echelon()
    for g in ideal.generators:
        for t in range(n):
            tup = [g[t][j] for j in range(n)] if rows else [g[i][t] for i in range(n)]
            for s in range(d):
                flat = []
                for entry in tup:
                    flat.extend(A.mul(A.basis_vec(s), entry))
                ech.insert(sparse(flat))
    return ech


def _quotient_action(A: FinAlg, n, sub):
    """A^n / sub for an Echelon ``sub``: the coset representatives (the
    non-pivot positions) and, per basis element e_t of A, the normal form of
    e_t times each representative, as {representative index: coefficient}."""
    d = A.dim
    reps = [i for i in range(n * d) if i not in sub.pivots]
    index = {pos: idx for idx, pos in enumerate(reps)}
    action = []
    for t in range(d):
        images = []
        for pos in reps:
            # e_t times the unit vector at pos, componentwise
            c, s = divmod(pos, d)
            img = [Fraction(0)] * (n * d)
            img[c * d : (c + 1) * d] = A.mul(A.basis_vec(t), A.basis_vec(s))
            images.append({index[k]: x for k, x in sub.normal_form(sparse(img)).items()})
        action.append(images)
    return len(reps), action


def verify_lr_quotient(L: MatIdeal, R: MatIdeal):
    """dim M_n(A)/(L+R) versus dim (A^n/V(R)) (x)_A (A^n/V(L)); returns
    (dim_lhs, dim_rhs, equal)."""
    if L.side != "left" or R.side != "right":
        raise SkeinError("verify_lr_quotient wants (left, right)")
    if L.algebra is not R.algebra or L.n != R.n:
        raise SkeinError("ideals over different matrix algebras")
    A, n, d = L.algebra, L.n, L.algebra.dim

    dim_lhs = n * n * d - span(L.completed_basis() + R.completed_basis()).rank()

    np_, act_p = _quotient_action(A, n, _side_space(R, rows=False))  # P = A^n / V(R)
    nq, act_q = _quotient_action(A, n, _side_space(L, rows=True))  # Q = A^n / V(L)
    # tensor over Q first; then impose (a p) (x) q - p (x) (a q)
    relations = Echelon()
    for t in range(d):
        for ip, p_img in enumerate(act_p[t]):
            for iq, q_img in enumerate(act_q[t]):
                row = {pp * nq + iq: c for pp, c in p_img.items()}
                for qq, c in q_img.items():
                    key = ip * nq + qq
                    row[key] = row.get(key, 0) - c
                relations.insert({k: v for k, v in row.items() if v})
    dim_rhs = np_ * nq - relations.rank()
    return dim_lhs, dim_rhs, dim_lhs == dim_rhs


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

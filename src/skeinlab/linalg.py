"""Dense exact linear algebra over any of the coefficient fields.

Matrices are lists of rows; scalars are Fractions (or any field scalar with
operator arithmetic plus a field object supplying inv/zero/one). Everything
is straightforward Gauss-Jordan; sizes in this package are tiny.
"""

from __future__ import annotations

from fractions import Fraction


class QQ:
    """Minimal field object for Fractions, for callers outside coeffs."""

    tag = "QQ"

    @staticmethod
    def zero():
        return Fraction(0)

    @staticmethod
    def one():
        return Fraction(1)

    @staticmethod
    def inv(x):
        return 1 / Fraction(x)


def mat_mul(a, b, field=QQ):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[field.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] = oi[j] + c * bt[j]
    return out


def mat_vec(a, v, field=QQ):
    return [
        sum((a[i][j] * v[j] for j in range(len(v)) if v[j]), field.zero())
        for i in range(len(a))
    ]


def identity(n, field=QQ):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def rref(matrix, field=QQ):
    """Reduced row echelon form: returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivots


def rank(matrix, field=QQ):
    if not matrix:
        return 0
    return len(rref(matrix, field)[0])


def nullspace(matrix, field=QQ):
    """Basis of the right kernel, as column vectors (lists)."""
    if not matrix:
        return []
    m = len(matrix[0])
    rows, pivots = rref(matrix, field)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [field.zero()] * m
        v[f] = field.one()
        for r, p in zip(rows, pivots):
            v[p] = -r[f]
        basis.append(v)
    return basis


def solve(matrix, rhs, field=QQ):
    """One solution of matrix @ x = rhs, or None."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    rows, pivots = rref(aug, field)
    for r, p in zip(rows, pivots):
        if p == m:
            return None
    x = [field.zero()] * m
    for r, p in zip(rows, pivots):
        x[p] = r[m]
    return x


def invert(matrix, field=QQ):
    n = len(matrix)
    aug = [list(matrix[i]) + identity(n, field)[i] for i in range(n)]
    rows, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)) or len(rows) < n:
        return None
    return [row[n:] for row in rows[:n]]


def row_space_basis(vectors, field=QQ):
    """Echelon basis of the span of the given row vectors."""
    if not vectors:
        return []
    rows, _ = rref(vectors, field)
    return rows


def in_span(vector, basis_rows, field=QQ):
    """Is vector in the row span of an echelonized basis?"""
    v = list(vector)
    for row in basis_rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None and v[lead]:
            f = v[lead]
            v = [x - f * y for x, y in zip(v, row)]
    return not any(v)


def minimal_polynomial(apply_fn, vec, dim, field=QQ):
    """Monic minimal polynomial of an operator on the cyclic space of vec.

    apply_fn maps a vector to its image; returns ascending coefficients.
    """
    krylov = [list(vec)]
    while True:
        nxt = apply_fn(krylov[-1])
        # solve krylov^T c = nxt
        mat = [[krylov[t][i] for t in range(len(krylov))] for i in range(dim)]
        sol = solve(mat, nxt, field)
        if sol is not None:
            return [-c for c in sol] + [field.one()]
        krylov.append(nxt)
        if len(krylov) > dim + 1:  # pragma: no cover
            raise RuntimeError("minimal polynomial search exceeded dimension")

import random
from fractions import Fraction

import pytest
import sympy

from skeinlab.linalg import Echelon, mat_vec, minimal_polynomial, span, sparse


def _random_matrix(rng, rows, cols):
    """Small rational entries; a product of two factors forces low rank often."""
    inner = rng.randint(1, max(rows, cols))
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(inner)] for _ in range(rows)]
    b = [
        [Fraction(rng.randint(-2, 2)) if rng.random() < 0.7 else Fraction(0) for _ in range(cols)]
        for _ in range(inner)
    ]
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]


def _sympy_rank(rows, cols):
    if not rows:
        return 0
    return sympy.Matrix(len(rows), cols, lambda i, j: sympy.Rational(str(rows[i][j]))).rank()


@pytest.mark.parametrize("seed", range(40))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 6), rng.randint(1, 6)
    mat = _random_matrix(rng, rows, cols)
    assert span(mat).rank() == _sympy_rank(mat, cols)


@pytest.mark.parametrize("seed", range(40))
def test_pivot_rows_are_the_rref_of_the_reversed_columns(seed):
    # pivots sit on the largest key, so with the columns reversed the stored
    # rows must be the reduced row echelon form, which the row space fixes
    rng = random.Random(500 + seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    mat = _random_matrix(rng, rows, cols)
    rref = sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(str(mat[i][cols - 1 - j]))).rref()[0]
    expected = [[Fraction(str(x)) for x in rref.row(i)] for i in range(rref.rows) if any(rref.row(i))]
    ech = span(mat)
    got = [[row.get(cols - 1 - j, 0) for j in range(cols)] for _, row in sorted(ech.pivots.items(), reverse=True)]
    assert got == expected


@pytest.mark.parametrize("seed", range(40))
def test_normal_form_is_zero_exactly_when_rank_stays(seed):
    rng = random.Random(1000 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    mat = _random_matrix(rng, rows, cols)
    ech = span(mat)
    for _ in range(5):
        if rng.random() < 0.5:  # a combination of the rows: in the span
            v = [sum(rng.randint(-2, 2) * r[j] for r in mat) for j in range(cols)]
        else:
            v = _random_matrix(rng, 1, cols)[0]
        nf = ech.normal_form(sparse(v))
        assert (nf == {}) == (_sympy_rank(mat + [v], cols) == _sympy_rank(mat, cols))
        # no pivot key survives, and the order the rows went in does not matter
        assert not set(nf) & set(ech.pivots)
        shuffled = list(mat)
        rng.shuffle(shuffled)
        assert span(shuffled).normal_form(sparse(v)) == nf


def test_pivots_are_largest_keys_scaled_to_one():
    ech = Echelon()
    assert ech.insert({0: Fraction(2), 3: Fraction(4)})
    assert ech.insert({3: Fraction(1), 1: Fraction(5)})
    assert not ech.insert({0: Fraction(-1), 3: Fraction(-2)})
    assert not ech.insert({})
    assert set(ech.pivots) == {3, 1}
    assert all(row[lead] == 1 for lead, row in ech.pivots.items())
    assert ech.rank() == 2


def test_insert_leaves_the_callers_row_unchanged():
    ech = Echelon()
    assert ech.insert({0: Fraction(1), 2: Fraction(3)})
    row = {2: Fraction(5), 1: Fraction(1)}
    assert ech.insert(row)
    assert row == {2: Fraction(5), 1: Fraction(1)}
    again = dict(row)
    assert not ech.insert(again)
    assert again == row


@pytest.mark.parametrize("seed", range(20))
def test_insert_is_false_exactly_when_the_normal_form_is_empty(seed):
    rng = random.Random(2000 + seed)
    cols = rng.randint(1, 6)
    ech = Echelon()
    for v in _random_matrix(rng, rng.randint(1, 8), cols):
        row = sparse(v)
        reduced = ech.normal_form(row)
        assert ech.insert(row) == bool(reduced)


def test_echelon_copy_leaves_original_untouched():
    ech = Echelon()
    assert ech.insert({0: Fraction(1), 2: Fraction(3)})
    assert ech.insert({1: Fraction(1)})
    before = {k: dict(v) for k, v in ech.pivots.items()}
    twin = ech.copy()
    # reduces against a pivot row the two echelons share, to the new pivot
    # key 0, which the twin then clears from the tail of that shared row
    assert twin.insert({2: Fraction(1)})
    assert twin.pivots[2] == {2: 1} and twin.pivots[0] == {0: 1}
    assert twin.insert({0: Fraction(1)}) is False
    assert twin.rank() == 3 and twin.normal_form({0: Fraction(7)}) == {}
    assert ech.rank() == 2 and ech.pivots == before
    assert ech.normal_form({0: Fraction(7)}) == {0: Fraction(7)}


@pytest.mark.parametrize("seed", range(20))
def test_minimal_polynomial_matches_sympy(seed):
    rng = random.Random(3000 + seed)
    n = rng.randint(1, 5)
    mat = _random_matrix(rng, n, n)
    vec = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    vec[rng.randrange(n)] = Fraction(1)
    mp = minimal_polynomial(lambda w: mat_vec(mat, w), vec, n)
    # degree: the dimension of the cyclic space; and mp(mat) kills vec
    krylov, w = [], vec
    for _ in range(n + 1):
        krylov.append(w)
        w = mat_vec(mat, w)
    assert len(mp) - 1 == _sympy_rank(krylov, n) and mp[-1] == 1
    acc, w = [Fraction(0)] * n, vec
    for c in mp:
        acc = [a + c * x for a, x in zip(acc, w)]
        w = mat_vec(mat, w)
    assert not any(acc)

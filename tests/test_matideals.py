import random
from fractions import Fraction

import pytest

from skeinlab.errors import SkeinError
from skeinlab.linalg import span, sparse
from skeinlab.matideals import (
    FinAlg,
    MatIdeal,
    column_space,
    random_instance,
    row_space,
    verify_lr_quotient,
)

QQ_ALG = FinAlg.univariate([Fraction(0), Fraction(1)])  # Q itself
ONE = (Fraction(1),)
ZERO = (Fraction(0),)


def test_finalg_verification_rejects_bad_structure():
    # non-commutative structure constants
    mult = [[(1, 0), (0, 1)], [(1, 1), (0, 1)]]
    with pytest.raises(SkeinError):
        FinAlg(2, mult, (1, 0))


def test_univariate_algebra():
    dual = FinAlg.univariate([0, 0, 1])  # Q[t]/(t^2)
    t = dual.basis_vec(1)
    assert dual.mul(t, t) == dual.zero()
    assert dual.mul(dual.unit, t) == t


def test_product_algebra():
    a = FinAlg.univariate([0, 1])
    b = FinAlg.univariate([0, 0, 1])
    prod = FinAlg.product(a, b)
    assert prod.dim == 3
    e_a = (Fraction(1), Fraction(0), Fraction(0))
    e_b0 = (Fraction(0), Fraction(1), Fraction(0))
    assert prod.mul(e_a, e_b0) == prod.zero()


def test_row_space_examples():
    e11 = [[ONE, ZERO], [ZERO, ZERO]]
    L = MatIdeal("left", QQ_ALG, 2, [e11])
    assert [list(v) for v in row_space(L)] == [[1, 0]]
    empty = MatIdeal("left", QQ_ALG, 2, [])
    assert row_space(empty) == []
    with pytest.raises(SkeinError):
        row_space(MatIdeal("right", QQ_ALG, 2, [e11]))


def test_row_and_column_spaces_do_not_depend_on_generator_order():
    # both return the reduced (RREF) basis, which the space alone determines
    e11_e12 = [[ONE, ONE], [ZERO, ZERO]]
    e12 = [[ZERO, ONE], [ZERO, ZERO]]
    for gens in ([e11_e12, e12], [e12, e11_e12]):
        assert [list(v) for v in row_space(MatIdeal("left", QQ_ALG, 2, gens))] == [[1, 0], [0, 1]]
    for seed in range(8):
        algebra, n, L, R = random_instance(seed)
        for ideal, space in ((L, row_space), (R, column_space)):
            reversed_gens = MatIdeal(ideal.side, algebra, n, ideal.generators[::-1])
            assert space(reversed_gens) == space(ideal)


def test_row_space_with_nilpotents():
    dual = FinAlg.univariate([0, 0, 1])
    t = dual.basis_vec(1)
    z = dual.zero()
    t_e12 = [[z, t], [z, z]]
    L = MatIdeal("left", dual, 2, [t_e12])
    basis = row_space(L)
    assert len(basis) == 1  # t * (t e_2) dies


def test_e11_quotient():
    e11 = [[ONE, ZERO], [ZERO, ZERO]]
    L = MatIdeal("left", QQ_ALG, 2, [e11])
    R = MatIdeal("right", QQ_ALG, 2, [e11])
    assert verify_lr_quotient(L, R) == (1, 1, True)


def test_zero_ideals():
    L = MatIdeal("left", QQ_ALG, 3, [])
    R = MatIdeal("right", QQ_ALG, 3, [])
    assert verify_lr_quotient(L, R) == (9, 9, True)
    dual = FinAlg.univariate([0, 0, 1])
    L2 = MatIdeal("left", dual, 2, [])
    R2 = MatIdeal("right", dual, 2, [])
    assert verify_lr_quotient(L2, R2) == (8, 8, True)


def test_row_space_identity():
    # A^n (x)_A V(L) = completed L, as ground-field dimensions plus row
    # containment of every completed matrix
    rng = random.Random(77)
    for seed in range(8):
        algebra, n, L, _ = random_instance(seed)
        completed = L.completed_basis()
        v = row_space(L)
        assert len(completed) == n * len(v)
        v_span = span(v)
        d = algebra.dim
        for flat in completed:
            for i in range(n):
                row_vec = flat[i * n * d : (i + 1) * n * d]
                if any(row_vec) and v:
                    assert v_span.normal_form(sparse(row_vec)) == {}


@pytest.mark.parametrize("seed", range(12))
def test_column_space_is_row_space_of_transposes(seed):
    algebra, n, _, R = random_instance(seed)
    transposed = [[[g[j][i] for j in range(n)] for i in range(n)] for g in R.generators]
    assert column_space(R) == row_space(MatIdeal("left", algebra, n, transposed))
    with pytest.raises(SkeinError):
        column_space(MatIdeal("left", algebra, n, R.generators))


@pytest.mark.parametrize("seed", range(12))
def test_randomized_quotients_agree(seed):
    algebra, n, L, R = random_instance(seed)
    dl, dr, eq = verify_lr_quotient(L, R)
    assert eq, (seed, dl, dr)

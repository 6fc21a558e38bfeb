import inspect
import sys
from fractions import Fraction

import pytest

from skeinlab.chebyshev import cheb_T, cheb_expand_power, thread_annulus
from skeinlab.coeffs import GenericQ
from skeinlab.diagrams import AnnulusSkein

F = GenericQ()


def test_first_values():
    assert list(cheb_T(0).coeffs) == [2]
    assert list(cheb_T(1).coeffs) == [0, 1]
    assert list(cheb_T(2).coeffs) == [-2, 0, 1]
    assert list(cheb_T(3).coeffs) == [0, -3, 0, 1]


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        cheb_T(-1)


def test_product_identity():
    for j in range(21):
        for k in range(21):
            lhs = _mul(cheb_T(j).coeffs, cheb_T(k).coeffs)
            rhs = _add(cheb_T(j + k).coeffs, cheb_T(abs(j - k)).coeffs)
            assert lhs == rhs, (j, k)


def test_composition_identity():
    for j in range(9):
        for k in range(9):
            assert _compose(cheb_T(j).coeffs, cheb_T(k).coeffs) == list(cheb_T(j * k).coeffs)


def test_evaluation_at_fixed_points():
    for m in range(21):
        assert cheb_T(m).evaluate(Fraction(2)) == 2
        assert cheb_T(m).evaluate(Fraction(-2)) == 2 * (-1) ** m


def test_power_expansion_consistency():
    # x^k re-expanded in the T basis evaluates back to x^k
    for k in range(8):
        weights = cheb_expand_power(k)
        x = Fraction(3, 2)
        total = sum(w * cheb_T(j).evaluate(x) for j, w in weights.items())
        assert total == x**k


def test_power_expansion_is_a_new_dict_on_every_call():
    weights = cheb_expand_power(4)
    expected = dict(weights)
    weights[0] += 1
    weights[99] = Fraction(1)
    assert cheb_expand_power(4) == expected


def test_cheb_T_is_shared_and_built_without_deep_recursion():
    assert cheb_T(7) is cheb_T(7)
    cheb_T.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)  # a recursive build would need 3000 frames
    try:
        t = cheb_T(3000)
    finally:
        sys.setrecursionlimit(limit)
    assert t.degree() == 3000 and t.coeffs[-1] == 1
    assert t.evaluate(Fraction(2)) == 2


def test_thread_examples():
    z = AnnulusSkein.z_power(F, 1)
    assert thread_annulus(z, 1) == z
    one = AnnulusSkein.one(F)
    assert thread_annulus(one, 5) == one
    t3 = thread_annulus(z, 3)
    assert t3 == AnnulusSkein(F, {3: F.one(), 1: F.from_int(-3)})


def test_thread_multiplicative():
    a = AnnulusSkein(F, {1: F.one(), 0: F.from_int(2)})
    b = AnnulusSkein(F, {2: F.q_power(1)})
    for m in (2, 3):
        assert thread_annulus(a.mul(b), m) == thread_annulus(a, m).mul(thread_annulus(b, m))


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def _add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return out


def _compose(a, b):
    out = []
    for c in reversed(a):
        if out:
            out = _mul(out, list(b))
        out = _add(out, [c])
    return out

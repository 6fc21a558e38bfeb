"""Chebyshev polynomials of the first type and threading of annulus skeins.

T_0 = 2, T_1 = x, T_{k+1} = x T_k - T_{k-1}. Threading by T_m substitutes
z -> T_m(z) into each core factor of an annulus skein, so z^k becomes
T_m(z)^k.
"""

from __future__ import annotations

from fractions import Fraction

from . import upoly
from .diagrams import AnnulusSkein

# dense ascending integer coefficients; table is append-only and read-mostly
_T_TABLE = [[2], [0, 1]]
# entry k is cheb_expand_power(k); append-only
_POWER_TABLE = [{0: Fraction(1, 2)}]  # x^0 = (1/2) T_0


class ChebPoly:
    """First-type Chebyshev polynomial with integer coefficients."""

    __slots__ = ("index", "coeffs")

    def __init__(self, index, coeffs):
        self.index = index
        self.coeffs = tuple(coeffs)

    def degree(self):
        return len(self.coeffs) - 1

    def evaluate(self, x):
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        if isinstance(other, ChebPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __str__(self):
        terms = reversed(list(enumerate(self.coeffs)))
        return upoly.signed_sum((upoly.power_text("x", e), c) for e, c in terms)

    def __repr__(self):
        return f"ChebPoly(T_{self.index} = {self})"


def cheb_T(k: int) -> ChebPoly:
    if k < 0:
        raise ValueError("Chebyshev index must be non-negative")
    while len(_T_TABLE) <= k:
        j = len(_T_TABLE)
        prev, prev2 = _T_TABLE[j - 1], _T_TABLE[j - 2]
        nxt = [0] + list(prev)  # x * T_{j-1}
        for i, c in enumerate(prev2):
            nxt[i] -= c
        _T_TABLE.append(nxt)
    return ChebPoly(k, _T_TABLE[k])


def cheb_expand_power(k: int) -> dict[int, Fraction]:
    """Coefficients of x^k in the T-basis: x^k = sum_j c_j T_j(x).

    Uses T_a T_b = T_{a+b} + T_{|a-b|} with the T_0 = 2 normalization, so the
    empty product contributes x^0 = (1/2) T_0, returned as fractional weight
    on index 0 when needed; for k >= 0 the weights are half-integers only at
    index 0. The dict is shared through a module table: do not change it.
    """
    if k < 0:
        raise ValueError("power must be non-negative")
    while len(_POWER_TABLE) <= k:
        nxt: dict[int, Fraction] = {}
        for j, c in _POWER_TABLE[-1].items():
            # x * T_j = T_{j+1} + T_{|j-1|}
            for t in (j + 1, abs(j - 1)):
                nxt[t] = nxt.get(t, Fraction(0)) + c
        _POWER_TABLE.append(nxt)
    return _POWER_TABLE[k]


def thread_annulus(s: AnnulusSkein, m: int) -> AnnulusSkein:
    """tau_m on the solid torus: z^k -> T_m(z)^k, that is, the z-polynomial
    of ``s`` composed with T_m."""
    if m < 1:
        raise ValueError("threading index must be positive")
    return AnnulusSkein(s.field, enumerate(upoly.compose(s.dense(), cheb_T(m).coeffs)))

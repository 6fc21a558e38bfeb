"""Action of the torus skein algebra on the solid torus.

The skein module of the solid torus is the polynomial ring in its core z.
On the Chebyshev basis S_0 = 1, S_1 = z, S_{k+1} = z S_k - S_{k-1} every
curve acts in two terms, by the product-to-sum formula of Frohman-Gelca
("Skein modules and the noncommutative torus", Trans. AMS 352, 2000):

    (p,r).S_k = s q^(-r(2k+p+2)) S_{k+p} + s q^(r(2k+2-p)) S_{k-p},  s = (-1)^r

for a normalized label (p,r) other than (0,0), with S_{-1} = 0 and
S_{-m} = -S_{m-2}. It holds for non-primitive labels as well. The meridian
(0,1) acts diagonally, by -(q^(2k+2) + q^(-2k-2)). ``s_column`` gives these
columns over any field, each monomial from ``field.q_power``.

``act`` works on the z^k basis. ``ActionCache.columns`` reaches the S
columns through the two integer change-of-basis matrices

    z^k = sum_t (C(k,t) - C(k,t-1)) S_{k-2t},   S_m = sum_t (-1)^t C(m-t,t) z^(m-2t),

sums each z-basis entry over Z[q, q^-1] and maps it in with ``from_laurent``;
each field's columns are memoized in memory.

The diagram engine stays as an independent oracle: ``diagram_columns``
resolves the pushed boundary curve stacked with k cores, and acceptance
criterion 6 compares it with the algebraic columns.
"""

from __future__ import annotations

import functools
import math

from .coeffs import CoeffField, LaurentPoly
from .diagrams import AnnulusSkein, bracket_annulus, pushed_curve_with_cores
from .torus import TorusSkein, normalize_label
from .upoly import collect


def s_terms(p: int, r: int, k: int) -> list[tuple[int, int, int]]:
    """(p,r).S_k for a normalized label (p,r) != (0,0), as the terms
    (m, sign, e) of sign * q^e * S_m; S_{-1} = 0 and S_{-m} = -S_{m-2} are
    already applied. The two indices differ unless p = 0."""
    s = -1 if r % 2 else 1
    out = [(k + p, s, -r * (2 * k + p + 2))]
    m, e = k - p, r * (2 * k + 2 - p)
    if m >= 0:
        out.append((m, s, e))
    elif m < -1:
        out.append((-m - 2, -s, e))
    return out


def s_column(field: CoeffField, p: int, r: int, k: int) -> dict:
    """(p,r).S_k on the S-basis, ``{m: scalar}`` without zero entries, for a
    normalized label (p,r) != (0,0)."""
    return collect((m, field.q_power(e) if sign > 0 else -field.q_power(e)) for m, sign, e in s_terms(p, r, k))


@functools.cache
def z_in_s(k: int) -> tuple[tuple[int, int], ...]:
    """z^k = sum of c * S_m over the pairs (m, c)."""
    return tuple((k - 2 * t, math.comb(k, t) - (math.comb(k, t - 1) if t else 0)) for t in range(k // 2 + 1))


@functools.cache
def s_in_z(m: int) -> tuple[tuple[int, int], ...]:
    """S_m = sum of c * z^d over the pairs (d, c)."""
    return tuple((m - 2 * t, (-1) ** t * math.comb(m - t, t)) for t in range(m // 2 + 1))


class ActionCache:
    """Action columns on the z^k basis over one field, in memory."""

    def __init__(self, field: CoeffField):
        self.field = field
        self._columns: dict[tuple[int, int], list[AnnulusSkein]] = {}

    def columns(self, p, q, upto):
        """(p,q).z^k for k = 0..upto (or more), for every label but (0,0)."""
        a, b = normalize_label(p, q)
        cols = self._columns.setdefault((a, b), [])
        for k in range(len(cols), upto + 1):
            acc = {}  # z-degree -> {q-exponent: int}
            for n, c in z_in_s(k):
                for m, sign, e in s_terms(a, b, n):
                    for d, x in s_in_z(m):
                        row = acc.setdefault(d, {})
                        row[e] = row.get(e, 0) + c * sign * x
            cols.append(AnnulusSkein(self.field, [(d, self.field.from_laurent(LaurentPoly(row))) for d, row in acc.items()]))
        return cols


_CACHES: dict[CoeffField, ActionCache] = {}


def action_cache(field: CoeffField) -> ActionCache:
    """The process-wide memo of ``field``; its values are immutable."""
    cache = _CACHES.get(field)
    if cache is None:
        cache = _CACHES[field] = ActionCache(field)
    return cache


def diagram_columns(p: int, q: int, upto: int, field: CoeffField) -> list[AnnulusSkein]:
    """Oracle for ``ActionCache.columns``: (p,q).z^k for k = 0..upto by diagrams.

    Push the primitive curve into a boundary collar, stack it with k parallel
    cores, evaluate the bracket, and rescale by the surface-framing
    normalization (-q^3)^(-q) for p, q both nonzero. Every diagram is a
    closed braid (``pushed_curve_with_cores``), the meridian's too, and the
    normalization accounts for the difference between its blackboard framing
    and the framing the curve inherits from the boundary torus.
    """
    p, q = normalize_label(p, q)
    framing = field.one() if p == 0 or q == 0 else (-field.q_power(3)) ** (-q)
    return [
        bracket_annulus(pushed_curve_with_cores(p, q, k), field).scale(framing)
        for k in range(upto + 1)
    ]


def act(a: TorusSkein, v: AnnulusSkein) -> AnnulusSkein:
    """Module action of a torus skein on a solid-torus skein."""
    if not isinstance(a, TorusSkein):
        raise TypeError("act expects a TorusSkein")
    a.check_field(v)
    cache, one = action_cache(v.field), v.field.one()
    scaled = []  # (skein, scalar) pairs whose sum is the action
    for (p, q), coeff in a.coeffs.items():
        if (p, q) == (0, 0):
            scaled.append((v, coeff))
            continue
        cols = cache.columns(p, q, v.degree())
        scaled += [(cols[k], c * coeff) for k, c in v.coeffs.items()]
    if len(scaled) == 1 and scaled[0][1] == one:
        return scaled[0][0]  # skeins are immutable: the cached column itself
    return AnnulusSkein(v.field, [(d, x if c == one else x * c) for s, c in scaled for d, x in s.coeffs.items()])

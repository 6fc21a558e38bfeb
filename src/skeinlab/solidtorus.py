"""Action of the torus skein algebra on the solid torus.

The skein module of the solid torus is cyclic over the torus algebra and is
generated by the empty link (Frohman-Gelca, "Skein modules and the
noncommutative torus", Trans. AMS 352, 2000). So the whole action follows
from the images e(p,r) = (p,r).empty, which product-to-sum fixes:

    e(0,r)   = T_r(delta)                        (the meridian bounds a disk)
    e(1,0)   = z,  e(1,1) = -q^-3 z              (framing normalization)
    delta e(1,r) = q e(1,r+1) + q^-1 e(1,r-1)    (meridian times (1,r))
    z e(p,r)     = q^r e(p+1,r) + q^-r e(p-1,r)  (longitude times (p,r))

with the label (0,0) on a right-hand side meaning T_0 = 2 * empty. A column
comes from z^k = sum_j c_j T_j(z) and (a,b) * (j,0):

    (a,b).z^k = 2 c_0 e(a,b) + sum_{j>=1} c_j (q^(-bj) e(a+j,b) + q^(bj) e(a-j,b))

which holds for non-primitive labels as well. The recursions never divide,
so they run once per process over Z[q, q^-1], and each field's columns are
their images under ``from_laurent``; all are memoized in memory.

The diagram engine stays as an independent oracle: ``diagram_columns``
resolves the pushed boundary curve stacked with k cores, and acceptance
criterion 6 compares it with the algebraic columns.
"""

from __future__ import annotations

from .chebyshev import cheb_expand_power
from .coeffs import CoeffField, LaurentPoly
from .diagrams import AnnulusSkein, bracket_annulus, pushed_curve_with_cores
from .torus import TorusSkein, normalize_label


class _LaurentRing(CoeffField):
    """Z[q, q^-1] with ``LaurentPoly`` scalars, where the recursions run."""

    tag = "laurent"
    from_fraction = staticmethod(LaurentPoly.from_fraction)
    q_power = staticmethod(LaurentPoly.q_power)


class ActionCache:
    """Action columns over one field, in memory: the images under ``from_laurent``
    of the columns over Z[q, q^-1], which every field shares, like e(p,r)."""

    _ring = _LaurentRing()
    _images: dict[tuple[int, int], AnnulusSkein] = {}  # shared, over the ring
    _laurent: dict[tuple[int, int], list[AnnulusSkein]] = {}  # shared, over the ring

    def __init__(self, field: CoeffField):
        self.field = field
        self._columns: dict[tuple[int, int], list[AnnulusSkein]] = {}

    def image(self, p, r):
        """e(p,r) = (p,r).empty over Z[q, q^-1]; the label (0,0) stands for T_0 = 2 * empty."""
        p, r = normalize_label(p, r)
        e = self._images.get((p, r))
        if e is None:
            F = self._ring
            if p == 0 and r < 2:
                e = AnnulusSkein(F, {0: F.from_int(2) if r == 0 else F.delta()})
            elif p == 0:
                e = self.image(0, r - 1).scale(F.delta()) - self.image(0, r - 2)
            elif p == 1 and r in (0, 1):
                e = AnnulusSkein.z_power(F, 1, F.one() if r == 0 else -F.q_power(-3))
            elif p == 1:
                s = 1 if r > 0 else -1
                t = F.q_power(-s)
                e = (self.image(1, r - s).scale(F.delta()) - self.image(1, r - 2 * s).scale(t)).scale(t)
            else:
                t = F.q_power(-r)
                e = (self.image(p - 1, r).shift(1) - self.image(p - 2, r).scale(t)).scale(t)
            self._images[(p, r)] = e
        return e

    def _laurent_columns(self, a, b, upto):
        """(a,b).z^k over Z[q, q^-1] for k = 0..upto (or more); (a,b) is normalized."""
        cols = self._laurent.setdefault((a, b), [])
        for k in range(len(cols), upto + 1):
            acc = {}  # z-degree -> {q-exponent: int}: the sum of the images, in plain ints
            for j, c in cheb_expand_power(k).items():
                for i, m in ((0, int(2 * c)),) if j == 0 else ((j, int(c)), (-j, int(c))):
                    for d, x in self.image(a + i, b).coeffs.items():
                        row = acc.setdefault(d, {})
                        for t, y in x.terms.items():
                            row[t - b * i] = row.get(t - b * i, 0) + y * m
            cols.append(AnnulusSkein(self._ring, {d: LaurentPoly(row) for d, row in acc.items()}))
        return cols

    def columns(self, p, q, upto):
        """(p,q).z^k for k = 0..upto, for every label but (0,0)."""
        a, b = normalize_label(p, q)
        cols = self._columns.setdefault((a, b), [])
        for col in self._laurent_columns(a, b, upto)[len(cols) : upto + 1]:
            cols.append(AnnulusSkein(self.field, [(k, self.field.from_laurent(v)) for k, v in col.coeffs.items()]))
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

"""Exact linear algebra over any of the coefficient fields.

Matrices are lists of rows of Fractions. ``Echelon`` also takes any other
field: scalars with operator arithmetic plus a field object supplying
inv/zero/one.

Every elimination over a field goes through one kernel, ``Echelon``: a
sparse reduced (Gauss-Jordan) row echelon form built one row at a time. No
stored row holds another row's pivot key, so a row reduces in one pass over
its own keys. Rank, membership, normal forms and minimal polynomials are all
read off it. A step adds -c times a pivot row (pivot entry one) in place, on
that row's keys alone, by the scalars' fused ``sub_mul`` if they have one.
Krylov vector t of a minimal polynomial carries the tag key ``-1 - t``; as
tags sort below every (non-negative) column, the columns are eliminated first
and the first vector that reduces to tags alone records the linear relation.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import Rationals

_QQ = Rationals()


def mat_vec(a, v):
    return [
        sum((a[i][j] * v[j] for j in range(len(v)) if v[j]), Fraction(0))
        for i in range(len(a))
    ]


class Echelon:
    """Row space of sparse rows over a field, grown one row at a time.

    A row is a dict ``{key: scalar}`` with mutually comparable keys and no zero
    entries. Each stored row pivots on its largest key, no two stored rows share
    a pivot, a stored row is scaled so that its pivot entry is one, and no
    stored row holds another row's pivot key (reduced form). A stored row is
    replaced, never edited: ``copy`` relies on that.
    """

    def __init__(self, field=_QQ):
        self.field = field
        self.pivots = {}  # pivot key -> stored row
        self._one = field.one()
        self._sub_mul = getattr(type(self._one), "sub_mul", None)  # the scalars' fused step

    def insert(self, row: dict) -> bool:
        """Reduce ``row`` and store what is left as a new pivot row; False if
        it reduced to zero. The caller's ``row`` is left as it was."""
        row = self.normal_form(row)
        if not row:
            return False
        lead = max(row)
        c = row[lead]
        if c != self._one:
            c = self.field.inv(c)
            row = {k: v * c for k, v in row.items()}
        self._store(lead, row)
        return True

    def normal_form(self, row: dict) -> dict:
        """The representative of ``row`` modulo the row space that has no pivot
        key: empty exactly when ``row`` is in the span, and independent of the
        order the rows went in. The pivot rows hold no pivot key but their own,
        so one pass over the keys of ``row`` clears them all."""
        row = dict(row)
        for k in [k for k in row if k in self.pivots]:
            self._subtract(row, self.pivots[k], row.pop(k), k)
        return row

    def _store(self, lead, row):
        """Store ``row``, whose entry at ``lead`` is one and which holds no other
        pivot key, after clearing ``lead`` from every stored row that holds it.
        A cleared row is a new dict in place of the old one; returns their keys."""
        replaced = [k for k, piv in self.pivots.items() if lead in piv]
        for k in replaced:
            piv = dict(self.pivots[k])
            self._subtract(piv, row, piv.pop(lead), lead)
            self.pivots[k] = piv
        self.pivots[lead] = row
        return replaced

    def _subtract(self, row, piv, c, lead):
        """``row -= c * piv`` in place, on the keys of ``piv`` other than ``lead``
        (whose pivot entry is one, and which the caller has already taken out of
        ``row``). Keys outside ``piv`` are not touched. An entry is one fused
        ``sub_mul``, or else one product and one sum (c negated once). As
        ``w * c`` is never zero, an entry that becomes zero was in ``row``."""
        sub_mul = self._sub_mul
        if sub_mul is None:
            c = -c
            for k, w in piv.items():
                if k != lead:
                    v = row.get(k)
                    nv = w * c if v is None else v + w * c
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
            return
        for k, w in piv.items():
            if k != lead:
                nv = sub_mul(row.get(k), w, c)
                if nv:
                    row[k] = nv
                else:
                    del row[k]

    def rank(self):
        return len(self.pivots)

    def copy(self):
        """An echelon with the same rows; inserting into either leaves the other
        as it was. Sharing the pivot rows is safe because ``insert`` replaces a
        stored row it changes and never edits one in place."""
        other = type(self)(self.field)
        other.pivots = dict(self.pivots)
        return other


def sparse(vec):
    """A dense vector as an Echelon row keyed by position."""
    return {j: x for j, x in enumerate(vec) if x}


def dense(row, size):
    zero = Fraction(0)
    return [row.get(j, zero) for j in range(size)]


def span(vectors):
    """Echelon of the span of dense vectors."""
    ech = Echelon()
    for v in vectors:
        ech.insert(sparse(v))
    return ech


def minimal_polynomial(apply_fn, vec, dim):
    """Monic minimal polynomial of an operator on the cyclic space of vec.

    apply_fn maps a vector to its image; returns ascending coefficients.
    Krylov vector t goes in with the tag -1 - t, so the first one whose normal
    form has no column left reads the relation off its tags.
    """
    ech = Echelon()
    one, zero = Fraction(1), Fraction(0)
    w = list(vec)
    row = sparse(w)
    for t in range(dim + 1):
        if not row or max(row) < 0:
            return [row.get(-1 - s, zero) for s in range(t)] + [one]
        row[-1 - t] = one
        ech.insert(row)
        w = apply_fn(w)
        row = ech.normal_form(sparse(w))
    raise RuntimeError("minimal polynomial search exceeded dimension")  # pragma: no cover

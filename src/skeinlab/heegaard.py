"""Genus-1 Heegaard computation of skein modules of lens spaces.

L(p,q) is two solid tori H and B glued so that the B-side meridian maps to
the (p,q) curve on the boundary of H. The skein module of the glued manifold
is the tensor product of the two solid-torus modules over the torus algebra,
computed here as a literal truncated quotient:

    span{ z_H^i (x) z_B^j } / < act(g, z_H^i) (x) z_B^j
                               - z_H^i (x) act(g', z_B^j) >

where g runs over an algebra generating set in H-boundary coordinates and
g' is the same curve in B-boundary coordinates (the gluing matrix transport).
Middle linearity for products of generators follows from the generator
relations inside the truncation, so the quotient needs nothing else. The
generator set is the gluing image of {meridian, longitude, (1,1)}, which
keeps the B-side actions trivial; the (1,1) generator is redundant whenever
q^2 - q^-2 is invertible and is dropped then to keep the relations few.

Stabilization is a heuristic: a report is flagged stable when the windows
N, N+1 and N+2 give the same dimension. Agreement on three windows does not
prove that larger windows agree; it is what the rule checks, nothing more.
Results that disagree are returned flagged, never silently truncated.

The windows are nested: the relation rows of window N are among those of
N+1. So there is one elimination, which grows window by window and inserts
only the rows a window adds (``_windows``); ``dim_K_q`` walks the same pass
until three windows agree.
"""

from __future__ import annotations

import itertools
import math

from .coeffs import CoeffField, GenericQ, LaurentPoly, Rationals
from .diagrams import AnnulusSkein
from .errors import SkeinError, StabilizationError
from .linalg import Echelon
from .solidtorus import act
from .torus import TorusSkein, normalize_label


class GluingMatrix:
    """Columns are the images of the B-side meridian and longitude."""

    __slots__ = ("meridian", "longitude")

    def __init__(self, meridian, longitude):
        p, q = meridian
        r, s = longitude
        det = p * s - q * r
        if abs(det) != 1:
            raise SkeinError(f"gluing matrix has determinant {det}")
        self.meridian = (p, q)
        self.longitude = (r, s)

    @classmethod
    def lens(cls, p, q):
        """Standard gluing for L(p, q): the B-meridian goes to the (p, q) curve."""
        p, q = normalize_label(p, q)
        if math.gcd(p, q) != 1:
            raise SkeinError("lens parameters must be coprime")
        g, x, y = _ext_gcd(p, q)
        if g == -1:  # a negative q can leave the gcd's sign negative
            g, x, y = 1, -x, -y
        if g != 1:
            raise SkeinError(f"extended gcd of ({p}, {q}) gave {g}, not 1")
        # p*s - q*r = 1 with (r, s) = (-y, x)
        return cls((p, q), (-y, x))

    def __repr__(self):
        return f"GluingMatrix(meridian->{self.meridian}, longitude->{self.longitude})"


def _ext_gcd(a, b):
    """g, x, y with a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


class LensReport:
    __slots__ = ("p", "q", "field_tag", "truncation", "dimension", "stabilized", "basis", "dims")

    def __init__(self, p, q, field_tag, truncation, dimension, stabilized, basis, dims):
        self.p = p
        self.q = q
        self.field_tag = field_tag
        self.truncation = truncation
        self.dimension = dimension
        self.stabilized = stabilized
        self.basis = basis  # surviving (i, j) classes of z_H^i (x) z_B^j
        self.dims = dims

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "field": self.field_tag,
            "truncation": self.truncation,
            "dimension": self.dimension,
            "stabilized": self.stabilized,
            "basis": [f"zH^{i}*zB^{j}" for i, j in self.basis],
            "dims_by_truncation": {str(n): d for n, d in sorted(self.dims.items())},
        }

    def __repr__(self):
        flag = "stable" if self.stabilized else "NOT STABLE"
        return f"LensReport(L({self.p},{self.q}), {self.field_tag}, dim={self.dimension}, {flag})"


class _LaurentEchelon(Echelon):
    """The relation echelon over the generic field, eliminated fraction-free
    over Z[q, q^-1].

    The rows hold Laurent polynomials with ``int`` coefficients; rational-
    function division would swamp the computation with gcd work. A stored row
    is stripped of its monomial and integer content, and when its lead is then
    a unit +-q^e it is divided by that unit, so the lead is exactly one. Only
    these unit pivots are kept reduced: no stored row holds a unit pivot's key
    but its own, so a row sheds all of them in one pass of ``_subtract`` (with
    ``LaurentPoly.sub_mul``), and a row that this clearing leaves with one entry
    becomes the unit pivot of its key. A non-unit lead is cross-multiplied away
    (``mul_add``), row by row, only while it is the row's lead, and the result
    stripped (Bareiss, Math. Comp. 22, 1968); below the lead it stays in the
    tail, because clearing it there would multiply the stored leads together.
    Stored rows keep non-unit pivots unnormalized, so this echelon answers
    ``insert``, ``rank`` and ``copy``, not ``normal_form``.
    """

    def __init__(self, field):
        super().__init__(field)
        self._sub_mul = LaurentPoly.sub_mul  # the rows are Laurent, whatever the field

    def _clear(self, row):
        # the action never divides, so every entry is already Laurent; one
        # multiple of the coefficient denominators makes the row integral
        out = {}
        den = 1
        for k, v in row.items():
            if not v.is_laurent():
                raise SkeinError(f"relation entry {v} is not a Laurent polynomial")
            if v.num:
                out[k] = v.num
                for c in v.num.terms.values():
                    den = math.lcm(den, c.denominator)
        if den != 1:
            out = {k: v * den for k, v in out.items()}
        return out

    def _strip(self, row):
        # monomial and integer content only; polynomial gcds cost more than
        # they save on these structured systems. A single entry is its own
        # content: that row spans the same ray as the key alone.
        if len(row) == 1:
            return {k: LaurentPoly.one() for k in row}
        shift = min(v.min_exp() for v in row.values())
        g = 0
        for v in row.values():
            for c in v.terms.values():
                g = math.gcd(g, c)
        if shift or g != 1:
            # the shifted quotients are nonzero ints already: skip the constructor
            stripped = {}
            for k, v in row.items():
                w = stripped[k] = LaurentPoly.__new__(LaurentPoly)
                w.terms = {e - shift: c // g for e, c in v.terms.items()}
            row = stripped
        return row

    def insert(self, row: dict) -> bool:
        row = self._clear(row)
        for k in [k for k in row if k in self.pivots and self.pivots[k][k].terms == {0: 1}]:
            self._subtract(row, self.pivots[k], row.pop(k), k)
        # cross-multiplying two rows free of unit pivot keys keeps them free
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                row = self._strip(row)
                if len(row[lead].terms) == 1:
                    ((e, c),) = row[lead].terms.items()
                    if c in (1, -1):  # a unit lead +-q^e: store the row divided by it
                        self._store(lead, {k: v.shifted(-e) * c for k, v in row.items()})
                        return True
                self.pivots[lead] = row
                return True
            a = piv[lead]
            b = -row[lead]  # a * row + b * piv clears the lead
            new = {}
            for k, v in row.items():
                w = piv.get(k)
                nv = LaurentPoly.mul_add(v, a, w, b) if w is not None else v * a
                if nv:
                    new[k] = nv
            for k, w in piv.items():
                if k not in row:
                    nv = w * b
                    if nv:
                        new[k] = nv
            row = self._strip(new) if new else new
        return False

    def _store(self, lead, row):
        # clearing ``lead`` can leave a replaced row {k: a}, the ray of k: store {k: 1}
        for k in super()._store(lead, row):
            if len(self.pivots[k]) == 1 and self.pivots[k][k].terms != {0: 1}:
                self._store(k, {k: LaurentPoly.one()})

    def normal_form(self, row):
        raise NotImplementedError("fraction-free pivots are not normalized")


def _generator_pairs(gluing: GluingMatrix, field: CoeffField):
    """(H-label, B-label) generator pairs for the middle-linearity relations."""
    p, q = gluing.meridian
    r, s = gluing.longitude
    pairs = [
        (normalize_label(p, q), (0, 1)),
        (normalize_label(r, s), (1, 0)),
    ]
    # q = +-1 over the rationals makes q^2 - q^-2 vanish
    if isinstance(field, Rationals) or not field.q_power(2) - field.q_power(-2):
        # (1,1) is a polynomial in meridian and longitude otherwise, so its
        # middle relations are implied; include it only when that fails
        pairs.append((normalize_label(p + r, q + s), (1, 1)))
    return pairs


def _windows(gluing: GluingMatrix, field: CoeffField, start: int):
    """Yield ``(M, dim, basis)`` for the windows M = start, start+1, ...

    ``dim`` is the dimension of the image of the (M x M) window in the padded
    truncated quotient and ``basis`` lists its surviving classes z_H^i (x) z_B^j.
    Relations are assembled on a window enlarged by the maximal degree growth
    of the generators, then each window class is reduced against them.
    Working on the padded window matters: a class at the very corner of a
    bare truncation keeps none of its relations and would survive as a stable
    artifact; every relation touching the inner window fits inside the padded
    one, so the image dimension is honest.

    A relation row is keyed by (generator, i, j), its content does not depend
    on the window, and a row that fits one padded window fits every larger
    one. So one echelon of relation rows serves every window: window M inserts
    only the rows that first fit M + growth and tests its classes on a copy.
    Whether a class survives depends on the row space alone, not on the order
    the rows went in, so each window gets the answer of its own elimination.
    """
    gens = _generator_pairs(gluing, field)
    growth = max(
        [1]
        + [abs(g_h[0]) for g_h, _ in gens]
        + [abs(g_b[0]) for _, g_b in gens]
    )
    skeins = [(TorusSkein.curve(field, *g_h), TorusSkein.curve(field, *g_b)) for g_h, g_b in gens]
    acted = [([], []) for _ in gens]  # per generator: act on z^0, z^1, ... on each side
    ech = (_LaurentEchelon if isinstance(field, GenericQ) else Echelon)(field)
    one = field.one()
    done = -1  # the padded window whose rows are all in ``ech``
    for M in itertools.count(start):
        padded = M + growth
        rows = []
        for (skein_h, skein_b), (acted_h, acted_b) in zip(skeins, acted):
            for k in range(len(acted_h), padded + 1):
                acted_h.append(act(skein_h, AnnulusSkein.z_power(field, k)))
                acted_b.append(act(skein_b, AnnulusSkein.z_power(field, k)))
            for i in range(padded + 1):
                left = acted_h[i]
                fit_h = max(i, left.degree())
                if fit_h > padded:
                    continue
                for j in range(padded + 1):
                    right = acted_b[j]
                    fit = max(fit_h, j, right.degree())
                    if fit > padded or fit <= done:
                        continue  # too big yet, or inserted with an earlier window
                    row = {}
                    for d, c in left.coeffs.items():
                        row[(d, j)] = c
                    for d, c in right.coeffs.items():
                        key = (i, d)
                        cur = row.get(key)
                        nv = -c if cur is None else cur - c
                        if nv:
                            row[key] = nv
                        elif key in row:
                            del row[key]
                    if row:
                        rows.append(row)
        # sparse rows first: singleton pivots make later eliminations cheap
        rows.sort(key=len)
        for row in rows:
            ech.insert(row)
        done = padded
        test = ech.copy()
        basis = [(i, j) for i in range(M + 1) for j in range(M + 1) if test.insert({(i, j): one})]
        yield M, len(basis), basis


def lens_module(p: int, q: int, field: CoeffField, truncation: int | None = None) -> LensReport:
    """Skein module of L(p,q) (or S^1 x S^2 for (0,1)) by truncated saturation.

    ``stabilized`` says whether the windows N, N+1, N+2 agree; see the
    module docstring for why that is a heuristic.
    """
    if truncation is not None and truncation < 0:
        raise SkeinError(f"truncation must be non-negative, got {truncation}")
    gluing = GluingMatrix.lens(p, q)
    N = truncation if truncation is not None else max(abs(p) + 2, 4)
    windows = list(itertools.islice(_windows(gluing, field, N), 3))
    dims = {M: dim for M, dim, _ in windows}
    stable = len(set(dims.values())) == 1
    return LensReport(p, q, field.tag, N, dims[N], stable, windows[0][2], dims)


def dim_K_q(p: int, q: int, max_truncation: int | None = None) -> int:
    """Dimension over Q(q) at the first truncation whose three windows agree;
    raises if no window up to the budget does, and rejects a budget below the
    first window, max(|p| + 2, 4)."""
    start = max(abs(p) + 2, 4)
    limit = max_truncation if max_truncation is not None else 2 * abs(p) + 12
    if limit < start:
        raise SkeinError(f"max_truncation {limit} is below the first window {start} of L({p},{q})")
    dims_seen = {}
    # the first windows N, N+1, N+2 that agree, for N = start .. limit
    for M, dim, _ in _windows(GluingMatrix.lens(p, q), GenericQ(), start):
        dims_seen[M] = dim
        if M >= start + 2 and dims_seen[M - 2] == dims_seen[M - 1] == dim:
            return dim
        if M == limit + 2:
            break
    raise StabilizationError(f"L({p},{q}) did not stabilize by truncation {limit}", dims_seen)

"""Genus-1 Heegaard computation of skein modules of lens spaces.

L(p,q) is two solid tori H and B glued so that the B-side meridian maps to
the (p,q) curve on the boundary of H. The skein module of the glued manifold
is the tensor product of the two solid-torus modules over the torus algebra,
computed here as a literal truncated quotient:

    span{ S_i(z_H) (x) S_j(z_B) } / < g.S_i (x) S_j - S_i (x) g'.S_j >

where g runs over an algebra generating set in H-boundary coordinates and
g' is the same curve in B-boundary coordinates (the gluing matrix transport).
Middle linearity for products of generators follows from the generator
relations inside the truncation, so the quotient needs nothing else. The
generator set is the gluing image of {meridian, longitude, (1,1)}, which
keeps the B-side actions trivial; the (1,1) generator is redundant whenever
q^2 - q^-2 is invertible and is dropped then to keep the relations few.

The rows live on the Chebyshev basis S_k of ``solidtorus``, where every curve
acts in two terms, so a row has at most four entries, each a sum of at most
three +-q^e. The class S_i (x) S_j is keyed (j, i): the echelon pivots on the
largest key, and this order keeps nearly every lead a unit. The reports still
name the z-basis classes z_H^i (x) z_B^j, and they are the same as on the
z-basis: S_0..S_M span z^0..z^M by a unitriangular change of basis, so every
window has the same row space, and the classes are tested in (i, j) order,
where each S_i (x) S_j is z^i (x) z^j plus earlier classes, so the same
classes survive.

Stabilization is a heuristic: a report is flagged stable when the windows
N, N+1 and N+2 give the same dimension. Agreement on three windows does not
prove that larger windows agree; it is what the rule checks, nothing more.
Results that disagree are returned flagged, never silently truncated.

The windows are nested: the relation rows of window N are among those of
N+1. So there is one elimination, which grows window by window and inserts
only the rows a window adds (``_windows``); ``dim_K_q`` walks the same pass
until three windows agree. It is the field elimination ``linalg.Echelon`` for
every field, Q(q) included, where the unit leads keep almost every step on
Laurent numerators (``RationalFunction.sub_mul``).
"""

from __future__ import annotations

import itertools
import math

from .coeffs import CoeffField, GenericQ
from .errors import SkeinError, StabilizationError
from .linalg import Echelon
from .solidtorus import act, s_column  # noqa: F401  act: perfbench/layers.py wraps heegaard.act
from .torus import normalize_label
from .upoly import collect


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


def _generator_pairs(gluing: GluingMatrix, field: CoeffField):
    """(H-label, B-label) generator pairs for the middle-linearity relations."""
    p, q = gluing.meridian
    r, s = gluing.longitude
    pairs = [
        (normalize_label(p, q), (0, 1)),
        (normalize_label(r, s), (1, 0)),
    ]
    # q^2 - q^-2 vanishes at q = +-1; a field without q raises here
    if not field.q_power(2) - field.q_power(-2):
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

    The rows are on the S-basis, from ``s_column``, with S_i (x) S_j keyed
    (j, i); the module docstring says why the answers are the z-basis ones.
    A relation row is keyed by (generator, i, j), its content does not depend
    on the window, and a row that fits one padded window fits every larger
    one. So one echelon of relation rows serves every window: window M inserts
    only the rows that first fit M + growth and tests its classes on a copy.
    Whether a class survives depends on the row space alone, not on the order
    the rows went in, so each window gets the answer of its own elimination.
    """
    gens = _generator_pairs(gluing, field)
    growth = max(1, *(abs(g[0]) for pair in gens for g in pair))
    acted = [([], []) for _ in gens]  # per generator: its S columns on S_0, S_1, ... on each side
    ech = Echelon(field)
    one = field.one()
    done = -1  # the padded window whose rows are all in ``ech``
    for M in itertools.count(start):
        padded = M + growth
        rows = []
        for (g_h, g_b), (acted_h, acted_b) in zip(gens, acted):
            for k in range(len(acted_h), padded + 1):
                acted_h.append(s_column(field, *g_h, k))
                acted_b.append(s_column(field, *g_b, k))
            for i in range(padded + 1):
                left = acted_h[i]
                fit_h = max(i, *left)
                if fit_h > padded:
                    continue
                for j in range(padded + 1):
                    right = acted_b[j]
                    fit = max(fit_h, j, *right)
                    if fit > padded or fit <= done:
                        continue  # too big yet, or inserted with an earlier window
                    row = collect([((j, m), c) for m, c in left.items()] + [((m, i), -c) for m, c in right.items()])
                    if row:
                        rows.append(row)
        # smallest largest key first: a new lead then lies above the stored
        # keys, so few stored rows hold it and ``Echelon._store`` has little
        # to clear; the reduced echelon does not depend on the order
        rows.sort(key=max)
        for row in rows:
            ech.insert(row)
        done = padded
        test = ech.copy()
        basis = [(i, j) for i in range(M + 1) for j in range(M + 1) if test.insert({(j, i): one})]
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

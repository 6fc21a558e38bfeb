"""Unreduced coordinate rings of SL2 character schemes for groups with at
most two generators, in trace coordinates x = tr(a), y = tr(b), z = tr(ab).

Any word trace reduces to a polynomial in x, y, z through
tr(uv) = tr(u)tr(v) - tr(u v^-1), tr(u^-1) = tr(u), tr(1) = 2 (valid for
SL2 over any commutative ring). The character ideal of a presentation is
generated by tr(r w) - tr(w) over relators r and probe words w; its
Groebner quotient supplies dimensions and local factors, each flagged
irreducible when the commutator trace x^2+y^2+z^2-xyz-2 stays away from 2
on the factor.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .artinian import artinian_decompose
from .errors import SkeinError
from .groebner import PolyIdeal, buchberger
from .linalg import mat_vec, span
from .multipoly import MultiPoly

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def free_reduce(word: str) -> str:
    out = []
    for ch in word:
        if ch not in _INVERSE:
            raise SkeinError(f"bad generator letter {ch!r}")
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse_word(word: str) -> str:
    return "".join(_INVERSE[ch] for ch in reversed(word))


def cyclic_reduce(word: str) -> str:
    word = free_reduce(word)
    while len(word) > 1 and word[0] == _INVERSE[word[-1]]:
        word = free_reduce(word[1:-1])
    return word


class Word:
    """Freely reduced word in a, b and their inverses A, B."""

    __slots__ = ("letters",)

    def __init__(self, letters: str):
        self.letters = free_reduce(letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.letters or '1'})"


VARS2 = ("x", "y", "z")
VARS1 = ("x",)


def _upper_count(word: str) -> int:
    return sum(1 for ch in word if ch.isupper())


def _canonical_trace_key(word: str) -> str:
    """Representative of the trace class: cyclic words up to inversion.

    Minimizes (inverse-letter count, lexicographic) so canonicalization never
    increases the termination measure of the reduction below.
    """
    word = cyclic_reduce(word)
    best = None
    for w in (word, inverse_word(word)):
        for i in range(max(1, len(w))):
            rot = w[i:] + w[:i]
            cand = (_upper_count(rot), rot)
            if best is None or cand < best:
                best = cand
    return best[1] if best else ""


def trace_poly(word) -> MultiPoly:
    """P in Q[x,y,z] with P(tr A, tr B, tr AB) = tr(word(A,B)) for SL2 pairs."""
    letters = word.letters if isinstance(word, Word) else free_reduce(word)
    return _trace(_canonical_trace_key(letters))


@functools.cache
def _trace(key: str) -> MultiPoly:
    """Trace polynomial of a canonical key, built once per key.

    tr(uv) = tr(u)tr(v) - tr(u^-1 v) applied so every recursive call strictly
    drops (length, inverse-letter count): split at a repeated letter when one
    exists, otherwise peel a leading inverse letter.
    """
    V = VARS2
    n = len(key)
    if n == 0:
        return MultiPoly.constant(V, Fraction(2))
    if n == 1:
        return MultiPoly.variable(V, "x" if key in "aA" else "y")
    if n == 2 and key.lower() in ("ab", "ba"):
        if key in ("ab", "ba", "AB", "BA"):  # AB, BA are inverses of ba, ab
            return MultiPoly.variable(V, "z")
        # one letter inverted: tr(a b^-1) = x y - z
        return MultiPoly.variable(V, "x") * MultiPoly.variable(V, "y") - MultiPoly.variable(V, "z")
    repeated = next((ch for ch in set(key) if key.count(ch) > 1), None)
    if repeated is not None:
        i = key.index(repeated)
        w = key[i:] + key[:i]
        j = w.index(repeated, 1)
        u, v = w[:j], w[j:]  # both pieces shorter; the mixed word cancels at the seam
    else:
        uppers = [i for i, ch in enumerate(key) if ch.isupper()]
        if not uppers:
            raise SkeinError(f"unexpected irreducible trace word {key!r}")
        i = uppers[0]
        w = key[i:] + key[:i]
        # tr(L rest) = tr(L^-1) tr(rest) - tr(L^-1 rest): one less inverse
        u, v = w[0], w[1:]
    return _trace(_canonical_trace_key(u)) * _trace(_canonical_trace_key(v)) - _trace(
        _canonical_trace_key(inverse_word(u) + v)
    )


class GroupPresentation:
    __slots__ = ("ngens", "relators")

    def __init__(self, ngens: int, relators):
        if ngens not in (1, 2):
            raise SkeinError("only 1- and 2-generator presentations are supported")
        rels = []
        for r in relators:
            w = r if isinstance(r, Word) else Word(r)
            if ngens == 1 and any(ch in "bB" for ch in w.letters):
                raise SkeinError("relator uses a second generator")
            if w.letters:
                rels.append(w)
        self.ngens = ngens
        self.relators = tuple(rels)

    @classmethod
    def cyclic(cls, p: int):
        return cls(1, [Word("a" * p)])

    @classmethod
    def parse(cls, text: str):
        """File format: 'gens: a b' then one 'rel: a b A B' line per relator."""
        gens = None
        rels = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("gens:"):
                names = line[len("gens:") :].split()
                if names not in (["a"], ["a", "b"]):
                    raise SkeinError("generators must be 'a' or 'a b'")
                gens = len(names)
            elif line.startswith("rel:"):
                rels.append(Word("".join(line[len("rel:") :].split())))
            else:
                raise SkeinError(f"unrecognized line {line!r}")
        if gens is None:
            raise SkeinError("missing 'gens:' line")
        return cls(gens, rels)

    def __repr__(self):
        rels = ", ".join(w.letters for w in self.relators) or "-"
        return f"GroupPresentation(ngens={self.ngens}, relators=[{rels}])"


_PROBES2 = ("", "a", "b", "ab")
_PROBES1 = ("", "a")


def character_ideal(group: GroupPresentation) -> PolyIdeal:
    """Trace relations tr(r w) - tr(w) for relators r and the probe words w."""
    probes = _PROBES2 if group.ngens == 2 else _PROBES1
    variables = VARS2 if group.ngens == 2 else VARS1
    gens = []
    for rel in group.relators:
        for w in probes:
            p = trace_poly(Word(rel.letters + w)) - trace_poly(Word(w))
            gens.append(_restrict_vars(p, variables))
    return PolyIdeal(variables, gens)


def _restrict_vars(poly: MultiPoly, variables) -> MultiPoly:
    if variables == poly.vars:
        return poly
    idx = [poly.vars.index(v) for v in variables]
    keep = set(idx)
    out = {}
    for e, c in poly.terms.items():
        if any(e[i] for i in range(len(e)) if i not in keep):
            raise SkeinError("polynomial involves dropped variables")
        out[tuple(e[i] for i in idx)] = c
    return MultiPoly(variables, out)


COMMUTATOR_TRACE_KEY = "abAB"


def commutator_trace() -> MultiPoly:
    return trace_poly(Word(COMMUTATOR_TRACE_KEY))


class CharRingReport:
    __slots__ = ("group", "ideal", "ring", "total_dim", "factors", "irreducible_flags")

    def __init__(self, group, ideal, ring, total_dim, factors, irreducible_flags):
        self.group = group
        self.ideal = ideal
        self.ring = ring
        self.total_dim = total_dim  # None for a positive-dimensional variety
        self.factors = factors
        self.irreducible_flags = irreducible_flags

    def irreducible_point_count(self):
        return sum(
            f.point_count for f, flag in zip(self.factors, self.irreducible_flags) if flag
        )

    def to_json(self):
        if self.total_dim is None:
            return {"ideal": self.ideal.to_json(), "positive_dimensional": True}
        return {
            "ideal": self.ideal.to_json(),
            "total_dim": self.total_dim,
            "factors": [
                dict(f.to_json(), irreducible=flag)
                for f, flag in zip(self.factors, self.irreducible_flags)
            ],
        }

    def __repr__(self):
        if self.total_dim is None:
            return "CharRingReport(positive-dimensional character variety)"
        flags = sum(1 for f in self.irreducible_flags if f)
        return (
            f"CharRingReport(dim={self.total_dim}, factors={len(self.factors)}, "
            f"irreducible={flags})"
        )


def char_ring(group: GroupPresentation) -> CharRingReport:
    ideal = character_ideal(group)
    ring = buchberger(ideal)
    dim = ring.dimension()
    if dim is None:
        return CharRingReport(group, ideal, ring, None, (), ())
    factors = artinian_decompose(ring)
    if group.ngens == 1:
        flags = [False] * len(factors)  # abelian image: every character reducible
    else:
        kappa = ring.mult_matrix(ring.normal_form(commutator_trace() - 2))
        flags = [span(mat_vec(kappa, row) for row in f.basis).rank() == f.multiplicity for f in factors]
    return CharRingReport(group, ideal, ring, dim, tuple(factors), tuple(flags))


def trivial_character_eval(component_count: int) -> int:
    """Value of the trivial character on a link with the given component count."""
    if component_count < 0:
        raise ValueError("component count must be non-negative")
    return (-2) ** component_count

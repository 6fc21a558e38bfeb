"""Framed link diagrams in the disk and the annulus, and their Kauffman
bracket evaluation.

Diagrams are planar-diagram (PD) codes: each crossing is a 4-tuple of arc
labels listed counterclockwise starting from the incoming under-strand.
The crossing relation resolves as

    <crossing> = q * <A-smoothing> + q^-1 * <B-smoothing>

where the A-smoothing joins PD positions (0,1) and (2,3), the B-smoothing
joins (0,3) and (1,2), and every trivial circle contributes -q^2 - q^-2.
With these choices a positive curl carries the factor -q^3.

Annulus diagrams carry per-arc winding marks (signed crossings with a fixed
radial ray). Only the parity of the total mark of a closed component matters:
a resolved component is core-parallel exactly when its parity is odd, since
embedded circles in the annulus have winding -1, 0 or 1.

The production evaluator resolves the crossings once, in the order listed,
as a dynamic program over the open strands of the cut between resolved and
unresolved crossings (Makowsky, Discrete Appl. Math. 145, 2005). The
exhaustive state sum lives in ``skeinlab.oracle`` and is used only to
cross-check this engine.

Closed braids are built here too. Every torus boundary curve pushed into
the solid torus next to k cores, the meridian included, is the closed braid
of its |q| steps, each taking one curve strand around the cores and across
the other curve strands (Kassel-Turaev, Braid Groups, ch. 2). Its crossings
are listed, and so resolved, one core at a time, then the curve's own ones.
"""

from __future__ import annotations

import math

from . import upoly
from .coeffs import CoeffField, Combination
from .errors import DiagramError
from .upoly import int_from_json

DISK = "disk"
ANNULUS = "annulus"


class FramedDiagram:
    """PD-coded framed link diagram in the disk or annulus."""

    __slots__ = ("surface", "crossings", "free_loops", "free_cores", "winding_marks")

    def __init__(self, surface, crossings=(), free_loops=0, free_cores=0, winding_marks=None):
        if surface not in (DISK, ANNULUS):
            raise DiagramError(f"unknown surface {surface!r}")
        self.surface = surface
        self.crossings = tuple(tuple(int_from_json(a) for a in c) for c in crossings)
        self.free_loops = int_from_json(free_loops)
        self.free_cores = int_from_json(free_cores)
        self.winding_marks = {int_from_json(k): int_from_json(v) for k, v in (winding_marks or {}).items()}
        self.validate()

    def validate(self):
        counts = {}
        for c in self.crossings:
            if len(c) != 4:
                raise DiagramError(f"crossing {c} is not a 4-tuple")
            for a in c:
                counts[a] = counts.get(a, 0) + 1
        for a, k in counts.items():
            if k != 2:
                raise DiagramError(f"arc {a} appears {k} times, expected 2")
        if self.free_loops < 0 or self.free_cores < 0:
            raise DiagramError("negative free component count")
        if self.surface == DISK:
            if self.free_cores:
                raise DiagramError("disk diagram cannot contain core circles")
            if self.winding_marks:
                raise DiagramError("disk diagram cannot carry winding marks")
        else:
            for a in self.winding_marks:
                if a not in counts:
                    raise DiagramError(f"winding mark on unknown arc {a}")

    def arcs(self):
        out = set()
        for c in self.crossings:
            out.update(c)
        return out

    def to_json(self):
        data = {
            "surface": self.surface,
            "crossings": [list(c) for c in self.crossings],
            "free_loops": self.free_loops,
        }
        if self.surface == ANNULUS:
            data["free_cores"] = self.free_cores
            data["winding_marks"] = {str(k): v for k, v in sorted(self.winding_marks.items())}
        return data

    @classmethod
    def from_json(cls, data):
        return cls(
            data["surface"],
            [tuple(c) for c in data.get("crossings", [])],
            data.get("free_loops", 0),
            data.get("free_cores", 0),
            {int(k): v for k, v in data.get("winding_marks", {}).items()},
        )

    def __repr__(self):
        return (
            f"FramedDiagram({self.surface}, crossings={list(self.crossings)}, "
            f"free_loops={self.free_loops}, free_cores={self.free_cores})"
        )


class AnnulusSkein(Combination):
    """Finite sum sum_k c_k z^k over a coefficient field; z^0 is the empty link."""

    __slots__ = ()

    @staticmethod
    def _key(k):
        if type(k) is not int or k < 0:
            raise ValueError(f"a core power is a non-negative integer, got {k!r}")
        return k

    @staticmethod
    def _key_json(k):
        return (k,)

    @staticmethod
    def _key_from_json(parts):
        (k,) = parts
        return k

    @staticmethod
    def _key_str(k):
        return "" if k == 0 else ("z" if k == 1 else f"z^{k}")

    @classmethod
    def one(cls, field):
        return cls(field, {0: field.one()})

    @classmethod
    def z_power(cls, field, k, coeff=None):
        return cls(field, {k: field.one() if coeff is None else coeff})

    def degree(self):
        return max(self.coeffs) if self.coeffs else 0

    def dense(self):
        """Ascending z-coefficients, 0 for a missing power: the ``upoly`` form."""
        c = self.coeffs
        return [c.get(k, 0) for k in range(max(c) + 1)] if c else []

    def shift(self, j):
        """Multiply by z^j."""
        return self._new({k + j: v for k, v in self.coeffs.items()})

    def mul(self, other):
        """Product in the solid-torus skein algebra (polynomials in z)."""
        self.check_field(other)
        return AnnulusSkein(self.field, enumerate(upoly.mul(self.dense(), other.dense())))


# ---------------------------------------------------------------------------
# bracket evaluation


def _bracket(diagram: FramedDiagram, field: CoeffField) -> AnnulusSkein:
    """Kauffman bracket by one pass over the crossings in their listed order.

    After each crossing a state is the sorted tuple of open strands
    ``(end, end, parity)``: the ends are arcs that still reach an unresolved
    crossing, the parity is that of the strand's winding marks. Each state
    maps to ``{core power: scalar}``, and states reached twice are summed.
    Smoothing a crossing joins its slots in two pairs. Joining slots x and y
    links the far ends of their strands, a fresh arc being a strand on its
    own; when x and y are the two ends of one strand, it closes into a
    circle: delta for even parity, one more core for odd.
    """
    diagram.validate()
    marks = diagram.winding_marks if diagram.surface == ANNULUS else {}
    q, qi, delta = field.q_power(1), field.q_power(-1), field.delta()
    # (slot pairs, weight by the number of trivial circles closed)
    smoothings = (
        (((0, 1), (2, 3)), (q, q * delta, q * delta * delta)),
        (((0, 3), (1, 2)), (qi, qi * delta, qi * delta * delta)),
    )
    states = {(): {diagram.free_cores: delta**diagram.free_loops}}
    for c in diagram.crossings:
        nxt = {}
        for strands, value in states.items():
            for pairs, weights in smoothings:
                ends = {}
                for x, y, p in strands:
                    ends[x] = (y, p)
                    ends[y] = (x, p)
                for a in c:
                    if a not in ends:
                        ends[a] = (a, marks.get(a, 0) & 1)
                trivial = cores = 0
                for i, j in pairs:
                    x, y = c[i], c[j]
                    x2, px = ends.pop(x)
                    if x2 == y:
                        ends.pop(y, None)
                        cores += px
                        trivial += 1 - px
                        continue
                    y2, py = ends.pop(y)
                    ends[x2] = (y2, px ^ py)
                    ends[y2] = (x2, px ^ py)
                key = tuple(sorted((x, y, p) for x, (y, p) in ends.items() if x < y))
                w = weights[trivial]
                acc = nxt.setdefault(key, {})
                for k, v in value.items():
                    k += cores
                    s = acc.get(k)
                    acc[k] = v * w if s is None else s + v * w
        states = nxt
    return AnnulusSkein(field, states.get((), {}))


def bracket_annulus(diagram: FramedDiagram, field: CoeffField) -> AnnulusSkein:
    """Fully resolve an annulus diagram into sum c_k z^k."""
    if diagram.surface != ANNULUS:
        raise DiagramError("bracket_annulus expects an annulus diagram")
    return _bracket(diagram, field)


def bracket_disk(diagram: FramedDiagram, field: CoeffField):
    """Value of a disk diagram as a multiple of the empty skein."""
    if diagram.surface != DISK:
        raise DiagramError("bracket_disk expects a disk diagram")
    value = _bracket(diagram, field)
    assert all(k == 0 for k in value.coeffs), "disk diagram produced core circles"
    return value.coeffs.get(0, field.zero())


# ---------------------------------------------------------------------------
# closed braids


def braid_closure(word, strands: int, surface: str = DISK) -> FramedDiagram:
    """Closure of a braid word on ``strands`` strands, in the disk or annulus.

    Letters are nonzero integers: +i is the positive generator crossing
    strands i, i+1 (left strand over), -i its inverse. Each strand closes up
    around the annulus, so each closure arc crosses the reference ray once
    and carries one winding mark. Crossings are listed in word order.
    """
    if strands < 1:
        raise DiagramError("braid needs at least one strand")
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise DiagramError(f"braid letter {g} out of range for {strands} strands")
    next_arc = strands
    current = list(range(strands))  # arc at each position, bottom to top
    crossings = []
    for g in word:
        i = abs(g) - 1
        below_l, below_r = current[i], current[i + 1]
        above_l, above_r = next_arc, next_arc + 1
        next_arc += 2
        if g > 0:
            # left strand over: under-strand comes in at the lower right
            crossings.append((below_r, above_r, above_l, below_l))
        else:
            crossings.append((below_l, below_r, above_r, above_l))
        current[i], current[i + 1] = above_l, above_r
    # close up: the top arc at position i becomes start arc i, so arc i is
    # the closure arc of position i
    rename = {top: pos for pos, top in enumerate(current) if top != pos}
    pd = [tuple(rename.get(a, a) for a in c) for c in crossings]
    used = {a for c in pd for a in c}
    # strands never crossed close into free circles
    free = sum(1 for pos in range(strands) if pos not in used)
    if surface == DISK:
        return FramedDiagram(DISK, pd, free_loops=free)
    marks = {a: 1 for a in range(strands) if a in used}
    return FramedDiagram(ANNULUS, pd, free_loops=0, free_cores=free, winding_marks=marks)


# ---------------------------------------------------------------------------
# torus boundary curves pushed into the solid torus


def pushed_curve_with_cores(p: int, q: int, cores: int) -> FramedDiagram:
    """Annulus diagram of the (p,q) boundary curve pushed in, stacked with
    ``cores`` parallel copies of the core circle.

    The label must be primitive; p may be 0 only for the meridian (0,+-1).
    Every diagram, the meridian's included, is a closed braid on cores +
    max(p, 1) strands, the cores on strands 1..cores: each of the |q| steps
    takes the curve strand next to them once around all cores and then
    across the other p - 1 curve strands.
    """
    if not all(type(v) is int for v in (p, q, cores)) or cores < 0:
        raise DiagramError(f"expected integers p, q and cores >= 0, got ({p!r}, {q!r}, {cores!r})")
    if math.gcd(p, q) != 1:
        raise DiagramError(f"({p},{q}) is not a primitive curve label")
    if p < 0:
        p, q = -p, -q
    k = cores
    if p == 0 and k == 0:
        return FramedDiagram(ANNULUS, free_loops=1)
    # the meridian is the braid of (1,+-1) with no winding mark on arc k, which
    # closes the curve strand: that strand is the outermost, so the arc runs
    # back beyond every other strand, crossing nothing, not even the ray
    strands = k + max(p, 1)
    step = [*range(k, 0, -1), *range(1, strands)]
    word = [-g for g in step] * q if q > 0 else step[::-1] * -q
    d = braid_closure(word, strands, ANNULUS)
    if p == 0:
        del d.winding_marks[k]
    # resolve one core at a time, then the curve's own crossings: this keeps
    # the frontier narrow. (1,2) with 13 cores takes 0.065 s in this order and
    # 508 s in word order (2 vCPU, Python 3.11.7)
    order = sorted(range(len(word)), key=lambda j: min(abs(word[j]), k + 1))
    return FramedDiagram(ANNULUS, [d.crossings[j] for j in order], d.free_loops, d.free_cores, d.winding_marks)

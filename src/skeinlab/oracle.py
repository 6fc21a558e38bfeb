"""Exhaustive Kauffman state sum.

Independent cross-check for the frontier bracket engine of ``diagrams``:
enumerate all 2^c smoothing assignments, trace the resulting closed curves,
classify each by winding parity, and add up
q^(#A - #B) * delta^(contractible) * z^(core).
Exponential; test/verification use only.
"""

from __future__ import annotations

from itertools import product

from .coeffs import CoeffField
from .diagrams import ANNULUS, AnnulusSkein, FramedDiagram


def state_sum(diagram: FramedDiagram, field: CoeffField) -> AnnulusSkein:
    diagram.validate()
    crossings = diagram.crossings
    c = len(crossings)

    # arc -> its two (crossing, slot) occurrences
    occurrences = {}
    for ci, cr in enumerate(crossings):
        for slot, arc in enumerate(cr):
            occurrences.setdefault(arc, []).append((ci, slot))

    marks = diagram.winding_marks if diagram.surface == ANNULUS else {}
    base = AnnulusSkein.z_power(field, diagram.free_cores, field.delta() ** diagram.free_loops)
    total = AnnulusSkein.zero(field)

    for state in product((0, 1), repeat=c):
        # smoothing 0 (A) pairs slots (0,1),(2,3); smoothing 1 (B) pairs (0,3),(1,2)
        mate = {}
        for ci, s in enumerate(state):
            pairs = ((0, 1), (2, 3)) if s == 0 else ((0, 3), (1, 2))
            for i, j in pairs:
                mate[(ci, i)] = (ci, j)
                mate[(ci, j)] = (ci, i)

        visited = set()
        loops = 0
        cores = 0
        for start in mate:
            if start in visited:
                continue
            parity = 0
            pos = start
            while pos not in visited:
                visited.add(pos)
                arc = crossings[pos[0]][pos[1]]
                a, b = occurrences[arc]
                nxt = b if a == pos else a
                parity ^= marks.get(arc, 0) & 1
                visited.add(nxt)
                pos = mate[nxt]
            if parity:
                cores += 1
            else:
                loops += 1

        n_b = sum(state)
        coeff = field.q_power(c - 2 * n_b) * field.delta() ** loops
        total = total + base.shift(cores).scale(coeff)

    return total

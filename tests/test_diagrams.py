import itertools
import math
import os
import subprocess
import sys

import pytest

import skeinlab
from skeinlab.coeffs import GenericQ, ZetaField, field_from_tag
from skeinlab.diagrams import (
    ANNULUS,
    DISK,
    AnnulusSkein,
    FramedDiagram,
    braid_closure,
    bracket_annulus,
    bracket_disk,
    pushed_curve_with_cores,
)
from skeinlab.errors import DiagramError
from skeinlab.jsonio import canonical_dumps
from skeinlab.oracle import state_sum

F = GenericQ()


def q(e):
    return F.q_power(e)


DELTA = F.delta()


def test_pd_validation():
    with pytest.raises(DiagramError):
        FramedDiagram(DISK, [(1, 2, 3, 4)])  # arcs appear once
    with pytest.raises(DiagramError):
        FramedDiagram(DISK, [(1, 1, 1, 2)])  # arc appears three times
    with pytest.raises(DiagramError):
        FramedDiagram(DISK, [(1, 1, 2, 2)], winding_marks={1: 1})
    with pytest.raises(DiagramError):
        FramedDiagram(ANNULUS, [(1, 1, 2, 2)], winding_marks={9: 1})
    with pytest.raises(DiagramError):
        FramedDiagram("plane")


def test_single_circle():
    assert bracket_disk(FramedDiagram(DISK, free_loops=1), F) == DELTA


def test_disjoint_circles_multiply():
    for k in range(5):
        assert bracket_disk(FramedDiagram(DISK, free_loops=k), F) == DELTA**k


def test_trefoil_matches_state_sum():
    trefoil = braid_closure([1, 1, 1], 2)
    assert bracket_disk(trefoil, F) == state_sum(trefoil, F).coeffs[0]
    # also the classical value, as a multiple of the empty skein
    assert bracket_disk(trefoil, F) == DELTA * (-q(5) - q(-3) + q(-7))


def test_kink_factors():
    plus = FramedDiagram(DISK, [(1, 1, 2, 2)])
    minus = FramedDiagram(DISK, [(1, 2, 2, 1)])
    assert bracket_disk(plus, F) == -q(3) * DELTA
    assert bracket_disk(minus, F) == -q(-3) * DELTA


def test_annulus_core_and_contractible():
    assert bracket_annulus(FramedDiagram(ANNULUS, free_cores=1), F) == AnnulusSkein.z_power(F, 1)
    assert bracket_annulus(FramedDiagram(ANNULUS, free_loops=1), F) == AnnulusSkein.z_power(
        F, 0, DELTA
    )


def test_meridian_encircled_core():
    d = pushed_curve_with_cores(0, 1, 1)
    assert len(d.crossings) == 2
    value = bracket_annulus(d, F)
    assert value == AnnulusSkein.z_power(F, 1, -q(4) - q(-4))
    assert value == state_sum(d, F)


def test_push_examples():
    assert bracket_annulus(pushed_curve_with_cores(1, 0, 0), F) == AnnulusSkein.z_power(F, 1)
    assert bracket_annulus(pushed_curve_with_cores(0, 1, 0), F) == AnnulusSkein.z_power(F, 0, DELTA)
    d21 = pushed_curve_with_cores(2, 1, 0)
    assert len(d21.crossings) == 1
    assert bracket_annulus(d21, F) == state_sum(d21, F)
    with pytest.raises(DiagramError):
        pushed_curve_with_cores(2, 4, 0)
    with pytest.raises(DiagramError):
        pushed_curve_with_cores(0, 0, 0)


@pytest.mark.parametrize(
    "pqk",
    [(2, 1, 0), (3, 1, 0), (3, 2, 0), (1, 1, 1), (1, 2, 1), (2, -1, 1), (0, -1, 2), (0, 1, 0), (0, 1, 3), (0, -1, 4), (0, 1, 5)],
)
def test_pushed_curves_match_oracle(pqk):
    p, q_, k = pqk
    d = pushed_curve_with_cores(p, q_, k)
    assert bracket_annulus(d, F) == state_sum(d, F)


def _components(d):
    """Total winding mark of each component, free cores included (mark 1)."""
    parent = {a: a for a in d.arcs()}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for c in d.crossings:  # each strand runs 0 -> 2 (under) and 1 -> 3 (over)
        parent[find(c[0])] = find(c[2])
        parent[find(c[1])] = find(c[3])
    marks = {}
    for a in parent:
        r = find(a)
        marks[r] = marks.get(r, 0) + d.winding_marks.get(a, 0)
    return sorted(list(marks.values()) + [1] * d.free_cores + [0] * d.free_loops)


def test_pushed_curve_structure():
    # the curve crosses itself (p-1)|q| times and each core 2|q| times; it is
    # one component winding p times around the annulus, next to k cores
    for p in range(5):
        for q_ in range(-3, 4):
            if math.gcd(p, abs(q_)) != 1 or p == 0 and abs(q_) != 1:
                continue
            for k in range(5):
                d = pushed_curve_with_cores(p, q_, k)
                assert len(d.crossings) == max(p - 1, 0) * abs(q_) + 2 * abs(q_) * k
                marks = _components(d)
                marks.remove(p)
                assert marks == [1] * k


@pytest.mark.parametrize(
    "pqk",
    [
        (0, 1, -1), (1, 1, -2), (2, 1, -1), (3, 2, -1), (1, 1, 1.0), (2, 1, "1"), (1, 0, True),
        (1.0, 1, 0), (0, 1.0, 1), (2, "1", 0), (1, True, 0),
    ],
)
def test_pushed_curve_rejects_bad_core_counts(pqk):
    # in a child process: a bad count must fail fast, not return or hang
    src = os.path.dirname(os.path.dirname(skeinlab.__file__))
    code = (
        "from skeinlab.diagrams import pushed_curve_with_cores\n"
        "from skeinlab.errors import DiagramError\n"
        "try:\n"
        f"    pushed_curve_with_cores(*{pqk!r})\n"
        "except DiagramError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


# canonical JSON of bracket_annulus(pushed_curve_with_cores(p, q, k))
PINNED_BRACKETS = {
    ('generic', (1, 1, 2)): '{"field":"generic","terms":[[1,{"num":{"terms":[[-4,"-2"],[0,"1"],[8,"1"]]}}],[3,{"num":{"terms":[[-4,"1"]]}}]]}',
    ('generic', (1, -1, 2)): '{"field":"generic","terms":[[1,{"num":{"terms":[[-8,"1"],[0,"1"],[4,"-2"]]}}],[3,{"num":{"terms":[[4,"1"]]}}]]}',
    ('generic', (1, 2, 3)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-12,"1"],[-4,"-2"],[12,"2"],[20,"-1"]]}}],[2,{"num":{"terms":[[-12,"-3"],[-4,"2"],[20,"1"]]}}],[4,{"num":{"terms":[[-12,"1"]]}}]]}',
    ('generic', (2, 1, 2)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-5,"1"],[-1,"-1"],[3,"-1"],[7,"1"]]}}],[2,{"num":{"terms":[[-5,"-3"],[-1,"1"]]}}],[4,{"num":{"terms":[[-5,"1"]]}}]]}',
    ('generic', (2, -1, 2)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-7,"1"],[-3,"-1"],[1,"-1"],[5,"1"]]}}],[2,{"num":{"terms":[[1,"1"],[5,"-3"]]}}],[4,{"num":{"terms":[[5,"1"]]}}]]}',
    ('generic', (3, 1, 1)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-4,"1"],[4,"-1"]]}}],[2,{"num":{"terms":[[-4,"-3"]]}}],[4,{"num":{"terms":[[-4,"1"]]}}]]}',
    ('generic', (3, 2, 1)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-8,"1"],[8,"-1"]]}}],[2,{"num":{"terms":[[-8,"-3"]]}}],[4,{"num":{"terms":[[-8,"1"]]}}]]}',
    ('generic', (3, -2, 1)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-8,"-1"],[8,"1"]]}}],[2,{"num":{"terms":[[8,"-3"]]}}],[4,{"num":{"terms":[[8,"1"]]}}]]}',
    ('generic', (2, 3, 1)): '{"field":"generic","terms":[[1,{"num":{"terms":[[-9,"-2"]]}}],[3,{"num":{"terms":[[-9,"1"]]}}]]}',
    ('generic', (4, 1, 1)): '{"field":"generic","terms":[[1,{"num":{"terms":[[-5,"3"],[3,"-1"]]}}],[3,{"num":{"terms":[[-5,"-4"]]}}],[5,{"num":{"terms":[[-5,"1"]]}}]]}',
    ('generic', (0, 1, 2)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-6,"1"],[-2,"-1"],[2,"-1"],[6,"1"]]}}],[2,{"num":{"terms":[[-6,"-1"],[6,"-1"]]}}]]}',
    ('generic', (0, -1, 2)): '{"field":"generic","terms":[[0,{"num":{"terms":[[-6,"1"],[-2,"-1"],[2,"-1"],[6,"1"]]}}],[2,{"num":{"terms":[[-6,"-1"],[6,"-1"]]}}]]}',
    ('zeta:5', (1, 1, 2)): '{"field":"zeta:5","terms":[[1,{"coeffs":["1","-2","0","1"],"n":5}],[3,{"coeffs":["0","1","0","0"],"n":5}]]}',
    ('zeta:5', (1, -1, 2)): '{"field":"zeta:5","terms":[[1,{"coeffs":["3","2","3","2"],"n":5}],[3,{"coeffs":["-1","-1","-1","-1"],"n":5}]]}',
    ('zeta:5', (1, 2, 3)): '{"field":"zeta:5","terms":[[0,{"coeffs":["-1","-2","2","1"],"n":5}],[2,{"coeffs":["1","2","0","-3"],"n":5}],[4,{"coeffs":["0","0","0","1"],"n":5}]]}',
    ('zeta:5', (2, 1, 2)): '{"field":"zeta:5","terms":[[0,{"coeffs":["2","1","2","0"],"n":5}],[2,{"coeffs":["-4","-1","-1","-1"],"n":5}],[4,{"coeffs":["1","0","0","0"],"n":5}]]}',
    ('zeta:5', (2, -1, 2)): '{"field":"zeta:5","terms":[[0,{"coeffs":["1","-1","-1","1"],"n":5}],[2,{"coeffs":["-3","1","0","0"],"n":5}],[4,{"coeffs":["1","0","0","0"],"n":5}]]}',
    ('zeta:5', (3, 1, 1)): '{"field":"zeta:5","terms":[[0,{"coeffs":["1","2","1","1"],"n":5}],[2,{"coeffs":["0","-3","0","0"],"n":5}],[4,{"coeffs":["0","1","0","0"],"n":5}]]}',
    ('zeta:5', (3, 2, 1)): '{"field":"zeta:5","terms":[[0,{"coeffs":["0","0","1","-1"],"n":5}],[2,{"coeffs":["0","0","-3","0"],"n":5}],[4,{"coeffs":["0","0","1","0"],"n":5}]]}',
    ('zeta:5', (3, -2, 1)): '{"field":"zeta:5","terms":[[0,{"coeffs":["0","0","-1","1"],"n":5}],[2,{"coeffs":["0","0","0","-3"],"n":5}],[4,{"coeffs":["0","0","0","1"],"n":5}]]}',
    ('zeta:5', (2, 3, 1)): '{"field":"zeta:5","terms":[[1,{"coeffs":["0","-2","0","0"],"n":5}],[3,{"coeffs":["0","1","0","0"],"n":5}]]}',
    ('zeta:5', (4, 1, 1)): '{"field":"zeta:5","terms":[[1,{"coeffs":["3","0","0","-1"],"n":5}],[3,{"coeffs":["-4","0","0","0"],"n":5}],[5,{"coeffs":["1","0","0","0"],"n":5}]]}',
    ('zeta:5', (0, 1, 2)): '{"field":"zeta:5","terms":[[0,{"coeffs":["-1","0","-2","-2"],"n":5}],[2,{"coeffs":["1","0","1","1"],"n":5}]]}',
    ('zeta:5', (0, -1, 2)): '{"field":"zeta:5","terms":[[0,{"coeffs":["-1","0","-2","-2"],"n":5}],[2,{"coeffs":["1","0","1","1"],"n":5}]]}',
    ('rationals(q=-1)', (1, 1, 2)): '{"field":"rationals(q=-1)","terms":[[3,"1"]]}',
    ('rationals(q=-1)', (1, -1, 2)): '{"field":"rationals(q=-1)","terms":[[3,"1"]]}',
    ('rationals(q=-1)', (1, 2, 3)): '{"field":"rationals(q=-1)","terms":[[4,"1"]]}',
    ('rationals(q=-1)', (2, 1, 2)): '{"field":"rationals(q=-1)","terms":[[2,"2"],[4,"-1"]]}',
    ('rationals(q=-1)', (2, -1, 2)): '{"field":"rationals(q=-1)","terms":[[2,"2"],[4,"-1"]]}',
    ('rationals(q=-1)', (3, 1, 1)): '{"field":"rationals(q=-1)","terms":[[2,"-3"],[4,"1"]]}',
    ('rationals(q=-1)', (3, 2, 1)): '{"field":"rationals(q=-1)","terms":[[2,"-3"],[4,"1"]]}',
    ('rationals(q=-1)', (3, -2, 1)): '{"field":"rationals(q=-1)","terms":[[2,"-3"],[4,"1"]]}',
    ('rationals(q=-1)', (2, 3, 1)): '{"field":"rationals(q=-1)","terms":[[1,"2"],[3,"-1"]]}',
    ('rationals(q=-1)', (4, 1, 1)): '{"field":"rationals(q=-1)","terms":[[1,"-2"],[3,"4"],[5,"-1"]]}',
    ('rationals(q=-1)', (0, 1, 2)): '{"field":"rationals(q=-1)","terms":[[2,"-2"]]}',
    ('rationals(q=-1)', (0, -1, 2)): '{"field":"rationals(q=-1)","terms":[[2,"-2"]]}',
}


@pytest.mark.parametrize("tag", ["generic", "zeta:5", "rationals(q=-1)"])
def test_pushed_curve_brackets_are_pinned(tag):
    field = field_from_tag(tag)
    for (t, pqk), expected in PINNED_BRACKETS.items():
        if t == tag:
            value = bracket_annulus(pushed_curve_with_cores(*pqk), field)
            assert canonical_dumps(value.to_json()) == expected, pqk

def test_resolution_order_independence_corpus():
    # frontier engine against the exhaustive state sum, disk and annulus
    from skeinlab.acceptance import diagram_corpus

    corpus = diagram_corpus()
    assert len(corpus) >= 30
    assert all(len(d.crossings) <= 8 for d in corpus)
    for d in corpus:
        if d.surface == DISK:
            assert bracket_disk(d, F) == state_sum(d, F).coeffs.get(0, F.zero())
        else:
            assert bracket_annulus(d, F) == state_sum(d, F)


def _pairings(slots):
    """Every way of joining ``slots`` two by two."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, other in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield [(first, other), *tail]


def test_every_small_annulus_code_matches_state_sum():
    # every PD code on 1 or 2 crossings (each pairing of the 4c slots into 2c
    # arcs) with every pattern of winding-mark parities: codes and marks that
    # no constructor emits, in both crossing orders
    count = 0
    for c in (1, 2):
        for pairing in _pairings(list(range(4 * c))):
            label = {}
            for arc, (s, t) in enumerate(pairing):
                label[s] = label[t] = arc
            crossings = [tuple(label[4 * i + j] for j in range(4)) for i in range(c)]
            for bits in itertools.product((0, 1), repeat=2 * c):
                marks = {arc: b for arc, b in enumerate(bits) if b}
                d = FramedDiagram(ANNULUS, crossings, winding_marks=marks)
                rev = FramedDiagram(ANNULUS, crossings[::-1], winding_marks=marks)
                value = bracket_annulus(d, F)
                assert value == state_sum(d, F), (crossings, marks)
                assert value == bracket_annulus(rev, F), (crossings, marks)
                count += 1
    assert count == 1692


def test_reidemeister_two_three_invariance():
    rii_a = braid_closure([1, 2, -1], 3)
    rii_b = braid_closure([1, 2, -1, 2, -2], 3)
    assert bracket_disk(rii_a, F) == bracket_disk(rii_b, F)
    riii_a = braid_closure([1, 2, 1], 3)
    riii_b = braid_closure([2, 1, 2], 3)
    assert bracket_disk(riii_a, F) == bracket_disk(riii_b, F)
    # annulus versions
    assert bracket_annulus(braid_closure([1, -1], 2, ANNULUS), F) == bracket_annulus(
        braid_closure([], 2, ANNULUS), F
    )


def test_reidemeister_one_framing_change():
    base = braid_closure([1, 1], 2)
    pos = braid_closure([1, 1, 2], 3)  # positive Markov stabilization
    neg = braid_closure([1, 1, -2], 3)
    assert bracket_disk(pos, F) == bracket_disk(base, F) * (-q(3))
    assert bracket_disk(neg, F) == bracket_disk(base, F) * (-q(-3))


def test_disk_agrees_with_annulus_away_from_core():
    for word, strands in ([1, 1, 1], 2), ([1, -2, 1, -2], 3):
        disk_val = bracket_disk(braid_closure(word, strands), F)
        ann = braid_closure(word, strands, ANNULUS)
        ann = FramedDiagram(ANNULUS, ann.crossings, ann.free_loops, 0, {})  # clear winding
        assert bracket_annulus(ann, F) == AnnulusSkein.z_power(F, 0, disk_val)


def test_bracket_at_root_of_unity():
    d = braid_closure([1, 1, 1], 2)
    z5 = ZetaField(5)
    from skeinlab.coeffs import specialize_scalar

    generic = bracket_disk(d, F)
    assert bracket_disk(d, z5) == specialize_scalar(generic.num, z5)


def test_diagram_json_round_trip():
    d = pushed_curve_with_cores(2, 1, 1)
    d2 = FramedDiagram.from_json(d.to_json())
    assert d2.crossings == d.crossings
    assert d2.winding_marks == d.winding_marks
    assert bracket_annulus(d2, F) == bracket_annulus(d, F)

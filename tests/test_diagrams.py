import pytest

from skeinlab.braids import braid_closure
from skeinlab.coeffs import GenericQ, ZetaField
from skeinlab.diagrams import (
    ANNULUS,
    DISK,
    AnnulusSkein,
    FramedDiagram,
    bracket_annulus,
    bracket_disk,
    pushed_curve_with_cores,
)
from skeinlab.errors import DiagramError
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


@pytest.mark.parametrize("pqk", [(2, 1, 0), (3, 1, 0), (3, 2, 0), (1, 1, 1), (1, 2, 1), (2, -1, 1), (0, -1, 2)])
def test_pushed_curves_match_oracle(pqk):
    p, q_, k = pqk
    d = pushed_curve_with_cores(p, q_, k)
    assert bracket_annulus(d, F) == state_sum(d, F)


def test_resolution_order_independence_corpus():
    # memoized engine against the exhaustive state sum, disk and annulus
    from skeinlab.acceptance import diagram_corpus

    corpus = diagram_corpus()
    assert len(corpus) >= 30
    assert all(len(d.crossings) <= 8 for d in corpus)
    for d in corpus:
        if d.surface == DISK:
            assert bracket_disk(d, F) == state_sum(d, F).coeffs.get(0, F.zero())
        else:
            assert bracket_annulus(d, F) == state_sum(d, F)


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

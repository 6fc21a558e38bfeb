import itertools
import math
import os

import pytest

from skeinlab import heegaard
from skeinlab.coeffs import CyclotomicScalar, GenericQ, RationalFunction, ZetaField, field_from_tag
from skeinlab.errors import SkeinError, StabilizationError
from skeinlab.heegaard import GluingMatrix, dim_K_q, lens_module
from skeinlab.linalg import Echelon

F = GenericQ()


def _recorded_echelons(monkeypatch, base=Echelon):
    """The list of every echelon ``heegaard`` makes from now on, as ``base``."""
    made = []

    class Recording(base):
        def __init__(self, field):
            super().__init__(field)
            made.append(self)

    monkeypatch.setattr(heegaard, "Echelon", Recording)
    return made


def test_gluing_matrix_validation():
    with pytest.raises(SkeinError):
        GluingMatrix((2, 0), (0, 2))
    with pytest.raises(SkeinError):
        GluingMatrix.lens(4, 2)
    g = GluingMatrix.lens(5, 1)
    p, q = g.meridian
    r, s = g.longitude
    assert (p, q) == (5, 1) and p * s - q * r == 1


def test_lens_gluing_has_determinant_one_for_every_sign_of_q():
    for p in range(1, 9):
        for q in range(-2 * p, 2 * p + 1):
            if math.gcd(p, q) != 1:
                continue
            g = GluingMatrix.lens(p, q)
            (a, b), (r, s) = g.meridian, g.longitude
            assert (a, b) == (p, q) and a * s - b * r == 1, (p, q)


def test_s3_dimension_one_everywhere():
    for field in (F, ZetaField(2), ZetaField(3), ZetaField(7), ZetaField(10)):
        rep = lens_module(1, 0, field)
        assert rep.stabilized and rep.dimension == 1, rep


def test_rp3():
    rep = lens_module(2, 1, F)
    assert rep.stabilized and rep.dimension == 2


def test_small_lens_dims():
    assert dim_K_q(3, 1) == 2
    assert dim_K_q(4, 1) == 3
    assert dim_K_q(5, 1) == 3


def test_s1_times_s2():
    assert dim_K_q(0, 1) == 1


def test_report_shape():
    rep = lens_module(2, 1, F)
    data = rep.to_json()
    assert data["p"] == 2 and data["stabilized"] is True
    assert len(data["dims_by_truncation"]) == 3
    assert len(data["basis"]) == rep.dimension
    assert rep.dims[rep.truncation] == rep.dimension


def test_unstable_flag_is_honest():
    # truncation 0 is too small for L(7,1): the three windows disagree, and
    # the flag and dims must say so
    rep = lens_module(7, 1, F, truncation=0)
    assert rep.stabilized is False
    assert rep.dims == {0: 1, 1: 3, 2: 4}
    assert rep.dimension == 1 and "NOT STABLE" in repr(rep)


def test_stabilization_error_when_budget_exhausted():
    # the first window of L(7,1) is 9: a budget of 3 tries no window at all,
    # so it is bad input, not a failure to stabilize
    with pytest.raises(SkeinError, match="first window 9") as info:
        dim_K_q(7, 1, max_truncation=3)
    assert not isinstance(info.value, StabilizationError)


def test_stabilization_error_reports_the_windows_it_tried(monkeypatch):
    # no small lens space has disagreeing windows at the start, so stub the
    # elimination with windows whose dimensions never agree
    def disagreeing(gluing, field, start):
        for M in itertools.count(start):
            yield M, M, []

    monkeypatch.setattr(heegaard, "_windows", disagreeing)
    with pytest.raises(StabilizationError, match="by truncation 6") as info:
        dim_K_q(3, 1, max_truncation=6)
    assert info.value.dims_by_truncation == {5: 5, 6: 6, 7: 7, 8: 8}


def test_lens_at_root_of_unity():
    # at zeta_3 the RP^3 dimension need not match the generic one, but the
    # pipeline must still stabilize
    rep = lens_module(2, 1, ZetaField(3))
    assert rep.stabilized
    assert rep.dimension >= 1


def test_no_persistent_state(tmp_path, monkeypatch):
    # the action is computed in memory: a lens computation leaves no file behind
    monkeypatch.chdir(tmp_path)
    rep = lens_module(3, 1, GenericQ())
    assert rep.stabilized and rep.dimension == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "p, q, tag",
    [
        (2, 1, "generic"),
        (3, 1, "generic"),
        (4, 1, "generic"),
        (5, 2, "generic"),
        (3, 1, "zeta:5"),
        (1, 0, "zeta:3"),
        (2, 1, "rationals(q=-1)"),
    ],
)
def test_incremental_windows_match_fresh_eliminations(p, q, tag):
    # one pass grows a single elimination; each window must give the
    # dimension and basis of an elimination of that window alone
    field = field_from_tag(tag)
    gluing = GluingMatrix.lens(p, q)
    start = max(abs(p) + 2, 4)
    one_pass = list(itertools.islice(heegaard._windows(gluing, field, start), 3))
    assert [M for M, _, _ in one_pass] == [start, start + 1, start + 2]
    for M, dim, basis in one_pass:
        fresh = next(heegaard._windows(gluing, field, M))
        assert fresh == (M, dim, basis)
        assert dim == len(basis)


class _OperatorEchelon(Echelon):
    """The field elimination with the plain operator step ``v - w*c`` in place
    of the scalars' fused ``sub_mul``."""

    def _subtract(self, row, piv, c, lead):
        for k, w in piv.items():
            if k != lead:
                nv = row[k] - w * c if k in row else -(w * c)
                if nv:
                    row[k] = nv
                else:
                    del row[k]


def _coeff_types(x):
    # the types of a scalar's coefficients, by exponent for Q(q)
    if isinstance(x, RationalFunction):
        return tuple(tuple(type(part.terms[e]) for e in sorted(part.terms)) for part in (x.num, x.den))
    return tuple(map(type, getattr(x, "coeffs", (x,))))


def _typed_pivots(ech):
    # each stored entry with the types of its coefficients
    return {k: {key: (x, _coeff_types(x)) for key, x in row.items()} for k, row in ech.pivots.items()}


@pytest.mark.parametrize("tag", ["generic", "zeta:3", "zeta:5", "zeta:7", "rationals(q=-1)"])
@pytest.mark.parametrize("p, q", [(3, 1), (5, 2), (7, 3)])
def test_fused_elimination_step_matches_the_operator_step(p, q, tag, monkeypatch):
    # the oracle is the same elimination, stepping with the scalar operators
    field = field_from_tag(tag)
    gluing = GluingMatrix.lens(p, q)
    start = max(abs(p) + 2, 4)
    steps = []
    for scalar in (CyclotomicScalar, RationalFunction):
        fused = scalar.sub_mul
        step = staticmethod(lambda *args, scalar=scalar, fused=fused: steps.append(scalar) or fused(*args))
        monkeypatch.setattr(scalar, "sub_mul", step)
    runs = []
    for base in (Echelon, _OperatorEchelon):
        made = _recorded_echelons(monkeypatch, base)
        windows = list(itertools.islice(heegaard._windows(gluing, field, start), 3))
        runs.append((windows, [_typed_pivots(ech) for ech in made]))
    assert len(runs[0][1]) == 4
    assert runs[0] == runs[1]
    # Q(q) and Q(zeta_n) rows took their scalars' fused step; Fraction has none
    assert set(steps) == {"generic": {RationalFunction}, "rationals(q=-1)": set()}.get(tag, {CyclotomicScalar})


@pytest.mark.parametrize("p, q, tag", [(3, 1, "zeta:5"), (4, 1, "rationals(q=-1)"), (5, 2, "generic")])
def test_no_stored_tail_holds_a_unit_pivot_key(p, q, tag, monkeypatch):
    # the echelons stay reduced against their unit pivots, which over a field
    # are all of them; the test copies of the windows included
    made = _recorded_echelons(monkeypatch)
    lens_module(p, q, field_from_tag(tag))
    assert len(made) == 4
    for ech in made:
        one = ech.field.one()
        units = {k for k, row in ech.pivots.items() if row[k] == one}
        assert len(units) == ech.rank()
        assert units and all(units.isdisjoint(set(row) - {k}) for k, row in ech.pivots.items())


@pytest.mark.parametrize(
    "run",
    [lambda: lens_module(3, 1, F), lambda: dim_K_q(5, 2), lambda: dim_K_q(7, 3)],
    ids=["L(3,1)", "dim_K_q(5,2)", "dim_K_q(7,3)"],
)
def test_no_stored_one_entry_row_has_a_non_unit_entry(run, monkeypatch):
    # over Q(q) every stored row, a one-entry row {k: a} included, has lead
    # one and holds no other pivot key, also on the dim_K_q walks of L(5,2)
    # and L(7,3), whose eliminations divide by non-unit leads
    made = _recorded_echelons(monkeypatch)
    run()
    assert len(made) == 4
    one = F.one()
    for ech in made:
        assert all(row[k] == one for k, row in ech.pivots.items())
        assert all(set(ech.pivots).isdisjoint(set(row) - {k}) for k, row in ech.pivots.items())


_COPRIME_LENS_LABELS = [(p, q) for p in range(8) for q in range(-p, p + 1) if math.gcd(p, q) == 1]


@pytest.mark.parametrize("p, q", _COPRIME_LENS_LABELS)
def test_generic_lens_reports_have_the_hoste_przytycki_rank(p, q):
    # K(L(p,q)) is free of rank floor(p/2) + 1 (Hoste-Przytycki), on the
    # classes zH^0*zB^j; the fraction-free Laurent elimination, an
    # independent path, printed exactly these reports, all three windows agreeing
    N, dim = max(p + 2, 4), p // 2 + 1
    assert lens_module(p, q, F).to_json() == {
        "p": p, "q": q, "field": "generic", "truncation": N, "dimension": dim, "stabilized": True,
        "basis": [f"zH^0*zB^{j}" for j in range(dim)], "dims_by_truncation": {str(M): dim for M in (N, N + 1, N + 2)},
    }


def test_lens_reports_are_pinned():
    # printed when every generic step still cross-multiplied, before unit-lead pivots
    assert lens_module(5, 2, F).to_json() == {
        "p": 5, "q": 2, "field": "generic", "truncation": 7, "dimension": 3, "stabilized": True,
        "basis": ["zH^0*zB^0", "zH^0*zB^1", "zH^0*zB^2"], "dims_by_truncation": {"7": 3, "8": 3, "9": 3},
    }
    # printed before the action columns became images of one Z[q, q^-1] set
    for tag in ("rationals(q=1)", "rationals(q=-1)", "zeta:10", "zeta:15"):
        assert lens_module(5, 2, field_from_tag(tag)).to_json() == {
            "p": 5, "q": 2, "field": tag, "truncation": 7, "dimension": 3, "stabilized": True,
            "basis": ["zH^0*zB^0", "zH^0*zB^1", "zH^0*zB^2"], "dims_by_truncation": {"7": 3, "8": 3, "9": 3},
        }
    for tag in ("generic", "zeta:5", "rationals(q=-1)", "rationals(q=1)", "zeta:10", "zeta:15"):
        assert lens_module(3, 1, field_from_tag(tag)).to_json() == {
            "p": 3, "q": 1, "field": tag, "truncation": 5, "dimension": 2, "stabilized": True,
            "basis": ["zH^0*zB^0", "zH^0*zB^1"], "dims_by_truncation": {"5": 2, "6": 2, "7": 2},
        }
    # S^3 where phi(n) is 1 or 2 and every scalar step is shortest
    for tag in ("zeta:2", "zeta:3", "zeta:6"):
        assert lens_module(1, 0, field_from_tag(tag)).to_json() == {
            "p": 1, "q": 0, "field": tag, "truncation": 4, "dimension": 1, "stabilized": True,
            "basis": ["zH^0*zB^0"], "dims_by_truncation": {"4": 1, "5": 1, "6": 1},
        }


def test_echelon_copy_leaves_original_untouched():
    ech = Echelon(F)
    one = F.one()
    assert ech.insert({(0, 0): one, (1, 0): F.q_power(2)})
    assert ech.insert({(0, 1): one})
    before = {k: dict(v) for k, v in ech.pivots.items()}
    twin = ech.copy()
    assert twin.insert({(1, 1): one, (0, 0): F.q_power(-1)})
    # reduces against a pivot row the two echelons share, to the new pivot
    # key (0, 0), which the twin then clears from every tail
    assert twin.insert({(1, 0): one})
    assert twin.rank() == 4
    assert all(row == {k: one} for k, row in twin.pivots.items())
    assert ech.rank() == 2 and ech.pivots == before


@pytest.mark.parametrize("tag", ["generic", "zeta:5", "rationals(q=-1)"])
def test_first_window_is_spanned_by_the_h_side_classes_below_p(tag, monkeypatch):
    # the (p,q) rows have unit leads +-q^e on S_{i+p}, so every S_m (x) S_j
    # reduces to m < p, and the B-side longitude brings j down to 0: with the
    # classes S_m (x) S_0, m < p, every class of the window is in the span
    field = field_from_tag(tag)
    for p in range(2, 8):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            made = _recorded_echelons(monkeypatch)
            M, _, _ = next(heegaard._windows(GluingMatrix.lens(p, q), field, max(p + 2, 4)))
            ech = made[0]  # the relation rows; the class test ran on a copy
            one = field.one()
            for m in range(p):
                ech.insert({(0, m): one})
            assert not any(ech.insert({(j, i): one}) for i in range(M + 1) for j in range(M + 1)), (p, q)

from fractions import Fraction

import pytest

from skeinlab.chebyshev import thread_annulus
from skeinlab.coeffs import GenericQ, Rationals, ZetaField, root_spec, specialize_scalar
from skeinlab.diagrams import AnnulusSkein
from skeinlab.errors import FieldMismatchError
from skeinlab.solidtorus import (
    ActionCache,
    act,
    action_cache,
    diagram_columns,
    s_column,
    s_in_z,
    z_in_s,
)
from skeinlab.torus import TorusSkein, thread_torus, torus_mul
from skeinlab.upoly import collect

F = GenericQ()


def q(e):
    return F.q_power(e)


def z(k, coeff=None):
    return AnnulusSkein.z_power(F, k, coeff)


def curve(p, qq, field=F):
    return TorusSkein.curve(field, p, qq)


def test_longitude_is_shift():
    columns = action_cache(F).columns(1, 0, 5)
    for k in range(6):
        assert columns[k] == z(k + 1)
    assert act(curve(1, 0), z(2)) == z(3)


def test_meridian_on_low_degrees():
    assert act(curve(0, 1), z(0)) == z(0, F.delta())
    assert act(curve(0, 1), z(1)) == z(1, -q(4) - q(-4))
    # on z^2 the turnback smoothings contribute a z^0 term: the action is
    # triangular in the z basis, with the expected eigenvalue on the diagonal
    got = act(curve(0, 1), z(2))
    assert got == z(2, -q(6) - q(-6)) + z(0, q(6) - q(2) - q(-2) + q(-6))
    from skeinlab.oracle import state_sum
    from skeinlab.diagrams import pushed_curve_with_cores

    assert got == state_sum(pushed_curve_with_cores(0, 1, 2), F)


def test_meridian_triangular_with_eigenvalue_diagonal():
    # checked, not assumed: the matrix is lower-triangular in powers of z and
    # the coefficient on z^k is -q^(2(k+1)) - q^(-2(k+1)), up to k = 8
    columns = action_cache(F).columns(0, 1, 8)
    for k in range(9):
        col = columns[k]
        assert col.degree() == k
        assert col.coeffs[k] == -q(2 * (k + 1)) - q(-2 * (k + 1))
        assert all(d <= k and (k - d) % 2 == 0 for d in col.coeffs)


def test_unit_acts_as_identity():
    v = AnnulusSkein(F, {0: q(2), 3: F.one()})
    assert act(TorusSkein.empty(F), v) == v


def test_non_primitive_label_uses_chebyshev():
    # (2,0) = T_2 of the shift: z^k -> z^(k+2) - 2 z^k... i.e. M^2 - 2
    got = act(curve(2, 0), z(3))
    assert got == z(5) - z(3, F.from_int(2))
    # (0,2) = T_2 of the meridian: diagonal with T_2(lambda_k)
    got = act(curve(0, 2), z(1))
    lam = -q(4) - q(-4)
    assert got == z(1, lam * lam - 2)


def test_module_homomorphism_small_sample():
    for field in (F, ZetaField(5)):
        for la, lb in (((1, 0), (0, 1)), ((1, 1), (1, -1)), ((0, 1), (1, 1))):
            a, b = curve(*la, field), curve(*lb, field)
            for k in (0, 1, 3):
                v = AnnulusSkein.z_power(field, k)
                assert act(torus_mul(a, b), v) == act(a, act(b, v))


def test_threading_naturality():
    # tau commutes with the module action: thread the curve and the skein,
    # or act first and thread the result
    spec = root_spec(6)  # m = 3
    eps = Rationals(Fraction(spec.epsilon))
    zeta = ZetaField(6)
    for k in range(5):
        acted_eps = act(curve(0, 1, eps), AnnulusSkein.z_power(eps, k))
        rhs = thread_annulus(
            AnnulusSkein(zeta, {d: zeta.from_fraction(c) for d, c in acted_eps.coeffs.items()}),
            spec.m,
        )
        lhs = act(
            thread_torus(curve(0, 1, eps), spec),
            thread_annulus(AnnulusSkein.z_power(zeta, k), spec.m),
        )
        assert lhs == rhs


def test_columns_match_diagram_oracle():
    # labels beyond the acceptance grid; q = -1 makes the larger diagrams cheap
    cases = [(field, label, 3) for field in (F, ZetaField(7))
             for label in ((3, 1), (3, 2), (3, -2), (1, 3))]
    cases += [(Rationals(value), label, 2) for value in (-1, 1) for label in ((2, 3), (4, -3))]
    for field, label, upto in cases:
        oracle = diagram_columns(*label, upto, field)
        for k, column in enumerate(oracle):
            got = act(curve(*label, field), AnnulusSkein.z_power(field, k))
            assert got == column, (field.tag, label, k)
    # the in-memory memo extends on demand and keeps earlier columns
    cache = ActionCache(F)
    first = list(cache.columns(1, 1, 3))
    assert cache.columns(1, 1, 5)[:4] == first == diagram_columns(1, 1, 3, F)


def test_specialized_matrix_agrees_with_specialization():
    z5 = ZetaField(5)
    gen = action_cache(F).columns(1, 1, 4)[:5]
    spec = action_cache(z5).columns(1, 1, 4)[:5]
    for col_g, col_z in zip(gen, spec):
        mapped = {k: specialize_scalar(v, z5) for k, v in col_g.coeffs.items()}
        assert {k: v for k, v in mapped.items() if v} == col_z.coeffs


def test_act_across_fields_is_rejected():
    zeta = ZetaField(5)
    with pytest.raises(FieldMismatchError):
        act(curve(1, 0), AnnulusSkein.z_power(zeta, 2))
    with pytest.raises(FieldMismatchError):
        act(curve(0, 1, zeta), z(1))


def test_each_field_memo_gives_the_same_columns_whichever_field_asks_first():
    # fresh memos, filled in both orders; each extends on demand and keeps
    # the columns it already holds
    labels = ((3, 1), (0, 1), (1, 0), (2, -1))

    def fill(fields):
        caches = [ActionCache(field) for field in fields]
        for cache in caches:
            for label in labels:
                held = []
                for upto in (3, 6, 2):  # extend, then reuse
                    cols = cache.columns(*label, upto)
                    assert len(cols) > upto and all(a is b for a, b in zip(held, cols))
                    held = list(cols)
        return {(cache.field.tag, label): cache.columns(*label, 6) for cache in caches for label in labels}

    zeta_first = fill([ZetaField(5), F])
    generic_first = fill([F, ZetaField(5)])
    assert zeta_first == generic_first
    # the zeta:5 columns are the generic ones mapped entry by entry
    for label in labels:
        for col_g, col_z in zip(zeta_first[("generic", label)], zeta_first[("zeta:5", label)]):
            mapped = {k: specialize_scalar(v, ZetaField(5)) for k, v in col_g.coeffs.items()}
            assert {k: v for k, v in mapped.items() if v} == col_z.coeffs


def _in_s_basis(column):
    """A z-basis skein moved to the S-basis: {m: scalar} without zeros."""
    return collect((m, x * c) for d, x in column.coeffs.items() for m, c in z_in_s(d))


def test_two_term_formula_matches_the_diagram_oracle_on_the_s_basis():
    # labels outside criterion 6's grid; (p,r).S_k is the sum of the
    # diagram columns (p,r).z^d over the z^d in S_k
    for field in (F, ZetaField(7)):
        for label in ((3, 1), (3, -2), (4, 1), (5, 2)):
            oracle = [_in_s_basis(column) for column in diagram_columns(*label, 6, field)]
            for k in range(7):
                acted = collect((m, x * c) for d, c in s_in_z(k) for m, x in oracle[d].items())
                assert s_column(field, *label, k) == acted, (field.tag, label, k)


def test_change_of_basis_matrices_are_inverse():
    for k in range(21):
        assert collect((d, c * x) for m, c in z_in_s(k) for d, x in s_in_z(m)) == {k: 1}
        assert collect((m, c * x) for d, c in s_in_z(k) for m, x in z_in_s(d)) == {k: 1}


def test_s_columns_on_negative_indices_and_the_meridian():
    # S_{-1} = 0 and S_{-m} = -S_{m-2}; the meridian is diagonal
    one = F.one()
    assert s_column(F, 3, 0, 1) == {4: one, 0: -one}
    assert s_column(F, 3, 0, 2) == {5: one}
    assert s_column(F, 3, 1, 1) == {4: -q(-7), 0: q(1)}
    for k in range(6):
        assert s_column(F, 0, 1, k) == {k: -q(2 * k + 2) - q(-2 * k - 2)}
        assert s_column(F, 1, 0, k) == {k + 1: F.one(), **({k - 1: F.one()} if k else {})}


def test_a_unit_curve_returns_the_cached_column():
    for field in (F, ZetaField(5), Rationals(Fraction(-1))):
        v = AnnulusSkein.z_power(field, 3)
        assert act(curve(3, 1, field), v) is action_cache(field).columns(3, 1, 3)[3]
        # a scaled curve gets a scaled copy
        two = field.from_int(2)
        got = act(TorusSkein.curve(field, 3, 1, two), v)
        assert got == action_cache(field).columns(3, 1, 3)[3].scale(two)
        assert got.coeffs is not action_cache(field).columns(3, 1, 3)[3].coeffs

"""The Kauffman bracket skein algebra of the torus on its threaded curve basis.

Basis labels are unoriented slopes (p,q) up to sign, normalized to p > 0 or
(p = 0, q >= 0). The label (p,q) with d = gcd(p,q) stands for the d-th
first-type Chebyshev threading of the primitive (p/d, q/d) curve; the key
(0,0) is the class of the empty link, which is the unit. Multiplication is
the product-to-sum rule

    (p,q) * (r,s) = q^(ps-qr) (p+r, q+s) + q^(qr-ps) (p-r, q-s)

with (0,0) on the right-hand side meaning 2 * (empty). The rule is validated
against the diagrammatic solid-torus action, never assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import Combination, Rationals, RootSpec, ZetaField
from .errors import SkeinError


def normalize_label(p: int, q: int) -> tuple[int, int]:
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


class TorusSkein(Combination):
    """Finite combination of threaded (p,q) basis classes over a field."""

    __slots__ = ()

    @staticmethod
    def _key(label):
        p, q = label
        if type(p) is not int or type(q) is not int:
            raise ValueError(f"a curve label is a pair of integers, got {list(label)!r}")
        return normalize_label(p, q)

    @staticmethod
    def _key_str(label):
        return "empty" if label == (0, 0) else f"({label[0]},{label[1]})"

    @classmethod
    def empty(cls, field):
        """The empty link, the unit of the algebra."""
        return cls(field, {(0, 0): field.one()})

    @classmethod
    def curve(cls, field, p, q, coeff=None):
        return cls(field, {(p, q): field.one() if coeff is None else coeff})


def torus_mul(a: TorusSkein, b: TorusSkein) -> TorusSkein:
    """Bilinear extension of the product-to-sum rule; q is the field's unit."""
    a.check_field(b)
    field = a.field
    acc: dict[tuple[int, int], object] = {}

    def put(label, v):
        label = normalize_label(*label)
        cur = acc.get(label)
        acc[label] = v if cur is None else cur + v

    for (p, q), ca in a.coeffs.items():
        for (r, s), cb in b.coeffs.items():
            c = ca * cb
            if (p, q) == (0, 0):
                put((r, s), c)
                continue
            if (r, s) == (0, 0):
                put((p, q), c)
                continue
            det = p * s - q * r
            for label, coeff in (
                ((p + r, q + s), field.q_power(det) * c),
                ((p - r, q - s), field.q_power(-det) * c),
            ):
                if label == (0, 0):
                    put((0, 0), coeff * 2)  # T_d at d=0 is the constant 2
                else:
                    put(label, coeff)
    return a._new({k: v for k, v in acc.items() if v})


def commutator(a: TorusSkein, b: TorusSkein) -> TorusSkein:
    return torus_mul(a, b) - torus_mul(b, a)


def thread_torus(a: TorusSkein, spec: RootSpec) -> TorusSkein:
    """tau_m: the epsilon algebra into the center of the zeta_n algebra.

    Labels scale by m (Chebyshev composition T_m . T_d = T_{md}); rational
    coefficients embed into Q(zeta_n), with the scalar epsilon going to
    zeta^(m^2), which is the same number.
    """
    if not isinstance(a.field, Rationals):
        raise SkeinError("threading input must live over the epsilon algebra (rationals)")
    if a.field.q_value is not None and a.field.q_value != Fraction(spec.epsilon):
        raise SkeinError("input epsilon does not match the root spec")
    target = ZetaField(spec.n)
    m = spec.m
    return TorusSkein(target, {(p * m, q * m): target.from_fraction(v) for (p, q), v in a.coeffs.items()})


def is_central(a: TorusSkein, bound: int) -> bool:
    """Commutes with every normalized (r,s), |r|,|s| <= bound?"""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    field = a.field
    for r in range(0, bound + 1):
        s_range = range(0, bound + 1) if r == 0 else range(-bound, bound + 1)
        for s in s_range:
            if (r, s) == (0, 0):
                continue
            if commutator(a, TorusSkein.curve(field, r, s)):
                return False
    return True

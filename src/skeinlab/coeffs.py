"""Exact coefficient arithmetic: Laurent polynomials, rational functions in q,
cyclotomic fields Q(zeta_n), root-of-unity bookkeeping, and ``Combination``,
the finite linear combination over a field that the solid-torus and torus
skeins are built on.

Every scalar here is immutable and exact (arbitrary precision rationals, no
floats). Equality is coefficient-wise on canonical forms:

* ``LaurentPoly`` stores exponent -> nonzero coefficient,
* ``RationalFunction`` is reduced with a monic denominator whose lowest
  exponent is zero,
* ``CyclotomicScalar`` is always reduced mod the n-th cyclotomic polynomial.

A coefficient of a ``LaurentPoly`` or ``CyclotomicScalar`` is an ``int``
when it is integral and a ``Fraction`` otherwise, never a float. The skein
computations stay in Z[q, q^-1] and Z[zeta_n], where ``int`` arithmetic is
far cheaper than ``Fraction``.

The lens elimination spends its time on tiny scalars, so each operation
costs only what its inputs need. A ``CyclotomicScalar`` built by ``+``,
unary ``-`` or ``*`` skips the checking constructor (kept for outside input)
and re-canonicalises only when a ``Fraction`` is present. The inverse of a
unit +-zeta^e comes from the zeta-power table, not ``ext_gcd``. In Q(q), a
Laurent sum or product (denominator one) skips normalisation. The
elimination step ``sub_mul`` (v - w*c) builds its result in one accumulator,
dropping zeros and canonicalising once; ``RationalFunction.sub_mul`` takes the
Laurent step on the numerators when every operand has denominator one.

The chores these types share (sparse term sums, the signed-term text, the
operators derived from ``+`` and unary ``-``) live in ``upoly``. A
``CoeffField`` subclass defines ``from_fraction``, ``q_power`` and
``scalar_from_json``; the rest of a field comes from those and the scalars.
A generic scalar reaches a field through ``specialize_scalar``, which sums
``q_power(e) * c`` over its terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import upoly
from .errors import FieldMismatchError, FourDividesOrderError, SkeinError
from .upoly import DerivedOperators, add_terms, collect, frac_from_json, frac_str, int_from_json, power_text, signed_sum


def _canon(c):
    """``c`` as an ``int`` when it is integral, as a ``Fraction`` otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integral(terms):
    """``terms`` with every integral ``Fraction`` value turned into an ``int``."""
    if type(sum(terms.values())) is int:  # one Fraction value makes the sum a Fraction
        return terms
    return {e: _canon(c) for e, c in terms.items()}


class LaurentPoly(DerivedOperators):
    """Element of Q[q, q^-1]: exponent -> nonzero int or Fraction coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if isinstance(terms, dict):
            terms = terms.items()
        self.terms = _integral(collect((int(e), _canon(c)) for e, c in terms)) if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def from_fraction(cls, c):
        return cls({0: c})

    @classmethod
    def q_power(cls, e, coeff=1):
        return cls({int(e): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.from_fraction(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not LaurentPoly and isinstance(other, (int, Fraction)):
            other = LaurentPoly.from_fraction(other)
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = _integral(add_terms(self.terms, other.terms))
        return r

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __mul__(self, other):
        if type(other) is not LaurentPoly and isinstance(other, (int, Fraction)):
            c = _canon(other)
            if not c:
                return LaurentPoly()
            r = LaurentPoly.__new__(LaurentPoly)
            r.terms = _integral({e: x * c for e, x in self.terms.items()})
            return r
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = _integral(out)
        return r

    __rmul__ = __mul__

    @staticmethod
    def sub_mul(v, w, c):
        """``v - w * c``, ``v`` None for zero: the elimination step, summed in
        one accumulator."""
        out = dict(v.terms) if v is not None else {}
        get = out.get
        ws = w.terms.items()
        for e2, c2 in c.terms.items():
            for e1, c1 in ws:
                e = e1 + e2
                out[e] = get(e, 0) - c1 * c2
        if 0 in out.values():
            out = {e: x for e, x in out.items() if x}
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = _integral(out)
        return r

    def __pow__(self, k):
        return upoly.power(self, k, LaurentPoly.one())

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def max_exp(self):
        return max(self.terms) if self.terms else 0

    def shifted(self, k):
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e + k: c for e, c in self.terms.items()}
        return r

    def as_poly(self):
        """Dense ascending coefficients of q^(-min_exp) * self."""
        if not self.terms:
            return [], 0
        lo = self.min_exp()
        out = [0] * (self.max_exp() - lo + 1)
        for e, c in self.terms.items():
            out[e - lo] = c
        return out, lo

    @classmethod
    def from_poly(cls, coeffs, shift=0):
        return cls({i + shift: c for i, c in enumerate(coeffs) if c})

    def to_json(self):
        return {"terms": [[e, frac_str(c)] for e, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, data):
        return cls({int_from_json(e): frac_from_json(c) for e, c in data["terms"]})

    def __str__(self):
        return signed_sum((power_text("q", e), self.terms[e]) for e in sorted(self.terms, reverse=True))


class RationalFunction(DerivedOperators):
    """Element of Q(q), reduced, denominator monic with lowest exponent 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.from_fraction(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly.from_fraction(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = self._normalize(num, den)

    @staticmethod
    def _normalize(num: LaurentPoly, den: LaurentPoly):
        if not num:
            return LaurentPoly.zero(), LaurentPoly.one()
        if len(den.terms) == 1:
            # a monomial denominator is a unit: no gcd to take
            ((ld, lead),) = den.terms.items()
            num = num.shifted(-ld)
            return (num if lead == 1 else num * (1 / Fraction(lead))), LaurentPoly.one()
        pn, ln = num.as_poly()
        pd, ld = den.as_poly()
        g = upoly.gcd(pn, pd)
        if len(g) > 1:
            pn, _ = upoly.divmod(pn, g)
            pd, _ = upoly.divmod(pd, g)
        lead = pd[-1]
        if lead != 1:
            inv = 1 / Fraction(lead)
            pn = [c * inv for c in pn]
            pd = [c * inv for c in pd]
        # push the monomial mismatch into the numerator
        return LaurentPoly.from_poly(pn, ln - ld), LaurentPoly.from_poly(pd)

    def is_laurent(self):
        return self.den.terms == {0: 1}  # the denominator is monic with lowest exponent 0

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _laurent(self, num):
        """``num`` over this element's denominator, which is one: a Laurent
        result is already in normal form."""
        r = RationalFunction.__new__(RationalFunction)
        r.num, r.den = num, self.den
        return r

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction(other)
        if self.den.terms == other.den.terms == {0: 1}:
            return self._laurent(self.num + other.num)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        r = RationalFunction.__new__(RationalFunction)
        r.num, r.den = -self.num, self.den
        return r

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction(other)
        if self.den.terms == other.den.terms == {0: 1}:
            return self._laurent(self.num * other.num)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def sub_mul(v, w, c):
        """``v - w * c`` (``v`` None for zero): the elimination step. Over
        denominator one it is the Laurent step on the numerators."""
        if w.den.terms == c.den.terms == {0: 1} and (v is None or v.den.terms == {0: 1}):
            return w._laurent(LaurentPoly.sub_mul(None if v is None else v.num, w.num, c.num))
        return -(w * c) if v is None else v - w * c

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        return RationalFunction(self.den, self.num)

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return upoly.power(self, k, RationalFunction(1))

    def to_json(self):
        if self.is_laurent():
            return {"num": self.num.to_json()}
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        num = LaurentPoly.from_json(data["num"])
        den = LaurentPoly.from_json(data["den"]) if "den" in data else None
        return cls(num, den)

    def __str__(self):
        if self.is_laurent():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


# ---------------------------------------------------------------------------
# cyclotomic fields

_CYCLO_CACHE: dict[int, tuple[int, list[int], list[list[int]]]] = {}
# (n, e mod n) -> zeta_n^e; scalars are immutable, so callers share them
_ZETA_POWERS: dict[tuple[int, int], "CyclotomicScalar"] = {}


def cyclotomic_polynomial(n: int) -> list[int]:
    """Ascending coefficients of Phi_n, a monic polynomial over Z: x^n - 1
    divided by the product of the Phi_d, d a proper divisor of n, each of
    them built once and held by ``_cyclo_data``."""
    if n == 1:
        return [-1, 1]
    below = [1]
    for d in range(1, n):
        if n % d == 0:
            below = upoly.mul(below, _cyclo_data(d)[1])
    q, r = upoly.divmod([-1] + [0] * (n - 1) + [1], below)
    assert not r
    return [_canon(c) for c in q]


def _cyclo_data(n: int):
    data = _CYCLO_CACHE.get(n)
    if data is None:
        phi_n = cyclotomic_polynomial(n)
        data = (len(phi_n) - 1, phi_n, upoly.reduction_rows(phi_n))
        _CYCLO_CACHE[n] = data
    return data


class CyclotomicScalar(DerivedOperators):
    """Element of Q[q]/(Phi_n(q)), coefficients in the power basis 1..q^(phi(n)-1)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        deg, _, _ = _cyclo_data(n)
        c = [_canon(x) for x in coeffs]
        if len(c) > deg:
            raise ValueError("coefficient vector longer than phi(n)")
        c += [0] * (deg - len(c))
        self.n = n
        self.coeffs = tuple(c)

    @staticmethod
    def _new(n, coeffs):
        """The scalar with the phi(n) coefficients ``coeffs`` that arithmetic
        produced, built without the checks and padding of ``__init__``."""
        r = object.__new__(CyclotomicScalar)
        r.n = n
        # one Fraction makes the sum a Fraction
        r.coeffs = tuple(coeffs) if type(sum(coeffs)) is int else tuple(map(_canon, coeffs))
        return r

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    @classmethod
    def one(cls, n):
        return cls(n, [1])

    @classmethod
    def from_fraction(cls, n, c):
        return cls(n, [c])

    @classmethod
    def zeta_power(cls, n, e):
        key = (n, e % n)
        value = _ZETA_POWERS.get(key)
        if value is None:
            _, phi_n, _ = _cyclo_data(n)
            dense = [0] * key[1] + [1]
            _, r = upoly.divmod(dense, phi_n)
            value = _ZETA_POWERS[key] = cls(n, r)
        return value

    def _check(self, other):
        if self.n != other.n:
            raise SkeinError("mixing cyclotomic fields of different order")

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicScalar.from_fraction(self.n, other)
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __add__(self, other):
        if type(other) is not CyclotomicScalar and isinstance(other, (int, Fraction)):
            other = CyclotomicScalar.from_fraction(self.n, other)
        self._check(other)
        return CyclotomicScalar._new(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicScalar._new(self.n, [-a for a in self.coeffs])

    def __mul__(self, other):
        if type(other) is not CyclotomicScalar and isinstance(other, (int, Fraction)):
            return CyclotomicScalar._new(self.n, [a * other for a in self.coeffs])
        self._check(other)
        deg, _, rows = _cyclo_data(self.n)
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        out = prod[:deg]
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                row = rows[k - deg]
                for i in range(deg):
                    out[i] += c * row[i]
        return CyclotomicScalar._new(self.n, out)

    __rmul__ = __mul__

    @staticmethod
    def sub_mul(v, w, c):
        """``v - w * c`` (``v`` None for zero): the elimination step, with the
        convolution, the reduction mod Phi_n and the sum in one coefficient list."""
        deg, _, rows = _cyclo_data(w.n)
        acc = [*v.coeffs, *[0] * (deg - 1)] if v is not None else [0] * (2 * deg - 1)
        for i, a in enumerate(w.coeffs):
            if a:
                for j, b in enumerate(c.coeffs, i):
                    if b:
                        acc[j] -= a * b
        for k in range(deg, 2 * deg - 1):
            x = acc[k]
            if x:
                for i, y in enumerate(rows[k - deg]):
                    acc[i] += x * y
        return CyclotomicScalar._new(w.n, acc[:deg])

    def inv(self):
        if not self:
            raise ZeroDivisionError("inverting zero cyclotomic scalar")
        terms = [(e, c) for e, c in enumerate(self.coeffs) if c]
        if len(terms) == 1 and terms[0][1] in (1, -1):  # a unit +-zeta^e
            ((e, c),) = terms
            unit = CyclotomicScalar.zeta_power(self.n, -e)
            return unit if c == 1 else -unit
        _, phi_n, _ = _cyclo_data(self.n)
        a = upoly.trim(list(self.coeffs))
        g, u, _ = upoly.ext_gcd(a, phi_n)
        if len(g) != 1:
            raise SkeinError("non-invertible element; Phi_n should be irreducible")
        _, r = upoly.divmod(u, phi_n)  # g = [1]: ext_gcd makes it monic
        return CyclotomicScalar(self.n, r)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicScalar.from_fraction(self.n, other)
        return self * other.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return upoly.power(self, k, CyclotomicScalar.one(self.n))

    def as_fraction(self):
        """The rational value (an ``int`` when integral, else a ``Fraction``)
        when the element is rational; None otherwise."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def to_json(self):
        return {"n": self.n, "coeffs": [frac_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        return cls(int_from_json(data["n"]), [frac_from_json(c) for c in data["coeffs"]])

    def __str__(self):
        return signed_sum((power_text("z", e), c) for e, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"CyclotomicScalar(n={self.n}, {self})"


# ---------------------------------------------------------------------------
# root-of-unity bookkeeping


class RootSpec:
    """(n, m, epsilon) for a primitive n-th root of unity, 4 not dividing n."""

    __slots__ = ("n", "m", "epsilon")

    def __init__(self, n, m, epsilon):
        self.n = n
        self.m = m
        self.epsilon = epsilon

    def __eq__(self, other):
        return isinstance(other, RootSpec) and (self.n, self.m, self.epsilon) == (
            other.n,
            other.m,
            other.epsilon,
        )

    def __repr__(self):
        return f"RootSpec(n={self.n}, m={self.m}, epsilon={self.epsilon:+d})"


def root_spec(n: int) -> RootSpec:
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n % 4 == 0:
        raise FourDividesOrderError(f"four divides order {n}")
    m = n // math.gcd(n, 2)
    zeta_pow = CyclotomicScalar.zeta_power(n, (m * m) % n)
    eps = zeta_pow.as_fraction()
    if eps not in (Fraction(1), Fraction(-1)):
        raise SkeinError(f"epsilon is not a sign for n={n}; got {zeta_pow}")
    return RootSpec(n, m, 1 if eps == 1 else -1)


# ---------------------------------------------------------------------------
# coefficient fields


class CoeffField:
    """Factory/tag object for one exact coefficient field.

    Scalars themselves carry the arithmetic through operator overloading;
    the field supplies constants, inversion, parsing and JSON forms. A field
    defines its ``tag``, ``from_fraction`` (the scalar of a rational),
    ``q_power`` and ``scalar_from_json``; the constants come from
    ``from_fraction``, and inversion and JSON from the scalar's ``inv`` and
    ``to_json``.
    """

    tag: str

    def zero(self):
        return self.from_fraction(0)

    def one(self):
        return self.from_fraction(1)

    def from_int(self, c):
        return self.from_fraction(c)

    def delta(self):
        """Value of a trivial circle, -q^2 - q^-2."""
        return -(self.q_power(2) + self.q_power(-2))

    def inv(self, x):
        return x.inv()

    def scalar_to_json(self, x):
        return x.to_json()

    def __eq__(self, other):
        return isinstance(other, CoeffField) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"CoeffField({self.tag})"


class Rationals(CoeffField):
    """Plain rationals; optionally with q pinned to +1 or -1 (epsilon algebras)."""

    def __init__(self, q_value=None):
        if q_value is not None:
            q_value = Fraction(q_value)
            if q_value not in (Fraction(1), Fraction(-1)):
                raise ValueError("rational field only supports q = +1 or -1")
        self.q_value = q_value
        self.tag = "rationals" if q_value is None else f"rationals(q={q_value})"

    def from_fraction(self, c):
        return Fraction(c)

    def q_power(self, e):
        if self.q_value is None:
            raise SkeinError("this rational field has no value for q")
        return self.q_value**e

    def inv(self, x):
        return 1 / Fraction(x)

    def scalar_to_json(self, x):
        return frac_str(Fraction(x))

    def scalar_from_json(self, data):
        return frac_from_json(data)


class GenericQ(CoeffField):
    """The field Q(q) of rational functions in the bracket variable."""

    def __init__(self):
        self.tag = "generic"

    def from_fraction(self, c):
        return RationalFunction(c)

    def q_power(self, e):
        return RationalFunction(LaurentPoly.q_power(e))

    def scalar_from_json(self, data):
        return RationalFunction.from_json(data)


class ZetaField(CoeffField):
    """Q(zeta_n) with q acting as zeta_n; order must not be divisible by 4."""

    def __init__(self, n):
        self.spec = root_spec(n)
        self.n = n
        self.tag = f"zeta:{n}"

    def from_fraction(self, c):
        return CyclotomicScalar.from_fraction(self.n, c)

    def q_power(self, e):
        return CyclotomicScalar.zeta_power(self.n, e)

    def scalar_from_json(self, data):
        # read the order first: building Q(zeta_n) for a large wrong n is slow
        n = int_from_json(data["n"])
        if n != self.n:
            raise ValueError(f"a scalar of Q(zeta_{n}) in the field {self.tag}")
        return CyclotomicScalar.from_json(data)


def field_from_tag(tag: str) -> CoeffField:
    if tag in ("generic", "q"):
        return GenericQ()
    if tag == "rationals":
        return Rationals()
    if tag.startswith("rationals(q=") and tag.endswith(")"):
        try:
            value = Fraction(tag[len("rationals(q=") : -1])
        except (ValueError, ZeroDivisionError):  # "1/0" raises the latter
            raise ValueError(f"coefficient field tag {tag!r}: q is not a rational number") from None
        return Rationals(value)
    if tag.startswith("zeta:"):
        return ZetaField(int(tag.split(":", 1)[1]))
    raise ValueError(f"unknown coefficient field tag {tag!r}")


def specialize_scalar(x, field: CoeffField):
    """Map a generic-q scalar (RationalFunction/LaurentPoly) into ``field``,
    q to ``field.q_power(1)``; a denominator that vanishes there raises
    ZeroDivisionError."""

    def image(poly):
        return sum((field.q_power(e) * c for e, c in poly.terms.items()), field.zero())

    return image(x) if isinstance(x, LaurentPoly) else image(x.num) * field.inv(image(x.den))


# ---------------------------------------------------------------------------
# linear combinations


class Combination:
    """Finite linear combination sum_k c_k * k over one coefficient field.

    ``coeffs`` maps each key to a nonzero scalar of ``field``. A subclass
    names its keys: ``_key`` checks and normalizes a key, and ``_key_str``
    gives its text form ("" for a key that prints as the bare scalar). In
    JSON a term is the key's parts followed by the scalar; ``_key_json`` and
    ``_key_from_json`` map a key to its parts and back, a tuple key by default.
    """

    __slots__ = ("field", "coeffs")
    _key_json = _key_from_json = staticmethod(tuple)

    def __init__(self, field: CoeffField, coeffs=None):
        self.field = field
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        self.coeffs = collect((self._key(k), v) for k, v in coeffs) if coeffs else {}

    @classmethod
    def zero(cls, field):
        return cls(field)

    def _new(self, coeffs):
        """A combination of the same kind and field holding ``coeffs`` as is."""
        r = object.__new__(type(self))
        r.field = self.field
        r.coeffs = coeffs
        return r

    def check_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(
                f"mixed coefficient fields {self.field.tag} and {other.field.tag}"
            )

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __add__(self, other):
        self.check_field(other)
        return self._new(add_terms(self.coeffs, other.coeffs))

    def __neg__(self):
        return self._new({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return self._new({})
        return self._new({k: v * scalar for k, v in self.coeffs.items()})

    def items(self):
        return sorted(self.coeffs.items())

    def to_json(self):
        scalar = self.field.scalar_to_json
        return {
            "field": self.field.tag,
            "terms": [[*self._key_json(k), scalar(v)] for k, v in self.items()],
        }

    @classmethod
    def from_json(cls, data):
        """Read ``to_json`` output, over the field its tag names."""
        fld = field_from_tag(data["field"])
        return cls(fld, [(cls._key_from_json(k), fld.scalar_from_json(v)) for *k, v in data["terms"]])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, v in self.items():
            name = self._key_str(k)
            parts.append(f"({v})*{name}" if name else f"({v})")
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"

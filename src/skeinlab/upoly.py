"""Dense univariate polynomials over Q, their factorization, and the
exact-arithmetic chores that every scalar type shares.

This is the one module that knows the dense format: a polynomial is a list
of ascending coefficients, each an ``int`` or a ``Fraction``, with no
trailing zeros, so the zero polynomial is ``[]``. Every division goes
through ``Fraction``, so integer input never turns into floats. Functions
return new lists and leave their arguments alone; only ``trim`` works in
place.

``factor`` splits a polynomial into irreducible factors over Q: Yun's
square-free decomposition with ``gcd``/``divmod``, then Zassenhaus's method
over Z (Berlekamp modulo a small prime, Hensel lifting, recombination by
trial division).
The private ``_*_mod`` helpers work on integer coefficients modulo ``m``.

For every scalar and polynomial type (``coeffs``, ``multipoly``,
``chebyshev``) it also holds the shared chores: ``power`` by squaring; the
sparse term sums ``collect`` and ``add_terms`` on ``{key: coefficient}``;
the rational text ``frac_str`` and its JSON readers; the signed-term text
``signed_sum`` ("-3*q^2 + q - 1/2") with ``power_text``; and
``DerivedOperators``, which gives ``-``, the reflected ``+`` and ``-``, and
``repr`` from ``+``, unary ``-`` and ``str``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def trim(c):
    """Drop trailing zero coefficients of ``c`` in place and return it."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _monic(c):
    lead = Fraction(c[-1])
    return [x / lead for x in c]


def add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return trim(out)


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return trim(out)


def divmod(a, b):
    """(quotient, remainder) of a by b, with deg remainder < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / Fraction(b[-1])
    while len(a) >= len(b):
        coeff = a[-1] * inv_lead
        deg = len(a) - len(b)
        q[deg] = coeff
        for i, y in enumerate(b):
            a[deg + i] -= coeff * y
        trim(a)
        if not a:
            break
    return trim(q), a


def gcd(a, b):
    """Monic greatest common divisor; [] when both inputs are zero."""
    a, b = list(a), list(b)
    while b:
        a, b = b, divmod(a, b)[1]
    return _monic(a) if a else a


def ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g and g = gcd(a, b) monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, [-c for c in mul(q, s1)])
        t0, t1 = t1, add(t0, [-c for c in mul(q, t1)])
    if r0:
        lead = Fraction(r0[-1])
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


def compose(a, b):
    """a(b(x)), by Horner's rule."""
    out = []
    for c in reversed(a):
        out = add(mul(out, b), [c])
    return out


def reduction_rows(m):
    """rows[j] = x^(d+j) mod m for j = 0..d-1, d = deg m, m monic.

    Each row has length d; a product of two reduced polynomials is reduced
    by adding its coefficient of x^(d+j) times rows[j] to its low part.
    """
    d = len(m) - 1
    row = [-c for c in m[:-1]]
    rows = [row]
    for _ in range(d - 1):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [x + top * y for x, y in zip(row, rows[0])]
        rows.append(row)
    return rows


def power(base, k, one):
    """base**k by square-and-multiply for any ``*``; ``one`` is the unit.

    Raises ValueError for k < 0: callers that can invert do so first.
    """
    if k < 0:
        raise ValueError("negative power; invert the base first")
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def factor(coeffs):
    """Irreducible factors over Q with their exponents.

    Returns ``[(monic ascending Fraction coefficients, exponent), ...]``,
    and ``[]`` for a constant. The order is by degree, then exponent, then
    the descending coefficients of the primitive integer factor with
    positive lead.
    """
    f = trim(list(coeffs))
    if len(f) < 2:
        return []
    found = [(g, e) for part, e in _square_free(f) for g in _zassenhaus(part)]
    found.sort(key=lambda ge: (len(ge[0]), ge[1], ge[0][::-1]))
    return [(_monic(g), e) for g, e in found]


def _sub(a, b):
    return add(a, [-x for x in b])


def _derivative(c):
    return [i * x for i, x in enumerate(c)][1:]


def _primitive(c):
    """The primitive integer polynomial with positive lead proportional to c."""
    fracs = [Fraction(x) for x in c]
    den = math.lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (den // x.denominator) for x in fracs]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [x // g for x in ints]


def _square_free(f):
    """Yun's decomposition of f, deg f > 0: [(square-free primitive integer
    part with positive lead, exponent)]."""
    df = _derivative(f)
    a = gcd(f, df)
    b = divmod(f, a)[0]
    d = _sub(divmod(df, a)[0], _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        a = gcd(b, d)
        if len(a) > 1:
            out.append((_primitive(a), i))
        b = divmod(b, a)[0]
        d = _sub(divmod(d, a)[0], _derivative(b))
        i += 1
    return out


def _zassenhaus(f):
    """Irreducible factors over Z of a primitive square-free f with positive
    lead; each factor is primitive with positive lead."""
    if len(f) == 2:
        return [f]
    p = _good_prime(f)
    modular = _berlekamp(_mod([x * pow(f[-1], -1, p) for x in f], p), p)
    if len(modular) == 1:
        return [f]
    # for a factor g of f, the coefficients of lc(f) * g / lc(g) are at most
    # lc(f) * 2^deg(f) * |f|_2 (Mignotte; von zur Gathen and Gerhard,
    # Algorithm 15.19), and residues mod m are taken in (-m/2, m/2]
    bound = 2 * f[-1] * 2 ** (len(f) - 1) * (math.isqrt(sum(x * x for x in f)) + 1)
    m = p
    while m <= bound:
        m *= m
    pool = [_hensel_lift(f, h, p, m) for h in modular]
    out = []
    size = 1
    while 2 * size <= len(pool):
        for subset in itertools.combinations(range(len(pool)), size):
            g = [f[-1]]
            for i in subset:
                g = _mod(mul(g, pool[i]), m)
            g = _primitive([x - m if 2 * x > m else x for x in g])
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                pool = [h for i, h in enumerate(pool) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _good_prime(f):
    """Smallest prime p that keeps deg f and keeps f square-free mod p."""
    p = 2
    while True:
        if f[-1] % p and len(_gcd_mod(_mod(f, p), _mod(_derivative(f), p), p)) == 1:
            return p
        p += 1
        while any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
            p += 1


def _berlekamp(f, p):
    """Monic irreducible factors mod p of a monic f, square-free mod p."""
    n = len(f) - 1
    xp = _divmod_mod([0] * p + [1], f, p)[1]
    # column i holds x^(ip) - x^i mod f; a null vector v is a polynomial
    # with v^p = v mod f, and gcd(u, v - s) over s splits any factor u
    cols = []
    r = [1]
    for i in range(n):
        col = r + [0] * (n - len(r))
        col[i] -= 1
        cols.append(col)
        r = _divmod_mod(mul(r, xp), f, p)[1]
    basis = _nullspace_mod([list(row) for row in zip(*cols)], p)
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        v = trim(v)
        if len(v) < 2:
            continue
        split = []
        for u in factors:
            if len(u) == 2:
                split.append(u)
                continue
            for s in range(p):
                g = _gcd_mod(u, _mod(add(v, [-s]), p), p)
                if len(g) > 1:
                    split.append(g)
        factors = split
    return factors


def _nullspace_mod(mat, p):
    """A basis of {v : mat v = 0 mod p}, one vector per free column."""
    mat = [[x % p for x in row] for row in mat]
    n = len(mat[0])
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[col]:
                c = row[col]
                mat[i] = [(x - c * y) % p for x, y in zip(row, mat[r])]
        pivots.append(col)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = -mat[i][free] % p
        basis.append(v)
    return basis


def _hensel_lift(f, h, p, m):
    """Lift a monic factor h of f mod p to the monic factor mod m = p^(2^k).

    Quadratic Hensel steps on f = g*h with s*g + t*h = 1 (von zur Gathen and
    Gerhard, Modern Computer Algebra, Algorithm 15.10).
    """
    g = _divmod_mod(f, h, p)[0]
    s, t = _ext_gcd_mod(g, h, p)
    k = p
    while k < m:
        k *= k
        e = _mod(_sub(f, mul(g, h)), k)
        q, r = _divmod_mod(mul(s, e), h, k)
        g = _mod(add(g, add(mul(t, e), mul(q, g))), k)
        h = _mod(add(h, r), k)
        b = _mod(add(add(mul(s, g), mul(t, h)), [-1]), k)
        c, d = _divmod_mod(mul(s, b), h, k)
        s = _mod(_sub(s, d), k)
        t = _mod(_sub(t, add(mul(t, b), mul(c, g))), k)
    return h


def _exact_quotient(f, g):
    """f / g over Z, or None when g does not divide f."""
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        top = f[k + len(g) - 1]
        if top % g[-1]:
            return None
        q[k] = c = top // g[-1]
        if c:
            for i, y in enumerate(g):
                f[k + i] -= c * y
    return None if any(f) else q


def _mod(a, m):
    return trim([x % m for x in a])


def _divmod_mod(a, b, m):
    """(quotient, remainder) mod m; the lead of b must be a unit mod m."""
    a = _mod(a, m)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, m)
    while len(a) >= len(b):
        coeff = a[-1] * inv_lead % m
        deg = len(a) - len(b)
        q[deg] = coeff
        for i, y in enumerate(b):
            a[deg + i] = (a[deg + i] - coeff * y) % m
        trim(a)
    return trim(q), a


def _gcd_mod(a, b, p):
    """Monic gcd mod a prime p; a must be nonzero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _ext_gcd_mod(a, b, p):
    """(s, t) with s*a + t*b = 1 mod p, for a and b coprime mod p."""
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [x * inv % p for x in s0], [x * inv % p for x in t0]


def frac_str(x) -> str:
    """Canonical text of a rational: "n" or "n/d" in lowest terms."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def frac_from_json(x) -> Fraction:
    """The rational that ``frac_str`` writes, read back from JSON.

    Only an ``int`` or a string ("n", "n/d", "0.1") is accepted. A JSON float
    is a binary fraction (0.1 would become 3602879701896397/36028797018963968),
    so it is rejected, and so is a ``bool``.
    """
    if type(x) is not int and not isinstance(x, str):
        raise ValueError(f"a rational must be an integer or a string, got {x!r}")
    return Fraction(x)


def int_from_json(x) -> int:
    """``x`` when it is an ``int``; a float such as 1.5 or a ``bool`` is
    rejected rather than truncated."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def collect(pairs):
    """``{key: coefficient}`` summed from ``(key, coefficient)`` pairs; a key
    whose coefficients sum to zero is left out."""
    out = {}
    for k, c in pairs:
        if c:
            cur = out.get(k)
            c = c if cur is None else cur + c
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def add_terms(a, b):
    """The sum of two ``{key: nonzero coefficient}`` dicts, as a new dict."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def power_text(var, e) -> str:
    """Text of the monomial var^e: "" for e = 0, ``var`` for e = 1."""
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def signed_sum(terms, coeff_text=frac_str) -> str:
    """Text of a sum of ``(monomial text, coefficient)`` pairs, in the order
    given, such as "-3*q^2 + q - 1/2".

    The monomial "" is the constant term. A unit coefficient is not printed
    in front of a monomial, a zero term is left out, and the empty sum is
    "0". ``coeff_text`` writes a coefficient's absolute value.
    """
    out = ""
    for mono, c in terms:
        if not c:
            continue
        mag = abs(c)
        body = coeff_text(mag) if not mono else mono if mag == 1 else f"{coeff_text(mag)}*{mono}"
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += body
    return out or "0"


class DerivedOperators:
    """``__radd__``, ``__sub__``, ``__rsub__`` and ``__repr__`` from ``__add__``
    (commutative, accepting an ``int`` or ``Fraction``), ``__neg__`` and
    ``__str__``. The empty ``__slots__`` keeps a subclass with slots free of a
    ``__dict__``."""

    __slots__ = ()

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __repr__(self):
        return f"{type(self).__name__}({self})"

"""Dense univariate polynomials over Q.

This is the one module that knows the dense format: a polynomial is a list
of ascending coefficients, each an ``int`` or a ``Fraction``, with no
trailing zeros, so the zero polynomial is ``[]``. Every division goes
through ``Fraction``, so integer input never turns into floats. Functions
return new lists and leave their arguments alone; only ``trim`` works in
place.
"""

from __future__ import annotations

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


def lcm(a, b):
    """Monic least common multiple of two nonzero polynomials."""
    return _monic(divmod(mul(a, b), gcd(a, b))[0])


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


def frac_str(x) -> str:
    """Canonical text of a rational: "n" or "n/d" in lowest terms."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

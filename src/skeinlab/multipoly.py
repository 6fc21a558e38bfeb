"""Multivariate polynomials over an exact field, with lex and degrevlex orders.

Terms are stored as a dict from exponent tuples to nonzero scalars. The
monomial order is context, not part of the value: order functions return a
sort key, largest key = leading term.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub

from .errors import SkeinError
from .upoly import DerivedOperators, add_terms, collect, frac_from_json, frac_str, power, power_text, signed_sum


def lex_key(exps):
    return exps


def degrevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


ORDERS = {"lex": lex_key, "degrevlex": degrevlex_key}


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    return all(map(le, a, b))


def monomial_div(a, b):
    return tuple(map(sub, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


class MultiPoly(DerivedOperators):
    """Polynomial in named variables with exact coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        if isinstance(terms, dict):
            terms = terms.items()
        self.terms = collect((self._exponents(exps), c) for exps, c in terms if c) if terms else {}

    def _exponents(self, exps):
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.vars):
            raise SkeinError("exponent vector length mismatch")
        return exps

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, variables, c):
        c = Fraction(c) if isinstance(c, int) else c
        return cls(variables, {tuple(0 for _ in variables): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    def _check(self, other):
        if self.vars != other.vars:
            raise SkeinError("mixing polynomials in different variable contexts")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not MultiPoly and isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        self._check(other)
        r = MultiPoly(self.vars)
        r.terms = add_terms(self.terms, other.terms)
        return r

    def __neg__(self):
        r = MultiPoly(self.vars)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __mul__(self, other):
        if type(other) is not MultiPoly and isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly(self.vars)
            r = MultiPoly(self.vars)
            r.terms = {e: c * other for e, c in self.terms.items()}
            return r
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                s = out.get(e)
                p = c1 * c2
                s = p if s is None else s + p
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        r = MultiPoly(self.vars)
        r.terms = out
        return r

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return MultiPoly(self.vars)
        r = MultiPoly(self.vars)
        r.terms = {e: v * c for e, v in self.terms.items()}
        return r

    def __pow__(self, k):
        return power(self, k, MultiPoly.constant(self.vars, Fraction(1)))

    def leading(self, key):
        if not self.terms:
            raise SkeinError("zero polynomial has no leading term")
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, values):
        """values: dict var -> scalar; full evaluation."""
        total = 0
        for e, c in self.terms.items():
            term = c
            for name, exp in zip(self.vars, e):
                if exp:
                    term = term * (values[name] ** exp)
            total = term if total == 0 else total + term
        return total if total != 0 else Fraction(0)

    def to_json(self):
        return {"terms": [[list(e), frac_str(c)] for e, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, variables, data):
        terms = {tuple(e): frac_from_json(c) for e, c in data["terms"]}
        for e in terms:
            if any(type(k) is not int or k < 0 for k in e):
                raise SkeinError(f"exponents must be non-negative integers, got {list(e)}")
        return cls(variables, terms)

    def __str__(self):
        return signed_sum(
            (
                ("*".join(power_text(v, k) for v, k in zip(self.vars, e) if k), self.terms[e])
                for e in sorted(self.terms, key=degrevlex_key, reverse=True)
            ),
            _coeff_text,
        )


def _coeff_text(c):
    """A coefficient as printed in a polynomial: a non-integer in parentheses."""
    return frac_str(c) if c.denominator == 1 else f"({frac_str(c)})"

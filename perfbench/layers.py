"""Per-layer instrumentation, installed from outside the program.

Two kinds of wrappers go on the names the callers bind, so that skeinlab
itself is not edited:

- spans (``install_spans``) on the entry points of each layer, recording
  name, start, end, parent span and query id, kept in memory;
- counters (``install_counters``) on the coefficient and polynomial
  multiplications. They run in a separate pass because a wrapper on every
  ``__mul__`` would distort the span pass's self times.
"""

from __future__ import annotations

import os
import time


class Tracer:
    """Spans of one pass: (name, start, end, parent index, query id)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        self.counts = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so that every call records a span called ``name``.

        ``on_result(args, result)`` may add counts from the call's inputs and
        output; it runs after the span is closed.
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn, size=None):
        """Wrap ``fn`` to count calls, and ``size(args)`` units of work."""

        def wrapper(*args, **kwargs):
            self.count(name + "_calls")
            if size is not None:
                self.count(name + "_term_products", size(args))
            return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """Inclusive and self seconds, and span count, for each span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl, self_s, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (incl + end - start, self_s + end - start - child[i], calls + 1)
        return out


def install_spans(tracer: Tracer, sk) -> None:
    """Spans around the entry point of each layer, on the caller's binding."""
    heegaard, solidtorus, torus, charring = sk.heegaard, sk.solidtorus, sk.torus, sk.charring

    def windows(args, report):
        tracer.count("heegaard.windows", len(report.dims))

    def crossings(args, value):
        n = len(args[0].crossings)
        tracer.count("diagrams.crossings_sum", n)
        tracer.counts["diagrams.crossings_max"] = max(tracer.counts.get("diagrams.crossings_max", 0), n)

    def basis(args, ring):
        tracer.count("groebner.basis_size_sum", len(ring.groebner))

    def factors(args, result):
        tracer.count("artinian.factors", len(result))

    heegaard.lens_module = tracer.span("heegaard.lens_module", heegaard.lens_module, windows)
    heegaard.act = tracer.span("heegaard.act", heegaard.act)
    solidtorus.bracket_annulus = tracer.span(
        "solidtorus.bracket_annulus", solidtorus.bracket_annulus, crossings
    )
    columns = solidtorus.ActionCache.columns

    def requested_columns(self, p, q, upto):
        tracer.count("solidtorus.columns_requested", upto + 1)
        return columns(self, p, q, upto)

    solidtorus.ActionCache.columns = requested_columns
    torus.torus_mul = tracer.span("torus.torus_mul", torus.torus_mul)
    torus.is_central = tracer.span("torus.is_central", torus.is_central)
    charring.char_ring = tracer.span("charring.char_ring", charring.char_ring)
    charring.buchberger = tracer.span("charring.buchberger", charring.buchberger, basis)
    charring.artinian_decompose = tracer.span(
        "charring.artinian_decompose", charring.artinian_decompose, factors
    )


def install_counters(tracer: Tracer, sk) -> None:
    """Operation counts on the scalar and polynomial multiplications."""
    LaurentPoly, CyclotomicScalar, MultiPoly = sk.LaurentPoly, sk.CyclotomicScalar, sk.MultiPoly

    def terms_product(args):
        a, b = args
        return len(a.terms) * (len(b.terms) if isinstance(b, type(a)) else 1)

    for cls, name, size in (
        (LaurentPoly, "coeffs.laurent_mul", terms_product),
        (CyclotomicScalar, "coeffs.cyclo_mul", None),
        (MultiPoly, "multipoly.mul", terms_product),
    ):
        cls.__mul__ = tracer.counted(name, cls.__mul__, size)
        cls.__rmul__ = tracer.counted(name, cls.__rmul__, size)
    zeta_power = CyclotomicScalar.zeta_power.__func__
    CyclotomicScalar.zeta_power = classmethod(tracer.counted("coeffs.zeta_power", zeta_power))


def directory_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def span_metrics(tracer: Tracer, cache_bytes: int) -> dict:
    """Per-layer metrics of a span pass; self times exclude child spans."""
    t = tracer.totals()
    c = tracer.counts

    def incl(name):
        return t.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return t.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return t.get(name, (0.0, 0.0, 0))[2]

    requested = c.get("solidtorus.columns_requested", 0)
    computed = calls("solidtorus.bracket_annulus")
    return {
        "heegaard.self_s": self_s("heegaard.lens_module"),
        "heegaard.calls": calls("heegaard.lens_module"),
        "heegaard.windows": c.get("heegaard.windows", 0),
        "solidtorus.self_s": self_s("heegaard.act"),
        "solidtorus.act_calls": calls("heegaard.act"),
        "solidtorus.columns_requested": requested,
        "solidtorus.columns_computed": computed,
        "solidtorus.column_reuse": 1 - computed / requested if requested else 0.0,
        "solidtorus.cache_bytes": cache_bytes,
        "diagrams.bracket_s": incl("solidtorus.bracket_annulus"),
        "diagrams.bracket_calls": computed,
        "diagrams.crossings_max": c.get("diagrams.crossings_max", 0),
        "diagrams.crossings_sum": c.get("diagrams.crossings_sum", 0),
        "torus.torus_mul_s": incl("torus.torus_mul"),
        "torus.torus_mul_calls": calls("torus.torus_mul"),
        "torus.is_central_calls": calls("torus.is_central"),
        "groebner.buchberger_s": incl("charring.buchberger"),
        "groebner.buchberger_calls": calls("charring.buchberger"),
        "groebner.basis_size_sum": c.get("groebner.basis_size_sum", 0),
        "artinian.decompose_s": incl("charring.artinian_decompose"),
        "artinian.factors": c.get("artinian.factors", 0),
        "charring.self_s": self_s("charring.char_ring"),
    }


COUNTER_METRICS = (
    "coeffs.laurent_mul_calls",
    "coeffs.laurent_mul_term_products",
    "coeffs.cyclo_mul_calls",
    "coeffs.zeta_power_calls",
    "multipoly.mul_calls",
    "multipoly.mul_term_products",
)


def counter_metrics(tracer: Tracer) -> dict:
    return {name: tracer.counts.get(name, 0) for name in COUNTER_METRICS}

"""One pass of a workload in a fresh, single-threaded Python process.

Reads a job from standard input: ``{"mode", "queries", "tmp", "spans_out"}``
with mode ``plain``, ``spans``, ``counts`` or ``setup``. Writes one JSON
object to standard output. The action cache is pointed at a new, empty
directory under ``tmp`` before skeinlab is imported and removed afterwards,
so every pass starts cold and nothing is written to the repository's cache.

Set-up ends, and ``first_query_at`` is stamped with ``time.monotonic()``,
when the first query is sent; the parent compares it with the moment it
started this process (both CLOCK_MONOTONIC on Linux).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction


def build(sk, query):
    """A zero-argument callable for one query; inputs are built here, in set-up."""
    kind = query["kind"]
    if kind == "lens":
        field = sk.field_from_tag(query["field"])
        p, q = query["p"], query["q"]
        return lambda: sk.heegaard.lens_module(p, q, field)
    if kind == "central":
        n, p, q = query["n"], query["p"], query["q"]
        if query["threaded"]:
            spec = sk.root_spec(n)
            curve = sk.TorusSkein.curve(sk.Rationals(Fraction(spec.epsilon)), p, q)
            return lambda: sk.torus.is_central(sk.torus.thread_torus(curve, spec), 6)
        curve = sk.TorusSkein.curve(sk.ZetaField(n), p, q)
        return lambda: sk.torus.is_central(curve, 6)
    if kind == "charring":
        group = sk.GroupPresentation(query["ngens"], query["relators"])
        return lambda: sk.charring.char_ring(group)
    raise ValueError(f"unknown query kind {kind!r}")


def main():
    job = json.load(sys.stdin)
    cache = tempfile.mkdtemp(prefix="cache-", dir=job["tmp"])
    os.environ["SKEINLAB_CACHE"] = cache
    try:
        out = run(job, cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    json.dump(out, sys.stdout)


def run(job, cache):
    import skeinlab as sk

    from layers import Tracer, counter_metrics, directory_bytes, install_counters, install_spans, span_metrics

    mode = job["mode"]
    queries = job["queries"]
    calls = [build(sk, q) for q in queries]
    tracer = Tracer()
    if mode == "spans":
        install_spans(tracer, sk)
    elif mode == "counts":
        install_counters(tracer, sk)
    first = time.monotonic()
    if mode == "setup":
        return {"first_query_at": first}
    results, errors, latency = [], [], []
    clock = time.perf_counter
    start = clock()
    for query, call in zip(queries, calls):
        tracer.query = query["id"]
        t = clock()
        try:
            result, error = call(), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        latency.append(clock() - t)
        results.append(result)
        errors.append(error)
    wall = clock() - start
    answers = [r if r is None or isinstance(r, bool) else r.to_json() for r in results]
    out = {
        "first_query_at": first,
        "wall_s": wall,
        "latency_s": latency,
        "answers": answers,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if mode == "spans":
        out["layers"] = span_metrics(tracer, directory_bytes(cache))
        with open(job["spans_out"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"], "spans": tracer.spans}, fh)
    elif mode == "counts":
        out["layers"] = counter_metrics(tracer)
    return out


if __name__ == "__main__":
    main()

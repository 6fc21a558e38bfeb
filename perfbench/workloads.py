"""Query lists, independent oracles and answer comparison for the benchmark.

A query is a plain JSON object, so the parent process can generate and
permute it and the worker process receives nothing but these inputs. Every
query has an ``id`` that is unique across all workloads; recorded answers in
``answers.json`` are keyed by it.

A pass of either list takes about 10 s on one core of a 2-vCPU Intel Xeon
virtual machine, so a one-minute run holds five or six passes and reports
their median; ``run.py`` describes what each workload exercises.
"""

from __future__ import annotations

import json
import random

ZETA_ORDERS = (1, 3, 5, 6, 10, 15)
CENTER_LABEL_BOUND = 2
# <a,b | abab = a^3, a^3 = b^r>, r = 5 is the Poincare sphere, r = 6 has a
# positive-dimensional character variety
TREFOIL_R = (2, 5, 6)
# <a,b | (ab)^3 = a^3, a^3 = b^r>
CUBE_R = (2,)


def _lens(p, q, field):
    return {"id": f"lens L({p},{q}) {field}", "kind": "lens", "p": p, "q": q, "field": field}


def _central(n, p, q, threaded):
    tag = "threaded" if threaded else "control"
    return {"id": f"center n={n} ({p},{q}) {tag}", "kind": "central", "n": n, "p": p, "q": q,
            "threaded": threaded}


def _charring(name, ngens, relators):
    return {"id": f"charring {name}", "kind": "charring", "ngens": ngens, "relators": relators}


def _cyclic(p):
    return _charring(f"Z/{p}", 1, ["a" * p])


def _trefoil(r):
    return _charring(f"abab=a^3=b^{r}", 2, ["ababAAA", "aaa" + "B" * r])


def _cube(r):
    return _charring(f"(ab)^3=a^3=b^{r}", 2, ["abababAAA", "aaa" + "B" * r])


def _labels(bound):
    return [(p, q) for p in range(-bound, bound + 1) for q in range(-bound, bound + 1)
            if (p, q) != (0, 0)]


def _center(orders, bound):
    return [_central(n, p, q, threaded) for n in orders for p, q in _labels(bound)
            for threaded in (True, False)]


LENS_GENERIC = [_lens(3, 1, "generic")]
LENS_ROOTS = [_lens(1, 0, f"zeta:{n}") for n in (2, 3, 6)] + [_lens(3, 1, "zeta:5")]
CHARRING = (
    [_cyclic(p) for p in range(2, 9)] + [_trefoil(r) for r in TREFOIL_R] + [_cube(r) for r in CUBE_R]
)

FULL = {
    "lens": LENS_GENERIC + LENS_ROOTS,
    "algebra": _center(ZETA_ORDERS, CENTER_LABEL_BOUND) + CHARRING,
}

# a few cheap queries per workload, for the harness self-check
TINY = {
    "lens": [_lens(1, 0, f"zeta:{n}") for n in (2, 3, 6)],
    "algebra": _center((1, 3), 1) + [_cyclic(2), _cyclic(3), _trefoil(5)],
}

WORKLOADS = tuple(FULL)


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's queries in the order fixed by ``seed``."""
    queries = [dict(q) for q in (TINY if tiny else FULL)[workload]]
    random.Random(seed).shuffle(queries)
    return queries


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def oracle_error(query: dict, answer) -> str | None:
    """Check an answer against facts that do not come from skeinlab.

    - S^3 has a one-dimensional skein module over every field;
    - dim K_q(L(p,1)) over Q(q) is floor(p/2)+1 (Hoste-Przytycki);
    - threaded classes are central;
    - the Z/p character ring has dimension floor(p/2)+1, all reducible;
    - the Poincare-sphere ring has dimension 3 with 2 irreducible characters.
    """
    kind = query["kind"]
    if kind == "lens":
        if not answer.get("stabilized"):
            return "lens report did not stabilize"
        p, q, field = query["p"], query["q"], query["field"]
        if (p, q) == (1, 0) and answer["dimension"] != 1:
            return f"S^3 has dimension {answer['dimension']}, expected 1"
        if q == 1 and field == "generic" and answer["dimension"] != p // 2 + 1:
            return f"L({p},1) has dimension {answer['dimension']}, expected {p // 2 + 1}"
    elif kind == "central":
        if query["threaded"] and answer is not True:
            return "threaded class is not central"
    elif kind == "charring":
        rels = query["relators"]
        if query["ngens"] == 1:
            p = len(rels[0])
            if answer.get("total_dim") != p // 2 + 1:
                return f"Z/{p} ring has dimension {answer.get('total_dim')}, expected {p // 2 + 1}"
            if any(f["irreducible"] for f in answer["factors"]):
                return f"Z/{p} ring has an irreducible point"
        elif rels == ["ababAAA", "aaaBBBBB"]:
            irreducible = sum(f["point_count"] for f in answer.get("factors", ()) if f["irreducible"])
            if answer.get("total_dim") != 3 or irreducible != 2:
                return "Poincare-sphere ring is not 3-dimensional with 2 irreducible characters"
    return None


def check_answer(query: dict, answer, recorded: dict) -> str | None:
    """None if the answer passes its oracle and matches the recorded one."""
    err = oracle_error(query, answer)
    if err:
        return err
    if query["id"] not in recorded:
        return "no recorded answer"
    if canonical(answer) != canonical(recorded[query["id"]]):
        return "differs from the recorded answer"
    return None

"""The acceptance suite: every advertised guarantee of the package, run at
full strength with one pass/fail line per criterion.

Each criterion returns (name, passed, detail). The suite is exercised both
by ``skeinlab accept`` and by the test module tests/test_acceptance.py.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from itertools import product as iter_product

from . import upoly
from .artinian import PresentedModule, artinian_decompose, specialize_vs_localize
from .charring import GroupPresentation, char_ring, trace_poly
from .chebyshev import cheb_T
from .coeffs import GenericQ, Rationals, ZetaField, root_spec
from .diagrams import ANNULUS, DISK, AnnulusSkein, FramedDiagram, braid_closure, bracket_annulus, bracket_disk, pushed_curve_with_cores
from .errors import FourDividesOrderError
from .groebner import PolyIdeal, buchberger
from .heegaard import dim_K_q, lens_module
from .matideals import random_instance, verify_lr_quotient
from .multipoly import MultiPoly
from .oracle import state_sum
from .solidtorus import act, diagram_columns
from .torus import TorusSkein, commutator, is_central, thread_torus, torus_mul

GENERIC = GenericQ()


def diagram_corpus():
    """At least 30 diagrams, disk and annulus, at most 8 crossings each."""
    corpus = []
    for surface in (DISK, ANNULUS):
        corpus.append(braid_closure([1, 1, 1], 2, surface))  # trefoil
        corpus.append(braid_closure([-1, -1, -1], 2, surface))  # mirror trefoil
        corpus.append(braid_closure([1, 1], 2, surface))  # Hopf link
        corpus.append(braid_closure([1, -2, 1, -2], 3, surface))  # figure eight
        corpus.append(braid_closure([1, 1, 1, 1, 1], 2, surface))  # (2,5) torus knot
        corpus.append(braid_closure([1, 2, 1, 2], 3, surface))
        corpus.append(braid_closure([1, 1, 2, 2], 3, surface))
    corpus.append(FramedDiagram(DISK, [(1, 1, 2, 2)]))  # positive curl
    corpus.append(FramedDiagram(DISK, [(1, 2, 2, 1)]))  # negative curl
    corpus.append(FramedDiagram(DISK, free_loops=3))
    corpus.append(FramedDiagram(ANNULUS, free_cores=2, free_loops=1))
    for p, q in ((2, 1), (3, 1), (3, 2), (2, -1), (4, 1)):
        corpus.append(pushed_curve_with_cores(p, q, 0))
    for k in (1, 2, 3):
        corpus.append(pushed_curve_with_cores(0, 1, k))
    corpus.append(pushed_curve_with_cores(1, 1, 2))
    corpus.append(pushed_curve_with_cores(1, -1, 2))
    corpus.append(pushed_curve_with_cores(2, 1, 1))
    rng = random.Random(20240817)
    while len(corpus) < 34:
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 6))]
        corpus.append(braid_closure(word, strands, rng.choice((DISK, ANNULUS))))
    return [d for d in corpus if len(d.crossings) <= 8]


def criterion_1_bracket_oracle():
    corpus = diagram_corpus()
    assert len(corpus) >= 30
    for d in corpus:
        if d.surface == DISK:
            engine = bracket_disk(d, GENERIC)
            oracle = state_sum(d, GENERIC).coeffs.get(0, GENERIC.zero())
        else:
            engine = bracket_annulus(d, GENERIC)
            oracle = state_sum(d, GENERIC)
        if engine != oracle:
            return False, f"engine/oracle mismatch on {d!r}"
    return True, f"{len(corpus)} diagrams, exact agreement"


def criterion_2_circle_relation():
    value = bracket_disk(FramedDiagram(DISK, free_loops=1), GENERIC)
    expected = GENERIC.from_fraction(0) - (GENERIC.q_power(2) + GENERIC.q_power(-2))
    ok = value == expected
    return ok, f"single circle evaluates to {value}"


def criterion_3_chebyshev():
    for j in range(21):
        for k in range(21):
            tj, tk = cheb_T(j), cheb_T(k)
            prod = upoly.mul(tj.coeffs, tk.coeffs)
            expect = upoly.add(cheb_T(j + k).coeffs, cheb_T(abs(j - k)).coeffs)
            if prod != expect:
                return False, f"product identity fails at ({j},{k})"
    for j in range(9):
        for k in range(9):
            if upoly.compose(cheb_T(j).coeffs, cheb_T(k).coeffs) != list(cheb_T(j * k).coeffs):
                return False, f"composition fails at ({j},{k})"
    return True, "T_j T_k = T_(j+k) + T_|j-k| (j,k<=20); T_j o T_k = T_jk (j,k<=8)"


def _fields_for(ns):
    return [GENERIC] + [ZetaField(n) for n in ns]


def criterion_4_associativity():
    rng = random.Random(11)
    fields = _fields_for((2, 3, 5, 6, 7, 10))
    triples = []
    for _ in range(200):
        labs = [
            (rng.randint(-5, 5), rng.randint(-5, 5))
            for _ in range(3)
        ]
        labs = [lab if lab != (0, 0) else (1, 0) for lab in labs]
        triples.append(labs)
    for field in fields:
        for labs in triples:
            a, b, c = (TorusSkein.curve(field, *lab) for lab in labs)
            if torus_mul(torus_mul(a, b), c) != torus_mul(a, torus_mul(b, c)):
                return False, f"associativity fails at {labs} over {field.tag}"
    return True, f"200 triples x {len(fields)} fields"


def criterion_5_transparency():
    for n in (1, 2, 3, 5, 6, 7, 10):
        spec = root_spec(n)
        eps_field = Rationals(Fraction(spec.epsilon))
        for p in range(-4, 5):
            for q in range(-4, 5):
                if (p, q) == (0, 0):
                    continue
                threaded = thread_torus(TorusSkein.curve(eps_field, p, q), spec)
                if not is_central(threaded, 6):
                    return False, f"tau_m(({p},{q})) not central at n={n}"
    # control 1: n = 4 rejected outright
    try:
        root_spec(4)
        return False, "root_spec(4) unexpectedly accepted"
    except FourDividesOrderError:
        pass
    # control 2: at generic q the same commutators do not vanish
    a = TorusSkein.curve(GENERIC, 1, 0)
    b = TorusSkein.curve(GENERIC, 0, 1)
    if not commutator(a, b):
        return False, "generic-q control commutator vanished"
    return True, "threaded classes central for n in {1,2,3,5,6,7,10}; controls hold"


def criterion_6_action_cross_validation():
    fields = _fields_for((3, 5, 6))
    # every primitive label the module-law grid reaches, on every degree it reaches
    for field in fields:
        for label in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)):
            oracle = diagram_columns(*label, 13, field)
            a = TorusSkein.curve(field, *label)
            for k, column in enumerate(oracle):
                if act(a, AnnulusSkein.z_power(field, k)) != column:
                    return False, f"action differs from diagrams: {label} on z^{k} over {field.tag}"
    labels = ((1, 0), (0, 1), (1, 1), (1, -1))
    for field in fields:
        for la, lb in iter_product(labels, repeat=2):
            a = TorusSkein.curve(field, *la)
            b = TorusSkein.curve(field, *lb)
            ab = torus_mul(a, b)
            for k in range(13):
                v = AnnulusSkein.z_power(field, k)
                if act(ab, v) != act(a, act(b, v)):
                    return False, f"module law fails: {la}*{lb} on z^{k} over {field.tag}"
    return True, (
        "act = diagrams on 8 primitive labels, k<=13; "
        "act(a*b, z^k) = act(a, act(b, z^k)), 16 pairs, k<=12; 4 fields"
    )


# L(p,1) for p = 2..8, and two lens spaces with q != 1
_LENS_ANCHORS = [(p, 1) for p in range(2, 9)] + [(5, 2), (7, 3)]
# criteria 7 and 8 share the anchors' dimensions
_lens_dim = functools.cache(dim_K_q)


def criterion_7_lens_anchors():
    for field in _fields_for((2, 3, 5, 6, 7, 10)):
        rep = lens_module(1, 0, field)
        if not (rep.stabilized and rep.dimension == 1):
            return False, f"S^3 over {field.tag}: {rep!r}"
    dims = {}
    for p, q in _LENS_ANCHORS:
        d = _lens_dim(p, q)
        dims[f"L({p},{q})"] = d
        if d != p // 2 + 1:
            return False, f"L({p},{q}) gave {d}, expected {p // 2 + 1}"
    return True, f"S^3 = 1 in 7 fields; dims {dims}"


def criterion_8_rational_cross_check():
    for p, q in _LENS_ANCHORS:
        lens_dim = _lens_dim(p, q)
        ring_dim = char_ring(GroupPresentation.cyclic(p)).total_dim
        if lens_dim != ring_dim:
            return False, f"L({p},{q}): lens {lens_dim} vs character ring {ring_dim}"
    return True, "dim K_q(L(p,q)) = dim of the Z/p character ring, L(p,1) for p = 2..8, L(5,2), L(7,3)"


def criterion_9_trace_oracle():
    rng = random.Random(97)

    def mat2(a, b):
        return (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
        )

    def rand_sl2():
        m = ((1, 0), (0, 1))
        for _ in range(4):
            r = rng.randint(-3, 3)
            e = ((1, r), (0, 1)) if rng.random() < 0.5 else ((1, 0), (r, 1))
            m = mat2(m, e)
        return m

    def inv(m):
        return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))

    for trial in range(1000):
        A, B = rand_sl2(), rand_sl2()
        word = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 12)))
        mats = {"a": A, "b": B, "A": inv(A), "B": inv(B)}
        M = ((1, 0), (0, 1))
        for ch in word:
            M = mat2(M, mats[ch])
        AB = mat2(A, B)
        values = {
            "x": Fraction(A[0][0] + A[1][1]),
            "y": Fraction(B[0][0] + B[1][1]),
            "z": Fraction(AB[0][0] + AB[1][1]),
        }
        if trace_poly(word).evaluate(values) != M[0][0] + M[1][1]:
            return False, f"trace mismatch on word {word!r} (trial {trial})"
    return True, "1000 random SL2 pairs x words of length <= 12"


def criterion_10_poincare_sphere():
    rep = char_ring(GroupPresentation(2, ["ababAAA", "aaaBBBBB"]))
    if rep.total_dim is None:
        return False, "character ring came out infinite-dimensional"
    irred_points = rep.irreducible_point_count()
    mults = [f.point_multiplicity for f in rep.factors]
    ok = irred_points == 2 and rep.total_dim == 3 and all(m == 1 for m in mults)
    detail = (
        f"total_dim={rep.total_dim}, irreducible characters={irred_points}, "
        f"point multiplicities={mults}"
    )
    return ok, detail


def criterion_11_lr_quotient():
    for seed in range(50):
        algebra, n, L, R = random_instance(seed, max_dim=4, max_n=3)
        dl, dr, eq = verify_lr_quotient(L, R)
        if not eq:
            return False, f"seed {seed}: dims {dl} vs {dr} (dim A={algebra.dim}, n={n})"
    return True, "50 randomized (A, n, L, R): matrix quotient = tensor of column/row quotients"


def _random_artinian_ring(rng):
    n_vars = rng.randint(1, 2)
    variables = ("x", "y")[:n_vars]
    gens = []
    for v in variables:
        xv = MultiPoly.variable(variables, v)
        deg = rng.randint(1, 3)
        poly = MultiPoly.constant(variables, Fraction(1))
        for _ in range(deg):
            poly = poly * (xv - rng.randint(-2, 2))
        gens.append(poly)
    if n_vars == 2 and rng.random() < 0.5:
        x = MultiPoly.variable(variables, "x")
        y = MultiPoly.variable(variables, "y")
        gens.append(x * y - rng.randint(-1, 1))
    return buchberger(PolyIdeal(variables, gens))


def criterion_12_artinian():
    rng = random.Random(5150)
    rings = []
    while len(rings) < 20:
        ring = _random_artinian_ring(rng)
        d = ring.dimension()
        if d and 0 < d <= 9:
            rings.append(ring)
    for i, ring in enumerate(rings):
        factors = artinian_decompose(ring)
        if sum(f.multiplicity for f in factors) != ring.dimension():
            return False, f"ring {i}: multiplicities do not sum to dimension"
    checked = 0
    ring_iter = iter(rings)
    while checked < 20:
        ring = next(ring_iter, None)
        if ring is None:
            ring_iter = iter(rings)
            continue
        factors = artinian_decompose(ring)
        r = rng.randint(1, 2)
        n_rel = rng.randint(0, 2)
        relations = []
        for _ in range(n_rel):
            col = []
            for _ in range(r):
                terms = {}
                for m in ring.standard_monomials:
                    if rng.random() < 0.4:
                        terms[m] = Fraction(rng.randint(-2, 2))
                col.append(ring.normal_form(MultiPoly(ring.vars, terms)))
            relations.append(col)
        module = PresentedModule(ring, r, relations)
        for f in factors:
            ds, dl, eq = specialize_vs_localize(module, f)
            if not eq:
                return False, f"module over ring {ring!r}: specialization {ds} != localization {dl}"
        checked += 1
    return True, "20 rings: multiplicity sums match; 20 modules: specialization = localization"


CAVEAT = (
    "Caveat: the rank-one localization statement for irreducible characters is "
    "certified only through surrogates (criteria 5, 6, 11, 12); genus >= 2 skein "
    "algebras are out of computational reach here."
)


def criterion_13_caveat():
    return True, CAVEAT


CRITERIA = (
    ("1 bracket engine = exhaustive state sum", criterion_1_bracket_oracle),
    ("2 circle relation -q^2 - q^-2", criterion_2_circle_relation),
    ("3 Chebyshev product and composition identities", criterion_3_chebyshev),
    ("4 torus algebra associativity", criterion_4_associativity),
    ("5 threading lands in the center (controls included)", criterion_5_transparency),
    ("6 product-to-sum vs diagram action", criterion_6_action_cross_validation),
    ("7 lens pipeline anchors", criterion_7_lens_anchors),
    ("8 lens dims = cyclic character-ring dims", criterion_8_rational_cross_check),
    ("9 trace polynomial numeric oracle", criterion_9_trace_oracle),
    ("10 Poincare-sphere character ring", criterion_10_poincare_sphere),
    ("11 matrix ideal quotient comparison", criterion_11_lr_quotient),
    ("12 Artinian decomposition and localization", criterion_12_artinian),
    ("13 non-reproducibility statement", criterion_13_caveat),
)


def run_all():
    results = []
    for name, fn in CRITERIA:
        start = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        elapsed = time.time() - start
        results.append((name, passed, detail, elapsed))
        flag = "PASS" if passed else "FAIL"
        print(f"[{flag}] {name}: {detail} ({elapsed:.1f}s)", flush=True)
    print(CAVEAT, flush=True)
    return results

"""The skeinlab command line.

Subcommands: bracket, thread, torus, lens, charring, groebner, decompose,
verify, accept. All file formats are canonical JSON; every run that writes
an output also writes a RunManifest next to it. Exit codes: 0 success,
1 acceptance failure, 2 malformed input, 3 non-stabilized computation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .artinian import artinian_decompose
from .charring import GroupPresentation, char_ring
from .chebyshev import thread_annulus
from .coeffs import field_from_tag
from .diagrams import ANNULUS, AnnulusSkein, FramedDiagram, bracket_annulus, bracket_disk
from .errors import SkeinError, StabilizationError
from .groebner import PolyIdeal, buchberger
from .heegaard import lens_module
from .jsonio import write_manifest, write_output
from .matideals import random_instance, verify_lr_quotient
from .torus import TorusSkein, commutator, is_central, torus_mul

EXIT_OK = 0
EXIT_ACCEPT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_STABILIZED = 3


def _load(path, parse):
    """Read a JSON input file and build an object from it with ``parse``.

    JSON of the wrong shape (a number where a list belongs, a list where an
    object belongs, a missing key) surfaces as TypeError, AttributeError or
    KeyError inside ``parse``, and a zero denominator ("1/0", an empty
    denominator polynomial) as ZeroDivisionError; all are malformed input
    like any other.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except KeyError as exc:
        raise SkeinError(f"malformed input {path}: missing key {exc}") from exc
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise SkeinError(f"malformed input {path}: {exc}") from exc


def _emit(args, command, parameters, inputs, data):
    out = getattr(args, "out", None)
    if out:
        digest = write_output(out, data)
        write_manifest(out, command, parameters, inputs, digest)
    else:
        json.dump(data, sys.stdout, sort_keys=True, indent=2)
        print()


def cmd_bracket(args):
    diagram = _load(args.diagram, FramedDiagram.from_json)
    field = field_from_tag(args.field)
    if diagram.surface == ANNULUS:
        value = bracket_annulus(diagram, field)
        printable = str(value)
        data = {"surface": diagram.surface, "value": value.to_json()}
    else:
        value = bracket_disk(diagram, field)
        printable = str(value)
        data = {
            "surface": diagram.surface,
            "value": field.scalar_to_json(value),
            "field": field.tag,
        }
    print(printable)
    _emit(args, "bracket", {"field": args.field}, [args.diagram], data)
    return EXIT_OK


def cmd_thread(args):
    skein = _load(args.input, AnnulusSkein.from_json)
    result = thread_annulus(skein, args.m)
    print(result)
    _emit(args, "thread", {"m": args.m}, [args.input], result.to_json())
    return EXIT_OK


def cmd_torus(args):
    def load(path):
        def parse(data):
            # the field comes from the file's tag; --n only checks it
            tag = field_from_tag(data["field"]).tag
            if args.n and tag != f"zeta:{args.n}":
                raise SkeinError(f"{path} is over {tag}, but --n {args.n} asks for zeta:{args.n}")
            return TorusSkein.from_json(data)

        return _load(path, parse)

    if args.op in ("mul", "commutator"):
        if not args.b:
            print("torus mul/commutator needs --b", file=sys.stderr)
            return EXIT_BAD_INPUT
        a = load(args.a)
        b = load(args.b)
        result = torus_mul(a, b) if args.op == "mul" else commutator(a, b)
        print(result)
        _emit(args, f"torus {args.op}", {"n": args.n}, [args.a, args.b], result.to_json())
        return EXIT_OK
    a = load(args.a)
    central = is_central(a, args.bound)
    print("central" if central else "not central")
    _emit(
        args,
        "torus center-check",
        {"n": args.n, "bound": args.bound},
        [args.a],
        {"central": central, "bound": args.bound},
    )
    return EXIT_OK


def cmd_lens(args):
    field = field_from_tag(args.field)
    report = lens_module(args.p, args.q, field, args.truncation)
    print(report)
    _emit(
        args,
        "lens",
        {"p": args.p, "q": args.q, "field": args.field, "truncation": args.truncation},
        [],
        report.to_json(),
    )
    return EXIT_OK if report.stabilized else EXIT_NOT_STABILIZED


def cmd_charring(args):
    with open(args.presentation) as fh:
        group = GroupPresentation.parse(fh.read())
    report = char_ring(group)
    print(report)
    _emit(args, "charring", {}, [args.presentation], report.to_json())
    return EXIT_OK


def cmd_groebner(args):
    ideal = _load(args.ideal, PolyIdeal.from_json)
    ring = buchberger(ideal, args.order)
    dim = ring.dimension()
    data = {
        "order": args.order,
        "groebner": [g.to_json() for g in ring.groebner],
        "dimension": dim if dim is not None else "infinite",
    }
    print(f"|GB| = {len(ring.groebner)}, dimension = {data['dimension']}")
    _emit(args, "groebner", {"order": args.order}, [args.ideal], data)
    return EXIT_OK


def cmd_decompose(args):
    ideal = _load(args.ideal, PolyIdeal.from_json)
    ring = buchberger(ideal, "degrevlex")
    if ring.dimension() is None:
        print("positive-dimensional; no decomposition", file=sys.stderr)
        return EXIT_BAD_INPUT
    factors = artinian_decompose(ring)
    data = {
        "dimension": ring.dimension(),
        "factors": [f.to_json() for f in factors],
    }
    for f in factors:
        print(f)
    _emit(args, "decompose", {}, [args.ideal], data)
    return EXIT_OK


def cmd_verify(args):
    if args.what != "cor-lr":
        print(f"unknown verification target {args.what}", file=sys.stderr)
        return EXIT_BAD_INPUT
    for flag in ("seeds", "dimA", "n"):
        if getattr(args, flag) < 1:
            print(f"error: --{flag} must be at least 1, got {getattr(args, flag)}", file=sys.stderr)
            return EXIT_BAD_INPUT
    rows = []
    for seed in range(args.seeds):
        algebra, n, L, R = random_instance(seed, args.dimA, args.n)
        dl, dr, eq = verify_lr_quotient(L, R)
        rows.append({"seed": seed, "dim_lhs": dl, "dim_rhs": dr, "equal": eq})
        print(f"seed {seed}: {dl} vs {dr} {'ok' if eq else 'MISMATCH'}")
    _emit(args, "verify cor-lr", {"dimA": args.dimA, "n": args.n, "seeds": args.seeds}, [], rows)
    return EXIT_OK if all(r["equal"] for r in rows) else EXIT_ACCEPT_FAIL


def cmd_accept(args):
    from .acceptance import run_all

    results = run_all(verbose=True)
    data = [
        {"criterion": name, "passed": passed, "detail": detail, "seconds": round(sec, 2)}
        for name, passed, detail, sec in results
    ]
    if getattr(args, "out", None):
        _emit(args, "accept", {}, [], data)
    return EXIT_OK if all(r["passed"] for r in data) else EXIT_ACCEPT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(prog="skeinlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="evaluate a diagram JSON file")
    p.add_argument("diagram")
    p.add_argument("--field", default="generic", help="generic | q | zeta:<n>")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("thread", help="apply the Chebyshev threading to a skein")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_thread)

    p = sub.add_parser("torus", help="torus algebra operations")
    p.add_argument("op", choices=("mul", "commutator", "center-check"))
    p.add_argument("--n", type=int, default=0, help="check that the files are over zeta:<n>; omit to skip")
    p.add_argument("--a", required=True)
    p.add_argument("--b")
    p.add_argument("--bound", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_torus)

    p = sub.add_parser("lens", help="skein module of a lens space")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--field", default="generic")
    p.add_argument("--truncation", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lens)

    p = sub.add_parser("charring", help="SL2 character ring of a presentation file")
    p.add_argument("presentation")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_charring)

    p = sub.add_parser("groebner", help="reduced Groebner basis of an ideal JSON")
    p.add_argument("ideal")
    p.add_argument("--order", default="degrevlex", choices=("degrevlex", "lex"))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_groebner)

    p = sub.add_parser("decompose", help="Artinian local factors of an ideal JSON")
    p.add_argument("ideal")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="randomized verification batteries")
    p.add_argument("what", choices=("cor-lr",))
    p.add_argument("--dimA", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("accept", help="run the full acceptance suite")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_accept)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StabilizationError as exc:
        print(f"not stabilized: {exc}", file=sys.stderr)
        for n, d in sorted(exc.dims_by_truncation.items()):
            print(f"  truncation {n}: dimension {d}", file=sys.stderr)
        return EXIT_NOT_STABILIZED
    except (SkeinError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

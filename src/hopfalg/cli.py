"""Command-line front end.

    hopf verify      --family K
    hopf primitives  --family D --params 0,1,0,0,0,0,0,0
    hopf p2          --family E --params 1,1,0
    hopf coradical   --family A --params 0,0,0 --level 2
    hopf extract-cla --family D --params 0,1,0,0,0,0,0,0
    hopf lantern     --family K
    hopf cohomology  --family A --params 0,0,0 --max-degree 6 --bidegree
    hopf morphism    --file morphism.json
    hopf catalog
    hopf replicate [--json]

Objects come either from the built-in catalog (--family/--params) or from
a JSON file (--file) in the schema documented in the README.  Exit codes:
0 all checks pass, 1 a verification failed, 2 malformed input; any other
exception is a defect and propagates.  Only cohomology takes a degree
bound, --max-degree, 5 by default.  verify reads the antipode axiom in
every degree off its certificate; primitives, p2, coradical, extract-cla
and lantern each read an invariant of H whole, at its complete bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import build, family_parameter_names, from_cli_params, list_catalog
from .cla import CLA, enveloping, lantern_of_cla, object_battery
from .cobar import h2_report, require_hopf_algebra
from .errors import HopfAlgError, InputError
from .hopf import HopfPresentation
from .jsonio import (cla_to_json, load_object, presentation_from_json,
                     read_json, terms_from_json)
from .structure import (coradical_filtration, extract_cla, lantern_of_hopf,
                        p2_space, primitive_space)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def add_object_args(sub):
    sub.add_argument("--family", help="catalog family tag (A, B, D, E, F, K, "
                     "cla_a, cla_b, cla35a..cla35h, lie_abelian4, "
                     "lie_heis3, lie_solv2)")
    sub.add_argument("--params", default="",
                     help="comma-separated rational parameters, e.g. 1,0,0")
    sub.add_argument("--file", help="JSON presentation or CLA file")


def resolve_object(args):
    if bool(args.family) == bool(args.file):
        raise InputError("give exactly one of --family or --file")
    if args.file:
        return load_object(args.file)
    params = [p for p in args.params.split(",") if p.strip() != ""]
    return build(from_cli_params(args.family, params))


def require_hopf(obj) -> HopfPresentation:
    if isinstance(obj, HopfPresentation):
        return obj
    raise InputError("this subcommand needs a Hopf presentation; got a CLA "
                     "(envelope it first or pass a presentation)")


def emit(args, human: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def cmd_verify(args) -> int:
    obj = resolve_object(args)
    report = object_battery(obj)
    emit(args, str(report), report.to_json())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _space_command(args, compute, label: str = "", **extra) -> int:
    obj = resolve_object(args)
    if isinstance(obj, CLA):
        obj = enveloping(obj)
    space = compute(obj)
    human = [f"{label}dimension {space.dim}, in degrees <= "
             f"{space.complete_bound}"]
    human += [f"  {b!r}" for b in space.basis]
    emit(args, "\n".join(human), dict(space.to_json(), **extra))
    return EXIT_OK


def cmd_primitives(args) -> int:
    return _space_command(args, primitive_space)


def cmd_p2(args) -> int:
    return _space_command(args, p2_space)


def cmd_coradical(args) -> int:
    return _space_command(
        args, lambda h: coradical_filtration(h, args.level),
        f"coradical piece {args.level}: ", level=args.level)


def cmd_extract_cla(args) -> int:
    obj = resolve_object(args)
    if isinstance(obj, CLA):
        raise InputError("extract-cla expects a Hopf presentation")
    L = extract_cla(obj)
    emit(args, repr(L), cla_to_json(L))
    return EXIT_OK


def cmd_lantern(args) -> int:
    obj = resolve_object(args)
    gl = lantern_of_cla(obj) if isinstance(obj, CLA) else lantern_of_hopf(obj)
    payload = {
        "basis": gl.names,
        "degrees": gl.degrees,
        "brackets": {f"{i},{j}": {str(k): str(c) for k, c in terms.items()}
                     for (i, j), terms in sorted(gl.brackets.items())},
    }
    emit(args, repr(gl), payload)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    obj = require_hopf(resolve_object(args))
    require_hopf_algebra(obj.verify_pbw_consistency(),
                         obj.verify_coassociativity(),
                         obj.verify_compatibility())
    report = h2_report(obj, args.max_degree, by_bidegree=args.bidegree)
    stable = report.stable_from_previous_bound
    payload = report.to_json()
    payload["stable_from_previous_bound"] = stable
    emit(args, f"{report}\n  stable from bound {args.max_degree - 1}: "
               f"{stable}", payload)
    return EXIT_OK


def _morphism_side(data, label):
    if not isinstance(data, dict):
        raise InputError(f"{label} must be an object")
    if "family" in data:
        family, params = data["family"], data.get("params", [])
        if not isinstance(family, str) or not isinstance(params, list):
            raise InputError(f"{label}: 'family' must be a string and "
                             "'params' an array")
        try:
            spec = from_cli_params(family, params)
        except TypeError as exc:
            raise InputError(f"{label}: 'params' must be integers or "
                             f"rational strings: {exc}") from exc
        return build(spec)
    if "generators" in data:
        return presentation_from_json(data)
    raise InputError(f"{label} needs either 'family' or 'generators'")


def cmd_morphism(args) -> int:
    if not args.file:
        raise InputError("morphism requires --file with source, target, images")
    data = read_json(args.file)
    if not isinstance(data, dict):
        raise InputError("morphism file must hold a JSON object")
    src = require_hopf(_morphism_side(data.get("source"), "source"))
    dst = require_hopf(_morphism_side(data.get("target"), "target"))
    try:
        parsed = {name: terms_from_json(terms, "monomial")
                  for name, terms in (data.get("images") or {}).items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed morphism images: {exc!r}") from exc
    images = {name: dst.algebra.element(terms) for name, terms in parsed.items()}
    check_coalgebra = data.get("check_coalgebra", True)
    if not isinstance(check_coalgebra, bool):
        raise InputError("'check_coalgebra' must be a boolean")
    report = src.verify_morphism(dst, images, check_coalgebra=check_coalgebra)
    emit(args, str(report), report.to_json())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_catalog(args) -> int:
    rows = []
    for spec in list_catalog():
        names = family_parameter_names(spec.tag)
        rows.append({"tag": spec.tag, "label": spec.describe(),
                     "params": {k: str(spec.params[k]) for k in names}})
    human = "\n".join(f"{r['tag']:12} {r['label']}" for r in rows)
    emit(args, human, {"catalog": rows})
    return EXIT_OK


def cmd_replicate(args) -> int:
    from .replicate import run_replication
    results = run_replication()
    ok = all(r.passed for r in results)
    if getattr(args, "json", False):
        print(json.dumps({
            "passed": ok,
            "criteria": [{"number": r.number, "title": r.title,
                          "passed": r.passed, "detail": r.detail,
                          "seconds": round(r.seconds, 2)}
                         for r in results]}, indent=2))
    else:
        for r in results:
            print(r.line())
        print("replication:", "ALL PASS" if ok else "FAILURES PRESENT")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each subcommand's
    ``fn`` looks its library calls up when it runs, so the parser holds
    nothing that changes between calls."""
    parser = argparse.ArgumentParser(
        prog="hopf",
        description="exact computations with connected Hopf algebra "
                    "presentations and coassociative Lie algebras")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, fn, **kwargs):
        s = subs.add_parser(name, **kwargs)
        s.set_defaults(fn=fn)
        s.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return s

    s = sub("verify", cmd_verify, help="run the verification battery")
    add_object_args(s)

    for name, fn in (("primitives", cmd_primitives), ("p2", cmd_p2)):
        s = sub(name, fn, help=f"compute the {name} space")
        add_object_args(s)

    s = sub("coradical", cmd_coradical, help="coradical filtration piece")
    add_object_args(s)
    s.add_argument("--level", type=int, required=True)

    s = sub("extract-cla", cmd_extract_cla,
            help="read the CLA off the anti-cocommutative space")
    add_object_args(s)

    s = sub("lantern", cmd_lantern, help="graded Lie algebra invariant")
    add_object_args(s)

    s = sub("cohomology", cmd_cohomology, help="bounded cobar H^2 report")
    add_object_args(s)
    s.add_argument("--max-degree", type=int, default=5)
    s.add_argument("--bidegree", action="store_true",
                   help="report per bidegree (graded presentations only)")

    s = sub("morphism", cmd_morphism, help="verify a generator assignment")
    s.add_argument("--file", required=True,
                   help="JSON with source, target, images, check_coalgebra")

    sub("catalog", cmd_catalog, help="list the built-in families")
    sub("replicate", cmd_replicate, help="run the full replication table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HopfAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

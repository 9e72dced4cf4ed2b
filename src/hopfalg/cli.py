"""Command-line front end.

    hopf verify      --family K
    hopf primitives  --family D --params 0,1,0,0,0,0,0,0 --max-degree 5
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
exception is a defect and propagates.  The default degree bound is 5
(lantern: 3); override with --max-degree or HOPF_MAX_DEGREE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import build, family_parameter_names, from_cli_params, list_catalog
from .cla import CLA, enveloping, lantern_of_cla
from .cobar import h2_report
from .errors import HopfAlgError, InputError
from .exactlin import scalar
from .hopf import HopfPresentation
from .jsonio import cla_to_json, load_object, presentation_from_json, read_json
from .replicate import object_battery, run_replication
from .structure import (coradical_filtration, extract_cla, lantern_of_hopf,
                        p2_space, primitive_space)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def default_bound() -> int:
    env = os.environ.get("HOPF_MAX_DEGREE")
    if not env:
        return 5
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"HOPF_MAX_DEGREE={env!r} is not an integer") from exc


def max_degree(args) -> int:
    return args.max_degree if args.max_degree is not None else default_bound()


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


def subspace_payload(space, stable) -> dict:
    data = space.to_json()
    data["stable_from_previous_bound"] = stable
    return data


def cmd_verify(args) -> int:
    obj = resolve_object(args)
    report = object_battery(obj, antipode_bound=max_degree(args))
    emit(args, str(report), report.to_json())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _space_command(args, compute) -> int:
    obj = resolve_object(args)
    if isinstance(obj, CLA):
        obj = enveloping(obj)
    bound = max_degree(args)
    space = compute(obj, bound)
    prev = compute(obj, bound - 1) if bound > 1 else space
    stable = prev.dim == space.dim
    human = [f"dimension {space.dim} within degree bound {bound} "
             f"(stable from bound {bound - 1}: {stable})"]
    human += [f"  {b!r}" for b in space.basis]
    emit(args, "\n".join(human), subspace_payload(space, stable))
    return EXIT_OK


def cmd_primitives(args) -> int:
    return _space_command(args, primitive_space)


def cmd_p2(args) -> int:
    return _space_command(args, p2_space)


def cmd_coradical(args) -> int:
    obj = resolve_object(args)
    if isinstance(obj, CLA):
        obj = enveloping(obj)
    bound = max_degree(args)
    space = coradical_filtration(obj, args.level, bound)
    if bound > 1:
        prev = coradical_filtration(obj, args.level, bound - 1)
        stable = prev.dim == space.dim
    else:
        stable = True
    human = [f"coradical piece {args.level}: dimension {space.dim} within "
             f"degree bound {bound} (stable from bound {bound - 1}: {stable})"]
    human += [f"  {b!r}" for b in space.basis]
    payload = subspace_payload(space, stable)
    payload["level"] = args.level
    emit(args, "\n".join(human), payload)
    return EXIT_OK


def cmd_extract_cla(args) -> int:
    obj = resolve_object(args)
    if isinstance(obj, CLA):
        raise InputError("extract-cla expects a Hopf presentation")
    L = extract_cla(obj, max_degree(args))
    emit(args, repr(L), cla_to_json(L))
    return EXIT_OK


def cmd_lantern(args) -> int:
    obj = resolve_object(args)
    bound = args.max_degree if args.max_degree is not None else 3
    if isinstance(obj, CLA):
        gl = lantern_of_cla(obj)
    else:
        gl = lantern_of_hopf(obj, bound)
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
    bound = max_degree(args)
    report = h2_report(obj, bound, by_bidegree=args.bidegree)
    stable = report.stable_from_previous_bound
    payload = report.to_json()
    payload["stable_from_previous_bound"] = stable
    emit(args, f"{report}\n  stable from bound {bound - 1}: {stable}", payload)
    return EXIT_OK


def _morphism_side(data, label):
    if not isinstance(data, dict):
        raise InputError(f"{label} must be an object")
    if "family" in data:
        return build(from_cli_params(data["family"],
                                     [str(p) for p in data.get("params", [])]))
    if "generators" in data:
        return presentation_from_json(data)
    raise InputError(f"{label} needs either 'family' or 'generators'")


def cmd_morphism(args) -> int:
    if not args.file:
        raise InputError("morphism requires --file with source, target, images")
    data = read_json(args.file)
    src = require_hopf(_morphism_side(data.get("source"), "source"))
    dst = require_hopf(_morphism_side(data.get("target"), "target"))
    images = {}
    for name, terms in (data.get("images") or {}).items():
        images[name] = dst.algebra.element(
            [(scalar(t["coeff"]), t.get("monomial", {})) for t in terms])
    report = src.verify_morphism(dst, images,
                                 check_coalgebra=data.get("check_coalgebra",
                                                          True))
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


def build_parser() -> argparse.ArgumentParser:
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
    s.add_argument("--max-degree", type=int, default=None,
                   help="antipode check bound (default 5)")

    for name, fn in (("primitives", cmd_primitives), ("p2", cmd_p2)):
        s = sub(name, fn, help=f"compute the {name} space")
        add_object_args(s)
        s.add_argument("--max-degree", type=int, default=None)

    s = sub("coradical", cmd_coradical, help="coradical filtration piece")
    add_object_args(s)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--max-degree", type=int, default=None)

    s = sub("extract-cla", cmd_extract_cla,
            help="read the CLA off the anti-cocommutative space")
    add_object_args(s)
    s.add_argument("--max-degree", type=int, default=None)

    s = sub("lantern", cmd_lantern, help="graded Lie algebra invariant")
    add_object_args(s)
    s.add_argument("--max-degree", type=int, default=None)

    s = sub("cohomology", cmd_cohomology, help="bounded cobar H^2 report")
    add_object_args(s)
    s.add_argument("--max-degree", type=int, default=None)
    s.add_argument("--bidegree", action="store_true",
                   help="report per bidegree (graded presentations only)")

    s = sub("morphism", cmd_morphism, help="verify a generator assignment")
    s.add_argument("--file", required=True,
                   help="JSON with source, target, images, check_coalgebra")

    sub("catalog", cmd_catalog, help="list the built-in families")
    sub("replicate", cmd_replicate, help="run the full replication table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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

"""JSON schemas for presentations, CLAs, elements and reports.

Presentation schema (coproducts optional; omitted generators are
primitive; omitted commutator pairs vanish):

    {"generators": [{"name": "X", "degree": 1, "bidegree": [1, 0]}, ...],
     "commutators": {"Z,X": [{"coeff": "1", "monomial": {"X": 1}}], ...},
     "coproducts": {"Z": [{"coeff": "1", "left": {"X": 1},
                           "right": {"Y": 1}}, ...]}}

Commutator keys are "HIGHER,LOWER" in generator order; scalars are
strings "p/q" or "p" with the sign on the numerator.

CLA schema (0-based basis indices):

    {"dim": 3, "basis": ["x", "y", "z"],
     "brackets": {"2,0": [{"coeff": "1", "basis": 0}], ...},
     "delta": {"2": [{"coeff": "1", "left": 0, "right": 1},
                     {"coeff": "-1", "left": 1, "right": 0}]}}
"""

from __future__ import annotations

import json

from .cla import CLA
from .errors import InputError
from .exactlin import scalar
from .hopf import HopfPresentation
from .ore import AlgebraElement, GeneratorInfo, OrePresentation


def element_to_terms(a: AlgebraElement) -> list[dict]:
    names = a.p.names
    return [{"coeff": str(c),
             "monomial": {n: e for n, e in zip(names, m) if e}}
            for m, c in a.sorted_terms()]


def presentation_to_json(h: HopfPresentation) -> dict:
    alg = h.algebra
    gens = []
    for g in alg.generators:
        entry = {"name": g.name, "degree": g.degree}
        if g.bidegree is not None:
            entry["bidegree"] = list(g.bidegree)
        gens.append(entry)
    commutators = {}
    for (j, i), terms in sorted(alg.kappa.items()):
        key = f"{alg.names[j]},{alg.names[i]}"
        commutators[key] = [
            {"coeff": str(c),
             "monomial": {n: e for n, e in zip(alg.names, m) if e}}
            for m, c in sorted(terms.items(),
                               key=lambda kv: alg.monomial_key(kv[0]))]
    coproducts = {}
    for g, terms in sorted(h.delta_gen.items()):
        coproducts[alg.names[g]] = [
            {"coeff": str(c),
             "left": {n: e for n, e in zip(alg.names, l) if e},
             "right": {n: e for n, e in zip(alg.names, r) if e}}
            for (l, r), c in sorted(
                terms.items(),
                key=lambda kv: (alg.monomial_key(kv[0][0]),
                                alg.monomial_key(kv[0][1])))]
    return {"generators": gens, "commutators": commutators,
            "coproducts": coproducts}


def presentation_from_json(data: dict, strict: bool = True) -> HopfPresentation:
    try:
        gens = [GeneratorInfo(g["name"], g["degree"],
                              tuple(g["bidegree"]) if "bidegree" in g else None)
                for g in data["generators"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed generator list: {exc}") from exc
    commutators = {}
    for key, terms in (data.get("commutators") or {}).items():
        commutators[key] = [(scalar(t["coeff"]), t.get("monomial", {}))
                            for t in terms]
    algebra = OrePresentation(gens, commutators, strict=strict)
    coproducts = {}
    for name, terms in (data.get("coproducts") or {}).items():
        coproducts[name] = [(scalar(t["coeff"]), t.get("left", {}),
                             t.get("right", {})) for t in terms]
    return HopfPresentation(algebra, coproducts, strict=strict)


def cla_to_json(L: CLA) -> dict:
    brackets = {}
    for (i, j), terms in sorted(L.brackets.items()):
        brackets[f"{i},{j}"] = [{"coeff": str(c), "basis": k}
                                for k, c in sorted(terms.items())]
    delta = {}
    for i, terms in sorted(L.delta.items()):
        delta[str(i)] = [{"coeff": str(c), "left": j, "right": k}
                         for (j, k), c in sorted(terms.items())]
    return {"dim": L.dim, "basis": list(L.names),
            "brackets": brackets, "delta": delta}


def cla_from_json(data: dict) -> CLA:
    try:
        basis = list(data["basis"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed CLA data: {exc}") from exc
    if data.get("dim") is not None and data["dim"] != len(basis):
        raise InputError("dim does not match the basis length")
    brackets = {}
    delta = {}
    try:
        for key, terms in (data.get("brackets") or {}).items():
            if isinstance(key, str):
                i, j = (int(s) for s in key.split(","))
            else:
                i, j = key
            brackets[(i, j)] = {t["basis"]: scalar(t["coeff"]) for t in terms}
        for key, terms in (data.get("delta") or {}).items():
            delta[int(key)] = {(t["left"], t["right"]): scalar(t["coeff"])
                               for t in terms}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed CLA data: {exc!r}") from exc
    return CLA(basis, brackets, delta)


def read_json(path: str):
    """The decoded contents of a JSON file; undecodable text is InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not valid UTF-8 JSON: {exc}") from exc


def load_object(path: str, strict: bool = True):
    """Load a Hopf presentation or a CLA from a JSON file, by schema."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    if "generators" in data:
        return presentation_from_json(data, strict=strict)
    if "basis" in data:
        return cla_from_json(data)
    raise InputError(
        "unrecognized schema: expected a presentation ('generators') or a "
        "CLA ('basis')")

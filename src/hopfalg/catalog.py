"""Validated constructors for the named Hopf algebra and CLA families.

Hopf families A, B (three generators, GK-dimension 3) and D, E, F, K
(four generators, GK-dimension 4) are built over generators X, Y of
weight 1, Z of weight 2 and W of weight 3, with X, Y primitive,
delta(Z) = X(x)Y - Y(x)X, and delta(W) a combination of the two degree-3
cocycles

    u = Z(x)X - X(x)Z + X(x)XY + XY(x)X,
    t = Y(x)Z - Z(x)Y + XY(x)Y + Y(x)XY.

CLA families: the three-dimensional a(l1, l2, alpha) and b(lambda), and
the eight four-dimensional anti-cocommutative families (tags "35a".."35h")
with kernel basis x1, x2, x3 and delta(z) = x1(x)x2 - x2(x)x1.

Normalization constraints coming from isomorphism classifications are
warnings for Hopf families (any rational parameters give a valid Hopf
algebra) and hard errors for CLA variants with restricted domains.

The generators are module constants, and each Hopf family's term shapes
(delta(Z), the cocycles u and t, the monomials of its [Z, -] and
[W, -]) are compiled at import from {name: exponent} tables to exponent
tuples, over three generators and over four.  A build coerces each
parameter once, in its constructor (``build`` passes them as given), and
hands the presentation its coefficients on those tuples; the
presentation still checks every term, as it does any input.
"""

from __future__ import annotations

import functools
import inspect
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .cla import CLA, _envelope
from .errors import InputError, ParameterError
from .exactlin import scalar
from .hopf import HopfPresentation
from .ore import GeneratorInfo, OrePresentation

__all__ = [
    "FamilySpec", "make_A", "make_B", "make_D", "make_E", "make_F", "make_K",
    "make_lie", "make_cla_a", "make_cla_b", "make_cla_35",
    "list_catalog", "build", "family_parameter_names",
]


@dataclass(frozen=True)
class FamilySpec:
    """A catalog entry: family tag plus parameter assignment."""

    tag: str
    params: dict = field(default_factory=dict)
    label: str = ""

    def describe(self) -> str:
        if self.label:
            return self.label
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.tag}({inner})"


# -- generators and term shapes, compiled at import ----------------------------------

_GENS3 = (GeneratorInfo("X", 1, (1, 0)), GeneratorInfo("Y", 1, (0, 1)),
          GeneratorInfo("Z", 2, (1, 1)))
_GENS4 = (*_GENS3, GeneratorInfo("W", 3, (1, 2)))
# the generators alone, with no commutators: they compile the shapes
_ALG3, _ALG4 = OrePresentation(_GENS3), OrePresentation(_GENS4)

# delta(Z) and the degree-3 cocycles u and t as (sign, left, right)
_DELTA_Z = [(1, {"X": 1}, {"Y": 1}), (-1, {"Y": 1}, {"X": 1})]
_COCYCLE_U = [(1, {"Z": 1}, {"X": 1}), (-1, {"X": 1}, {"Z": 1}),
              (1, {"X": 1}, {"X": 1, "Y": 1}), (1, {"X": 1, "Y": 1}, {"X": 1})]
_COCYCLE_T = [(1, {"Y": 1}, {"Z": 1}), (-1, {"Z": 1}, {"Y": 1}),
              (1, {"X": 1, "Y": 1}, {"Y": 1}), (1, {"Y": 1}, {"X": 1, "Y": 1})]


def _compiled_terms(p: OrePresentation, terms) -> list[tuple]:
    """(sign, left, right) shapes with the exponent tuples of p."""
    return [(sign, p.monomial_tuple(left), p.monomial_tuple(right))
            for sign, left, right in terms]


def _compiled_kappa(p: OrePresentation, table) -> list[tuple]:
    """A commutator table {"HIGHER,LOWER": [monomial, ...]} as ((j, i),
    exponent tuples) pairs over the generators of p, in table order."""
    return [(p._pair_indices(key), tuple(map(p.monomial_tuple, monos)))
            for key, monos in table.items()]


def _kappa(shape, *coeffs) -> dict:
    """The commutator table of a compiled shape, its coefficients in the
    shape's term order."""
    it = iter(coeffs)
    return {key: [(next(it), mono) for mono in monos] for key, monos in shape}


def _scaled(cocycle, theta) -> list[tuple]:
    """theta times a compiled cocycle, as (coeff, left, right) term data."""
    minus = -theta
    return [(theta if sign > 0 else minus, left, right)
            for sign, left, right in cocycle]


_DELTA_Z3 = _compiled_terms(_ALG3, _DELTA_Z)
_DELTA_Z4 = _compiled_terms(_ALG4, _DELTA_Z)
_U4 = _compiled_terms(_ALG4, _COCYCLE_U)
_T4 = _compiled_terms(_ALG4, _COCYCLE_T)

_A_KAPPA = _compiled_kappa(_ALG3, {"Z,X": [{"X": 1}, {"Y": 1}],
                                   "Z,Y": [{"Y": 1}]})
_B_KAPPA = _compiled_kappa(_ALG3, {"Y,X": [{"Y": 1}],
                                   "Z,X": [{"Z": 1}, {"Y": 1}]})
_D_KAPPA = _compiled_kappa(_ALG4, {"W,X": [{"X": 1}, {"Y": 1}],
                                   "W,Y": [{"X": 1}, {"Y": 1}],
                                   "W,Z": [{"Z": 1}, {"X": 1}, {"Y": 1}]})
_E_KAPPA = _compiled_kappa(_ALG4, {"Z,X": [{"X": 1}],
                                   "W,X": [{"X": 1}],
                                   "W,Y": [{"X": 1}],
                                   "W,Z": [{"Z": 1}, {"W": 1}, {"X": 1}]})
_F_KAPPA = _compiled_kappa(_ALG4, {"Z,X": [{"Y": 1}],
                                   "W,X": [{"Y": 1}],
                                   "W,Y": [{"Y": 1}],
                                   "W,Z": [{"Z": 1}, {"Y": 3}, {"X": 1}]})
_K_KAPPA = _compiled_kappa(_ALG4, {"Z,X": [{"X": 1}],
                                   "W,X": [{"Z": 1}],
                                   "W,Z": [{"W": 1}, {"X": 1, "Y": 2}]})


def make_A(l1, l2, alpha) -> HopfPresentation:
    """[X,Y] = 0, [Z,X] = l1*X + alpha*Y, [Z,Y] = l2*Y."""
    l1, l2, alpha = scalar(l1), scalar(l2), scalar(alpha)
    if (l1 != l2 and alpha != 0) or (l1 == l2 and alpha not in (0, 1)):
        warnings.warn(
            "A-family parameters outside the normalized classes "
            "(alpha = 0 unless l1 = l2, then alpha in {0, 1}); the result "
            "is still a valid Hopf algebra", stacklevel=2)
    algebra = OrePresentation(_GENS3, _kappa(_A_KAPPA, l1, alpha, l2))
    return HopfPresentation(algebra, {"Z": _DELTA_Z3})


def make_B(lam) -> HopfPresentation:
    """[X,Y] = Y, [Z,X] = -Z + lam*Y, [Z,Y] = 0."""
    algebra = OrePresentation(_GENS3, _kappa(_B_KAPPA, -1, -1, scalar(lam)))
    return HopfPresentation(algebra, {"Z": _DELTA_Z3})


def make_D(t1, t2, a11, a12, a21, a22, x1, x2) -> HopfPresentation:
    """Commutative-in-XYZ family: [W,X], [W,Y] in span(X,Y) and
    [W,Z] = (a11+a22) Z + x1 X + x2 Y; delta(W) = t1*u + t2*t."""
    t1, t2, a11, a12, a21, a22, x1, x2 = map(
        scalar, (t1, t2, a11, a12, a21, a22, x1, x2))
    if t1 == 0 and t2 == 0:
        raise ParameterError("D family requires at least one theta nonzero")
    algebra = OrePresentation(_GENS4, _kappa(
        _D_KAPPA, a11, a12, a21, a22, a11 + a22, x1, x2))
    return HopfPresentation(algebra, {
        "Z": _DELTA_Z4, "W": _scaled(_U4, t1) + _scaled(_T4, t2)})


def make_E(a, b, xi) -> HopfPresentation:
    """[Z,X] = X; [W,X] = a X, [W,Y] = b X, [W,Z] = a Z - W + xi X;
    delta(W) = u."""
    a, b, xi = scalar(a), scalar(b), scalar(xi)
    algebra = OrePresentation(_GENS4, _kappa(_E_KAPPA, 1, a, b, a, -1, xi))
    return HopfPresentation(algebra, {"Z": _DELTA_Z4, "W": _U4})


def make_F(beta, gamma, xi) -> HopfPresentation:
    """[Z,X] = Y; [W,X] = beta Y, [W,Y] = gamma Y,
    [W,Z] = gamma Z - (2/3) Y^3 + xi X; delta(W) = t."""
    beta, gamma, xi = scalar(beta), scalar(gamma), scalar(xi)
    if {beta, gamma} != {0, 1}:
        warnings.warn(
            "F-family parameters outside the normalized classes "
            "({beta, gamma} = {0, 1}); the result is still a valid Hopf "
            "algebra", stacklevel=2)
    algebra = OrePresentation(_GENS4, _kappa(
        _F_KAPPA, 1, beta, gamma, gamma, Fraction(-2, 3), xi))
    return HopfPresentation(algebra, {"Z": _DELTA_Z4, "W": _T4})


def make_K() -> HopfPresentation:
    """[Z,X] = X; [W,X] = -Z, [W,Y] = 0, [W,Z] = W - X Y^2; delta(W) = t."""
    algebra = OrePresentation(_GENS4, _kappa(_K_KAPPA, 1, -1, 1, -1))
    return HopfPresentation(algebra, {"Z": _DELTA_Z4, "W": _T4})


def make_lie(basis, brackets) -> HopfPresentation:
    """Enveloping Hopf presentation of an ordinary Lie algebra.

    brackets: {(i, j): {k: coeff}} structure constants over the given
    basis; all generators are primitive with weight 1.  The constants must
    satisfy Jacobi, the one CLA axiom that can fail when delta = 0, since
    Delta(kappa_ji) = kappa_ji (x) 1 + 1 (x) kappa_ji = [Delta x_j, Delta x_i].
    """
    lie = CLA(basis, brackets)
    if lie.jacobi_witness() is not None:
        raise InputError(
            "structure constants are not a Lie algebra: Jacobi identity")
    return _envelope(lie)


def make_cla_a(l1, l2, alpha) -> CLA:
    """3-dim CLA: [x,y] = 0, [z,x] = l1 x + alpha y, [z,y] = l2 y,
    delta(z) = x(x)y - y(x)x."""
    l1, l2, alpha = scalar(l1), scalar(l2), scalar(alpha)
    return CLA(["x", "y", "z"],
               brackets={(2, 0): {0: l1, 1: alpha}, (2, 1): {1: l2}},
               delta={2: {(0, 1): 1, (1, 0): -1}})


def make_cla_b(lam) -> CLA:
    """3-dim CLA: [x,y] = y, [z,x] = -z + lam y, [z,y] = 0,
    delta(z) = x(x)y - y(x)x."""
    return CLA(["x", "y", "z"],
               brackets={(0, 1): {1: 1},
                         (2, 0): {2: -1, 1: scalar(lam)}},
               delta={2: {(0, 1): 1, (1, 0): -1}})


_AB_CHOICES = {(1, 1), (1, 0), (0, 1), (0, 0)}


def make_cla_35(variant: str, **params) -> CLA:
    """The eight families of 4-dim anti-cocommutative CLAs, tags "a".."h".

    Basis x1, x2, x3, z with delta(z) = x1(x)x2 - x2(x)x1 and delta = 0 on
    the x_i; parameter domains are enforced as documented per variant.

    The tables are built verbatim.  Beware that variant "g" with b or c
    nonzero and variant "h" with a = 1 do not satisfy the Jacobi identity
    (apply [z, -] to [x3, x1]: the two sides differ by 2a, resp. 2b or 2c);
    verify_cla reports this honestly.  The Jacobi-consistent members are
    g with b = c = 0 and h with a = 0.
    """
    variant = variant.lower().removeprefix("35")
    if variant not in _CLA35:
        raise ParameterError(f"unknown 4-dim CLA variant {variant!r}")
    constructor, keys = _CLA35[variant]
    missing = [k for k in keys if k not in params]
    extra = [k for k in params if k not in keys]
    if missing or extra:
        raise ParameterError(
            f"variant {variant!r} takes parameters {list(keys)}; "
            f"missing {missing}, unexpected {extra}")
    return constructor(**{k: scalar(v) for k, v in params.items()})


def _cla35(brackets) -> CLA:
    return CLA(["x1", "x2", "x3", "z"], brackets,
               {3: {(0, 1): 1, (1, 0): -1}})


def _ab_domain(a, b):
    if (a, b) not in _AB_CHOICES:
        raise ParameterError(
            f"(a, b) must be one of (1,1), (1,0), (0,1), (0,0); got "
            f"({a}, {b})")


def _cla35_a(a, b, c) -> CLA:
    _ab_domain(a, b)
    return _cla35({(1, 0): {1: 1},
                   (3, 0): {3: 1, 0: a, 1: c},
                   (3, 1): {1: a},
                   (3, 2): {1: b}})


def _cla35_b(a11, a12, a13, a21, a22, a23, a31, a32, a33) -> CLA:
    return _cla35({(3, 0): {0: a11, 1: a12, 2: a13},
                   (3, 1): {0: a21, 1: a22, 2: a23},
                   (3, 2): {0: a31, 1: a32, 2: a33}})


def _cla35_c(a, b, c) -> CLA:
    return _cla35({(2, 0): {1: 1},
                   (3, 0): {0: a, 2: b},
                   (3, 1): {1: 1},
                   (3, 2): {0: c, 2: 1 - a}})


def _cla35_d(a, b, c) -> CLA:
    return _cla35({(2, 0): {1: 1},
                   (3, 0): {0: a, 2: b},
                   (3, 2): {0: c, 2: -a}})


def _cla35_e(a, b, c) -> CLA:
    _ab_domain(a, b)
    return _cla35({(2, 0): {0: 1},
                   (3, 0): {0: a},
                   (3, 1): {0: b},
                   (3, 2): {3: -1, 0: c, 2: a}})


def _cla35_f() -> CLA:
    return _cla35({(2, 0): {0: 1, 1: 1},
                   (2, 1): {1: 1},
                   (3, 2): {3: -2}})


def _cla35_g(a, b, c) -> CLA:
    _ab_domain(a, b)
    return _cla35({(2, 0): {0: 1},
                   (2, 1): {1: -1},
                   (3, 0): {0: a, 1: c},
                   (3, 1): {0: b}})


def _cla35_h(lam, a) -> CLA:
    if lam in (0, -1):
        raise ParameterError("variant h requires lam outside {0, -1}")
    if a not in (0, 1):
        raise ParameterError("variant h requires a in {0, 1}")
    return _cla35({(2, 0): {0: 1},
                   (2, 1): {1: lam},
                   (3, 0): {1: a},
                   (3, 1): {0: a},
                   (3, 2): {3: -1 - lam}})


# -- ready-made Lie algebras used by the catalog ------------------------------------

_LIE_PRESETS = {
    "abelian4": (["a", "b", "c", "d"], {}),
    "heis3": (["p", "q", "e"], {(0, 1): {2: 1}}),
    "solv2": (["x", "y"], {(0, 1): {1: 1}}),
}


def make_lie_preset(name: str) -> HopfPresentation:
    if name not in _LIE_PRESETS:
        raise ParameterError(
            f"unknown Lie preset {name!r}; available: {sorted(_LIE_PRESETS)}")
    basis, brackets = _LIE_PRESETS[name]
    return make_lie(basis, brackets)


# -- dispatch ------------------------------------------------------------------------

def _parameter_names(fn) -> tuple:
    """The parameter names a constructor declares in its signature."""
    return tuple(inspect.signature(fn).parameters)


# variant -> (table constructor, parameter names) of the 4-dim CLAs; the
# table constructors take scalars, which make_cla_35 coerces
_CLA35 = {v: (fn, _parameter_names(fn)) for v, fn in {
    "a": _cla35_a, "b": _cla35_b, "c": _cla35_c, "d": _cla35_d,
    "e": _cla35_e, "f": _cla35_f, "g": _cla35_g, "h": _cla35_h}.items()}

# family tag -> (constructor, parameter names); every constructor coerces
# its own parameters, so build passes them as given
_FAMILIES = {
    **{tag: (fn, _parameter_names(fn)) for tag, fn in {
        "A": make_A, "B": make_B, "D": make_D, "E": make_E, "F": make_F,
        "K": make_K, "cla_a": make_cla_a, "cla_b": make_cla_b}.items()},
    **{"cla35" + v: (functools.partial(make_cla_35, v), names)
       for v, (_, names) in _CLA35.items()},
    **{"lie_" + name: (functools.partial(make_lie_preset, name), ())
       for name in _LIE_PRESETS},
}

_TAG_ALIASES = {"cla-a": "cla_a", "claa": "cla_a",
                "cla-b": "cla_b", "clab": "cla_b"}


def family_parameter_names(tag: str) -> list[str]:
    """Positional parameter names for a family tag (CLI --params order)."""
    return list(_FAMILIES[_normalize_tag(tag)][1])


def _normalize_tag(tag: str) -> str:
    t = tag.strip()
    if t.upper() in _FAMILIES:
        return t.upper()
    t = t.lower()
    t = _TAG_ALIASES.get(t, t)
    if t.startswith("cla-35"):
        t = "cla35" + t[6:]
    if t in _FAMILIES:
        return t
    raise InputError(f"unknown family tag {tag!r}")


def build(spec: FamilySpec):
    """Construct the Hopf presentation or CLA described by a FamilySpec."""
    tag = _normalize_tag(spec.tag)
    constructor, names = _FAMILIES[tag]
    missing = [n for n in names if n not in spec.params]
    extra = [n for n in spec.params if n not in names]
    if missing or extra:
        raise InputError(f"family {tag} takes parameters {list(names)}; "
                         f"missing {missing}, unexpected {extra}")
    return constructor(**{n: spec.params[n] for n in names})


def from_cli_params(tag: str, params: list) -> FamilySpec:
    """FamilySpec from a CLI-style positional parameter list."""
    tag = _normalize_tag(tag)
    names = family_parameter_names(tag)
    if len(params) != len(names):
        raise InputError(
            f"family {tag} takes {len(names)} parameter(s) "
            f"({', '.join(names) or 'none'}); got {len(params)}")
    return FamilySpec(tag, dict(zip(names, [scalar(p) for p in params])))


def _spec(tag: str, label: str, *values) -> FamilySpec:
    return FamilySpec(tag, dict(zip(family_parameter_names(tag),
                                    map(scalar, values))), label)


def list_catalog() -> list[FamilySpec]:
    """One representative per family, at the documented normalized parameters."""
    return [
        _spec("A", "A(0,0,0)", 0, 0, 0),
        _spec("A", "A(1,0,0)", 1, 0, 0),
        _spec("A", "A(0,0,1)", 0, 0, 1),
        _spec("A", "A(1,1,1)", 1, 1, 1),
        _spec("A", "A(1,2,0)", 1, 2, 0),
        _spec("B", "B(0)", 0),
        _spec("B", "B(1)", 1),
        _spec("D", "D({0,1},{0},{0})", 0, 1, 0, 0, 0, 0, 0, 0),
        _spec("D", "D({1,0},{1,0,0,1},{1,0})", 1, 0, 1, 0, 0, 1, 1, 0),
        _spec("E", "E(0,0,0)", 0, 0, 0),
        _spec("E", "E(1,1,0)", 1, 1, 0),
        _spec("E", "E(0,1,2)", 0, 1, 2),
        _spec("F", "F(1,0,0)", 1, 0, 0),
        _spec("F", "F(0,1,0)", 0, 1, 0),
        _spec("F", "F(0,1,5)", 0, 1, 5),
        _spec("K", "K"),
        _spec("lie_abelian4", "U(abelian, dim 4)"),
        _spec("lie_heis3", "U(Heisenberg, dim 3)"),
        _spec("lie_solv2", "U(solvable, dim 2)"),
        _spec("cla_a", "a(0,0,0)", 0, 0, 0),
        _spec("cla_a", "a(1,2,0)", 1, 2, 0),
        _spec("cla_a", "a(0,0,1)", 0, 0, 1),
        _spec("cla_a", "a(1,1,1)", 1, 1, 1),
        _spec("cla_b", "b(0)", 0),
        _spec("cla_b", "b(1)", 1),
        _spec("cla35a", "dim-4 CLA, variant a, (1,1,0)", 1, 1, 0),
        _spec("cla35b", "dim-4 CLA, variant b, zero matrix", *[0] * 9),
        _spec("cla35b", "dim-4 CLA, variant b, diag(1,2,3)",
              1, 0, 0, 0, 2, 0, 0, 0, 3),
        _spec("cla35c", "dim-4 CLA, variant c, (1,1,1)", 1, 1, 1),
        _spec("cla35d", "dim-4 CLA, variant d, (1,0,0)", 1, 0, 0),
        _spec("cla35e", "dim-4 CLA, variant e, (1,1,0)", 1, 1, 0),
        _spec("cla35f", "dim-4 CLA, variant f"),
        # the printed variant-g table with b or c nonzero, and the printed
        # variant-h table with a = 1, fail the Jacobi identity (see
        # make_cla_35); the catalog carries the Jacobi-consistent parameters
        _spec("cla35g", "dim-4 CLA, variant g, (1,0,0)", 1, 0, 0),
        _spec("cla35h", "dim-4 CLA, variant h, (2,0)", 2, 0),
    ]

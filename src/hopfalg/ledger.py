"""The identity ledger of the replication battery (criterion 5).

Closed forms the paper's construction rests on, each checked exactly on
a catalog presentation: the reduced coproducts of low products of two
primitives, the commutators of the degree-3 cocycles u and t with the
primitives in the A family, and the reduced coproducts of [W, -]
re-derived from the family invariants of D, E, F and K.  Each check
takes one catalog entry of the battery's walk (``spec`` and the built
``obj``) and returns its failure strings, [] for an entry outside its
family.
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import _COCYCLE_T, _COCYCLE_U, FamilySpec
from .hopf import HopfPresentation, TensorElement
from .ore import bracket

F = Fraction


def cocycle_u(h: HopfPresentation) -> TensorElement:
    return h.tensor(_COCYCLE_U)


def cocycle_t(h: HopfPresentation) -> TensorElement:
    return h.tensor(_COCYCLE_T)


def _family_invariants(spec: FamilySpec):
    """(theta1, theta2, l1, l2, alpha, trace of the [W, primitives] action)."""
    p = spec.params
    if spec.tag == "D":
        return (p["t1"], p["t2"], F(0), F(0), F(0), p["a11"] + p["a22"])
    if spec.tag == "E":
        return (F(1), F(0), F(1), F(0), F(0), p["a"])
    if spec.tag == "F":
        return (F(0), F(1), F(0), F(0), F(1), p["gamma"])
    if spec.tag == "K":
        return (F(0), F(1), F(1), F(0), F(0), F(0))
    raise ValueError(spec.tag)


def _dz(h: HopfPresentation) -> TensorElement:
    return h.reduced_coproduct(h.algebra.gen("Z"))


def primitive_products(entry) -> list[str]:
    """Reduced coproducts of low products of two primitives."""
    spec = entry.spec
    if spec.tag not in ("A", "D", "E", "F", "K"):
        return []
    h = entry.obj
    alg = h.algebra
    X, Y = alg.gen("X"), alg.gen("Y")
    if not bracket(X, Y).is_zero():
        return [f"{spec.describe()}: [X,Y] != 0"]
    failures = []
    got = h.reduced_coproduct(X * Y * Y)
    want = (h.tensor([(1, {"Y": 2}, {"X": 1}), (1, {"X": 1}, {"Y": 2})])
            + h.tensor([(2, {"X": 1, "Y": 1}, {"Y": 1}),
                        (2, {"Y": 1}, {"X": 1, "Y": 1})]))
    if got != want:
        failures.append(f"{spec.describe()}: delta(XY^2)")
    got = h.reduced_coproduct(X * X * Y)
    want = (h.tensor([(1, {"Y": 1}, {"X": 2}), (1, {"X": 2}, {"Y": 1})])
            + h.tensor([(2, {"X": 1, "Y": 1}, {"X": 1}),
                        (2, {"X": 1}, {"X": 1, "Y": 1})]))
    if got != want:
        failures.append(f"{spec.describe()}: delta(X^2 Y)")
    got = h.reduced_coproduct(Y * Y * Y)
    want = h.tensor([(3, {"Y": 1}, {"Y": 2}), (3, {"Y": 2}, {"Y": 1})])
    if got != want:
        failures.append(f"{spec.describe()}: delta(Y^3)")
    return failures


def cocycle_commutators(entry) -> list[str]:
    """Commutators of the degree-3 cocycles with primitives, A family."""
    spec = entry.spec
    if spec.tag != "A":
        return []
    h = entry.obj
    l1, l2, alpha = (spec.params["l1"], spec.params["l2"],
                     spec.params["alpha"])
    u, t = cocycle_u(h), cocycle_t(h)
    xx = h.tensor([(1, {"X": 1}, {}), (1, {}, {"X": 1})])
    yy = h.tensor([(1, {"Y": 1}, {}), (1, {}, {"Y": 1})])
    skew = h.tensor([(1, {"Y": 1}, {"X": 1}), (-1, {"X": 1}, {"Y": 1})])
    checks = [
        ("[u, X(x)1+1(x)X]", bracket(u, xx), skew.scale(alpha)),
        ("[t, X(x)1+1(x)X]", bracket(t, xx), skew.scale(l1)),
        ("[u, Y(x)1+1(x)Y]", bracket(u, yy), skew.scale(l2)),
        ("[t, Y(x)1+1(x)Y]", bracket(t, yy),
         TensorElement(h.algebra, 2, {})),
    ]
    if l2 == 0:
        zz = h.tensor([(1, {"Z": 1}, {}), (1, {}, {"Z": 1})])
        d_xy2 = h.reduced_coproduct(h.algebra.monomial({"X": 1, "Y": 2}))
        xy_x = h.tensor([(1, {"X": 1, "Y": 1}, {"X": 1}),
                         (1, {"X": 1}, {"X": 1, "Y": 1})])
        xy_y = h.tensor([(1, {"X": 1, "Y": 1}, {"Y": 1}),
                         (1, {"Y": 1}, {"X": 1, "Y": 1})])
        y2_y = h.tensor([(1, {"Y": 2}, {"Y": 1}),
                         (1, {"Y": 1}, {"Y": 2})])
        y2_x = h.tensor([(1, {"Y": 2}, {"X": 1}),
                         (1, {"X": 1}, {"Y": 2})])
        checks += [
            ("[u, Z(x)1+1(x)Z]", bracket(u, zz),
             u.scale(-l1) + t.scale(alpha) + d_xy2.scale(-alpha)
             + xy_x.scale(-l1)),
            ("[t, Z(x)1+1(x)Z]", bracket(t, zz),
             xy_y.scale(-l1) + y2_y.scale(-alpha)),
            ("[u, delta(Z)]", bracket(u, _dz(h)),
             xy_x.scale(l1) + xy_y.scale(alpha)),
            ("[t, delta(Z)]", bracket(t, _dz(h)),
             y2_x.scale(-l1) + y2_y.scale(-alpha)),
        ]
    return [f"{spec.describe()}: {name}" for name, got, want in checks
            if got != want]


def w_brackets(entry) -> list[str]:
    """Re-derived reduced coproducts of [W, -], 4-generator families."""
    spec = entry.spec
    if spec.tag not in ("D", "E", "F", "K"):
        return []
    h = entry.obj
    t1, t2, l1, l2, alpha, trace = _family_invariants(spec)
    alg = h.algebra
    W, X, Y, Z = (alg.gen(n) for n in "WXYZ")
    u, t = cocycle_u(h), cocycle_t(h)
    d_xy2 = h.reduced_coproduct(alg.monomial({"X": 1, "Y": 2}))
    d_y3 = h.reduced_coproduct(alg.monomial({"Y": 3}))
    pairs = [
        ("delta([W,X])", bracket(W, X), _dz(h).scale(-(t1 * alpha + t2 * l1))),
        ("delta([W,Y])", bracket(W, Y), _dz(h).scale(-t1 * l2)),
        ("delta([W,Z])", bracket(W, Z),
         u.scale(-t1 * l1) + t.scale(2 * t1 * alpha + t2 * l1)
         + _dz(h).scale(trace) + d_xy2.scale(-(t1 * alpha + t2 * l1))
         + d_y3.scale(F(-2, 3) * t2 * alpha)),
    ]
    return [f"{spec.describe()}: {name}" for name, elt, want in pairs
            if h.reduced_coproduct(elt) != want]

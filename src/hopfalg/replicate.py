"""The replication battery: every headline computation in one table.

Each criterion function returns a CriterionResult; run_replication drives
all of them.  The same functions back the acceptance test-suite and the
`hopf replicate` subcommand, so a green table here is exactly a green
acceptance run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .catalog import (FamilySpec, _cocycle_t, _cocycle_u, build, list_catalog,
                      make_lie)
from .cla import _checked_envelope, cla_transform, enveloping, lantern_of_cla
from .cobar import h2_report
from .errors import HopfAlgError
from .exactlin import Matrix, quotient
from .hopf import HopfPresentation, TensorElement
from .ore import bracket
from .reports import VerificationReport
from .structure import extract_cla, lantern_of_hopf, p2_space, primitive_space

F = Fraction


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] criterion {self.number}: {self.title} "
                f"({self.seconds:.1f}s){'' if self.passed else ' -- ' + self.detail}")


def hopf_battery(h: HopfPresentation, antipode_bound: int = 4) -> VerificationReport:
    """The standard verification battery for a Hopf presentation."""
    report = VerificationReport("verification battery")
    report.extend(h.algebra.verify_pbw_consistency())
    report.extend(h.verify_coassociativity())
    report.extend(h.verify_compatibility())
    antipode = h.verify_antipode(antipode_bound)
    report.extend(antipode)
    # the battery keeps no sub-report titles; this one carries the bound
    report.add(antipode.title, antipode.passed, informational=True)
    return report


def object_battery(obj, antipode_bound: int = 4) -> VerificationReport:
    """Battery appropriate to the object kind (Hopf presentation or CLA)."""
    if isinstance(obj, HopfPresentation):
        return hopf_battery(obj, antipode_bound)
    report, env = _checked_envelope(obj)
    if env is not None:
        report.extend(hopf_battery(env, antipode_bound))
    return report


def _catalog_split():
    hopf_entries, cla_entries = [], []
    for spec in list_catalog():
        (cla_entries if spec.tag.startswith("cla") else hopf_entries).append(spec)
    return hopf_entries, cla_entries


# -- the ledger tensors --------------------------------------------------------


def cocycle_u(h: HopfPresentation) -> TensorElement:
    return h.tensor(_cocycle_u(1))


def cocycle_t(h: HopfPresentation) -> TensorElement:
    return h.tensor(_cocycle_t(1))


# -- criteria -------------------------------------------------------------------


def _criterion(number: int, title: str):
    def deco(fn):
        def wrapper() -> CriterionResult:
            start = time.time()
            try:
                failures = fn()
            except HopfAlgError as exc:
                failures = [f"unexpected error: {exc}"]
            return CriterionResult(number, title, not failures,
                                   "; ".join(failures), time.time() - start)
        wrapper.__wrapped__ = fn
        wrapper.number = number
        return wrapper
    return deco


@_criterion(1, "catalog validity (PBW, coassociativity, compatibility, "
            "antipode <= 4)")
def criterion_catalog_validity():
    failures = []
    for spec in list_catalog():
        try:
            report = object_battery(build(spec))
            if not report.passed:
                failures.append(f"{spec.describe()}: "
                                f"{report.failures()[0].name}")
        except HopfAlgError as exc:
            failures.append(f"{spec.describe()}: {exc}")
    return failures


@_criterion(2, "primitive and anti-cocommutative dimensions")
def criterion_primitive_dimensions():
    failures = []
    hopf_entries, _ = _catalog_split()
    for spec in hopf_entries:
        if spec.tag not in ("A", "B", "D", "E", "F", "K"):
            continue
        h = build(spec)
        p5 = primitive_space(h, 5)
        if not (p5.dim == 2 and p5.stable_from_previous_bound):
            p4_dim = sum(b.degree < 5 for b in p5.basis)
            failures.append(f"{spec.describe()}: dim P = {p5.dim} "
                            f"(bound 4: {p4_dim}), expected stable 2")
        if spec.tag in ("D", "E", "F", "K"):
            q5 = p2_space(h, 5)
            if q5.dim != 3:
                failures.append(f"{spec.describe()}: dim P2 = {q5.dim}, "
                                "expected 3")
    return failures


@_criterion(3, "CLA round trip: extract(envelope(L)) = L literally")
def criterion_cla_round_trip():
    failures = []
    _, cla_entries = _catalog_split()
    for spec in cla_entries:
        try:
            L = build(spec)
            recovered = extract_cla(enveloping(L), 4)
            if recovered != L:
                failures.append(spec.describe())
        except HopfAlgError as exc:
            failures.append(f"{spec.describe()}: {exc}")
    return failures


@_criterion(4, "cobar H^2: bidegrees (2,1),(1,2) for the graded model; "
            "total 2 for the deformations")
def criterion_cobar_cohomology():
    failures = []
    graded = build(FamilySpec("A", {"l1": F(0), "l2": F(0), "alpha": F(0)}))
    rep = h2_report(graded, 6, by_bidegree=True)
    expected = {(2, 1): 1, (1, 2): 1}
    for row in rep.rows:
        want = expected.get(row["bidegree"], 0)
        if row["h2"] != want:
            failures.append(f"A(0,0,0) bidegree {row['bidegree']}: "
                            f"H^2 = {row['h2']}, expected {want}")
    if rep.total_h2 != 2:
        failures.append(f"A(0,0,0) total H^2 = {rep.total_h2}")
    deformed = [
        FamilySpec("A", {"l1": F(1), "l2": F(0), "alpha": F(0)}, "A(1,0,0)"),
        FamilySpec("A", {"l1": F(0), "l2": F(0), "alpha": F(1)}, "A(0,0,1)"),
        FamilySpec("B", {"lam": F(0)}, "B(0)"),
        FamilySpec("B", {"lam": F(1)}, "B(1)"),
    ]
    for spec in deformed:
        h = build(spec)
        r5 = h2_report(h, 5)
        r6 = h2_report(h, 6)
        if not (r5.total_h2 == r6.total_h2 == 2):
            failures.append(f"{spec.describe()}: total H^2 at N=5,6 is "
                            f"{r5.total_h2},{r6.total_h2}, expected 2,2")
        rows5 = [(r["level"], r["cocycles"], r["coboundaries"], r["h2"])
                 for r in r5.rows]
        rows6 = [(r["level"], r["cocycles"], r["coboundaries"], r["h2"])
                 for r in r6.rows[:5]]
        if rows5 != rows6:
            failures.append(f"{spec.describe()}: truncation dims not stable "
                            "between N=5 and N=6")
    return failures


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


@_criterion(5, "identity ledger: products of primitives, cocycle "
            "commutators, re-derived delta([W,-])")
def criterion_identity_ledger():
    failures = []
    hopf_entries, _ = _catalog_split()

    def dz(h):
        return h.reduced_coproduct(h.algebra.gen("Z"))

    # reduced coproducts of low products of two primitives
    for spec in hopf_entries:
        if spec.tag not in ("A", "D", "E", "F", "K"):
            continue
        h = build(spec)
        alg = h.algebra
        X, Y = alg.gen("X"), alg.gen("Y")
        if not bracket(X, Y).is_zero():
            failures.append(f"{spec.describe()}: [X,Y] != 0")
            continue
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

    # commutators of the degree-3 cocycles with primitives, A family
    for spec in hopf_entries:
        if spec.tag != "A":
            continue
        h = build(spec)
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
            d_xy2 = h.reduced_coproduct(
                h.algebra.monomial({"X": 1, "Y": 2}))
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
                ("[u, delta(Z)]", bracket(u, dz(h)),
                 xy_x.scale(l1) + xy_y.scale(alpha)),
                ("[t, delta(Z)]", bracket(t, dz(h)),
                 y2_x.scale(-l1) + y2_y.scale(-alpha)),
            ]
        for name, got, want in checks:
            if got != want:
                failures.append(f"{spec.describe()}: {name}")

    # re-derived reduced coproducts of [W, -] for the 4-generator families
    for spec in hopf_entries:
        if spec.tag not in ("D", "E", "F", "K"):
            continue
        h = build(spec)
        t1, t2, l1, l2, alpha, trace = _family_invariants(spec)
        alg = h.algebra
        W, X, Y, Z = (alg.gen(n) for n in "WXYZ")
        u, t = cocycle_u(h), cocycle_t(h)
        d_xy2 = h.reduced_coproduct(alg.monomial({"X": 1, "Y": 2}))
        d_y3 = h.reduced_coproduct(alg.monomial({"Y": 3}))
        pairs = [
            ("delta([W,X])", bracket(W, X), dz(h).scale(-(t1 * alpha + t2 * l1))),
            ("delta([W,Y])", bracket(W, Y), dz(h).scale(-t1 * l2)),
            ("delta([W,Z])", bracket(W, Z),
             u.scale(-t1 * l1) + t.scale(2 * t1 * alpha + t2 * l1)
             + dz(h).scale(trace) + d_xy2.scale(-(t1 * alpha + t2 * l1))
             + d_y3.scale(F(-2, 3) * t2 * alpha)),
        ]
        for name, elt, want in pairs:
            if h.reduced_coproduct(elt) != want:
                failures.append(f"{spec.describe()}: {name}")
    return failures


@_criterion(6, "antipode: S^2 = id on U(g) and the A family; "
            "S^2(Z) = Z - 2Y in B")
def criterion_antipode_behavior():
    failures = []
    hopf_entries, _ = _catalog_split()
    for spec in hopf_entries:
        if spec.tag not in ("A",) and not spec.tag.startswith("lie_"):
            continue
        h = build(spec)
        for m in h.algebra.monomials_up_to(4, include_unit=True):
            elt = h.algebra.monomial(dict(zip(h.algebra.names, m)))
            if h.antipode(h.antipode(elt)) != elt:
                failures.append(f"{spec.describe()}: S^2 != id at {elt}")
                break
    for lam in (F(0), F(1)):
        h = build(FamilySpec("B", {"lam": lam}))
        Z = h.algebra.gen("Z")
        Y = h.algebra.gen("Y")
        if h.antipode(h.antipode(Z)) != Z - Y.scale(2):
            failures.append(f"B({lam}): S^2(Z) != Z - 2Y")
    return failures


def _heis3_plus_line_shape(gl) -> bool:
    if gl.dims_by_degree() != {1: 3, 2: 1}:
        return False
    keys = list(gl.brackets)
    if len(keys) != 1:
        return False
    (i, j), = keys
    if gl.degrees[i] != 1 or gl.degrees[j] != 1:
        return False
    targets = gl.brackets[(i, j)]
    return all(gl.degrees[k] == 2 for k in targets) and bool(targets)


def _two_step_chain_shape(gl) -> bool:
    if gl.dims_by_degree() != {1: 2, 2: 1, 3: 1}:
        return False
    first = gl.bracket_constants(0, 1)
    if set(first) != {2} or not first[2]:
        return False
    second_a = gl.bracket_constants(0, 2)
    second_b = gl.bracket_constants(1, 2)
    nonzero = [b for b in (second_a, second_b) if b]
    if len(nonzero) != 1 or set(nonzero[0]) != {3}:
        return False
    extras = set(gl.brackets) - {(0, 1), (0, 2), (1, 2)}
    return not extras


@_criterion(7, "lanterns: abelian for U(g), Heisenberg+line for dim-4 "
            "CLAs, two-step chain for D/E/F/K; both computations agree")
def criterion_lanterns():
    failures = []
    hopf_entries, cla_entries = _catalog_split()
    for spec in hopf_entries:
        h = build(spec)
        gl = lantern_of_hopf(h, 3)
        if spec.tag.startswith("lie_"):
            n = len(h.algebra.names)
            if gl.dims_by_degree() != {1: n} or gl.brackets:
                failures.append(f"{spec.describe()}: lantern not abelian "
                                f"in degree 1")
        elif spec.tag in ("D", "E", "F", "K"):
            if not _two_step_chain_shape(gl):
                failures.append(f"{spec.describe()}: lantern shape {gl!r}")
        if not gl.verify(3).passed:
            failures.append(f"{spec.describe()}: lantern axioms")
    for spec in cla_entries:
        try:
            L = build(spec)
            env_lantern = lantern_of_hopf(enveloping(L), 3)
            cla_lantern = lantern_of_cla(L)
        except HopfAlgError as exc:
            failures.append(f"{spec.describe()}: {exc}")
            continue
        if (env_lantern.degrees != cla_lantern.degrees
                or env_lantern.brackets != cla_lantern.brackets):
            failures.append(f"{spec.describe()}: lantern mismatch between "
                            "the two computations")
        if L.dim == 4 and not _heis3_plus_line_shape(cla_lantern):
            failures.append(f"{spec.describe()}: lantern is not Heisenberg "
                            "plus a central line")
    return failures


@_criterion(8, "substitution morphisms and lam <-> 1/lam base changes")
def criterion_substitutions():
    failures = []
    hopf_entries, _ = _catalog_split()
    # primitive swaps Wp = W - c X Y^2 from U(g), g given by its brackets
    # on X, Y, Z, Wp: c = 2/3 in the F families, 1/2 in K
    swaps = [
        ("F", lambda p: {(2, 0): {1: 1}, (3, 0): {1: p["beta"]},
                         (3, 1): {1: p["gamma"]},
                         (3, 2): {2: p["gamma"], 0: p["xi"]}}, F(2, 3)),
        ("K", lambda p: {(2, 0): {0: 1}, (3, 0): {2: -1}, (3, 2): {3: 1}},
         F(1, 2)),
    ]
    for tag, lie_brackets, c in swaps:
        for spec in hopf_entries:
            if spec.tag != tag:
                continue
            src = make_lie(["X", "Y", "Z", "Wp"], lie_brackets(spec.params))
            dst = build(spec)
            alg = dst.algebra
            images = {"X": alg.gen("X"), "Y": alg.gen("Y"), "Z": alg.gen("Z"),
                      "Wp": alg.gen("W")
                      - alg.monomial({"X": 1, "Y": 2}).scale(c)}
            rep = src.verify_morphism(dst, images, check_coalgebra=False)
            if not rep.passed:
                failures.append(f"{spec.describe()}: W' substitution "
                                f"({rep.failures()[0].name})")
    # base-change equivalences lam <-> 1/lam
    from .catalog import make_cla_35, make_cla_a
    for lam in (2, 3):
        inv = quotient(1, lam)
        m = Matrix.from_rows([[0, 1, 0], [-inv, 0, 0], [0, 0, inv]])
        if cla_transform(make_cla_a(1, lam, 0), m) != make_cla_a(1, inv, 0):
            failures.append(f"a(1,{lam},0) base change")
        m4 = Matrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0],
                               [0, 0, inv, 0], [0, 0, 0, -1]])
        src = make_cla_35("h", lam=lam, a=0)
        dst = make_cla_35("h", lam=inv, a=0)
        if cla_transform(src, m4) != dst:
            failures.append(f"dim-4 variant h, lam={lam} base change")
    return failures


@_criterion(9, "degree-4 polynomial growth of the PBW monomial count")
def criterion_growth():
    failures = []
    spec = FamilySpec("D", {"t1": F(0), "t2": F(1), "a11": F(0), "a12": F(0),
                            "a21": F(0), "a22": F(0), "x1": F(0), "x2": F(0)})
    alg = build(spec).algebra
    frozen = {8: 136, 16: 1089, 24: 4225, 32: 11592}
    for n, want in frozen.items():
        got = alg.pbw_count(n)
        if got != want:
            failures.append(f"count({n}) = {got}, expected {want}")
    # the count is quasi-polynomial with period 6 (weights 1,1,2,3), so the
    # polynomial-growth test samples a 6-divisible progression
    samples = [alg.pbw_count(24 * k) for k in range(1, 8)]
    for _ in range(4):
        samples = [b - a for a, b in zip(samples, samples[1:])]
    fourth = samples
    fifth = [b - a for a, b in zip(fourth, fourth[1:])]
    if any(fifth):
        failures.append(f"5th differences do not vanish: {fifth}")
    if not all(fourth) or len(set(fourth)) != 1:
        failures.append(f"4th differences not constant nonzero: {fourth}")
    return failures


CRITERIA = [
    criterion_catalog_validity,
    criterion_primitive_dimensions,
    criterion_cla_round_trip,
    criterion_cobar_cohomology,
    criterion_identity_ledger,
    criterion_antipode_behavior,
    criterion_lanterns,
    criterion_substitutions,
    criterion_growth,
]


def run_replication() -> list[CriterionResult]:
    return [criterion() for criterion in CRITERIA]

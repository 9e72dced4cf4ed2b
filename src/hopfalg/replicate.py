"""The replication battery: every headline computation in one table.

Each criterion is a list of checks on a catalog entry and a part that
reads no catalog entry.  `run_replication` walks `list_catalog()` once:
each entry is built on first use, every criterion runs its checks on
that one object and the answers it keeps, and the object is dropped
before the next entry is built, so one entry and its caches are alive
at a time.  A failure on an entry reads "<label>: <cause>", and a
HopfAlgError is its entry's failure; a criterion's detail joins its
failures with "; ", entry by entry.  A criterion called alone runs the
same walk with only itself.  The same criteria back the acceptance
test-suite and the `hopf replicate` subcommand, so a green table here is
exactly a green acceptance run.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .catalog import (FamilySpec, build, list_catalog, make_cla_35,
                      make_cla_a, make_lie)
from .cla import cla_transform, enveloping, lantern_of_cla, object_battery
from .cobar import h2_report
from .errors import HopfAlgError
from .exactlin import Matrix, quotient
from .hopf import HopfPresentation
from .ledger import cocycle_commutators, primitive_products, w_brackets
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


# -- the walk -------------------------------------------------------------------


class _Entry:
    """One catalog entry during the walk, built on first use.  A
    HopfAlgError is not kept, so every reader raises it afresh, as a
    criterion building the entry would."""

    def __init__(self, spec: FamilySpec):
        self.spec = spec

    @functools.cached_property
    def obj(self):
        return build(self.spec)


class Criterion:
    """One row of the table.

    ``checks`` are functions of a catalog entry, each returning its
    failures on that entry, [] where it checks nothing; ``rest`` takes
    nothing and runs after the catalog.  The walk calls the criterion
    with each entry and the criterion's list of failures, then with None
    for the rest.  A HopfAlgError is the failure of the entry it came
    from, "<label>: <message>", and ends the criterion's checks on that
    entry alone; from the rest it reads "unexpected error: <message>".
    Called with no arguments, the criterion runs the walk alone and
    returns its CriterionResult.
    """

    def __init__(self, name, number, title, checks, rest=None):
        self.__name__, self.number, self.title = name, number, title
        self.checks, self.rest = checks, rest

    def __call__(self, entry=None, failures=None):
        if failures is None:
            return _walk([self])[0]
        try:
            if entry is not None:
                for check in self.checks:
                    failures += check(entry)
            elif self.rest is not None:
                failures += self.rest()
        except HopfAlgError as exc:
            where = ("unexpected error" if entry is None
                     else entry.spec.describe())
            failures.append(f"{where}: {exc}")


def _walk(criteria) -> list[CriterionResult]:
    failures = [[] for _ in criteria]
    seconds = [0.0] * len(criteria)
    # one entry at a time: the loop drops an entry before the next is built
    for entry in itertools.chain(map(_Entry, list_catalog()), [None]):
        for i, criterion in enumerate(criteria):
            start = time.perf_counter()
            criterion(entry, failures[i])
            seconds[i] += time.perf_counter() - start
    return [CriterionResult(c.number, c.title, not f, "; ".join(f), s)
            for c, f, s in zip(criteria, failures, seconds)]


def _is_cla(spec: FamilySpec) -> bool:
    return spec.tag.startswith("cla")


def _same(spec: FamilySpec, want: FamilySpec) -> bool:
    """The same family and parameters; labels may differ."""
    return spec.tag == want.tag and spec.params == want.params


# -- criteria -------------------------------------------------------------------


def _validity(entry: _Entry) -> list[str]:
    report = object_battery(entry.obj)
    if not report.passed:
        return [f"{entry.spec.describe()}: {report.failures()[0].name}"]
    return []


criterion_catalog_validity = Criterion(
    "criterion_catalog_validity", 1,
    "catalog validity (PBW, coassociativity, compatibility, antipode)",
    [_validity])


def _primitive_dimensions(entry: _Entry) -> list[str]:
    spec = entry.spec
    if spec.tag not in ("A", "B", "D", "E", "F", "K"):
        return []
    failures = []
    dim_p = primitive_space(entry.obj).dim
    if dim_p != 2:
        failures.append(f"{spec.describe()}: dim P = {dim_p}, expected 2")
    if spec.tag in ("D", "E", "F", "K"):
        dim_p2 = p2_space(entry.obj).dim
        if dim_p2 != 3:
            failures.append(f"{spec.describe()}: dim P2 = {dim_p2}, "
                            "expected 3")
    return failures


criterion_primitive_dimensions = Criterion(
    "criterion_primitive_dimensions", 2,
    "primitive and anti-cocommutative dimensions", [_primitive_dimensions])


def _round_trip(entry: _Entry) -> list[str]:
    if not _is_cla(entry.spec):
        return []
    if extract_cla(enveloping(entry.obj)) != entry.obj:
        return [entry.spec.describe()]
    return []


criterion_cla_round_trip = Criterion(
    "criterion_cla_round_trip", 3,
    "CLA round trip: extract(envelope(L)) = L literally", [_round_trip])


_GRADED_A = FamilySpec("A", {"l1": F(0), "l2": F(0), "alpha": F(0)},
                       "A(0,0,0)")
_B_ENTRIES = [FamilySpec("B", {"lam": F(0)}, "B(0)"),
              FamilySpec("B", {"lam": F(1)}, "B(1)")]
_DEFORMED = [
    FamilySpec("A", {"l1": F(1), "l2": F(0), "alpha": F(0)}, "A(1,0,0)"),
    FamilySpec("A", {"l1": F(0), "l2": F(0), "alpha": F(1)}, "A(0,0,1)"),
    *_B_ENTRIES,
]


def _graded_h2(name: str, h: HopfPresentation) -> list[str]:
    failures = []
    rep = h2_report(h, 6, by_bidegree=True)
    expected = {(2, 1): 1, (1, 2): 1}
    for row in rep.rows:
        want = expected.get(row["bidegree"], 0)
        if row["h2"] != want:
            failures.append(f"{name} bidegree {row['bidegree']}: "
                            f"H^2 = {row['h2']}, expected {want}")
    if rep.total_h2 != 2:
        failures.append(f"{name} total H^2 = {rep.total_h2}")
    if not rep.matches_lantern:
        got = {row["bidegree"]: row["h2"] for row in rep.rows if row["h2"]}
        failures.append(f"{name}: H^2 by bidegree {got}, lantern CE "
                        f"predicts {rep.lantern_ce_h2}")
    return failures


def _deformed_h2(name: str, h: HopfPresentation) -> list[str]:
    """Total H^2 = 2 at N = 6, complete (no higher bound changes it) and
    as the lantern's CE H^2 predicts."""
    rep = h2_report(h, 6)
    if rep.total_h2 == 2 and rep.complete and rep.matches_lantern:
        return []
    return [f"{name}: total H^2 at N=6 is {rep.total_h2}, expected 2, "
            f"complete {rep.complete}, lantern CE predicts "
            f"{sum(rep.lantern_ce_h2.values())}"]


def _cobar_cohomology(entry: _Entry) -> list[str]:
    spec = entry.spec
    if _same(spec, _GRADED_A):
        return _graded_h2(spec.describe(), entry.obj)
    if any(_same(spec, want) for want in _DEFORMED):
        return _deformed_h2(spec.describe(), entry.obj)
    return []


criterion_cobar_cohomology = Criterion(
    "criterion_cobar_cohomology", 4,
    "cobar H^2: bidegrees (2,1),(1,2) for the graded model; total 2 for "
    "the deformations", [_cobar_cohomology])


criterion_identity_ledger = Criterion(
    "criterion_identity_ledger", 5,
    "identity ledger: products of primitives, cocycle commutators, "
    "re-derived delta([W,-])",
    [primitive_products, cocycle_commutators, w_brackets])


def _s_squared_identity(entry: _Entry) -> list[str]:
    spec = entry.spec
    if spec.tag != "A" and not spec.tag.startswith("lie_"):
        return []
    h = entry.obj
    for m in h.algebra.monomials_up_to(4, include_unit=True):
        elt = h.algebra.monomial(dict(zip(h.algebra.names, m)))
        if h.antipode(h.antipode(elt)) != elt:
            return [f"{spec.describe()}: S^2 != id at {elt}"]
    return []


def _s_squared_b(entry: _Entry) -> list[str]:
    spec = entry.spec
    if not any(_same(spec, want) for want in _B_ENTRIES):
        return []
    h = entry.obj
    Z = h.algebra.gen("Z")
    Y = h.algebra.gen("Y")
    if h.antipode(h.antipode(Z)) != Z - Y.scale(2):
        return [f"B({spec.params['lam']}): S^2(Z) != Z - 2Y"]
    return []


criterion_antipode_behavior = Criterion(
    "criterion_antipode_behavior", 6,
    "antipode: S^2 = id on U(g) and the A family; S^2(Z) = Z - 2Y in B",
    [_s_squared_identity, _s_squared_b])


def _lantern_type(gl, degrees: list[int]) -> bool:
    """Whether the lantern gl is generated in degree 1 with these degrees,
    which fix its type (see ``_hopf_lantern``)."""
    return gl.generated_in_degree_one() and gl.degrees == degrees


def _hopf_lantern(entry: _Entry) -> list[str]:
    """The lantern type of a presentation, read off its degree profile.

    No isomorphism search is needed.  Once a lantern is generated in
    degree 1 (``GradedLie.generated_in_degree_one``), its degree profile
    fixes its type in dimension 4: (1,1,1,1) is abelian; (1,1,1,2) is
    h_3 (+) k, since the bracket is a nonzero skew form on the 3-space
    L(1), of rank 2; (1,1,2,3) is the filiform n_4.  No other profile is
    generated in degree 1: from two degree-1 vectors, L(2) has dimension
    at most 1, and one degree-1 vector generates only itself.  The
    lantern lists its duals by degree, so D, E, F and K are checked
    against [1, 1, 2, 3] here, and ``_cla_lantern`` checks the dim-4 CLAs
    against [1, 1, 1, 2].
    """
    spec = entry.spec
    if _is_cla(spec):
        return []
    failures = []
    h = entry.obj
    gl = lantern_of_hopf(h)
    if spec.tag.startswith("lie_"):
        n = len(h.algebra.names)
        if gl.dims_by_degree() != {1: n} or gl.brackets:
            failures.append(f"{spec.describe()}: lantern not abelian "
                            f"in degree 1")
    elif spec.tag in ("D", "E", "F", "K"):
        if not _lantern_type(gl, [1, 1, 2, 3]):
            failures.append(f"{spec.describe()}: lantern degrees "
                            f"{gl.degrees}, generated in degree one "
                            f"{gl.generated_in_degree_one()}")
    if not gl.verify().passed:
        failures.append(f"{spec.describe()}: lantern axioms")
    return failures


def _cla_lantern(entry: _Entry) -> list[str]:
    spec = entry.spec
    if not _is_cla(spec):
        return []
    L = entry.obj
    env_lantern = lantern_of_hopf(enveloping(L))
    cla_lantern = lantern_of_cla(L)
    failures = []
    if (env_lantern.degrees != cla_lantern.degrees
            or env_lantern.brackets != cla_lantern.brackets):
        failures.append(f"{spec.describe()}: lantern mismatch between "
                        "the two computations")
    # the kept lantern of U(L): a fresh lantern_of_cla copy would redo
    # the elimination of generated_in_degree_one
    if L.dim == 4 and not _lantern_type(env_lantern, [1, 1, 1, 2]):
        failures.append(f"{spec.describe()}: lantern is not Heisenberg "
                        "plus a central line")
    return failures


criterion_lanterns = Criterion(
    "criterion_lanterns", 7,
    "lanterns: abelian for U(g), Heisenberg+line for dim-4 CLAs, two-step "
    "chain for D/E/F/K; both computations agree",
    [_hopf_lantern, _cla_lantern])


# primitive swaps Wp = W - c X Y^2 from U(g), g given by its brackets on
# X, Y, Z, Wp: c = 2/3 in the F families, 1/2 in K
_SWAPS = {
    "F": (lambda p: {(2, 0): {1: 1}, (3, 0): {1: p["beta"]},
                     (3, 1): {1: p["gamma"]},
                     (3, 2): {2: p["gamma"], 0: p["xi"]}}, F(2, 3)),
    "K": (lambda p: {(2, 0): {0: 1}, (3, 0): {2: -1}, (3, 2): {3: 1}},
          F(1, 2)),
}


def _w_prime_swap(entry: _Entry) -> list[str]:
    spec = entry.spec
    swap = _SWAPS.get(spec.tag)
    if swap is None:
        return []
    lie_brackets, c = swap
    src = make_lie(["X", "Y", "Z", "Wp"], lie_brackets(spec.params))
    dst = entry.obj
    alg = dst.algebra
    images = {"X": alg.gen("X"), "Y": alg.gen("Y"), "Z": alg.gen("Z"),
              "Wp": alg.gen("W") - alg.monomial({"X": 1, "Y": 2}).scale(c)}
    rep = src.verify_morphism(dst, images, check_coalgebra=False)
    if not rep.passed:
        return [f"{spec.describe()}: W' substitution "
                f"({rep.failures()[0].name})"]
    return []


def _base_changes() -> list[str]:
    """lam <-> 1/lam equivalences."""
    failures = []
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


criterion_substitutions = Criterion(
    "criterion_substitutions", 8,
    "substitution morphisms and lam <-> 1/lam base changes",
    [_w_prime_swap], _base_changes)


_GROWTH_D = FamilySpec("D", {"t1": F(0), "t2": F(1), "a11": F(0),
                             "a12": F(0), "a21": F(0), "a22": F(0),
                             "x1": F(0), "x2": F(0)}, "D({0,1},{0},{0})")


def _growth(entry: _Entry) -> list[str]:
    if not _same(entry.spec, _GROWTH_D):
        return []
    failures = []
    alg = entry.obj.algebra
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


criterion_growth = Criterion(
    "criterion_growth", 9,
    "degree-4 polynomial growth of the PBW monomial count", [_growth])


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
    """Every criterion of ``CRITERIA`` over one walk of the catalog."""
    return _walk(CRITERIA)

"""The replication battery: every headline computation in one table.

Each criterion is a list of checks on catalog entries, one per loop it
makes over the catalog, and a part that reads no catalog entry.
`run_replication` walks `list_catalog()` once: each entry is built on
first use, every criterion runs its checks on that one object and the
answers it keeps, and the object is dropped before the next entry is
built, so one entry and its caches are alive at a time.  A
criterion called alone runs the same walk with only itself.  The same
criteria back the acceptance test-suite and the `hopf replicate`
subcommand, so a green table here is exactly a green acceptance run.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
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


class _Tally:
    """One criterion's failures over a walk, per loop (the rest last).

    As in a criterion run loop by loop, an unexpected HopfAlgError ends
    its loop and the later ones, and the earliest loop's error is the
    criterion's whole result.
    """

    def __init__(self):
        self.failures = defaultdict(list)
        self.error = None  # (loop, message)
        self.seconds = 0.0

    def run(self, loop: int, check, *args):
        if self.error is None or loop < self.error[0]:
            try:
                self.failures[loop] += check(*args)
            except HopfAlgError as exc:
                self.error = (loop, f"unexpected error: {exc}")

    def result(self, number: int, title: str) -> CriterionResult:
        failures = ([self.error[1]] if self.error else
                    [f for loop in sorted(self.failures)
                     for f in self.failures[loop]])
        return CriterionResult(number, title, not failures,
                               "; ".join(failures), self.seconds)


class Criterion:
    """One row of the table.

    ``checks`` has one function per loop of the criterion over the
    catalog, in order: each takes an entry and returns its failures, []
    outside its loop.  ``rest`` takes nothing and runs after the catalog.
    The walk calls the criterion with each entry and its tally, then with
    None for the rest; called with no arguments, the criterion runs the
    walk alone and returns its CriterionResult.
    """

    def __init__(self, name, number, title, checks, rest=None):
        self.__name__, self.number, self.title = name, number, title
        self.checks, self.rest = checks, rest

    def __call__(self, entry=None, tally=None):
        if tally is None:
            return _walk([self])[0]
        if entry is not None:
            for loop, check in enumerate(self.checks):
                tally.run(loop, check, entry)
        elif self.rest is not None:
            tally.run(len(self.checks), self.rest)


def _walk(criteria) -> list[CriterionResult]:
    tallies = [_Tally() for _ in criteria]
    # one entry at a time: the loop drops an entry before the next is built
    for entry in itertools.chain(map(_Entry, list_catalog()), [None]):
        for criterion, tally in zip(criteria, tallies):
            start = time.perf_counter()
            criterion(entry, tally)
            tally.seconds += time.perf_counter() - start
    return [t.result(c.number, c.title) for c, t in zip(criteria, tallies)]


def _is_cla(spec: FamilySpec) -> bool:
    return spec.tag.startswith("cla")


def _same(spec: FamilySpec, want: FamilySpec) -> bool:
    """The same family and parameters; labels may differ."""
    return spec.tag == want.tag and spec.params == want.params


# -- criteria -------------------------------------------------------------------


def _validity(entry: _Entry) -> list[str]:
    try:
        report = object_battery(entry.obj)
    except HopfAlgError as exc:
        return [f"{entry.spec.describe()}: {exc}"]
    if not report.passed:
        return [f"{entry.spec.describe()}: {report.failures()[0].name}"]
    return []


criterion_catalog_validity = Criterion(
    "criterion_catalog_validity", 1,
    "catalog validity (PBW, coassociativity, compatibility, antipode <= 4)",
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
    try:
        if extract_cla(enveloping(entry.obj)) != entry.obj:
            return [entry.spec.describe()]
    except HopfAlgError as exc:
        return [f"{entry.spec.describe()}: {exc}"]
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
    failures = []
    r5 = h2_report(h, 5)
    r6 = h2_report(h, 6)
    if not (r5.total_h2 == r6.total_h2 == 2):
        failures.append(f"{name}: total H^2 at N=5,6 is "
                        f"{r5.total_h2},{r6.total_h2}, expected 2,2")
    rows5 = [(r["level"], r["cocycles"], r["coboundaries"], r["h2"])
             for r in r5.rows]
    rows6 = [(r["level"], r["cocycles"], r["coboundaries"], r["h2"])
             for r in r6.rows[:5]]
    if rows5 != rows6:
        failures.append(f"{name}: truncation dims not stable "
                        "between N=5 and N=6")
    ce = sum(r5.lantern_ce_h2.values())
    if not (r5.total_h2 == r6.total_h2 == ce):
        failures.append(f"{name}: total H^2 at N=5,6 is "
                        f"{r5.total_h2},{r6.total_h2}, lantern CE predicts "
                        f"{ce}")
    return failures


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


def _hopf_lantern(entry: _Entry) -> list[str]:
    """The lantern type of a presentation, read off its degree profile.

    No isomorphism search is needed.  Once a lantern is generated in
    degree 1 (``GradedLie.generated_in_degree_one``), its degree profile
    fixes its type in dimension 4: (1,1,1,1) is abelian; (1,1,1,2) is
    h_3 (+) k, since the bracket is a nonzero skew form on the 3-space
    L(1), of rank 2; (1,1,2,3) is the filiform n_4.  No other profile is
    generated in degree 1: from two degree-1 vectors, L(2) has dimension
    at most 1, and one degree-1 vector generates only itself.
    ``_cla_lantern`` checks the (1,1,1,2) case.
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
        if not _two_step_chain_shape(gl):
            failures.append(f"{spec.describe()}: lantern shape {gl!r}")
    if not gl.verify().passed:
        failures.append(f"{spec.describe()}: lantern axioms")
    return failures


def _cla_lantern(entry: _Entry) -> list[str]:
    spec = entry.spec
    if not _is_cla(spec):
        return []
    try:
        L = entry.obj
        env_lantern = lantern_of_hopf(enveloping(L))
        cla_lantern = lantern_of_cla(L)
    except HopfAlgError as exc:
        return [f"{spec.describe()}: {exc}"]
    failures = []
    if (env_lantern.degrees != cla_lantern.degrees
            or env_lantern.brackets != cla_lantern.brackets):
        failures.append(f"{spec.describe()}: lantern mismatch between "
                        "the two computations")
    if L.dim == 4 and not _heis3_plus_line_shape(cla_lantern):
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


def _w_prime_swap(tag: str, entry: _Entry) -> list[str]:
    spec = entry.spec
    if spec.tag != tag:
        return []
    lie_brackets, c = _SWAPS[tag]
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
    [functools.partial(_w_prime_swap, tag) for tag in _SWAPS],
    _base_changes)


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

"""Bounded-degree cobar complex of a connected Hopf presentation.

The complex lives on tuples of unit-free PBW monomials; the differential
extends the reduced coproduct as a derivation with alternating signs:
on rank 1, d(c) = delta(c); on rank 2, d(a(x)b) = delta(a)(x)b -
a(x)delta(b).  Coassociativity makes d^2 = 0.  Since delta never raises
weighted degree, the tuples of total degree <= n form a subcomplex C_<=n.
``build_complex`` keeps the bases of ranks 1..3, listed grade by grade
by total degree, then by the canonical index of each slot, and d^2 with
a column delta(a)(x)b - a(x)delta(b) per pair over the triples it
reaches, written straight into the matrix (``_d2``); d^1,
with a column ``_reduced_monomial(m)`` per monomial, is built on first
read.

``h2_report`` gives the rank-2 dimensions of C_<=n for every n up to a
bound N.  The Chevalley-Eilenberg cohomology of the lantern is the E_1
page of the degree filtration and bounds H^2(C_<=n) from above; above
G' = max(G, top generator degree), G the top degree of a CE class, no
grade carries H^2 and P(gr H) is zero, so H^2(C_<=n) = H^2(C_<=G').
d^2 of C_<=min(N, G') is the one matrix eliminated: the pivots of d^1
are the monomials that are not leads of the kept P basis, and each
grade above G' has its monomial count as both cocycles and coboundaries.
Neither the lantern's CE H^2 nor the counts of C_<=G' depend on N, so
both are kept on the presentation, and every bound past G' reads them.
Both arguments need a Hopf algebra; ``require_hopf_algebra`` refuses a
presentation whose kept verdicts fail.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InputError
from .exactlin import Matrix, coassociator, express, grade_sum, graded_h2
from .hopf import HopfPresentation, TensorElement
from .ore import AlgebraElement, Monomial
from .reports import VerificationReport, require_passed
from .structure import _leads, lantern_of_hopf, primitive_space


@dataclass
class CobarComplex:
    presentation: HopfPresentation
    bases: dict[int, list[tuple]]  # rank -> tuple basis, by degree
    d2: Matrix  # columns: d^2 of bases[2]; rows: the triples they reach

    @functools.cached_property
    def d1(self) -> Matrix:
        """Columns: d^1 of bases[1]; rows: the pairs they reach.  Built on
        first read: ``h2_report`` reads the pivots of d^1 off the kept P
        and never asks for it."""
        delta = self.presentation._reduced_monomial
        return Matrix.from_keyed_columns([delta(m) for (m,) in self.bases[1]])


def build_complex(h: HopfPresentation, bound: int) -> CobarComplex:
    """Bases for ranks 1..3, total degree <= bound, and the matrix of d^2
    on the basis of rank 2; that of d^1 is built when read."""
    if bound < 1:
        raise InputError("cobar bound must be >= 1")
    monos = h.algebra.monomials_up_to(bound)
    pairs, triples = _graded_tuples(monos, h.algebra.monomial_degree, bound)
    return CobarComplex(h, {1: [(m,) for m in monos], 2: pairs, 3: triples},
                        _d2(h._reduced_monomial, pairs))


def _d2(delta: Callable[[Monomial], dict], pairs: list[tuple]) -> Matrix:
    """The matrix of d^2 on ``pairs``: the one ``from_keyed_columns``
    builds from the ``coassociator`` columns, rows numbered in order of
    first appearance, with no merge.

    Column (a, b) is {(l, r, b): c for delta(a)} followed by {(a, l, r):
    -c for delta(b)}, two halves over distinct keys with nonzero values.
    They share no key: a shared one needs a left slot a in delta(a), and
    every left slot of delta(a) has degree below deg a.  Write a = x_g^k
    a', x_g its first generator.  Delta(a) is a block times Delta(a'),
    whose one term with a left slot of degree k deg x_g is x_g^k (x) 1
    (the rest are 1 (x) x_g, delta(x_g) or lower binomial terms).  Slot
    products never raise degree, so by induction on a' the one term of
    Delta(a) with a left slot of degree deg a is x_g^k a' (x) 1 = a (x) 1,
    a sorted word with coefficient 1, and delta(a) drops it.  The reduced
    echelon form depends on the row space alone, so the row numbers move
    no pivot.
    """
    index: dict[tuple, int] = {}
    row = index.setdefault
    entries = {}
    for col, (a, b) in enumerate(pairs):
        for (l, r), c in delta(a).items():
            entries[(row((l, r, b), len(index)), col)] = c
        for (l, r), c in delta(b).items():
            entries[(row((a, l, r), len(index)), col)] = -c
    d2 = Matrix(max(len(index), 1), len(pairs))
    d2.entries = entries
    return d2


def _graded_tuples(monos: list[Monomial], degree: Callable[[Monomial], int],
                   bound: int) -> tuple[list[tuple], list[tuple]]:
    """The pairs and triples over ``monos`` (canonically ordered) of total
    degree <= bound, by total degree, then by the canonical index of each
    slot in turn.

    They are listed grade by grade, with no tuple past the bound formed
    and no sort: a pair of degree t is a first slot of degree e < t, in
    canonical order, then a monomial of degree t - e; a triple of degree t
    is a first slot of degree e, then a pair of degree t - e.
    """
    by_degree: dict[int, list[Monomial]] = {}
    for m in monos:
        by_degree.setdefault(degree(m), []).append(m)
    pairs = {t: [(a, b) for e, first in by_degree.items() if e < t
                 for a in first for b in by_degree.get(t - e, ())]
             for t in range(2, bound + 1)}
    triples = [(a, *pair) for t in range(3, bound + 1)
               for e, first in by_degree.items() if e < t - 1
               for a in first for pair in pairs[t - e]]
    return [pair for grade in pairs.values() for pair in grade], triples


@dataclass
class CobarReport:
    """Cocycle/coboundary/H^2 dimensions per bidegree or per degree level.

    In total-degree mode the rows are cumulative over the truncations
    (<= n for each level n); the last row is the whole bounded complex.
    ``lantern_ce_h2``, the lantern's CE H^2 per grade, bounds H^2 of every
    truncation from above; ``complete`` (N > G') says no higher bound
    changes H^2: every row above G' repeats row G'.
    """

    bound: int
    mode: str                      # "bidegree" or "total"
    rows: list[dict]
    lantern_ce_h2: dict
    complete: bool

    @property
    def total_h2(self) -> int:
        if self.mode == "bidegree":
            return sum(r["h2"] for r in self.rows)
        return self.rows[-1]["h2"] if self.rows else 0

    @property
    def stable_from_previous_bound(self) -> bool:
        """Whether raising the bound from N-1 to N left H^2 unchanged.

        Read off this report alone: in total mode the level N-1 row is the
        bound N-1 report; in bidegree mode the rows new at bound N are
        those of total degree N, and none of them may carry H^2.
        """
        if self.mode == "bidegree":
            return not any(r["h2"] for r in self.rows
                           if sum(r["bidegree"]) == self.bound)
        return len(self.rows) < 2 or self.rows[-2]["h2"] == self.rows[-1]["h2"]

    @property
    def matches_lantern(self) -> bool:
        """Whether H^2 is the lantern's CE prediction for the CE classes of
        total degree <= N: per bidegree in bidegree mode, in total in total
        mode.  It is False exactly where a class of degree <= N dies."""
        ce = {g: n for g, n in self.lantern_ce_h2.items()
              if _total_degree(g) <= self.bound}
        if self.mode == "bidegree":
            return {r["bidegree"]: r["h2"] for r in self.rows if r["h2"]} == ce
        return self.total_h2 == sum(ce.values())

    def to_json(self) -> dict:
        grade = "bidegree" if self.mode == "bidegree" else "degree"
        return {"bound": self.bound, "mode": self.mode,
                "total_h2": self.total_h2, "rows": self.rows,
                "lantern_ce_h2": [{grade: g, "h2": n} for g, n in
                                  sorted(self.lantern_ce_h2.items())],
                "matches_lantern": self.matches_lantern,
                "complete": self.complete}

    def __str__(self):
        head = "bidegree" if self.mode == "bidegree" else "level <= n"
        lines = [f"cobar H^2 report (degree bound {self.bound}, {self.mode} mode)",
                 f"  {head:12} {'cocycles':>9} {'coboundaries':>13} {'H^2':>5}"]
        for r in self.rows:
            key = r.get("bidegree") or r.get("level")
            lines.append(f"  {str(key):12} {r['cocycles']:>9} "
                         f"{r['coboundaries']:>13} {r['h2']:>5}")
        lines.append(f"  total H^2 = {self.total_h2}")
        return "\n".join(lines)


def h2_report(h: HopfPresentation, bound: int,
              by_bidegree: bool = False) -> CobarReport:
    """Kernel/image dimensions of the truncated complex in rank 2.

    Filter C_<=n by weighted degree.  d never raises it, and the
    associated graded complex is the truncated cobar complex of gr H,
    whose graded dual is U(L) for the lantern L; cobar of a coalgebra
    computes Ext over its dual (Adams), and Ext over U(L) is H_CE(L)
    (Cartan-Eilenberg XIII).  This is the E_1 page of the spectral
    sequence of the degree filtration (May, 1966), so dim H^2(C_<=n) <=
    sum_{m<=n} H^2_CE(L)_m, and per bidegree block H^2 <= H^2_CE(L) of
    that bidegree, which is zero above G, the top degree of a CE class.

    gr H is the polynomial algebra on the generators, so L has one dual
    per generator and lives in the generator degrees, and P(gr H), dual
    to L/[L, L] (Milnor-Moore), is zero above G' = max(G, top generator
    degree).  Take n > G'.  A cocycle z of C_<=n has a top part z_n that
    is a cocycle of gr, with no CE class in grade n, so z_n = d_gr(y)
    for some y of degree n and z - d^1 y lies in C_<=n-1.  A cocycle
    d^1 y of C_<=n-1 with deg y = n has a top part of y primitive in gr
    H, so zero.  So H^2(C_<=n) = H^2(C_<=n-1), whether or not every CE
    class survives; d^1 is injective on grade n, whose coboundaries, and
    cocycles too, are its monomial count
    (``OrePresentation._monomial_counts``).  The bidegree blocks refine
    the degree ones, so G' is the same in both modes.

    One elimination, d^2 of C_<=min(N, G'), is taken
    (``_eliminated_counts``); d^1's pivots come with none.  List the
    monomials in canonical order.  Column m of d^1 is a non-pivot exactly
    when it is a combination of the columns before it, that is when some
    primitive a has lead m.  The kept P basis (``primitive_space``) is
    the canonical kernel of the same columns over the monomials of degree
    <= ``complete_bound(h, 1)``, a prefix of that order, so its leads are
    the non-pivots there; and P has no vector past that bound, which is
    at most g <= G'.  So on C_<=n, for every n, n below that bound
    included, the pivots of d^1 are the monomials of degree <= n that
    are not leads of P.  Under the degree-one certificate P's columns
    are those of the degree-one monomials, whose reduced coproducts are
    zero, so P takes no elimination either.  d^1 is never built, and
    d^2's columns ask for delta(m) of degree <= G' - 1 alone.  The counts
    are kept on h per level and mode, so every bound past G' reads the
    same ones.

    Both arguments need a Hopf algebra.  A failed coassociativity verdict
    is refused; PBW consistency and compatibility (a fifth of a cold
    catalog report) are the caller's, as in ``hopf cohomology`` and
    ``object_battery``.  An E_1 breach reads all three, and is a library
    defect only on a Hopf algebra.
    """
    if bound < 1:
        raise InputError("cobar bound must be >= 1")
    require_hopf_algebra(h._coassociativity_report())
    ce = _lantern_ce(h, by_bidegree)
    reach = _g_prime(h, ce)
    level = min(bound, reach)
    cocycles, coboundaries = map(Counter, h._kept(
        ("cobar", level, by_bidegree),
        lambda: _eliminated_counts(h, level, by_bidegree)))
    low = sum(cocycles.values()) - sum(coboundaries.values())
    predicted = sum(n for g, n in ce.items() if _total_degree(g) <= level)
    if low > predicted:
        require_hopf_algebra(h._pbw_report(), h._compatibility_report())
        raise RuntimeError(f"H^2(C_<={level}) = {low} exceeds the lantern's "
                           f"CE sum {predicted} there, against the E_1 bound")
    for g, count in h.algebra._monomial_counts(bound, by_bidegree).items():
        if _total_degree(g) > reach:
            cocycles[g] = coboundaries[g] = count
    return _report(bound, by_bidegree, cocycles, coboundaries, ce, reach)


def require_hopf_algebra(*reports: VerificationReport) -> None:
    """Refuse a presentation with a failed row in ``reports`` (kept PBW,
    coassociativity or compatibility verdicts), naming each."""
    require_passed("cobar H^2 needs a Hopf algebra (PBW basis, d^2 = 0, "
                   "Delta an algebra map)", *reports)


def _lantern_ce(h: HopfPresentation, by_bidegree: bool) -> dict:
    """The lantern's CE H^2 per degree, or per bidegree once the
    presentation is checked to respect bidegrees (``_grading``).

    The lantern kept on h (``lantern_of_hopf``) keeps its CE H^2 per
    grading, so the eliminations run once per presentation.
    """
    lantern = lantern_of_hopf(h)
    if not by_bidegree:
        return lantern.ce_h2_dims()
    _grading(h, by_bidegree)
    return lantern.ce_h2_dims([h.algebra.monomial_bidegree(m)
                               for m in lantern.lifts])


def _eliminated_counts(h: HopfPresentation, bound: int,
                       by_bidegree: bool) -> tuple[dict, dict]:
    """Cocycles and coboundaries of C_<=bound per grade (``graded_h2``),
    from the rank profile of d^2 and the monomials that are not leads of
    the kept P, d^1's pivots (see ``h2_report``).

    The grade of a tuple is its total degree or its bidegree, the sum of
    its monomials' grades, each read once.  In total mode the bases are
    sorted by degree, so the pivots up to a level number the rank of that
    truncation.  In bidegree mode d maps each bidegree block into tuples
    of the same bidegree (``_require_bihomogeneous``), so the blocks
    share no rows and the pivots of a block number its rank.
    """
    grade = _grading(h, by_bidegree)
    cx = build_complex(h, bound)
    monos = [m for (m,) in cx.bases[1]]
    grades = {m: grade(m) for m in monos}
    leads = set(_leads(primitive_space(h).basis))
    return graded_h2(
        [grades[m] for m in monos],
        [i for i, m in enumerate(monos) if m not in leads],
        [grade_sum(grades[a], grades[b]) for a, b in cx.bases[2]],
        cx.d2.rank_profile())


def _g_prime(h: HopfPresentation, ce: dict) -> int:
    """G' = max(G, top generator degree), G the top degree of a grade of
    the CE H^2 ``ce`` (an int, or a bidegree)."""
    return max([1, *map(_total_degree, ce), h.top_degree])


def _total_degree(grade) -> int:
    """The total degree of a grade: a degree, or a bidegree's sum."""
    return sum(grade) if isinstance(grade, tuple) else grade


def _report(bound: int, by_bidegree: bool, cocycles: dict,
            coboundaries: dict, ce: dict, reach: int) -> CobarReport:
    """Rows from per-grade counts: one per bidegree of ``cocycles``, by
    total degree then bidegree, or one per truncation level, cumulative;
    with the CE H^2 ``ce``, and complete past G' = ``reach``."""
    rows = []
    if by_bidegree:
        for bd in sorted(cocycles, key=lambda b: (b[0] + b[1], b)):
            z, b = cocycles[bd], coboundaries.get(bd, 0)
            rows.append({"bidegree": bd, "cocycles": z,
                         "coboundaries": b, "h2": z - b})
    else:
        z = b = 0
        for level in range(1, bound + 1):
            z += cocycles.get(level, 0)
            b += coboundaries.get(level, 0)
            rows.append({"level": level, "cocycles": z,
                         "coboundaries": b, "h2": z - b})
    return CobarReport(bound, "bidegree" if by_bidegree else "total", rows,
                       ce, bound > reach)


def _grading(h: HopfPresentation, by_bidegree: bool):
    """The grade of a monomial: its bidegree, checked to be respected by
    the presentation, or its degree."""
    alg = h.algebra
    if not by_bidegree:
        return alg.monomial_degree
    if alg.bidegrees is None:
        raise InputError("bidegree mode requires bidegrees on all generators")
    _require_bihomogeneous(h)
    return alg.monomial_bidegree


def _require_bihomogeneous(h: HopfPresentation):
    alg = h.algebra
    for (j, i), terms in alg.kappa.items():
        want = tuple(x + y for x, y in zip(alg.bidegrees[i], alg.bidegrees[j]))
        for m in terms:
            if alg.monomial_bidegree(m) != want:
                raise InputError(
                    f"presentation is not bidegree-homogeneous: "
                    f"[{alg.names[j]},{alg.names[i]}]")
    for g, terms in h.delta_gen.items():
        want = alg.bidegrees[g]
        for (l, r) in terms:
            got = tuple(x + y for x, y in
                        zip(alg.monomial_bidegree(l), alg.monomial_bidegree(r)))
            if got != want:
                raise InputError(
                    f"presentation is not bidegree-homogeneous: "
                    f"delta({alg.names[g]})")


@dataclass
class CoboundaryResult:
    is_coboundary: bool
    witness: Optional[AlgebraElement]
    rank: int
    rank_augmented: int

    def __repr__(self):
        if self.is_coboundary:
            return f"coboundary with witness {self.witness}"
        return (f"not a coboundary (rank {self.rank} < augmented rank "
                f"{self.rank_augmented})")


def is_coboundary(h: HopfPresentation, w: TensorElement) -> CoboundaryResult:
    """Solve d^1(c) = w over the monomials of degree <= max(deg w, g), g =
    ``top_degree``, or certify that no c of any degree solves it.

    No solution has degree e > max(deg w, g): d^1 never raises degree,
    so the degree-e part of d^1(c) = w, which is delta_gr(c_top) in gr
    H, vanishes, and the P argument of ``structure.complete_bound`` puts
    the nonzero c_top in degree <= g.
    """
    if w.rank != 2:
        raise InputError("coboundary test expects a rank-2 tensor")
    if w.p is not h.algebra:
        raise InputError("tensor belongs to a different presentation")
    # cocycle precondition: the derivation differential must kill w
    if coassociator(w.terms, h._reduced_monomial):
        raise InputError("input is not a 2-cocycle")
    monos = h.algebra.monomials_up_to(max(w.total_degree() or 0,
                                          h.top_degree))
    cols = [h._reduced_monomial(m) for m in monos]
    (sol,), rank = express(cols, [w.terms])
    if sol is None:
        # w is outside the image of d^1, so appending it raises the rank
        return CoboundaryResult(False, None, rank, rank + 1)
    witness = AlgebraElement(h.algebra, {monos[i]: c for i, c in sol.items()})
    return CoboundaryResult(True, witness, rank, rank)

"""Bounded-degree cobar complex of a connected Hopf presentation.

The complex lives on tuples of unit-free PBW monomials; the differential
extends the reduced coproduct as a derivation with alternating signs:
on rank 1, d(c) = delta(c); on rank 2, d(a(x)b) = delta(a)(x)b -
a(x)delta(b).  Coassociativity makes d^2 = 0.  Since delta never raises
weighted degree, the tuples of total degree <= N form a subcomplex, and
within it homology of rank 2 is exact for the presentations treated
here: a 2-cocycle of degree <= N can only be cobounded by a 1-cochain of
degree <= N because the leading term of d^1 preserves degree and its
kernel is spanned by low-degree primitives.  The stability checks in the
test-suite re-verify that truncation argument numerically instead of
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .exactlin import Matrix, add_scaled, add_term, express
from .hopf import HopfPresentation, TensorElement
from .ore import AlgebraElement, Monomial
from .reports import VerificationReport


@dataclass
class CobarComplex:
    presentation: HopfPresentation
    bound: int
    bases: dict[int, list[tuple]]          # rank -> ordered tuple basis
    coords: dict[int, dict[tuple, int]]    # rank -> tuple -> column index
    d1: Matrix                             # rank 1 -> rank 2
    d2: Matrix                             # rank 2 -> rank 3

    def tuple_degree(self, t: tuple) -> int:
        alg = self.presentation.algebra
        return sum(alg.monomial_degree(m) for m in t)

    def differential_one(self, t: tuple) -> dict[tuple, Fraction]:
        return _d1_terms(self.presentation, t[0])

    def differential_two(self, t: tuple) -> dict[tuple, Fraction]:
        return _d2_terms(self.presentation, t)

    def verify_differential(self) -> VerificationReport:
        """d^2 = 0, composed symbolically on every rank-1 basis element."""
        report = VerificationReport("cobar differential squares to zero")
        h = self.presentation
        witness = next((m for (m,) in self.bases[1]
                        if _apply_d2(h, _d1_terms(h, m))), None)
        report.add("d2 after d1 vanishes", witness is None, witness=witness)
        return report


def _d1_terms(h: HopfPresentation, m: Monomial) -> dict[tuple, Fraction]:
    elt = AlgebraElement(h.algebra, {m: Fraction(1)})
    return dict(h.reduced_coproduct(elt).terms)


def _d2_terms(h: HopfPresentation, pair: tuple) -> dict[tuple, Fraction]:
    a, b = pair
    out: dict[tuple, Fraction] = {}
    for (u, v), c in _d1_terms(h, a).items():
        add_term(out, (u, v, b), c)
    for (u, v), c in _d1_terms(h, b).items():
        add_term(out, (a, u, v), -c)
    return out


def _apply_d2(h: HopfPresentation, w: dict[tuple, Fraction]
              ) -> dict[tuple, Fraction]:
    """d^2 of a rank-2 cochain given as {pair: coefficient}."""
    out: dict[tuple, Fraction] = {}
    for pair, c in w.items():
        add_scaled(out, _d2_terms(h, pair), c)
    return out


def build_complex(h: HopfPresentation, bound: int) -> CobarComplex:
    """Bases and differential matrices for ranks 1..3, total degree <= bound."""
    if bound < 1:
        raise InputError("cobar bound must be >= 1")
    alg = h.algebra
    monos = alg.monomials_up_to(bound)
    keyfn = alg.monomial_key

    def tuple_key(t):
        return (sum(alg.monomial_degree(m) for m in t),
                tuple(keyfn(m) for m in t))

    bases: dict[int, list[tuple]] = {1: [(m,) for m in monos]}
    pairs = []
    triples = []
    for a in monos:
        da = alg.monomial_degree(a)
        for b in monos:
            dab = da + alg.monomial_degree(b)
            if dab > bound:
                continue
            pairs.append((a, b))
            for c in monos:
                if dab + alg.monomial_degree(c) <= bound:
                    triples.append((a, b, c))
    pairs.sort(key=tuple_key)
    triples.sort(key=tuple_key)
    bases[2] = pairs
    bases[3] = triples
    coords = {r: {t: i for i, t in enumerate(basis)}
              for r, basis in bases.items()}

    d1_cols = []
    for (m,) in bases[1]:
        d1_cols.append({coords[2][t]: c for t, c in _d1_terms(h, m).items()})
    d1 = Matrix.from_columns(d1_cols, max(len(bases[2]), 1))
    d2_cols = []
    for pair in bases[2]:
        d2_cols.append({coords[3][t]: c for t, c in _d2_terms(h, pair).items()})
    d2 = Matrix.from_columns(d2_cols, max(len(bases[3]), 1))
    return CobarComplex(h, bound, bases, coords, d1, d2)


@dataclass
class CobarReport:
    """Cocycle/coboundary/H^2 dimensions per bidegree or per degree level.

    In total-degree mode the rows are cumulative over the truncations
    (<= n for each level n); the last row is the whole bounded complex.
    """

    bound: int
    mode: str                      # "bidegree" or "total"
    rows: list[dict] = field(default_factory=list)

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

    def to_json(self) -> dict:
        return {"bound": self.bound, "mode": self.mode,
                "total_h2": self.total_h2, "rows": self.rows}

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
    """Kernel/image dimensions of the truncated complex in rank 2."""
    cx = build_complex(h, bound)
    alg = h.algebra
    if by_bidegree:
        if alg.bidegrees is None:
            raise InputError("bidegree mode requires bidegrees on all generators")
        _require_bihomogeneous(h)
        pair_bd: dict[tuple, list[int]] = {}
        for idx, pair in enumerate(cx.bases[2]):
            pair_bd.setdefault(_tuple_bidegree(alg, pair), []).append(idx)
        mono_bd: dict[tuple, list[int]] = {}
        for idx, (m,) in enumerate(cx.bases[1]):
            mono_bd.setdefault(alg.monomial_bidegree(m), []).append(idx)
        d1_cols = cx.d1.columns()
        d2_cols = cx.d2.columns()
        report = CobarReport(bound, "bidegree")
        for bd in sorted(pair_bd, key=lambda b: (b[0] + b[1], b)):
            cols = pair_bd[bd]
            sub2 = Matrix.from_columns([d2_cols[c] for c in cols], cx.d2.rows)
            z = len(cols) - sub2.rank()
            dcols = mono_bd.get(bd, [])
            sub1 = Matrix.from_columns([d1_cols[c] for c in dcols], cx.d1.rows)
            b = sub1.rank() if dcols else 0
            report.rows.append({"bidegree": bd, "cocycles": z,
                                "coboundaries": b, "h2": z - b})
        return report

    # total-degree mode: cumulative dimensions per truncation level,
    # read off one echelon pass (columns are sorted by degree, and pivots
    # come in column order, so the rank of any column prefix is a count)
    _, d2_pivots = cx.d2.row_echelon()
    _, d1_pivots = cx.d1.row_echelon()
    pair_degrees = [cx.tuple_degree(t) for t in cx.bases[2]]
    mono_degrees = [cx.tuple_degree(t) for t in cx.bases[1]]
    report = CobarReport(bound, "total")
    for level in range(1, bound + 1):
        k2 = sum(1 for d in pair_degrees if d <= level)
        z = k2 - sum(1 for p in d2_pivots if p < k2)
        k1 = sum(1 for d in mono_degrees if d <= level)
        b = sum(1 for p in d1_pivots if p < k1)
        report.rows.append({"level": level, "cocycles": z,
                            "coboundaries": b, "h2": z - b})
    return report


def _tuple_bidegree(alg, t: tuple) -> tuple[int, int]:
    a = b = 0
    for m in t:
        ba, bb = alg.monomial_bidegree(m)
        a += ba
        b += bb
    return (a, b)


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


def is_coboundary(h: HopfPresentation, w: TensorElement,
                  bound: int) -> CoboundaryResult:
    """Solve d^1(c) = w within degree <= max(deg w, 1), or certify failure."""
    if w.rank != 2:
        raise InputError("coboundary test expects a rank-2 tensor")
    if w.p is not h.algebra:
        raise InputError("tensor belongs to a different presentation")
    # cocycle precondition: the derivation differential must kill w
    if _apply_d2(h, w.terms):
        raise InputError("input is not a 2-cocycle")
    deg = w.total_degree()
    level = max(deg if deg is not None else 1, 1)
    if level > bound:
        raise InputError(f"tensor degree {level} exceeds the bound {bound}")
    monos = h.algebra.monomials_up_to(level)
    cols = [_d1_terms(h, m) for m in monos]
    sol = express(cols, [w.terms])[0]
    rank = Matrix.from_keyed_columns(cols).rank()
    if sol is None:
        # w is outside the image of d^1, so appending it raises the rank
        return CoboundaryResult(False, None, rank, rank + 1)
    witness = AlgebraElement(h.algebra, {m: c for m, c in zip(monos, sol) if c})
    return CoboundaryResult(True, witness, rank, rank)

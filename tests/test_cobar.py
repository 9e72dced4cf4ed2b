import functools
import random
import signal
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfalg import catalog, exactlin
from hopfalg.catalog import build, list_catalog, make_A, make_lie
from hopfalg.cla import GradedLie, enveloping, object_battery
from hopfalg.cobar import (CobarComplex, _eliminated_counts, _g_prime,
                           _graded_tuples, _grading, _lantern_ce, _report,
                           build_complex, h2_report, is_coboundary)
from hopfalg.errors import InputError, StructuralError
from hopfalg.exactlin import (Matrix, add_term, coassociator, express,
                              grade_sum, graded_h2)
from hopfalg.hopf import HopfPresentation
from hopfalg.ledger import cocycle_t, cocycle_u
from hopfalg.ore import OrePresentation
from hopfalg.structure import (_leads, complete_bound, coradical_filtration,
                               lantern_of_hopf, primitive_space)


def _tuple_grades(h, basis, by_bidegree):
    """The grade of each tuple of a cobar basis: the sum of its monomials'
    degrees or bidegrees."""
    grade = _grading(h, by_bidegree)
    return [functools.reduce(grade_sum, map(grade, t)) for t in basis]


def _eliminated_report(h, bound, by_bidegree=False):
    """Oracle: the rows from one rank profile of d^2 and one of d^1 of
    C_<=bound, both eliminated here, with no reading of P, of C_<=G' or of
    monomial counts."""
    ce = _lantern_ce(h, by_bidegree)
    cx = build_complex(h, bound)
    d2_pivots = cx.d2.rank_profile()
    counts = graded_h2(_tuple_grades(h, cx.bases[1], by_bidegree),
                       cx.d1.rank_profile(),
                       _tuple_grades(h, cx.bases[2], by_bidegree), d2_pivots)
    return _report(bound, by_bidegree, *counts, ce, _g_prime(h, ce))


def _d2_after_d1(h, bound):
    """Oracle: the first monomial m of degree <= bound with d^2(d^1 m) != 0,
    composed on sparse vectors (d^1 is ``_reduced_monomial``, d^2 the
    ``coassociator``), or None when d^2 d^1 = 0 on C_<=bound."""
    d1 = h._reduced_monomial
    return next((m for m in h.algebra.monomials_up_to(bound)
                 if coassociator(d1(m), d1)), None)


def _spy_eliminations(monkeypatch, record):
    """Call record(m) on every matrix m that ``row_echelon`` or
    ``rank_profile`` is asked for; neither reaches the other, so each
    elimination, a matrix with no entries included, is recorded once."""
    for name in ("row_echelon", "rank_profile"):
        def spy(self, real=getattr(Matrix, name)):
            record(self)
            return real(self)

        monkeypatch.setattr(Matrix, name, spy)


def test_rank_one_differential_examples(A000):
    alg = A000.algebra
    d1 = A000._reduced_monomial
    z = alg.monomial_tuple({"Z": 1})
    x = alg.monomial_tuple({"X": 1})
    y = alg.monomial_tuple({"Y": 1})
    assert d1(z) == {(x, y): 1, (y, x): -1}
    assert d1(x) == {}
    x2y = alg.monomial_tuple({"X": 2, "Y": 1})
    x2 = alg.monomial_tuple({"X": 2})
    xy = alg.monomial_tuple({"X": 1, "Y": 1})
    assert d1(x2y) == {(x2, y): 1, (xy, x): 2, (x, xy): 2, (y, x2): 1}
    # the columns of d1 are these vectors, over the pairs they reach
    cx = build_complex(A000, 4)
    assert cx.d1 == Matrix.from_keyed_columns([d1(m) for (m,) in cx.bases[1]])


def test_differential_squares_to_zero_on_catalog():
    for spec in list_catalog():
        if spec.tag.startswith("cla"):
            continue
        assert _d2_after_d1(build(spec), 4) is None, spec.describe()


def test_cocycles_u_and_t_survive_deformation():
    for params in [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]:
        h = make_A(*params)
        for w in (cocycle_u(h), cocycle_t(h)):
            # is_coboundary rejects non-cocycles, so not raising is the check
            is_coboundary(h, w, 6)


def test_u_is_not_a_coboundary(A000):
    res = is_coboundary(A000, cocycle_u(A000), 6)
    assert not res.is_coboundary
    assert res.witness is None
    assert res.rank < res.rank_augmented


def test_reduced_coproducts_are_coboundaries(A000):
    w = A000.reduced_coproduct(A000.algebra.monomial({"X": 2, "Y": 1}))
    res = is_coboundary(A000, w, 6)
    assert res.is_coboundary
    assert A000.reduced_coproduct(res.witness) == w


def test_zero_is_a_coboundary(A000):
    res = is_coboundary(A000, A000.tensor([]), 6)
    assert res.is_coboundary
    assert res.witness.is_zero()


def test_non_cocycle_rejected(A000):
    w = A000.tensor([(1, {"X": 1}, {"Z": 1})])
    with pytest.raises(InputError):
        is_coboundary(A000, w, 6)


def test_bidegree_report_locations(A000):
    rep = h2_report(A000, 6, by_bidegree=True)
    nonzero = {tuple(r["bidegree"]): r["h2"] for r in rep.rows if r["h2"]}
    assert nonzero == {(2, 1): 1, (1, 2): 1}
    assert rep.total_h2 == 2


def test_bidegree_mode_requires_bidegrees(K):
    # the four-generator families carry bidegrees but are not
    # bidegree-homogeneous; a bare presentation has none at all
    bare = HopfPresentation(OrePresentation([("X", 1), ("Y", 1)]), {})
    with pytest.raises(InputError):
        h2_report(bare, 3, by_bidegree=True)


def test_bidegree_mode_requires_homogeneity(A100):
    with pytest.raises(InputError):
        h2_report(A100, 4, by_bidegree=True)


def test_total_mode_deformed_families(A100, A001, B0, B1):
    for h in (A100, A001, B0, B1):
        r5 = h2_report(h, 5)
        r6 = h2_report(h, 6)
        assert r5.total_h2 == r6.total_h2 == 2
        assert [r["h2"] for r in r5.rows] == [0, 0, 2, 2, 2]
        assert [r["h2"] for r in r6.rows[:5]] == [0, 0, 2, 2, 2]


def test_truncation_subcomplex_property(A100):
    # every differential image stays within the degree bound
    cx = build_complex(A100, 5)
    degree = A100.algebra.monomial_degree
    for pair in cx.bases[2]:
        deg = sum(map(degree, pair))
        for triple in coassociator({pair: 1}, A100._reduced_monomial):
            assert sum(map(degree, triple)) <= deg


def test_report_serialization(A000):
    rep = h2_report(A000, 4, by_bidegree=True)
    data = rep.to_json()
    assert data["mode"] == "bidegree"
    assert data["total_h2"] == 2
    assert str(rep)


def test_total_mode_is_served_by_certified_rank_profiles(K, monkeypatch):
    # with the Fraction elimination out of reach, a rank profile that fell
    # back to it would raise here instead of only running slower
    def refuse(self):
        raise AssertionError("rank profile fell back to Fraction elimination")

    profiles, passes, lifted = [], [], []
    certified = Matrix.rank_profile
    forward, lift = exactlin._forward, Matrix._lift

    def spy(self):
        profiles.append(certified(self))
        return profiles[-1]

    def count(*args):
        passes.append(1)
        return forward(*args)

    def lift_spy(self, reduced, pivots):
        lifted.append(len(pivots))
        return lift(self, reduced, pivots)

    _lantern_ce(K, False)  # kept on K, so the spy sees d2 and d1 alone
    monkeypatch.setattr(Matrix, "_fraction_rref", refuse)
    monkeypatch.setattr(Matrix, "rank_profile", spy)
    monkeypatch.setattr(exactlin, "_forward", count)
    monkeypatch.setattr(Matrix, "_lift", lift_spy)
    rep = _eliminated_report(K, 8)
    assert rep.total_h2 == 2
    d2_pivots, _ = profiles
    assert len(d2_pivots) == 1257
    # Hadamard's bound refuses d2 and certifies d1; d2 is lifted from the
    # rows of its one forward pass
    assert lifted == [1257] and len(passes) == 2
    assert rep.rows[-1]["cocycles"] == 1392 - 1257


def test_reports_read_every_rank_profile_off_the_bound(monkeypatch):
    # K at 8, a D with rational parameters at 7 and A(0,0,0) by bidegree
    # at 8, each on a fresh presentation: the largest matrix is the 56 x 64
    # d2 of rank 40 over C_<=G', whose Hadamard product (about 2^167 on K)
    # is below P^2; no rank profile is lifted or eliminated over Q.  Each
    # lantern's CE d1 is taken once, for the degree-one certificate and
    # the CE H^2 alike
    def refuse(self, *args):
        raise AssertionError("a rank profile was not certified by the bound")

    profiles = []
    certified = Matrix.rank_profile

    def spy(self):
        if self.entries:
            profiles.append((self.rows, self.cols))
        return certified(self)

    monkeypatch.setattr(Matrix, "_lift", refuse)
    monkeypatch.setattr(Matrix, "_fraction_rref", refuse)
    monkeypatch.setattr(Matrix, "rank_profile", spy)
    F = Fraction
    D = catalog.make_D(F(4, 7), -6, -1, F(-4, 9), F(-7, 9), F(-1, 3),
                       F(-1, 5), F(3, 2))
    assert h2_report(catalog.make_K(), 8).total_h2 == 2
    assert h2_report(D, 7).total_h2 == 2
    rows = h2_report(make_A(0, 0, 0), 8, by_bidegree=True).rows
    assert {r["bidegree"]: r["h2"] for r in rows if r["h2"]} == {
        (2, 1): 1, (1, 2): 1}
    assert len(profiles) == 8 and (56, 64) in profiles


def _block_ranks(h, bound):
    """Bidegree rows from one rank per bidegree block of d2 and of d1."""
    cx = build_complex(h, bound)
    alg = h.algebra

    def bidegree(t):
        return tuple(sum(alg.monomial_bidegree(m)[s] for m in t)
                     for s in (0, 1))

    d1_cols, d2_cols = cx.d1.columns(), cx.d2.columns()
    rows = []
    for bd in sorted({bidegree(t) for t in cx.bases[2]},
                     key=lambda b: (sum(b), b)):
        cols = [c for c, t in enumerate(cx.bases[2]) if bidegree(t) == bd]
        z = len(cols) - Matrix.from_keyed_columns(
            [d2_cols[c] for c in cols]).rank()
        dcols = [c for c, t in enumerate(cx.bases[1]) if bidegree(t) == bd]
        b = Matrix.from_keyed_columns(
            [d1_cols[c] for c in dcols]).rank() if dcols else 0
        rows.append({"bidegree": bd, "cocycles": z, "coboundaries": b,
                     "h2": z - b})
    return rows


@pytest.mark.parametrize("family, bound", [("A000", 8), ("D01", 6)])
def test_bidegree_rows_match_block_ranks(family, bound, request):
    # the two bihomogeneous presentations of the catalog: pivots counted
    # per block of one rank profile equal the rank of each block alone
    h = request.getfixturevalue(family)
    assert h2_report(h, bound, by_bidegree=True).rows == _block_ranks(h, bound)


@pytest.mark.parametrize("by_bidegree", [False, True])
def test_h2_report_takes_one_elimination_per_differential(by_bidegree,
                                                          monkeypatch):
    # the counts of C_<=6 eliminate d2 alone, as d1's pivots are read off
    # the kept P; on a cold presentation they also take the degree-one
    # certificate's one rank profile, of the lantern's CE d1, and P's
    # kernel, a matrix with no entries, both kept, so a second count
    # eliminates d2 alone
    A000 = make_A(0, 0, 0)
    cx = build_complex(A000, 6)
    lantern = lantern_of_hopf(A000)
    ce_d1 = Matrix.from_keyed_columns(
        [{pair: -terms[k] for pair, terms in lantern.brackets.items()
          if k in terms} for k in range(lantern.dim)])
    degree_one = len(A000.algebra.monomials_up_to(1))
    shapes = []
    _spy_eliminations(monkeypatch, lambda m: shapes.append((m.rows, m.cols)))
    counts = _eliminated_counts(A000, 6, by_bidegree)
    d2 = (cx.d2.rows, cx.d2.cols)
    assert shapes == [(ce_d1.rows, ce_d1.cols), (1, degree_one), d2]
    shapes.clear()
    assert _eliminated_counts(A000, 6, by_bidegree) == counts
    assert shapes == [d2]
    monkeypatch.undo()
    ce = _lantern_ce(A000, by_bidegree)
    rep = _report(6, by_bidegree, *counts, ce, _g_prime(A000, ce))
    assert rep.total_h2 == 2
    assert rep.rows == _eliminated_report(A000, 6, by_bidegree).rows


@pytest.mark.parametrize("family, by_bidegree",
                         [("K", False), ("A000", True)])
def test_h2_report_takes_one_rank_profile_at_g_prime(
        family, by_bidegree, monkeypatch):
    # past the lantern's CE ranks, the report eliminates d2 of C_<=G'
    # once, and takes no kernel basis but P's, whose matrix has no
    # entries (the degree-one certificate is kept, so read first); it
    # reads the kept lantern, so its CE H^2 by degree is not taken again,
    # while that by bidegree is a second grading of the same lantern
    h = catalog.make_K() if family == "K" else make_A(0, 0, 0)
    lantern = lantern_of_hopf(h)
    assert complete_bound(h, 1) == 1
    shapes, kernels = [], []
    kernel_basis = Matrix.kernel_basis

    def kernel_spy(self):
        kernels.append(len(self.entries))
        return kernel_basis(self)

    _spy_eliminations(monkeypatch, lambda m: shapes.append((m.rows, m.cols)))
    monkeypatch.setattr(Matrix, "kernel_basis", kernel_spy)
    top = max(lantern.ce_h2_dims())
    ce_shapes = list(shapes)
    shapes.clear()
    rep = h2_report(h, 8, by_bidegree)
    monkeypatch.undo()
    assert rep.total_h2 == 2
    assert kernels == [0]
    cx = build_complex(h, max(top, *h.algebra.degrees))
    assert shapes == (ce_shapes if by_bidegree else []) + [
        (1, len(h.algebra.monomials_up_to(1))), (cx.d2.rows, cx.d2.cols)]


def _expire(signum, frame):
    raise TimeoutError("call exceeded its time budget")


def _within(seconds, fn, *args, **kwargs):
    """fn(*args, **kwargs), or TimeoutError once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_h2_report_scales_to_bound_nine(K):
    # the d2 matrix at N = 9 has 2290 pivots; a full Fraction RREF that
    # scanned every row per pivot spent about 7 s on it alone
    rep = _within(60, h2_report, K, 9)
    assert rep.total_h2 == 2
    assert rep.stable_from_previous_bound


def test_h2_report_scales_to_bound_twelve(monkeypatch):
    # d1 is injective above G' = max(G, top generator degree), and its
    # pivots are read off P, so the report asks for no delta(m) of degree
    # G' or more (d2's columns reach G' - 1), and its widest elimination
    # is as wide at N = 12 and N = 30 as at N = G' + 1
    K = catalog.make_K()
    top = max(lantern_of_hopf(K).ce_h2_dims())
    reach = max(top, *K.algebra.degrees)
    widths, degrees = [], []
    reduced = HopfPresentation._reduced_monomial

    def spy_reduced(self, m):
        degrees.append(self.algebra.monomial_degree(m))
        return reduced(self, m)

    _spy_eliminations(monkeypatch, lambda m: widths.append(m.cols))
    monkeypatch.setattr(HopfPresentation, "_reduced_monomial", spy_reduced)
    widest = {}
    for bound, seconds in [(reach + 1, 60), (12, 60), (30, 1)]:
        widths.clear()
        degrees.clear()
        rep = _within(seconds, h2_report, catalog.make_K(), bound)
        assert rep.total_h2 == 2
        assert rep.stable_from_previous_bound
        assert max(degrees) == reach - 1 == 3
        widest[bound] = max(widths)
    assert widest[12] == widest[30] == widest[reach + 1]


def test_h2_report_lists_no_monomial_above_g_prime(monkeypatch):
    # above G' the report counts monomials per grade, never lists them
    bounds = []
    listing = OrePresentation.monomials_up_to

    def spy(self, bound, include_unit=False):
        bounds.append(bound)
        return listing(self, bound, include_unit)

    monkeypatch.setattr(OrePresentation, "monomials_up_to", spy)
    for h, by_bidegree in [(catalog.make_K(), False),
                           (make_A(0, 0, 0), True)]:
        alg = h.algebra
        lantern = lantern_of_hopf(h)
        grades = ([alg.monomial_bidegree(m) for m in lantern.lifts]
                  if by_bidegree else None)
        top = max(sum(g) if by_bidegree else g
                  for g in lantern.ce_h2_dims(grades))
        reach = max(top, *alg.degrees)
        bounds.clear()
        rep = h2_report(h, 30, by_bidegree)
        assert rep.total_h2 == 2 and rep.stable_from_previous_bound
        assert bounds and max(bounds) <= reach < 30, (bounds, reach)


def test_bidegree_report_scales_to_bound_thirty():
    rep = _within(1, h2_report, make_A(0, 0, 0), 30, by_bidegree=True)
    assert {r["bidegree"]: r["h2"] for r in rep.rows if r["h2"]} == {
        (2, 1): 1, (1, 2): 1}
    assert rep.stable_from_previous_bound


HOPF_CATALOG = [spec for spec in list_catalog()
                if not spec.tag.startswith("cla")]


@functools.cache
def _oracle(case):
    """A presentation and its fully eliminated report: a catalog entry (by
    index) at N = 8, a hand-built one (by name) at N = 9.  The level n
    rows of a total-mode report are the report at bound n."""
    if case in HAND_BUILT:
        return HAND_BUILT[case], _eliminated_report(HAND_BUILT[case], 9)
    h = build(HOPF_CATALOG[case])
    return h, _eliminated_report(h, 8)


@pytest.mark.parametrize("index", range(len(HOPF_CATALOG)),
                         ids=[s.describe() for s in HOPF_CATALOG])
def test_lantern_prediction_equals_h2(index):
    # cobar H^2 of C_<=n is the sum of H^2_CE(lantern) in degrees <= n
    h, oracle = _oracle(index)
    ce = lantern_of_hopf(h).ce_h2_dims()
    assert [r["h2"] for r in oracle.rows[:6]] == [
        sum(dim for deg, dim in ce.items() if deg <= n) for n in range(1, 7)]


def test_lantern_prediction_by_bidegree(A000):
    L = lantern_of_hopf(A000)
    bidegrees = [A000.algebra.monomial_bidegree(m) for m in L.lifts]
    assert L.ce_h2_dims(bidegrees) == {(2, 1): 1, (1, 2): 1}


# Hand-built presentations: (generators, commutators, coproducts).
# U of an abelian Lie algebra on the given (name, weight) generators.  One
# generator leaves no CE class, so G = 0 < G' and the bounds N <= G' are
# eliminated at N; with X, W of weights 1, 3 the class X*W* puts G at 4
ABELIAN = {"X of weight 2": ([("X", 2)], {}, {}),
           "X of weight 3": ([("X", 3)], {}, {}),
           "X, W of weights 1, 3": ([("X", 1), ("W", 3)], {}, {})}

# k[X, Y, W] of weights 1, 1, 3 with delta(W) = X(x)Y.  Its lantern is
# abelian, with CE H^2 {2: 1, 4: 2}, but X(x)Y bounds once W enters: H^2 of
# C_<=n is 1, 0, 2, 2, ... from n = 2, so H^2(C_<=4) = 2 falls short of the
# CE sum 3, and every row past G' = 4 repeats it
DELTA_W = "X, Y, W with delta(W) = X(x)Y"
# Two noncommutative presentations where a lower-degree delta(W) kills a CE
# class the same way, with G' = 4: W of weight 3 over the Heisenberg
# algebra on P, Q, E, and over U(k^2 x| k) on X, Y
HEISENBERG_W = "P, Q, E, W with [Q,P] = E, delta(W) = P(x)E"
SEMIDIRECT_W = "X, Y, W with [Y,X] = X, delta(W) = X(x)Y"
HAND_BUILT_DATA = {
    **ABELIAN,
    DELTA_W: ([("X", 1), ("Y", 1), ("W", 3)], {},
              {"W": [(1, {"X": 1}, {"Y": 1})]}),
    HEISENBERG_W: ([("P", 1), ("Q", 1), ("E", 1), ("W", 3)],
                   {"Q,P": [(1, {"E": 1})],
                    "W,Q": [(Fraction(-1, 2), {"E": 2})]},
                   {"W": [(1, {"P": 1}, {"E": 1})]}),
    SEMIDIRECT_W: ([("X", 1), ("Y", 1), ("W", 3)],
                   {"Y,X": [(1, {"X": 1})],
                    "W,X": [(Fraction(1, 2), {"X": 2})],
                    "W,Y": [(-1, {"W": 1})]},
                   {"W": [(1, {"X": 1}, {"Y": 1})]})}


def _hand_built(case):
    """A new presentation, with nothing kept yet, of a hand-built case."""
    generators, commutators, coproducts = HAND_BUILT_DATA[case]
    return HopfPresentation(OrePresentation(generators, commutators),
                            coproducts)


HAND_BUILT = {case: _hand_built(case) for case in HAND_BUILT_DATA}
# the CE classes that die, and the H^2 rows to N = 8
DYING = {DELTA_W: ({2: 1, 4: 2}, [0, 1, 0, 2, 2, 2, 2, 2]),
         HEISENBERG_W: ({2: 3, 4: 3}, [0, 3, 2, 4, 4, 4, 4, 4]),
         SEMIDIRECT_W: ({2: 1, 4: 2}, [0, 1, 0, 2, 2, 2, 2, 2])}


def test_degree_filtration_certificate_declines_delta_w():
    # W* has degree 3 and no bracket reaches it, so W is primitive in gr H
    # and the complete bounds stay n g; W lies in C_2, which is then not
    # the span of the six monomials of degree <= 2
    h = _hand_built(DELTA_W)
    assert not lantern_of_hopf(h).generated_in_degree_one()
    assert [complete_bound(h, n) for n in range(4)] == [0, 3, 6, 9]
    level = coradical_filtration(h, 2)
    monomials = h.algebra.monomials_up_to(2, include_unit=True)
    assert level.complete_bound == 6
    assert level.dim == 7 and len(monomials) == 6
    assert level.contains(h.algebra.gen("W"))
    assert sum(b.degree <= 2 for b in level.basis) == 6


def test_cobar_reads_the_top_degree_not_the_complete_bound(K):
    # on K, P is complete at 1, but the lantern, G' and the coboundary
    # search stay at the top generator degree g = 3
    assert complete_bound(K, 1) == 1 and K.top_degree == 3
    assert _g_prime(K, {}) == 3
    _lantern_ce(K, False)
    assert K._kept(("lantern",), None).names == ["X*", "Y*", "Z*", "W*"]


@pytest.mark.parametrize("case", [*range(len(HOPF_CATALOG)), *HAND_BUILT],
                         ids=[*(s.describe() for s in HOPF_CATALOG),
                              *HAND_BUILT])
def test_rows_match_full_elimination(case):
    h, oracle = _oracle(case)
    for bound in range(1, oracle.bound + 1):
        assert h2_report(h, bound).rows == oracle.rows[:bound], bound


def _modes(h):
    """Total mode, and bidegree mode where the presentation respects
    bidegrees."""
    try:
        _grading(h, True)
    except InputError:
        return [False]
    return [False, True]


def _grade(row):
    return row["level"] if "level" in row else sum(row["bidegree"])


@pytest.mark.parametrize("case", [*range(len(HOPF_CATALOG)), *DYING],
                         ids=[*(s.describe() for s in HOPF_CATALOG), *DYING])
def test_no_report_eliminates_past_g_prime(case, monkeypatch):
    # at every N up to 3G', in each mode, the only eliminations besides
    # the lantern's CE differentials and the kept P are d2 of
    # C_<=min(N, G'), once per mode; the rows are the full elimination's
    # up to the oracle's bound
    h = _hand_built(case) if case in DYING else build(HOPF_CATALOG[case])
    modes = _modes(h)
    reach = _g_prime(h, _lantern_ce(h, False))
    for by_bidegree in modes:
        _lantern_ce(h, by_bidegree)     # kept, so the spy sees the rest
    primitive_space(h)                  # kept too
    shapes = []
    _spy_eliminations(monkeypatch, lambda m: shapes.append((m.rows, m.cols)))
    reports = {(by_bidegree, n): h2_report(h, n, by_bidegree)
               for by_bidegree in modes for n in range(1, 3 * reach + 1)}
    monkeypatch.undo()
    expected = []
    for level in range(1, reach + 1):
        cx = build_complex(h, level)
        expected.append((cx.d2.rows, cx.d2.cols))
    assert shapes == expected * len(modes)
    oracles = {by_bidegree: (_eliminated_report(h, 8, True) if by_bidegree
                             else _oracle(case)[1]) for by_bidegree in modes}
    for (by_bidegree, n), rep in reports.items():
        oracle = oracles[by_bidegree]
        assert ([r for r in rep.rows if _grade(r) <= oracle.bound]
                == [r for r in oracle.rows if _grade(r) <= n]), (by_bidegree, n)


@pytest.mark.parametrize("case", DYING)
def test_rows_past_g_prime_repeat_g_prime_when_a_ce_class_dies(case):
    # H^2(C_<=4) falls short of the CE sum, yet every bound past G' = 4
    # reads the same rank profile of C_<=4 and is complete
    h = HAND_BUILT[case]
    ce, rows = DYING[case]
    assert object_battery(h, antipode_bound=5).passed
    assert lantern_of_hopf(h).ce_h2_dims() == ce
    assert _g_prime(h, ce) == 4
    for bound in range(1, 9):
        rep = h2_report(h, bound)
        assert [r["h2"] for r in rep.rows] == rows[:bound], bound
        assert rep.complete == (bound > 4), bound
        # the lantern predicts its classes of degree <= N
        assert rep.matches_lantern == (rows[bound - 1] == sum(
            n for g, n in ce.items() if g <= bound)), bound


def _grade_counts(grades, pivots):
    """grade -> [columns, pivot columns] over columns of the given grades;
    the oracle below counts for itself rather than through the library's
    ``graded_h2``."""
    counts = {}
    for g in grades:
        counts.setdefault(g, [0, 0])[0] += 1
    for p in pivots:
        counts[grades[p]][1] += 1
    return counts


def _bound_elimination_report(h, bound, by_bidegree=False):
    """Reference rows with d1 eliminated at the bound: the kernel of d2 on
    C_<=G, witnesses W picked from it modulo im d1 of C_<=G, one rank
    profile of [d1 of every monomial up to N | W] for the coboundaries,
    and the grades above G enumerated from pairs of monomial grades."""
    alg = h.algebra
    lantern = lantern_of_hopf(h)
    if by_bidegree:
        ce = lantern.ce_h2_dims([alg.monomial_bidegree(m)
                                 for m in lantern.lifts])
        top = max(sum(g) for g in ce)
    else:
        ce = lantern.ce_h2_dims()
        top = max(ce)
    assert top < bound
    low = build_complex(h, top)
    kernel = low.d2.kernel_basis()
    # the kernel vector of free column f ends at f
    free = {max(vec) for vec in kernel}
    cocycles = {g: columns - rank for g, (columns, rank) in _grade_counts(
        _tuple_grades(h, low.bases[2], by_bidegree),
        [c for c in range(low.d2.cols) if c not in free]).items()}
    kernel = [{low.bases[2][i]: c for i, c in vec.items()} for vec in kernel]
    d1 = [h._reduced_monomial(m) for m in alg.monomials_up_to(top)]
    witnesses = [kernel[p - len(d1)] for p in
                 Matrix.from_keyed_columns(d1 + kernel).rank_profile()
                 if p >= len(d1)]
    assert len(witnesses) == sum(ce.values())

    monos = alg.monomials_up_to(bound)
    pivots = Matrix.from_keyed_columns(
        [h._reduced_monomial(m) for m in monos] + witnesses).rank_profile()
    d1_pivots = [p for p in pivots if p < len(monos)]
    assert len(pivots) - len(d1_pivots) == len(witnesses)
    coboundaries = {g: rank for g, (_, rank) in _grade_counts(
        _tuple_grades(h, [(m,) for m in monos], by_bidegree),
        d1_pivots).items()}
    if by_bidegree:
        single = {alg.monomial_bidegree(m) for m in monos}
        above = {(a + c, b + d) for a, b in single for c, d in single
                 if top < a + b + c + d <= bound}
    else:
        above = range(top + 1, bound + 1)
    cocycles.update((g, coboundaries.get(g, 0)) for g in above)
    return _report(bound, by_bidegree, cocycles, coboundaries, ce,
                   _g_prime(h, ce))


@pytest.mark.parametrize("index", range(len(HOPF_CATALOG)),
                         ids=[s.describe() for s in HOPF_CATALOG])
def test_counted_rows_match_elimination_at_the_bound(index):
    # the level n rows of a total-mode report are the report at bound n
    h, _ = _oracle(index)
    assert h2_report(h, 12).rows == _bound_elimination_report(h, 12).rows


@pytest.mark.parametrize("family", ["A000", "D01"])
def test_counted_bidegree_rows_match_elimination_at_the_bound(family,
                                                              request):
    h = request.getfixturevalue(family)
    assert (h2_report(h, 12, by_bidegree=True).rows
            == _bound_elimination_report(h, 12, by_bidegree=True).rows)


@pytest.mark.parametrize("family", ["A000", "D01"])
def test_bidegree_rows_match_full_elimination(family, request):
    h = request.getfixturevalue(family)
    for bound in range(1, 9):
        assert (h2_report(h, bound, by_bidegree=True).rows
                == _eliminated_report(h, bound, by_bidegree=True).rows), bound


def _random_commutative(seed: int) -> HopfPresentation:
    """k[x_1 .. x_r] with delta(x_k) = delta(f) for a random f in the
    earlier generators plus random a(x)b over earlier primitive ones.

    delta(f) is a coboundary and a(x)b with a, b primitive a cocycle, so
    each delta(x_k) is a cocycle and the presentation is coassociative.
    When a(x)b has degree below x_k, the class it carries in the lantern's
    CE H^2 dies, as on DELTA_W.
    """
    rng = random.Random(seed)
    weights = [1, 1, *sorted(rng.choice((1, 2, 3)) for _ in range(
        rng.randint(1, 2)))]
    generators, coproducts = [], {}
    for k, w in enumerate(weights):
        if k >= 2:
            earlier = HopfPresentation(OrePresentation(generators),
                                       coproducts)
            alg = earlier.algebra
            f = alg.element({m: rng.randint(-2, 2)
                             for m in rng.sample(alg.monomials_up_to(w), 2)})
            terms = [(c, alg.monomial_dict(a), alg.monomial_dict(b)) for
                     (a, b), c in earlier.reduced_coproduct(f).terms.items()]
            primitive = [(name, d) for name, d in generators
                         if name not in coproducts]
            for _ in range(rng.randint(0, 2)):
                (a, da), (b, db) = rng.sample(primitive, 2)
                if da + db <= w and max(da, db) < w:
                    terms.append((rng.choice((-2, -1, 1, 2)), {a: 1}, {b: 1}))
            if any(c for c, _, _ in terms):
                coproducts[f"x{k}"] = terms
        generators.append((f"x{k}", w))
    return HopfPresentation(OrePresentation(generators), coproducts)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_rows_match_full_elimination_on_random_commutative(seed):
    # the rows read off C_<=G' are the full elimination's at every N up to
    # G' + 2, and H^2(C_<=G') never exceeds the CE sum (the E_1 bound)
    h = _random_commutative(seed)
    assert h.verify_coassociativity().passed
    ce = _lantern_ce(h, False)
    reach = _g_prime(h, ce)
    oracle = _eliminated_report(h, reach + 2)
    for n in range(1, reach + 3):
        assert h2_report(h, n).rows == oracle.rows[:n], (seed, n)
    assert oracle.rows[reach - 1]["h2"] <= sum(ce.values()), seed


def _random_presentations(seed: int):
    """One seeded draw from each deformed family A, B, D, E, F."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # off-normalization parameters
        return [catalog.make_A(q(), q(), q()), catalog.make_B(q()),
                catalog.make_D(*[q() for _ in range(8)]),
                catalog.make_E(q(), q(), q()), catalog.make_F(q(), q(), q())]


def _random_semidirect_products(seed: int):
    """U(k^n x| k) for n = 2, 3: [t, e_i] = sum_j a_ji e_j for a seeded
    rational matrix a; Jacobi holds for any matrix."""
    rng = random.Random(seed)
    out = []
    for n in (2, 3):
        brackets = {(n, i): {j: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                             for j in range(n)} for i in range(n)}
        out.append(make_lie([f"e{i}" for i in range(n)] + ["t"], brackets))
    return out


@pytest.mark.parametrize(
    "h, bound",
    [*((h, 7) for h in _random_presentations(13)),
     *((h, 6) for seed in (16, 17) for h in _random_semidirect_products(seed))],
    ids=["A", "B", "D", "E", "F", "k2xk-16", "k3xk-16", "k2xk-17", "k3xk-17"])
def test_rows_match_full_elimination_on_random_parameters(h, bound):
    oracle = _eliminated_report(h, bound)
    top = max(lantern_of_hopf(h).ce_h2_dims())
    reach = max(top, *h.algebra.degrees)
    assert reach < bound
    for n in range(1, bound + 1):
        rep = h2_report(h, n)
        assert rep.rows == oracle.rows[:n], n
        assert rep.complete == (n > reach), n
        if n > reach:   # past G', no CE class dies on these inputs
            assert rep.matches_lantern, n


def _misprediction(monkeypatch, step):
    """K, cold, with the lantern's top CE class count moved by ``step``."""
    predicted = GradedLie.ce_h2_dims

    def moved(self, grades=None):
        dims = predicted(self, grades)
        top = max(dims)
        return {**dims, top: dims[top] + step}

    monkeypatch.setattr(GradedLie, "ce_h2_dims", moved)
    return catalog.make_K()


def test_inflated_ce_prediction_takes_no_elimination_past_g_prime(
        monkeypatch):
    # one CE class too many: H^2(C_<=4) falls short of the prediction, and
    # the rows past G' = 4 still read the one rank profile of C_<=4
    shapes = []
    h = _misprediction(monkeypatch, 1)
    _spy_eliminations(monkeypatch, lambda m: shapes.append((m.rows, m.cols)))
    rep = h2_report(h, 6)
    monkeypatch.undo()
    low = build_complex(h, 4)
    assert shapes[-1:] == [(low.d2.rows, low.d2.cols)]
    assert max(cols for _, cols in shapes) == low.d2.cols
    assert rep.complete and not rep.matches_lantern
    assert rep.rows == _eliminated_report(catalog.make_K(), 6).rows


def test_deflated_ce_prediction_breaks_the_e1_bound(monkeypatch):
    # one CE class too few: H^2(C_<=4) = 2 exceeds the CE sum, which the
    # E_1 page forbids, so the report raises with both numbers
    h = _misprediction(monkeypatch, -1)
    with pytest.raises(RuntimeError,
                       match=r"H\^2\(C_<=4\) = 2 exceeds the lantern's CE "
                             r"sum 1"):
        h2_report(h, 6)


def test_is_coboundary_takes_one_elimination(A000, monkeypatch):
    # rank and solution both come from the RREF of [d1 columns | w]
    shapes = []
    _spy_eliminations(monkeypatch, lambda m: shapes.append((m.rows, m.cols)))
    alg = A000.algebra
    w = A000.reduced_coproduct(alg.monomial({"X": 2, "Y": 1}))
    for cocycle, want in [(cocycle_u(A000), (False, 10, 11)),
                          (w, (True, 10, 10))]:
        shapes.clear()
        res = is_coboundary(A000, cocycle, 6)
        assert (res.is_coboundary, res.rank, res.rank_augmented) == want
        assert len(shapes) == 1
        assert shapes[0][1] == len(alg.monomials_up_to(cocycle.total_degree())) + 1


@pytest.mark.parametrize("case, by_bidegree", [
    *((i, False) for i in range(len(HOPF_CATALOG))),
    (DELTA_W, False), ("A000", True), ("D01", True)],
    ids=[*(s.describe() for s in HOPF_CATALOG), DELTA_W, "A000-bidegree",
         "D01-bidegree"])
def test_complete_means_past_g_prime(case, by_bidegree, request):
    # `complete` is N > G' and `matches_lantern` is read off the rows and
    # the lantern, so the full elimination at the bound gives the same
    # JSON; past G' only a CE class that dies leaves the lantern unmatched
    if case == DELTA_W:
        h = HAND_BUILT[case]
        oracle = _eliminated_report(h, 8)
    elif by_bidegree:
        h = request.getfixturevalue(case)
        oracle = _eliminated_report(h, 8, by_bidegree)
    else:
        h, oracle = _oracle(case)
    reach = _g_prime(h, _lantern_ce(h, by_bidegree))
    for bound in range(1, 9):
        rep = h2_report(h, bound, by_bidegree)
        assert rep.complete == (bound > reach), bound
        # on DELTA_W the class of degree 2 dies once W enters in degree 3
        assert rep.matches_lantern == (case != DELTA_W or bound <= 2), bound
    assert rep.to_json() == oracle.to_json()
    assert rep.complete


@pytest.mark.parametrize("case, by_bidegree, want", [
    ("K", False, [True] * 6),
    ("A000", True, [True] * 6),
    (DELTA_W, False, [True, True, False, False, False, False])],
    ids=["K", "A000-bidegree", DELTA_W])
def test_matches_lantern_reads_the_ce_classes_up_to_the_bound(
        case, by_bidegree, want, request):
    # below G' a report is held to the CE classes of degree <= N alone,
    # so it matches unless one of them dies (K: G' = 4, A000: G' = 3)
    h = HAND_BUILT[case] if case == DELTA_W else request.getfixturevalue(case)
    assert [h2_report(h, n, by_bidegree).matches_lantern
            for n in range(1, 7)] == want


@pytest.mark.parametrize("by_bidegree", [False, True])
def test_every_bound_reads_the_kept_counts(by_bidegree, monkeypatch):
    # the lantern's CE H^2 and the profiles of C_<=G' are eliminated once
    # per presentation; later bounds only count monomials
    h = make_A(0, 0, 0)
    calls = []
    _spy_eliminations(monkeypatch, lambda m: calls.append((m.rows, m.cols)))
    first = h2_report(h, 5, by_bidegree)
    assert first.complete and calls
    assert not any(h2_report(h, n, by_bidegree).complete for n in (1, 2, 3))
    calls.clear()
    for bound in (6, 12, 30):
        rep = h2_report(h, bound, by_bidegree)
        assert rep.complete and rep.matches_lantern and rep.total_h2 == 2
        assert rep.lantern_ce_h2 == first.lantern_ce_h2
    assert calls == []


def test_h2_report_refuses_a_non_coassociative_presentation():
    # d^2 = 0 underlies every row, so no report is read off a complex
    # where it fails
    h = HopfPresentation(
        OrePresentation([("X", 1), ("Y", 1), ("Z", 2), ("W", 3)]),
        {"Z": [(1, {"X": 1}, {"Y": 1})], "W": [(1, {"X": 1}, {"Z": 1})]})
    assert _d2_after_d1(h, 3) is not None
    for bound in (1, 3, 6):
        with pytest.raises(StructuralError,
                           match=r"needs a Hopf algebra \(PBW basis, d\^2 = 0, "
                                 r"Delta an algebra map\): coassociativity "
                                 r"on W fails$"):
            h2_report(h, bound)


def _not_compatible():
    """Coassociative, PBW-consistent, but Delta is no algebra map:
    [Y,X] = Z for primitive X, Y while delta(Z) = A(x)B."""
    return HopfPresentation(
        OrePresentation([("A", 1), ("B", 1), ("X", 2), ("Y", 2), ("Z", 3)],
                        {"Y,X": [(1, {"Z": 1})]}),
        {"Z": [(1, {"A": 1}, {"B": 1})]})


def test_e1_breach_on_a_presentation_that_is_no_hopf_algebra_is_refused(
        monkeypatch):
    # a breach of the E_1 bound reads the PBW and compatibility verdicts
    # too, and names the failed row rather than a library defect
    h = _not_compatible()
    assert h.verify_coassociativity().passed
    assert h.verify_pbw_consistency().passed
    assert not h.verify_compatibility().passed
    predicted = GradedLie.ce_h2_dims

    def deflated(self, grades=None):
        return {g: n - 1 for g, n in predicted(self, grades).items() if n > 1}

    monkeypatch.setattr(GradedLie, "ce_h2_dims", deflated)
    with pytest.raises(StructuralError,
                       match=r"algebra map\): Delta respects \[Y,X\] fails$"):
        h2_report(h, 6)


def _reference_d2_column(h, pair):
    """d^2(a (x) b) = delta(a) (x) b - a (x) delta(b), written out."""
    a, b = pair
    out = {}
    for (u, v), c in h._reduced_monomial(a).items():
        add_term(out, (u, v, b), c)
    for (u, v), c in h._reduced_monomial(b).items():
        add_term(out, (a, u, v), -c)
    return out


@pytest.mark.parametrize("index", range(len(HOPF_CATALOG)),
                         ids=[s.describe() for s in HOPF_CATALOG])
def test_d2_matrix_is_the_signed_slot_differential(index):
    h = build(HOPF_CATALOG[index])
    cx = build_complex(h, 6)
    columns = [coassociator({pair: 1}, h._reduced_monomial)
               for pair in cx.bases[2]]
    assert columns == [_reference_d2_column(h, pair) for pair in cx.bases[2]]
    assert cx.d2 == Matrix.from_keyed_columns(columns)


def _search_every_degree(h, w, bound):
    """Oracle: whether d^1 c = w has a solution over every monomial of
    degree <= bound."""
    monos = h.algebra.monomials_up_to(bound)
    (sol,), _ = express([h._reduced_monomial(m) for m in monos], [w.terms])
    return sol is not None


def test_is_coboundary_searches_above_the_tensor_degree():
    # delta(W) = X(x)Y bounds through W, of degree 3 > deg X(x)Y = 2
    h = HAND_BUILT[DELTA_W]
    w = h.tensor([(1, {"X": 1}, {"Y": 1})])
    for bound in range(2, 7):
        res = is_coboundary(h, w, bound)
        assert res.is_coboundary == (bound >= 3) == _search_every_degree(
            h, w, bound), bound
        if res.is_coboundary:
            assert h.reduced_coproduct(res.witness) == w
            assert res.witness == h.algebra.gen("W")


def test_is_coboundary_matches_a_search_over_every_degree():
    # every cocycle that is one monomial pair of degree <= 4, on every
    # catalog entry and CLA envelope, at two bounds
    cases = 0
    for spec in list_catalog():
        h = build(spec)
        if not isinstance(h, HopfPresentation):
            h = enveloping(h)
        alg = h.algebra
        monos = alg.monomials_up_to(4)
        for a in monos:
            for b in monos:
                if alg.monomial_degree(a) + alg.monomial_degree(b) > 4:
                    continue
                if coassociator({(a, b): 1}, h._reduced_monomial):
                    continue
                w = h.tensor([(1, a, b)])
                for bound in (4, 6):
                    res = is_coboundary(h, w, bound)
                    assert res.is_coboundary == _search_every_degree(
                        h, w, bound), (spec.describe(), a, b, bound)
                    if res.is_coboundary:
                        assert h.reduced_coproduct(res.witness) == w
                    cases += 1
    assert cases == 396


def _seeded_d(seed):
    """A D with seeded rational parameters."""
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # off-normalization parameters
        return catalog.make_D(*[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                for _ in range(8)])


def _assert_d1_pivots_skip_the_p_leads(h, top=6):
    """At every N <= top, the rank profile of d^1 on C_<=N is the
    monomials of degree <= N that are not leads of the kept P."""
    alg = h.algebra
    leads = set(_leads(primitive_space(h).basis))
    for bound in range(1, top + 1):
        monos = alg.monomials_up_to(bound)
        d1 = Matrix.from_keyed_columns(
            [h._reduced_monomial(m) for m in monos])
        assert d1.rank_profile() == [
            i for i, m in enumerate(monos) if m not in leads], bound


def _hopf(spec):
    """A catalog entry as a presentation, a CLA enveloped."""
    obj = build(spec)
    return obj if isinstance(obj, HopfPresentation) else enveloping(obj)


D1_CASES = {**{s.describe(): functools.partial(_hopf, s)
               for s in list_catalog()},
            **{f"D seed {seed}": functools.partial(_seeded_d, seed)
               for seed in range(5)},
            **{case: functools.partial(_hand_built, case) for case in DYING}}


@pytest.mark.parametrize("case", D1_CASES)
def test_d1_pivots_are_the_monomials_that_lead_no_primitive(case):
    # P is complete at 1 under the degree-one certificate, at g = 3 on the
    # three presentations where it declines; N runs below that bound too
    h = D1_CASES[case]()
    assert lantern_of_hopf(h).generated_in_degree_one() == (
        case not in DYING)
    _assert_d1_pivots_skip_the_p_leads(h)


def test_p_of_a_certified_presentation_takes_no_modular_pass(monkeypatch):
    # under the degree-one certificate P's columns are the reduced
    # coproducts of the degree-one monomials, all zero, so P's matrix has
    # no entries and its kernel is read with no elimination
    certified = [D1_CASES[case]() for case in D1_CASES if case not in DYING]
    for h in certified:
        assert complete_bound(h, 1) == 1
    passes = []
    forward = Matrix._forward_mod_p

    def spy(self):
        passes.append((self.rows, self.cols))
        return forward(self)

    monkeypatch.setattr(Matrix, "_forward_mod_p", spy)
    for h in certified:
        assert primitive_space(h).dim == len(h.algebra.monomials_up_to(1))
    assert passes == [] and len(certified) == 39


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_d1_pivots_are_the_monomials_that_lead_no_primitive_at_random(seed):
    _assert_d1_pivots_skip_the_p_leads(_random_commutative(seed))


def _sorted_tuples(h, bound):
    """Oracle: the pairs and triples of monomials of total degree <=
    bound, scanned from the whole cube and sorted by total degree, then
    by the canonical key of each slot."""
    alg = h.algebra
    monos = alg.monomials_up_to(bound)
    degree = {m: alg.monomial_degree(m) for m in monos}
    key = {m: alg.monomial_key(m) for m in monos}

    def tuple_key(t):
        return (sum(degree[m] for m in t), tuple(key[m] for m in t))

    pairs, triples = [], []
    for a in monos:
        for b in monos:
            dab = degree[a] + degree[b]
            if dab > bound:
                continue
            pairs.append((a, b))
            for c in monos:
                if dab + degree[c] <= bound:
                    triples.append((a, b, c))
    return sorted(pairs, key=tuple_key), sorted(triples, key=tuple_key)


@pytest.mark.parametrize("case", [*range(len(HOPF_CATALOG)), *HAND_BUILT],
                         ids=[*(s.describe() for s in HOPF_CATALOG),
                              *HAND_BUILT])
def test_tuples_come_grade_by_grade_in_the_sorted_order(case):
    h = HAND_BUILT[case] if case in HAND_BUILT else build(HOPF_CATALOG[case])
    alg = h.algebra
    for bound in range(1, 7):
        monos = alg.monomials_up_to(bound)
        got = _graded_tuples(monos, alg.monomial_degree, bound)
        assert got == _sorted_tuples(h, bound), bound
    cx = build_complex(h, 4)
    assert (cx.bases[2], cx.bases[3]) == _sorted_tuples(h, 4)


_ENVELOPED_CATALOG = list_catalog()


@pytest.mark.parametrize("case", [*range(len(_ENVELOPED_CATALOG)),
                                  *HAND_BUILT],
                         ids=[*(s.describe() for s in _ENVELOPED_CATALOG),
                              *HAND_BUILT])
def test_d2_is_the_matrix_of_the_coassociator_columns(case):
    # d2 written straight from delta(a) and delta(b) is the matrix
    # from_keyed_columns builds from the coassociator columns: the same
    # shape, and the same entries in the same order with the same types
    if case in HAND_BUILT:
        h = HAND_BUILT[case]
    else:
        obj = build(_ENVELOPED_CATALOG[case])
        h = obj if isinstance(obj, HopfPresentation) else enveloping(obj)
    for bound in range(1, 7):
        cx = build_complex(h, bound)
        want = Matrix.from_keyed_columns(
            [coassociator({pair: 1}, h._reduced_monomial)
             for pair in cx.bases[2]])
        assert (cx.d2.rows, cx.d2.cols) == (want.rows, want.cols), bound
        assert ([(k, type(v), v) for k, v in cx.d2.entries.items()]
                == [(k, type(v), v) for k, v in want.entries.items()]), bound


def test_a_cobar_job_eliminates_d2_alone(monkeypatch):
    # the three reports of the cobar benchmark, each on a fresh
    # presentation: past the lantern's CE H^2 and the degree-one
    # certificate, both kept, the one modular pass is d2's of C_<=G'; P's
    # matrix has no entries and takes none, d1 is never built, and no
    # delta(m) of degree G' is asked for
    passes, degrees = [], []
    forward = Matrix._forward_mod_p
    reduced = HopfPresentation._reduced_monomial

    def spy(self):
        passes.append((self.rows, self.cols))
        return forward(self)

    def spy_reduced(self, m):
        degrees.append(self.algebra.monomial_degree(m))
        return reduced(self, m)

    def refuse(self):
        raise AssertionError("the report built d1")

    monkeypatch.setattr(Matrix, "_forward_mod_p", spy)
    monkeypatch.setattr(HopfPresentation, "_reduced_monomial", spy_reduced)
    monkeypatch.setattr(CobarComplex, "d1", property(refuse))
    for h, bound, by_bidegree in [(catalog.make_K(), 8, False),
                                  (_seeded_d(1), 7, False),
                                  (make_A(0, 0, 0), 8, True)]:
        reach = _g_prime(h, _lantern_ce(h, by_bidegree))
        assert complete_bound(h, 1) == 1
        passes.clear()
        degrees.clear()
        assert h2_report(h, bound, by_bidegree).total_h2 == 2
        low = build_complex(h, reach)
        assert passes == [(low.d2.rows, low.d2.cols)]
        assert max(degrees) == reach - 1

"""Whole answers, each computed at its complete bound.

P and P2 lie in degrees <= g, the top generator degree, C_2 in degrees <=
2g, and the coradical level C_n, n >= 3, in degrees <= n g on a
coassociative presentation; on any other C_n, n >= 3, is refused
(``structure.complete_bound``, ``structure.p2_space``).  When P(gr H) lies
in degree 1 (the kept lantern's ``GradedLie.generated_in_degree_one``) the
unit g drops to 1: P is complete at 1, P2 and C_2 at 2 and C_n at n, and
C_n is the span of the monomials of degree <= n.  The subspaces take no
degree bound: each is computed at that bound and kept on the presentation.
The oracle here takes no such shortcut: one direct kernel
(``structure._coradical_kernel``) at a bound d, with every lower level
also taken at d, and no kept answer read.  Its basis is the whole space's
basis vectors of degree <= d, and all of them from the complete bound on.
The presentations the certificate declines keep the old bounds;
``_central_w`` is one.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hopfalg import structure
from hopfalg.catalog import (build, list_catalog, make_cla_a, make_cla_b,
                             make_K, make_lie)
from hopfalg.cla import CLA, enveloping
from hopfalg.cli import main
from hopfalg.cobar import h2_report
from hopfalg.errors import StructuralError
from hopfalg.exactlin import Matrix, add_scaled
from hopfalg.hopf import HopfPresentation
from hopfalg.ore import AlgebraElement, OrePresentation
from hopfalg.jsonio import presentation_to_json
from hopfalg.structure import (associated_graded, complete_bound,
                               coradical_filtration, extract_cla,
                               lantern_of_hopf, p2_space, primitive_space)
from test_cobar import DELTA_W, HAND_BUILT, _random_commutative
from test_hopf import _FAILING

CATALOG = list_catalog()


def _direct(h, d, n, p2, kernel=structure._coradical_kernel):
    """[C_1, ..., C_n] within degree <= d, each level a direct kernel at
    d over the level below it at d, then P2 at d when ``p2``."""
    monos = h.algebra.monomials_up_to(d)
    columns = [h._reduced_monomial(m) for m in monos]
    levels = [[]]
    for _ in range(n):
        levels.append(kernel(h, monos, columns, levels[-1]))
    if p2:
        skew = []
        for t in columns:
            sym = add_scaled(dict(t), {(r, l): c for (l, r), c in t.items()})
            skew.append({**t, **{("s", key): c for key, c in sym.items()}})
        levels.append(kernel(h, monos, skew, levels[1]))
    return levels[1:]


def _mu_kernel(h, monos, columns, factors):
    """The coradical kernel solved for factor-pair unknowns too: the
    kernel of [f (x) g for f, g in factors | columns] has, per monomial
    free column, a vector whose monomial coordinates are a basis vector;
    the rest relate factor pairs."""
    pairs = [{(k, l): c * d for k, c in f.terms.items()
              for l, d in g.terms.items()} for f in factors for g in factors]
    k = len(pairs)
    kernel = Matrix.from_keyed_columns(pairs + columns).kernel_basis()
    return [AlgebraElement(h.algebra, {monos[i - k]: c for i, c in vec.items()
                                       if i >= k})
            for vec in kernel if max(vec) >= k]


def _central_w():
    """A(0,0,0), k[X, Y, Z] with delta(Z) = X (x) Y - Y (x) X, plus a
    central primitive W of degree 3: a Hopf algebra whose P(gr H) has W,
    so the degree-one certificate declines and the bounds stay g = 3."""
    return HopfPresentation(OrePresentation([("X", 1), ("Y", 1), ("Z", 2),
                                             ("W", 3)]), {
        "Z": [(1, {"X": 1}, {"Y": 1}), (-1, {"Y": 1}, {"X": 1})]})


def _degree_one_by_kernel(h):
    """Whether P(gr H) lies in degree 1, read off a direct kernel of gr H
    at g: P(gr H) lies in degrees <= g whatever the certificate says."""
    gr = associated_graded(h)
    return all(b.degree == 1 for b in _direct(gr, gr.top_degree, 1, False)[0])


def _unit(h):
    """The degree unit of the complete bounds: 1 when the degree-one
    certificate passes, which the direct kernel of gr H must confirm,
    else g."""
    if lantern_of_hopf(h).generated_in_degree_one():
        assert _degree_one_by_kernel(h)
        return 1
    return h.top_degree


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.describe())
def test_lead_read_kernel_matches_the_factor_pair_unknowns(spec):
    # C_1..C_3 and P2 at d = 1..2g + 1, each level over the level below
    # taken the same way, within the monomial budget
    h = build(spec)
    if isinstance(h, CLA):
        h = enveloping(h)
    for d in range(1, 2 * h.top_degree + 2):
        if len(h.algebra.monomials_up_to(d)) > C3_MONOMIALS:
            break
        assert _direct(h, d, 3, True) == _direct(h, d, 3, True, _mu_kernel), d


def test_lead_read_kernel_matches_on_factors_of_several_terms(
        several_term_clas):
    # no catalog basis vector has two terms; U(L) with z - xy primitive does
    h = enveloping(several_term_clas[0])
    for d in range(1, 8):
        assert _direct(h, d, 3, True) == _direct(h, d, 3, True, _mu_kernel), d


# the test budget: a truncation is checked directly only while it has at
# most this many monomials (C_3, three kernels with factor pairs, less);
# it stops P of the four-generator entries at d = 10 and C_3 at d = 9
MONOMIALS = 260
C3_MONOMIALS = 200


def _upto(basis, d):
    """The basis vectors of degree <= d: a basis of the space's part in
    degrees <= d, as each vector's degree is its lead's."""
    return [b for b in basis if b.degree <= d]


def _check_against_direct(h):
    """P against the direct kernel at d = 1..12, P2 and C_2 at d = 1..2g +
    2, C_3 at d = 1..4g + 2, each while d is within the monomial budget;
    the complete bounds are u, min(g, 2u), 2u and 3u in the unit u (1 or
    g, ``_unit``)."""
    g, u = h.top_degree, _unit(h)
    assert [complete_bound(h, n) for n in (1, 2, 3)] == [u, 2 * u, 3 * u]
    P, P2 = primitive_space(h), p2_space(h)
    C2, C3 = coradical_filtration(h, 2), coradical_filtration(h, 3)
    assert [P.complete_bound, P2.complete_bound, C2.complete_bound,
            C3.complete_bound] == [u, min(g, 2 * u), 2 * u, 3 * u]
    for d in range(1, max(12, 4 * g + 2) + 1):
        count = h.algebra.pbw_count(d)
        n = (3 if d <= 4 * g + 2 and count <= C3_MONOMIALS else
             2 if d <= 2 * g + 2 and count <= MONOMIALS else
             1 if d <= 12 and count <= MONOMIALS else 0)
        if n == 0:
            continue
        direct = _direct(h, d, n, n > 1 and d <= 2 * g + 2)
        assert _upto(P.basis, d) == direct[0], ("P", d)
        if n > 1:
            assert _upto(C2.basis[1:], d) == direct[1], ("C_2", d)
        if d <= 2 * g + 2 and n > 1:
            assert _upto(P2.basis, d) == direct[-1], ("P2", d)
        if n > 2:
            assert _upto(C3.basis[1:], d) == direct[2], ("C_3", d)


def _hopf(spec):
    obj = build(spec)
    return enveloping(obj) if isinstance(obj, CLA) else obj


@pytest.mark.parametrize("spec", CATALOG, ids=[s.describe() for s in CATALOG])
def test_catalog_subspaces_match_a_direct_kernel_at_the_bound(spec):
    _check_against_direct(_hopf(spec))


def test_declined_subspaces_match_a_direct_kernel_at_the_bound():
    # the old bounds g, 2g and 3g, where W of degree 3 is primitive
    h = _central_w()
    assert _unit(h) == h.top_degree == 3
    _check_against_direct(h)


def _degree_one_cases():
    return ([(s.describe(), _hopf(s)) for s in CATALOG]
            + [(name, HAND_BUILT[name]) for name in HAND_BUILT]
            + [("central W", _central_w()),
               ("not coassociative", _not_coassociative()),
               ("not coassociative, declined", _declined_not_coassociative())]
            + [(f"failing {i}", make()) for i, make in enumerate(_FAILING)])


def test_degree_one_certificate_matches_the_primitives_of_gr_h():
    # the rank test on the lantern's brackets against a direct kernel of
    # gr H at g; every catalog entry passes, and the certificate reads
    # no Hopf axiom.  It is exact on a coassociative presentation, where
    # P(gr H) = (L / [L, L])*, and only sufficient on any other: with
    # delta(W) = X (x) XY no bracket reaches W*, yet P(gr H) = span(X, Y)
    verdicts = {name: lantern_of_hopf(h).generated_in_degree_one()
                for name, h in _degree_one_cases()}
    for name, h in _degree_one_cases():
        by_kernel = _degree_one_by_kernel(h)
        if h.verify_coassociativity().passed:
            assert verdicts[name] == by_kernel, name
        else:
            assert by_kernel or not verdicts[name], name
    assert all(verdicts[s.describe()] for s in CATALOG)
    assert verdicts["not coassociative"] and verdicts["failing 0"]
    assert not any(verdicts[name] for name in (
        DELTA_W, "central W", "not coassociative, declined"))
    assert _degree_one_by_kernel(_declined_not_coassociative())


def test_the_lantern_is_built_once_per_presentation(monkeypatch):
    # the degree-one certificate of primitive_space and the CE H^2 of
    # h2_report read the one lantern kept on the presentation
    built = []
    build = structure._build_lantern

    def spy(h):
        built.append(h)
        return build(h)

    monkeypatch.setattr(structure, "_build_lantern", spy)
    h = make_K()
    primitive_space(h)
    assert built == [h]
    h2_report(h, 4)
    assert lantern_of_hopf(h) is h._kept(("lantern",), None)
    assert built == [h]


def _check_levels_against_direct(h):
    """C_n at its complete bound, n = 1..3, is the direct kernel at n g +
    1, and so is P2 at min(g, complete_bound(h, 2)); when the certificate
    passes, the bound is n and C_n is the monomials of degree <= n."""
    g = h.top_degree
    certified = lantern_of_hopf(h).generated_in_degree_one()
    for n in (1, 2, 3):
        bound = complete_bound(h, n)
        level = coradical_filtration(h, n)
        assert level.complete_bound == bound
        assert level.basis[1:] == _direct(h, n * g + 1, n, False)[n - 1], n
        if certified:
            assert bound == n
            assert level.basis == [h.algebra.element({m: 1}) for m in
                                   h.algebra.monomials_up_to(
                                       n, include_unit=True)], n
    space = p2_space(h)
    assert space.complete_bound == min(g, complete_bound(h, 2))
    assert space.basis == _direct(h, 2 * g + 1, 1, True)[-1]


@pytest.mark.parametrize("spec", CATALOG, ids=[s.describe() for s in CATALOG])
def test_certified_levels_match_a_direct_kernel_past_n_g(spec):
    h = _hopf(spec)
    assert lantern_of_hopf(h).generated_in_degree_one()
    _check_levels_against_direct(h)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_random_commutative_levels_match_a_direct_kernel_past_n_g(seed):
    # coassociative, so the certificate is exact; some draws pass it with
    # g > 1 and some decline
    h = _random_commutative(seed)
    assert (lantern_of_hopf(h).generated_in_degree_one()
            == _degree_one_by_kernel(h))
    _check_levels_against_direct(h)


@pytest.mark.parametrize("spec", CATALOG, ids=[s.describe() for s in CATALOG])
def test_catalog_c3_matches_a_direct_chain_past_three_g(spec):
    # C_3 against one direct chain at 4g + 1, past the monomial budget;
    # its part in degrees <= d is the direct basis at d (``_upto``)
    h = _hopf(spec)
    g = h.top_degree
    level = coradical_filtration(h, 3)
    assert level.complete_bound == complete_bound(h, 3) == 3
    assert level.basis[1:] == _direct(h, 4 * g + 1, 3, False)[2]


def _not_coassociative(right=None):
    """delta(W) = X (x) right, right = Z unless given, with delta(Z) = X (x)
    Y - Y (x) X.  With right = Z the bracket [X*, Z*] reaches W* and the
    degree-one certificate passes."""
    return HopfPresentation(OrePresentation([("X", 1), ("Y", 1), ("Z", 2),
                                             ("W", 3)]), {
        "Z": [(1, {"X": 1}, {"Y": 1}), (-1, {"Y": 1}, {"X": 1})],
        "W": [(1, {"X": 1}, right or {"Z": 1})]})


def _declined_not_coassociative():
    """delta(W) = X (x) XY: no bracket reaches W*, so the certificate
    declines."""
    return _not_coassociative({"X": 1, "Y": 1})


NOT_COASSOCIATIVE = [_declined_not_coassociative, _not_coassociative]


@pytest.mark.parametrize("make, bounds", zip(NOT_COASSOCIATIVE,
                                             [[0, 3, 6], [0, 1, 2]]),
                         ids=["declined", "certified"])
def test_c3_of_a_non_coassociative_presentation_is_refused(make, bounds):
    # both fail coassociativity: P and C_2 keep the bounds u and 2u, u = g
    # = 3 when the degree-one certificate declines and u = 1 when it
    # passes; C_n for n >= 3 is a coalgebra notion, and is refused
    h = make()
    assert [complete_bound(h, n) for n in range(3)] == bounds
    assert [c.name for c in h.verify_coassociativity().failures()] == [
        "coassociativity on W"]
    for refused in (lambda: complete_bound(h, 3),
                    lambda: coradical_filtration(h, 3)):
        with pytest.raises(StructuralError,
                           match="C_3 needs a coalgebra .*: coassociativity "
                                 "on W fails"):
            refused()


@pytest.mark.parametrize("make", NOT_COASSOCIATIVE,
                         ids=["declined", "certified"])
def test_coradical_command_refuses_level_three_without_coassociativity(
        make, tmp_path, capsys):
    path = tmp_path / "not_coassociative.json"
    path.write_text(json.dumps(presentation_to_json(make())))
    argv = ["coradical", "--file", str(path)]
    assert main(argv + ["--level", "3"]) == 2
    assert "coassociativity on W fails" in capsys.readouterr().err
    assert main(argv + ["--level", "2"]) == 0


def test_coassociative_bounds_are_n_g_or_n():
    assert [complete_bound(_central_w(), n) for n in range(5)] == [
        0, 3, 6, 9, 12]
    assert [complete_bound(make_K(), n) for n in range(5)] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("make, bound", [(make_K, 3), (_central_w, 9)],
                         ids=["K", "central W"])
def test_c3_is_complete_past_four_g(make, bound):
    # past the monomial budget: computed at 3 on K, and at 3g = 9 where
    # the certificate declines
    h = make()
    level = coradical_filtration(h, 3)
    assert level.complete_bound == complete_bound(h, 3) == bound
    assert level.basis[1:] == _direct(h, 13, 3, False)[2]


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.lists(_rationals, min_size=9, max_size=9))
def test_random_lie_algebras_match_a_direct_kernel(entries):
    # U(k^3 x| k), [t, e_i] = sum_j a_ji e_j: Jacobi holds for any a
    brackets = {(3, i): {j: entries[3 * i + j] for j in range(3)}
                for i in range(3)}
    h = make_lie(["e0", "e1", "e2", "t"], brackets)
    _check_against_direct(h)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.booleans(), st.lists(_rationals, min_size=3, max_size=3))
def test_random_cla_envelopes_match_a_direct_kernel(family_a, params):
    L = make_cla_a(*params) if family_a else make_cla_b(params[0])
    _check_against_direct(enveloping(L))


def _degrees_asked(monkeypatch, compute):
    """compute() and the degrees of the monomials it asked delta of."""
    asked = []
    reduced = HopfPresentation._reduced_monomial

    def spy(self, m):
        asked.append(self.algebra.monomial_degree(m))
        return reduced(self, m)

    monkeypatch.setattr(HopfPresentation, "_reduced_monomial", spy)
    result = compute()
    monkeypatch.undo()
    return result, asked


@pytest.mark.parametrize("make, bound, dim", [(make_K, 1, 2),
                                              (_central_w, 3, 3)],
                         ids=["K", "central W"])
def test_primitive_space_asks_for_no_coproduct_above_g(
        monkeypatch, make, bound, dim):
    # K: P(gr H) lies in degree 1, so P is taken at 1; the central W is
    # primitive of degree g = 3
    h = make()
    space, asked = _degrees_asked(monkeypatch, lambda: primitive_space(h))
    assert space.complete_bound == bound and space.dim == dim
    assert max(asked) == complete_bound(h, 1) == bound
    assert max(h.algebra.monomial_degree(m)
               for m in h._coproduct_cache) == bound


def _check_p2_against_direct(h):
    """P2, complete at min(g, 2u), in degrees <= d is the direct kernel at
    d = 1..2g + 1, and the direct basis at 2g + 1 lies in degrees <= g."""
    g, u = h.top_degree, _unit(h)
    space = p2_space(h)
    assert space.complete_bound == min(g, 2 * u)
    for d in range(1, 2 * g + 2):
        direct = _direct(h, d, 1, True)[-1]
        assert _upto(space.basis, d) == direct, d
    assert all(b.degree <= g for b in direct)


@pytest.mark.parametrize("make", [*_FAILING, _not_coassociative,
                                  _declined_not_coassociative],
                         ids=["K-kappa-raised", "z-x-is-z",
                              "not-coassociative",
                              "not-coassociative-declined"])
def test_p2_bound_needs_no_hopf_axiom(make):
    # PBW consistency, compatibility or coassociativity fails; the bound
    # min(g, 2u) uses none of them
    h = make()
    assert not all(r.passed for r in (h.verify_pbw_consistency(),
                                      h.verify_coassociativity(),
                                      h.verify_compatibility()))
    _check_p2_against_direct(h)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_p2_of_random_commutative_matches_a_direct_kernel(seed):
    _check_p2_against_direct(_random_commutative(seed))


@pytest.mark.parametrize("make, bound, dim", [(make_K, 2, 3),
                                              (_central_w, 3, 4)],
                         ids=["K", "central W"])
def test_p2_space_asks_for_no_coproduct_above_g(
        monkeypatch, make, bound, dim):
    # K: P2 lies in C_2, the monomials of degree <= 2; the central W is
    # in P2 at degree g = 3
    h = make()
    space, asked = _degrees_asked(monkeypatch, lambda: p2_space(h))
    assert space.dim == dim
    assert max(asked) == space.complete_bound == bound


def _check_extract_cla_against_direct(h):
    """extract_cla(h) reads the basis of the direct P2 kernel at 2g + 1."""
    spaces = []

    def spy(h):
        spaces.append(p2_space(h))
        return spaces[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "p2_space", spy)
        L = extract_cla(h)
    space, = spaces
    assert L.dim == space.dim
    assert space.basis == _direct(h, 2 * h.top_degree + 1, 1, True)[-1]


@pytest.mark.parametrize("case", [*CATALOG, *HAND_BUILT],
                         ids=[*(s.describe() for s in CATALOG), *HAND_BUILT])
def test_extract_cla_reads_the_direct_p2_kernel_past_2g(case):
    _check_extract_cla_against_direct(
        HAND_BUILT[case] if isinstance(case, str) else _hopf(case))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_extract_cla_of_random_commutative_reads_the_direct_p2_kernel(seed):
    _check_extract_cla_against_direct(_random_commutative(seed))


def test_kept_bases_are_copies():
    K = make_K()
    primitive_space(K).basis.clear()
    coradical_filtration(K, 2).basis.clear()
    p2_space(K).basis.clear()
    assert primitive_space(K).dim == 2
    assert coradical_filtration(K, 2).dim == 1 + 6
    assert p2_space(K).dim == 3


@pytest.mark.parametrize("make", [make_K, _central_w], ids=["K", "central W"])
def test_repeated_calls_keep_one_answer_per_space(make):
    # one kept basis per coradical level and one P2, whichever space or
    # reader asks, and however often
    h = make()
    for _ in range(2):
        for n in range(4):
            coradical_filtration(h, n)
        primitive_space(h)
        p2_space(h)
        extract_cla(h)
    kept = [key for key in vars(h)["_answers"]
            if key[0] in ("coradical", "p2")]
    assert sorted(kept) == [("coradical", 1), ("coradical", 2),
                            ("coradical", 3), ("p2",)]


def test_contains_decides_membership_in_the_whole_p_and_p2():
    # the central primitive W has degree g = 3: a truncation at 2 misses it
    h = _central_w()
    W = h.algebra.gen("W")
    assert primitive_space(h).contains(W) and p2_space(h).contains(W)


def test_contains_decides_membership_in_the_whole_coradical_level():
    # W^2, of degree 6, and XW lie in C_2 (delta lands in P (x) P); XYW
    # is in C_3, not in C_2
    h = _central_w()
    X, Y, W = (h.algebra.gen(name) for name in ("X", "Y", "W"))
    level = coradical_filtration(h, 2)
    assert level.contains(W * W) and level.contains(X * W)
    assert not level.contains(X * Y * W)
    assert coradical_filtration(h, 3).contains(X * Y * W)


@pytest.mark.parametrize("source, argv, bound", [
    # K: P(gr H) lies in degree 1, so the bounds are 1, 2 and n
    ("K", ["primitives"], 1),
    ("K", ["p2"], 2),
    ("K", ["coradical", "--level", "0"], 0),
    ("K", ["coradical", "--level", "1"], 1),
    ("K", ["coradical", "--level", "2"], 2),
    ("K", ["coradical", "--level", "3"], 3),
    # the central W of degree 3 is primitive: the bounds g, g and n g
    ("central W", ["primitives"], 3),
    ("central W", ["p2"], 3),
    ("central W", ["coradical", "--level", "0"], 0),
    ("central W", ["coradical", "--level", "1"], 3),
    ("central W", ["coradical", "--level", "2"], 6),
    ("central W", ["coradical", "--level", "3"], 9),
])
def test_space_commands_report_the_complete_bound(source, argv, bound,
                                                  tmp_path, capsys):
    if source == "K":
        argv = argv + ["--family", "K"]
    else:
        path = tmp_path / "central_w.json"
        path.write_text(json.dumps(presentation_to_json(_central_w())))
        argv = argv + ["--file", str(path)]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete_bound"] == bound
    assert set(payload) - {"level"} == {"dimension", "basis", "complete_bound"}

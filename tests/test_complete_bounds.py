"""Answers that stop depending on the degree bound.

P and P2 lie in degrees <= g, the top generator degree, and the coradical
level C_n in degrees <= n g on a coassociative presentation, 2^(n-1) g on
any (``HopfPresentation.complete_bound``, ``structure.p2_space``), so the
subspaces are computed at min(d, that bound) and kept on the
presentation.  The oracle here takes
no such shortcut: one direct kernel (``structure._coradical_kernel``) at
the bound d itself, with every lower level also taken at d, and no kept
answer read.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hopfalg import structure
from hopfalg.catalog import (build, list_catalog, make_cla_a, make_cla_b,
                             make_K, make_lie)
from hopfalg.cla import CLA, enveloping
from hopfalg.cli import main
from hopfalg.exactlin import Matrix, add_scaled
from hopfalg.hopf import HopfPresentation
from hopfalg.ore import AlgebraElement, OrePresentation
from hopfalg.structure import (coradical_filtration, extract_cla, p2_space,
                               primitive_space)
from test_cobar import _random_commutative
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


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.describe())
def test_lead_read_kernel_matches_the_factor_pair_unknowns(spec):
    # C_1..C_3 and P2 at d = 1..2g + 1, each level over the level below
    # taken the same way, within the monomial budget
    h = build(spec)
    if isinstance(h, CLA):
        h = enveloping(h)
    for d in range(1, 2 * h.complete_bound(1) + 2):
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


def _check_against_direct(h):
    """P at d = 1..12, P2 and C_2 at d = 1..2g + 2, C_3 at d = 1..4g + 2,
    each while d is within the monomial budget."""
    g = h.complete_bound(1)
    assert (h.complete_bound(2), h.complete_bound(3)) == (2 * g, 3 * g)
    for d in range(1, max(12, 4 * g + 2) + 1):
        count = h.algebra.pbw_count(d)
        n = (3 if d <= 4 * g + 2 and count <= C3_MONOMIALS else
             2 if d <= 2 * g + 2 and count <= MONOMIALS else
             1 if d <= 12 and count <= MONOMIALS else 0)
        if n == 0:
            continue
        direct = _direct(h, d, n, n > 1 and d <= 2 * g + 2)
        space = primitive_space(h, d)
        assert space.basis == direct[0], ("P", d)
        assert space.complete == (d >= g)
        if n > 1:
            level = coradical_filtration(h, 2, d)
            assert level.basis[1:] == direct[1], ("C_2", d)
            assert level.complete == (d >= 2 * g)
        if d <= 2 * g + 2 and n > 1:
            space = p2_space(h, d)
            assert space.basis == direct[-1], ("P2", d)
            assert space.complete == (d >= g)
        if n > 2:
            level = coradical_filtration(h, 3, d)
            assert level.basis[1:] == direct[2], ("C_3", d)
            assert level.complete == (d >= 3 * g)


def _hopf(spec):
    obj = build(spec)
    return enveloping(obj) if isinstance(obj, CLA) else obj


@pytest.mark.parametrize("spec", CATALOG, ids=[s.describe() for s in CATALOG])
def test_catalog_subspaces_match_a_direct_kernel_at_the_bound(spec):
    _check_against_direct(_hopf(spec))


@pytest.mark.parametrize("spec", CATALOG, ids=[s.describe() for s in CATALOG])
def test_catalog_c3_matches_a_direct_chain_past_three_g(spec):
    # C_3 at d = 1..4g + 1, past the monomial budget: one direct chain at
    # 4g + 1, whose basis vectors of degree <= d are the direct basis at d
    # (``FilteredSubspace.stable_from_previous_bound``)
    h = _hopf(spec)
    g = h.complete_bound(1)
    direct = _direct(h, 4 * g + 1, 3, False)[2]
    for d in range(1, 4 * g + 2):
        level = coradical_filtration(h, 3, d)
        assert level.basis[1:] == [b for b in direct if b.degree <= d], d
        assert level.complete == (d >= 3 * g)


def _not_coassociative():
    """delta(W) = X (x) Z with delta(Z) = X (x) Y - Y (x) X."""
    return HopfPresentation(OrePresentation([("X", 1), ("Y", 1), ("Z", 2),
                                             ("W", 3)]), {
        "Z": [(1, {"X": 1}, {"Y": 1}), (-1, {"Y": 1}, {"X": 1})],
        "W": [(1, {"X": 1}, {"Z": 1})]})


def test_c3_bound_without_coassociativity_stays_four_g():
    # _not_coassociative() fails coassociativity, so C_3 keeps the bound
    # 2^2 g
    h = _not_coassociative()
    assert [h.complete_bound(n) for n in range(5)] == [0, 3, 6, 12, 24]
    assert [c.name for c in h.verify_coassociativity().failures()] == [
        "coassociativity on W"]
    assert make_K().complete_bound(4) == 12


def test_c3_of_k_is_complete_past_four_g():
    # past the budget and the bound 4g = 12 that C_3 of K would have
    # without coassociativity: computed at 3g = 9
    K = make_K()
    level = coradical_filtration(K, 3, 13)
    assert level.complete and level.basis[1:] == _direct(K, 13, 3, False)[2]


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


def test_primitive_space_at_twelve_asks_for_no_coproduct_above_g(
        monkeypatch):
    K = make_K()
    space, asked = _degrees_asked(monkeypatch, lambda: primitive_space(K, 12))
    assert space.degree_bound == 12 and space.complete and space.dim == 2
    assert max(asked) == K.complete_bound(1) == 3
    assert max(K.algebra.monomial_degree(m) for m in K._coproduct_cache) == 3


def _check_p2_against_direct(h):
    """P2 at d = 1..2g + 1 is the direct kernel at d, and the direct basis
    at 2g + 1 lies in degrees <= g."""
    g = h.complete_bound(1)
    for d in range(1, 2 * g + 2):
        direct = _direct(h, d, 1, True)[-1]
        assert p2_space(h, d).basis == direct, d
    assert all(b.degree <= g for b in direct)


@pytest.mark.parametrize("make", [*_FAILING, _not_coassociative],
                         ids=["K-kappa-raised", "z-x-is-z",
                              "not-coassociative"])
def test_p2_bound_needs_no_hopf_axiom(make):
    # PBW consistency, compatibility or coassociativity fails; the bound
    # g uses none of them
    h = make()
    assert not all(r.passed for r in (h.verify_pbw_consistency(),
                                      h.verify_coassociativity(),
                                      h.verify_compatibility()))
    _check_p2_against_direct(h)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_p2_of_random_commutative_matches_a_direct_kernel(seed):
    _check_p2_against_direct(_random_commutative(seed))


def test_p2_space_at_twelve_asks_for_no_coproduct_above_g(monkeypatch):
    K = make_K()
    space, asked = _degrees_asked(monkeypatch, lambda: p2_space(K, 12))
    assert space.degree_bound == 12 and space.complete and space.dim == 3
    assert max(asked) == K.complete_bound(1) == 3


@pytest.mark.parametrize("spec", CATALOG, ids=[s.describe() for s in CATALOG])
def test_extract_cla_at_g_is_extract_cla_past_g(spec):
    # extract_cla takes bounds >= 2, so g = 1 is read at 2
    h = _hopf(spec)
    g = max(h.complete_bound(1), 2)
    assert extract_cla(h, g) == extract_cla(h, g + 1)


def test_kept_bases_are_copies():
    K = make_K()
    primitive_space(K, 5).basis.clear()
    coradical_filtration(K, 2, 7).basis.clear()
    p2_space(K, 7).basis.clear()
    assert primitive_space(K, 4).dim == 2
    assert coradical_filtration(K, 2, 8).dim == 1 + 6
    assert p2_space(K, 9).dim == 3


@pytest.mark.parametrize("argv, complete", [
    (["primitives", "--max-degree", "2"], False),
    (["primitives", "--max-degree", "3"], True),
    (["p2", "--max-degree", "2"], False),
    (["p2", "--max-degree", "3"], True),
    (["p2", "--max-degree", "6"], True),
    (["coradical", "--level", "0", "--max-degree", "1"], True),
    (["coradical", "--level", "3", "--max-degree", "8"], False),
    (["coradical", "--level", "3", "--max-degree", "9"], True),
])
def test_space_commands_report_completeness(argv, complete, capsys):
    assert main(argv + ["--family", "K", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"] is complete
    assert payload["degree_bound"] == int(argv[-1])

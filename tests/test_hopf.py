import functools
import gc
import itertools
import math
import random
import warnings
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfalg.catalog import (build, list_catalog, make_B, make_cla_a,
                             make_cla_b, make_D, make_E, make_F, make_K,
                             make_lie, make_lie_preset)
from hopfalg.cla import enveloping, object_battery
from hopfalg.errors import InputError, ParameterError, StructuralError
from hopfalg.exactlin import add_scaled, add_term, integral_values, map_slot
from hopfalg.hopf import HopfPresentation, TensorElement, tensor_of
from hopfalg.ore import (AlgebraElement, GeneratorInfo, OrePresentation,
                          bracket)
from hopfalg.reports import VerificationReport
from test_cobar import _within
from test_ore import _corrupted_f


def monomials(h, bound, include_unit=False):
    p = h.algebra
    return [p.monomial(dict(zip(p.names, m)))
            for m in p.monomials_up_to(bound, include_unit=include_unit)]


def test_coproduct_of_primitive_generator(A111):
    X = A111.algebra.gen("X")
    assert A111.coproduct(X) == A111.tensor([(1, {"X": 1}, {}),
                                             (1, {}, {"X": 1})])


def test_coproduct_of_unit(A000):
    one = A000.algebra.one()
    assert A000.coproduct(one) == A000.tensor([(1, {}, {})])


def test_coproduct_of_skew_generator(A100):
    Z = A100.algebra.gen("Z")
    want = A100.tensor([(1, {"Z": 1}, {}), (1, {}, {"Z": 1}),
                        (1, {"X": 1}, {"Y": 1}), (-1, {"Y": 1}, {"X": 1})])
    assert A100.coproduct(Z) == want


def test_counit_reads_the_unit_coefficient(A000):
    p = A000.algebra
    assert A000.counit(p.one() + p.gen("X").scale(2)) == 1
    assert A000.counit(p.gen("Z")) == 0
    assert A000.counit(p.monomial({"X": 1, "Y": 1}) + p.one().scale(3)) == 3


def test_reduced_coproduct_examples(D01):
    p = D01.algebra
    X, Y = p.gen("X"), p.gen("Y")
    got = D01.reduced_coproduct(X * Y * Y)
    want = D01.tensor([(1, {"Y": 2}, {"X": 1}), (1, {"X": 1}, {"Y": 2}),
                       (2, {"X": 1, "Y": 1}, {"Y": 1}),
                       (2, {"Y": 1}, {"X": 1, "Y": 1})])
    assert got == want
    assert D01.reduced_coproduct(X).is_zero()
    assert D01.reduced_coproduct(Y * Y * Y) == D01.tensor(
        [(3, {"Y": 1}, {"Y": 2}), (3, {"Y": 2}, {"Y": 1})])


def test_reduced_monomial_is_cached_coproduct_minus_unit_terms():
    for spec in list_catalog():
        h = build(spec)
        if not isinstance(h, HopfPresentation):
            h = enveloping(h)
        unit = h.algebra.unit_monomial
        for m in h.algebra.monomials_up_to(4):
            got = h._reduced_monomial(m)
            assert h._reduced_monomial(m) is got
            want = h.coproduct(h.algebra.monomial(m)) - h.tensor(
                [(1, m, unit), (1, unit, m)])
            assert got == want.terms, (spec.describe(), m)


@pytest.mark.parametrize("which", ["coproduct", "reduced_coproduct"])
def test_coproduct_sums_cancel_and_never_alias_the_cache(which):
    h = make_K()
    p = h.algebra
    f = getattr(h, which)
    X, Y, Z = (p.gen(name) for name in "XYZ")
    x, y = p.monomial_tuple({"X": 1}), p.monomial_tuple({"Y": 1})
    # delta(Z) = X(x)Y - Y(x)X, and X Y has X(x)Y + Y(x)X: X(x)Y cancels
    got = f(Z - X * Y)
    assert (x, y) not in got.terms and got.terms[(y, x)] == -2
    assert all(got.terms.values()) and all(
        isinstance(t, tuple) and len(t) == 2 for t in got.terms)
    assert got == f(Z) - f(X * Y) and got.rank == 2
    kept = {"coproduct": lambda m: h._coproduct_monomial(m).terms,
            "reduced_coproduct": h._reduced_monomial}[which]
    for m in p.monomials_up_to(4):
        e = p.monomial(m)
        first = f(e)
        want = typed(first.terms)
        assert first.terms is not kept(m) and want == typed(kept(m))
        first.terms.clear()
        assert typed(kept(m)) == want and typed(f(e).terms) == want


def test_reduced_coproduct_needs_augmentation_ideal(A000):
    with pytest.raises(InputError):
        A000.reduced_coproduct(A000.algebra.one())


def test_tensor_products_and_brackets(A001, A000):
    u = A001.tensor([(1, {"Z": 1}, {"X": 1}), (-1, {"X": 1}, {"Z": 1}),
                     (1, {"X": 1, "Y": 1}, {"X": 1}),
                     (1, {"X": 1}, {"X": 1, "Y": 1})])
    xx = A001.tensor([(1, {"X": 1}, {}), (1, {}, {"X": 1})])
    assert bracket(u, xx) == A001.tensor(
        [(1, {"Y": 1}, {"X": 1}), (-1, {"X": 1}, {"Y": 1})])
    t = A000.tensor([(1, {"Y": 1}, {"Z": 1}), (-1, {"Z": 1}, {"Y": 1}),
                     (1, {"X": 1, "Y": 1}, {"Y": 1}),
                     (1, {"Y": 1}, {"X": 1, "Y": 1})])
    yy = A000.tensor([(1, {"Y": 1}, {}), (1, {}, {"Y": 1})])
    assert bracket(t, yy).is_zero()
    s = A000.tensor([(2, {"X": 1}, {"Y": 2})])
    assert A000.tensor([(1, {}, {})]) * s == s


def test_tensor_rank_mismatch(A000):
    s = A000.tensor([(1, {"X": 1}, {})])
    t = TensorElement(A000.algebra, 3,
                      {(A000.algebra.unit_monomial,) * 3: 1})
    with pytest.raises(InputError):
        s + t


def test_antipode_examples(A000, B1):
    p = A000.algebra
    assert A000.antipode(p.gen("X")) == -p.gen("X")
    assert A000.antipode(p.gen("Z")) == -p.gen("Z")
    q = B1.algebra
    assert B1.antipode(q.gen("Z")) == -q.gen("Z") + q.gen("Y")
    assert B1.antipode(B1.antipode(q.gen("Z"))) == q.gen("Z") - q.gen("Y").scale(2)


def test_antipode_on_polynomial_hopf_algebra():
    h = make_lie(["X"], {})
    p = h.algebra
    assert h.verify_coassociativity().passed
    assert h.verify_antipode(6).passed
    for n in range(1, 7):
        got = h.antipode(p.monomial({"X": n}))
        assert got == p.monomial({"X": n}).scale((-1) ** n)


def test_antipode_axiom_for_solvable_lie_algebra():
    h = make_lie_preset("solv2")
    assert h.verify_antipode(4).passed


def test_antipode_is_an_anti_homomorphism(K):
    rng = random.Random(2)
    low = monomials(K, 2, include_unit=True)
    for _ in range(6):
        a, b = rng.choice(low), rng.choice(low)
        assert K.antipode(a * b) == K.antipode(b) * K.antipode(a)


def test_antipode_squared_on_cocommutative(K):
    heis = make_lie_preset("heis3")
    for m in monomials(heis, 4, include_unit=True):
        assert heis.antipode(heis.antipode(m)) == m


def test_coproduct_is_multiplicative(E110):
    elems = monomials(E110, 2, include_unit=True)
    for a, b in itertools.product(elems, repeat=2):
        if (a.degree or 0) + (b.degree or 0) > 5:
            continue
        assert E110.coproduct(a * b) == E110.coproduct(a) * E110.coproduct(b)


def _expand_slot(h, t, slot):
    """Reference: the full coproduct on one tensor slot (rank grows by one)."""
    return TensorElement(h.algebra, t.rank + 1, map_slot(
        t.terms, slot, lambda m: h._coproduct_monomial(m).terms))


def _contract_counit(h, t, slot):
    """Reference: the counit on one tensor slot (rank drops by one)."""
    unit = h.algebra.unit_monomial
    return TensorElement(h.algebra, t.rank - 1, map_slot(
        t.terms, slot, lambda m: {(): 1} if m == unit else {}))


def _full_coproduct_coassociativity(h):
    """Reference report: (Delta(x)id)Delta - (id(x)Delta)Delta of the
    full coproduct on every generator."""
    report = VerificationReport("coassociativity")
    p = h.algebra
    for name in p.names:
        t = h.coproduct(p.gen(name))
        diff = _expand_slot(h, t, 0) - _expand_slot(h, t, 1)
        report.add(f"coassociativity on {name}", diff.is_zero(),
                   witness=None if diff.is_zero() else diff)
    report.add(
        "generator check suffices", True, informational=True,
        detail="both sides of coassociativity are algebra maps, so "
               "agreement on generators extends to all of the algebra")
    return report


def _same_as_full_coproduct(h):
    """verify_coassociativity(), asserted equal to the full-coproduct
    reference (names, verdicts and witnesses alike)."""
    got, want = h.verify_coassociativity(), _full_coproduct_coassociativity(h)
    assert got == want and str(got) == str(want)
    assert got.to_json() == want.to_json()
    return got


def test_counit_axiom_on_monomials(F010):
    p = F010.algebra
    for m in monomials(F010, 5, include_unit=True):
        t = F010.coproduct(m)
        left = _contract_counit(F010, t, 0)
        right = _contract_counit(F010, t, 1)
        want = TensorElement(p, 1, {(mono,): c for mono, c in m.terms.items()})
        assert left == want and right == want


def test_reduced_coassociativity_on_monomials(D01):
    for m in monomials(D01, 4):
        t = D01.reduced_coproduct(m)
        left = TensorElement(D01.algebra, 3, {})
        right = TensorElement(D01.algebra, 3, {})
        for (a, b), c in t.terms.items():
            da = D01.reduced_coproduct(D01.algebra.monomial(
                dict(zip(D01.algebra.names, a))))
            for (u, v), c2 in da.terms.items():
                left = left + TensorElement(D01.algebra, 3, {(u, v, b): c * c2})
            db = D01.reduced_coproduct(D01.algebra.monomial(
                dict(zip(D01.algebra.names, b))))
            for (u, v), c2 in db.terms.items():
                right = right + TensorElement(D01.algebra, 3, {(a, u, v): c * c2})
        assert left == right


def test_coassociativity_detects_corruption():
    # delta(W) = X (x) Z passes validation (factors of degree 1 and 2 below
    # deg W = 3), but delta(Z) = X (x) Y - Y (x) X is not zero, so
    # (Delta (x) id) Delta(W) - (id (x) Delta) Delta(W) = -X (x) delta(Z)
    algebra = OrePresentation([("X", 1), ("Y", 1), ("Z", 2), ("W", 3)])
    bad = HopfPresentation(algebra, {
        "Z": [(1, {"X": 1}, {"Y": 1}), (-1, {"Y": 1}, {"X": 1})],
        "W": [(1, {"X": 1}, {"Z": 1})]})
    report = _same_as_full_coproduct(bad)
    assert not report.passed
    witness = next(c.witness for c in report.failures())
    x = algebra.monomial_tuple({"X": 1})
    y = algebra.monomial_tuple({"Y": 1})
    assert witness.terms == {(x, x, y): -1, (x, y, x): 1}


def test_strict_construction_rejects_degree_violations():
    algebra = OrePresentation([("X", 1), ("Y", 1), ("Z", 2)])
    with pytest.raises(StructuralError):
        HopfPresentation(algebra, {"Z": [(1, {"X": 1}, {"Z": 1})]})
    with pytest.raises(StructuralError):
        HopfPresentation(algebra, {"Z": [(1, {}, {"X": 1})]})


def test_compatibility_detects_wrong_sign():
    # B-type tables with [Z,X] = +Z + Y: the coproduct no longer respects
    # the relation, and the failure is localized at the (Z, X) pair
    algebra = OrePresentation(
        [("X", 1), ("Y", 1), ("Z", 2)],
        {"Y,X": [(-1, {"Y": 1})],
         "Z,X": [(1, {"Z": 1}), (1, {"Y": 1})]})
    bad = HopfPresentation(algebra, {"Z": [(1, {"X": 1}, {"Y": 1}),
                                           (-1, {"Y": 1}, {"X": 1})]})
    report = bad.verify_compatibility()
    assert not report.passed
    assert any("[Z,X]" in c.name for c in report.failures())


def test_compatibility_trivial_for_enveloping_algebras():
    assert make_lie_preset("heis3").verify_compatibility().passed


def test_paranoid_coassociativity(D01):
    # the generator check suffices; re-check every monomial through degree 4
    assert D01.verify_coassociativity().passed
    for m in D01.algebra.monomials_up_to(4, include_unit=True):
        t = D01._coproduct_monomial(m)
        diff = _expand_slot(D01, t, 0) - _expand_slot(D01, t, 1)
        assert diff.is_zero(), (m, diff)


def test_morphism_identity(K):
    images = {n: K.algebra.gen(n) for n in K.algebra.names}
    assert K.verify_morphism(K, images, check_coalgebra=True).passed


def test_morphism_quarter_turn_on_graded_model(A000):
    p = A000.algebra
    images = {"X": p.gen("Y"), "Y": -p.gen("X"), "Z": p.gen("Z")}
    assert A000.verify_morphism(A000, images, check_coalgebra=True).passed


def test_morphism_detects_broken_relations(B0, A000):
    # sending everything across families ignores [X,Y] = Y
    images = {"X": A000.algebra.gen("X"), "Y": A000.algebra.gen("Y"),
              "Z": A000.algebra.gen("Z")}
    report = B0.verify_morphism(A000, images, check_coalgebra=False)
    assert not report.passed


def test_morphism_requires_full_image_assignment(A000):
    with pytest.raises(InputError):
        A000.verify_morphism(A000, {"X": A000.algebra.gen("X")})


def test_morphism_rejects_images_of_unknown_generators(K):
    images = {n: K.algebra.gen(n) for n in K.algebra.names}
    images["Q"] = K.algebra.gen("X")
    with pytest.raises(InputError, match="Q"):
        K.verify_morphism(K, images)
    with pytest.raises(InputError, match="Q"):
        K.apply_map(images, K.algebra.gen("W"))


def test_tensor_of_elements(A000):
    p = A000.algebra
    t = tensor_of(p.gen("X") + p.one(), p.gen("Y"))
    assert t == A000.tensor([(1, {"X": 1}, {"Y": 1}), (1, {}, {"Y": 1})])


def test_cached_tables_are_read_only(K):
    alg = K.algebra
    key, terms = next(iter(alg.kappa.items()))
    with pytest.raises(TypeError):
        alg.kappa[key] = {}
    with pytest.raises(TypeError):
        terms[alg.unit_monomial] = 1
    g, dterms = next(iter(K.delta_gen.items()))
    with pytest.raises(TypeError):
        K.delta_gen[g] = {}
    with pytest.raises(TypeError):
        dterms[(alg.unit_monomial, alg.unit_monomial)] = 1


def reference_tensor_mul(s, t):
    """Oracle: the per-pair, per-slot product loop, every slot through the
    full rewriting recursion (no unit or sorted shortcut), whose scaled
    result is mapped back to the x basis."""
    p = s.p
    out = {}
    for t1, c1 in s.terms.items():
        for t2, c2 in t.terms.items():
            partial = {(): c1 * c2}
            for slot in range(s.rank):
                a, b = t1[slot], t2[slot]
                factor = p._unscale(
                    p._left_mul(p._letters(a), {b: 1}),
                    p.monomial_degree(a) + p.monomial_degree(b))
                nxt = {}
                for prefix, c in partial.items():
                    for m, cm in factor.items():
                        add_term(nxt, prefix + (m,), c * cm)
                partial = nxt
            add_scaled(out, partial)
    return out


def typed(terms):
    return [(key, type(c), c) for key, c in terms.items()]


def typed_dict(terms):
    return {key: (type(c), c) for key, c in terms.items()}


def catalog_hopf():
    """(description, Hopf presentation): the catalog's, and U(L) of its CLAs."""
    out = []
    for spec in list_catalog():
        h = build(spec)
        if not isinstance(h, HopfPresentation):
            h = enveloping(h)
        out.append((spec.describe(), h))
    return out


def letter(p, g, k=1):
    unit = p.unit_monomial
    return unit[:g] + (k,) + unit[g + 1:]


def first_generator_oracle(h, m, want):
    """Delta(m), every product through the oracle, memoised in want: with
    x_g the first generator of m, a primitive x_g leaves as x_g^k through
    sum_i C(k,i) x_g^i (x) x_g^{k-i} (i = k..0), any other as one letter
    through x_g(x)1 + 1(x)x_g + delta(x_g), and the factor of x_g
    multiplies from the left."""
    p = h.algebra
    if m == p.unit_monomial:
        return h.unit_tensor()
    if m not in want:
        g = min(i for i, e in enumerate(m) if e)
        k = 1 if g in h.delta_gen else m[g]
        factor = {(letter(p, g, i), letter(p, g, k - i)): math.comb(k, i)
                  for i in range(k, -1, -1)}
        add_scaled(factor, h.delta_gen.get(g, {}))
        rest = first_generator_oracle(h, m[:g] + (m[g] - k,) + m[g + 1:], want)
        want[m] = TensorElement(p, 2, reference_tensor_mul(
            TensorElement(p, 2, factor), rest))
    return want[m]


def rebuild_first_generator(h, bound):
    """Delta(m) for every m up to the bound by `first_generator_oracle`."""
    want = {h.algebra.unit_monomial: h.unit_tensor()}
    for m in h.algebra.monomials_up_to(bound):
        first_generator_oracle(h, m, want)
    return want


def rebuild_last_letter(h, bound):
    """Delta(m) = Delta(m') * (x_g(x)1 + 1(x)x_g + delta(x_g)) for the last
    letter x_g of m = m' x_g, every product through the oracle."""
    p = h.algebra
    unit = p.unit_monomial
    want = {unit: h.unit_tensor()}
    for m in p.monomials_up_to(bound):
        g = max(i for i, e in enumerate(m) if e)
        xg = letter(p, g)
        factor = {(xg, unit): 1, (unit, xg): 1}
        add_scaled(factor, h.delta_gen.get(g, {}))
        rest = m[:g] + (m[g] - 1,) + m[g + 1:]
        want[m] = TensorElement(p, 2, reference_tensor_mul(
            want[rest], TensorElement(p, 2, factor)))
    return want


def test_coproducts_match_reference_tensor_product():
    # the first-generator rule rebuilt with the oracle product: keys, their
    # order, values and scalar types agree; the last-letter rule is an
    # independent rebuild of the same coproduct, compared as typed dicts;
    # the two rules first give different dict orders at degree 5
    for where, h in catalog_hopf():
        first = rebuild_first_generator(h, 5)
        last = rebuild_last_letter(h, 5)
        for m in h.algebra.monomials_up_to(5):
            got = h._coproduct_monomial(m).terms
            assert typed(got) == typed(first[m].terms), (where, m)
            assert typed_dict(got) == typed_dict(last[m].terms), (where, m)


def test_coproduct_is_an_algebra_map_on_the_catalog():
    # Delta(a b) = Delta(a) Delta(b), the right side through the oracle
    for where, h in catalog_hopf():
        p = h.algebra
        monos = p.monomials_up_to(4, include_unit=True)
        for a, b in itertools.product(monos, repeat=2):
            if p.monomial_degree(a) + p.monomial_degree(b) > 4:
                continue
            ab = AlgebraElement(p, {a: 1}) * AlgebraElement(p, {b: 1})
            want = reference_tensor_mul(h._coproduct_monomial(a),
                                        h._coproduct_monomial(b))
            assert typed_dict(h.coproduct(ab).terms) == typed_dict(want), (
                where, a, b)


def test_coproduct_does_not_depend_on_request_order():
    # a cold presentation asked in reverse canonical order fills its
    # coproduct and product caches differently, and answers the same
    forward, backward = catalog_hopf(), catalog_hopf()
    for (where, h), (_, cold) in zip(forward, backward):
        monos = h.algebra.monomials_up_to(5, include_unit=True)
        for m in reversed(monos):
            cold._coproduct_monomial(m)
        for m in monos:
            assert (typed(h._coproduct_monomial(m).terms)
                    == typed(cold._coproduct_monomial(m).terms)), (where, m)


def _spy_block_routes(monkeypatch):
    """Record the operands of every kernel product and the (g, k) of every
    shifted primitive block, in call order."""
    calls, shifts = [], []
    product = TensorElement.__mul__
    shift = HopfPresentation._shifted_block

    def spy_product(self, other):
        calls.append((self, other))
        return product(self, other)

    def spy_shift(self, g, k, rest):
        shifts.append((g, k))
        return shift(self, g, k, rest)

    monkeypatch.setattr(TensorElement, "__mul__", spy_product)
    monkeypatch.setattr(HopfPresentation, "_shifted_block", spy_shift)
    return calls, shifts


def test_cold_k_coproduct_takes_six_tensor_products_and_two_shifts(
        monkeypatch):
    # W^3 Z^3 X^3 Y^3: X^3 and Y^3 commute with every slot below them, so
    # their binomial blocks are shifts; Z and W (not primitive) leave one
    # letter at a time through the kernel, and the last W meets Delta(1)
    calls, shifts = _spy_block_routes(monkeypatch)
    h = make_K()
    d = h.coproduct(h.algebra.monomial({"W": 3, "Z": 3, "X": 3, "Y": 3}))
    assert len(d.terms) == 9026
    x, y = h.algebra.index["X"], h.algebra.index["Y"]
    assert shifts == [(y, 3), (x, 3)]
    assert len(calls) == 6


def test_primitive_block_shift_and_kernel_fallback_match_the_oracle(
        monkeypatch):
    # in K the X^3 and Y^3 blocks of W^3 Z^3 X^3 Y^3 meet no blocker and
    # shift; in B(1) X is a blocker of Y and delta(Z) carries X, so the
    # Y^2 block of Y^2 Z goes through the kernel
    calls, shifts = _spy_block_routes(monkeypatch)
    k = make_K()
    kx, ky = k.algebra.index["X"], k.algebra.index["Y"]
    mono = k.algebra.monomial_tuple({"W": 3, "Z": 3, "X": 3, "Y": 3})
    got = k._coproduct_monomial(mono)
    assert shifts == [(ky, 3), (kx, 3)]
    assert typed(got.terms) == typed(first_generator_oracle(k, mono, {}).terms)

    b = make_B(1)
    by = b.algebra.index["Y"]
    mono = b.algebra.monomial_tuple({"Y": 2, "Z": 1})
    del calls[:], shifts[:]
    got = b._coproduct_monomial(mono)
    assert not shifts
    assert [s.terms for s, _ in calls][-1] == b._power_block(by, 2)
    assert typed(got.terms) == typed(first_generator_oracle(b, mono, {}).terms)


def _random_tensor(p, rng, rank, monos, size):
    # few coefficients of either sign over few monomials, so that the
    # products of different pairs of terms meet and cancel
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-1, 2)]
    terms = {}
    for _ in range(size):
        add_term(terms, tuple(rng.choice(monos) for _ in range(rank)),
                 rng.choice(coeffs))
    return TensorElement(p, rank, terms)


def _cancelling_pair(p, rank):
    """(x(x)1 - 1(x)1) * (1(x)y + x(x)y), padded with unit slots: the pairs
    x(x)1 . 1(x)y and 1(x)1 . x(x)y meet on x(x)y and cancel there."""
    unit = p.unit_monomial
    x, y = p.monomials_up_to(1)[:2]
    pad = (unit,) * (rank - 2)
    half = Fraction(1, 2)
    s = TensorElement(p, rank, {(x, unit) + pad: half, (unit, unit) + pad: -half})
    t = TensorElement(p, rank, {(unit, y) + pad: 1, (x, y) + pad: 1})
    return s, t


@pytest.mark.parametrize("rank", [2, 3])
def test_random_tensor_products_match_reference(rank):
    rng = random.Random(20261018 + rank)
    cancelled = 0
    third = Fraction(1, 3)
    for h in (make_K(), make_D(1, third, -2, third, 3, -third, 2, Fraction(5, 2))):
        p = h.algebra
        # the unit monomial in about a third of the slots
        monos = [p.unit_monomial] * 3 + p.monomials_up_to(2)[:6]
        cases = [_cancelling_pair(p, rank)] + [
            (_random_tensor(p, rng, rank, monos, rng.randint(1, 6)),
             _random_tensor(p, rng, rank, monos, rng.randint(1, 6)))
            for _ in range(40)]
        for s, t in cases:
            got = (s * t).terms
            # the product stores integral Fractions as ints
            want = integral_values(reference_tensor_mul(s, t))
            assert typed(got) == typed(want), (s, t)
            touched = set()
            for t1, c1 in s.terms.items():
                for t2, c2 in t.terms.items():
                    touched |= reference_tensor_mul(
                        TensorElement(p, rank, {t1: c1}),
                        TensorElement(p, rank, {t2: c2})).keys()
            cancelled += len(touched - got.keys())
    assert cancelled >= 2, "products with cancelling terms were not exercised"


def _catalog_hopf():
    for spec in list_catalog():
        obj = build(spec)
        yield spec.describe(), (obj if isinstance(obj, HopfPresentation)
                                else enveloping(obj))


def test_antipode_matches_its_defining_recursion_on_the_catalog():
    # S is an anti-algebra map from its values on the generators; on a
    # Hopf algebra that is the S of S(m) = -m - sum S(m'_1) m'_2
    for label, h in _catalog_hopf():
        p = h.algebra
        want = {p.unit_monomial: {p.unit_monomial: 1}}
        for m in p.monomials_up_to(4):
            out = {m: -1}
            for (l, r), c in h._reduced_monomial(m).items():
                for ml, cl in want[l].items():
                    add_scaled(out, p.mul_monomials(ml, r), -c * cl)
            want[m] = out
            assert h._antipode_monomial(m).terms == out, (label, m)


def _z_x_is_z():
    """[Z, X] = Z with delta(Z) = X (x) Y, which Delta does not respect."""
    alg = OrePresentation(
        [GeneratorInfo("X", 1), GeneratorInfo("Y", 1), GeneratorInfo("Z", 2)],
        {("Z", "X"): [(1, {"Z": 1})]})
    return HopfPresentation(alg, {"Z": [(1, {"X": 1}, {"Y": 1})]})


def test_left_antipode_row_fails_without_compatibility():
    # Delta does not respect [Z, X] = Z when delta(Z) = X (x) Y; S taken
    # as an anti-algebra map then fails m(S(x)id)Delta = unit.counit,
    # which the defining recursion of S would satisfy by construction
    h = _z_x_is_z()
    assert not h.verify_compatibility().passed
    left, right = h.verify_antipode(4).checks
    assert left.name == "m(S(x)id)Delta = unit.counit" and not left.passed
    assert right.passed


def _same_as_loop(h, bound):
    """verify_antipode(bound), asserted equal to the degree loop's report
    on a fresh copy of h (names, verdicts and witness alike)."""
    fresh = HopfPresentation(h.algebra, {
        h.algebra.names[g]: [(c, l, r) for (l, r), c in terms.items()]
        for g, terms in h.delta_gen.items()})
    got, want = h.verify_antipode(bound), fresh._antipode_loop(bound)
    assert got == want and str(got) == str(want), bound
    return got


def test_antipode_certificate_matches_the_loop_on_the_catalog():
    for label, h in _catalog_hopf():
        assert h._antipode_certified(), label
        for bound in range(1, 7):
            assert _same_as_loop(h, bound).passed, (label, bound)


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from([make_D, make_E, make_F]),
       st.lists(_rationals, min_size=8, max_size=8))
def test_antipode_certificate_matches_the_loop_on_seeded_families(
        make, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # off-normalization parameters
        try:
            h = make(*params[:8 if make is make_D else 3])
        except ParameterError:
            assume(False)
    assert h._antipode_certified()
    assert _same_as_loop(h, 6).passed


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.lists(_rationals, min_size=9, max_size=9))
def test_antipode_certificate_matches_the_loop_on_random_envelopes(
        kind, entries):
    # U(k^3 x| k), [t, e_i] = sum_j a_ji e_j (Jacobi holds for any a), or
    # the envelope of a CLA of family a or b
    if kind == 0:
        h = make_lie(["e0", "e1", "e2", "t"],
                     {(3, i): {j: entries[3 * i + j] for j in range(3)}
                      for i in range(3)})
    else:
        h = enveloping(make_cla_a(*entries[:3]) if kind == 1
                       else make_cla_b(entries[0]))
    assert h._antipode_certified()
    assert _same_as_loop(h, 5).passed


def _perturbed_K(table, key, term):
    """K with one coefficient raised by 1: of the commutator [x_j, x_i]
    (table "kappa", key (j, i)) or of delta(x_g) (table "delta", key g)."""
    K = make_K()
    p = K.algebra
    commutators = {key: dict(terms) for key, terms in p.kappa.items()}
    coproducts = {g: dict(terms) for g, terms in K.delta_gen.items()}
    {"kappa": commutators, "delta": coproducts}[table][key][term] += 1
    return HopfPresentation(
        OrePresentation(p.generators, commutators),
        {p.names[g]: [(c, l, r) for (l, r), c in terms.items()]
         for g, terms in coproducts.items()})


def test_antipode_certificate_declines_when_pbw_fails():
    # [W, Z] = W - X Y^2 with the W coefficient raised: an overlap fails
    h = _perturbed_K("kappa", (3, 2), (0, 0, 0, 1))
    assert not h.algebra.verify_pbw_consistency().passed
    assert not h._antipode_certified()
    assert not _same_as_loop(h, 6).passed


def test_antipode_certificate_declines_when_compatibility_fails():
    # delta(W) with its Y (x) Z coefficient raised
    h = _perturbed_K("delta", 3, ((0, 1, 0, 0), (0, 0, 1, 0)))
    assert h.algebra.verify_pbw_consistency().passed
    assert not h.verify_compatibility().passed
    assert not h._antipode_certified()
    assert not _same_as_loop(h, 6).passed


def test_antipode_certificate_declines_a_wrong_sign_in_s(monkeypatch):
    # S(x_g) = -x_g + sum S(l) r over delta(x_g) = sum l (x) r, the sign
    # of the sum flipped: -2 x_g - S(x_g) of the correct recursion
    correct = HopfPresentation._antipode_monomial

    def flipped(self, m):
        value = correct(self, m)
        g = next((i for i, e in enumerate(m) if e), None)
        if sum(m) == 1 and g in self.delta_gen:
            return AlgebraElement(self.algebra, {m: -2}) - value
        return value

    monkeypatch.setattr(HopfPresentation, "_antipode_monomial", flipped)
    h = make_B(1)   # S(Z) = -Z + Y, taken as -Z - Y
    assert not h._antipode_certified()
    assert not _same_as_loop(h, 4).passed


def _not_coassociative(delta_w):
    """k[X, Y, W], W of degree 3, with delta(W) = delta_w: no relation, so
    PBW-consistent and compatible."""
    alg = OrePresentation(
        [GeneratorInfo("X", 1), GeneratorInfo("Y", 1), GeneratorInfo("W", 3)])
    return HopfPresentation(alg, {"W": delta_w})


@pytest.mark.parametrize("delta_w, rows_vanish", [
    # (delta(x)id - id(x)delta) delta(W) = -X (x) delta(XY)
    ([(1, {"X": 1}, {"X": 1, "Y": 1})], False),
    # the same coassociator less Y (x) delta(X^2); both rows vanish on
    # each generator, so only the coassociativity verdict declines
    ([(1, {"X": 1}, {"X": 1, "Y": 1}), (-1, {"Y": 1}, {"X": 2})], True),
])
def test_antipode_certificate_declines_without_coassociativity(
        delta_w, rows_vanish):
    h = _not_coassociative(delta_w)
    p = h.algebra
    assert h.verify_pbw_consistency().passed
    assert h.verify_compatibility().passed
    assert not h.verify_coassociativity().passed
    assert rows_vanish == all(h._antipode_rows(p.letter(g)) == ({}, {})
                              for g in range(len(p.names)))
    assert not h._antipode_certified()
    assert h.verify_antipode(6) == h._antipode_loop(6)
    _same_as_loop(h, 6)


def test_antipode_certificate_takes_no_bracket_and_no_s_of_a_relation(
        monkeypatch):
    # with the kept verdicts read, the certificate is the two rows on
    # each generator: no commutator, and no S of a relation; X Y^2 of
    # [W, Z] = W - X Y^2 in K is neither a delta factor nor reached from
    # one by S(x_g m') = S(m') S(x_g)
    h = make_K()
    p = h.algebra
    for report in (h.verify_pbw_consistency(), h.verify_compatibility(),
                   h.verify_coassociativity()):
        assert report.passed
    asked, brackets = set(), []
    antipode = HopfPresentation._antipode_monomial

    def spy(self, m):
        asked.add(m)
        return antipode(self, m)

    monkeypatch.setattr(HopfPresentation, "_antipode_monomial", spy)
    monkeypatch.setattr("hopfalg.hopf.bracket",
                        lambda a, b: brackets.append((a, b)))
    assert h._antipode_certified()
    assert asked and not brackets
    assert p.monomial_tuple({"X": 1, "Y": 2}) not in asked


# an overlap fails in the first, compatibility in the second
_FAILING = [lambda: _perturbed_K("kappa", (3, 2), (0, 0, 0, 1)), _z_x_is_z]


def test_kept_reports_of_a_failing_presentation_stay_as_computed():
    for make in _FAILING:
        h = make()
        first = _same_as_loop(h, 6)
        assert not first.passed and first.checks[0].witness is not None
        reports = [h.verify_pbw_consistency(), h.verify_coassociativity(),
                   h.verify_compatibility()]
        assert not all(r.passed for r in reports)
        before = [(str(r), r.to_json()) for r in [first] + reports]
        for r in [first] + reports:
            r.checks[0].passed = not r.checks[0].passed
            r.checks[0].witness = None
            r.add("added by the caller", False)
        again = [h.verify_antipode(6), h.verify_pbw_consistency(),
                 h.verify_coassociativity(), h.verify_compatibility()]
        assert [(str(r), r.to_json()) for r in again] == before
        assert _same_as_loop(h, 6) == again[0]


def test_a_failing_presentation_is_freed_once_dropped():
    # a kept failing report holds a witness over the algebra; with gc
    # off, only reference counting frees the presentation and its algebra
    gc.collect()
    gc.disable()
    try:
        for make in _FAILING:
            h = make()
            assert not object_battery(h, 6).passed
            refs = [weakref.ref(h), weakref.ref(h.algebra)]
            del h
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_certified_antipode_takes_s_only_on_generators_and_relations(
        monkeypatch):
    # the pbw benchmark's seed-11 D; the degree loop (`_antipode_loop`)
    # takes about 1.3 s of process time at bound 12 on a 2-core shared
    # machine
    h = make_D(Fraction(3, 2), 1, Fraction(-1, 6), Fraction(-5, 2), -1, 1,
               Fraction(-9, 2), Fraction(8, 9))
    p = h.algebra
    asked = set()
    antipode = HopfPresentation._antipode_monomial

    def spy(self, m):
        asked.add(m)
        return antipode(self, m)

    monkeypatch.setattr(HopfPresentation, "_antipode_monomial", spy)
    report = _within(1, h.verify_antipode, 12)
    assert report.passed and report.checks[0].witness is None
    # the generators, the kappa monomials and the delta factors, with
    # every suffix the recursion S(x_g m') = S(m') S(x_g) reaches
    reach = {m for terms in p.kappa.values() for m in terms}
    reach |= {m for terms in h.delta_gen.values() for t in terms for m in t}
    reach |= {p.monomial_tuple({name: 1}) for name in p.names}
    stack = list(reach)
    while stack:
        m = stack.pop()
        g = next((i for i, e in enumerate(m) if e), None)
        if g is not None:
            rest = m[:g] + (m[g] - 1,) + m[g + 1:]
            if rest not in reach:
                reach.add(rest)
                stack.append(rest)
    assert asked <= reach
    assert max(p.monomial_degree(m) for m in asked) == 3


def test_verify_antipode_rejects_a_negative_bound(K):
    with pytest.raises(InputError):
        K.verify_antipode(-1)


def test_product_kernel_stores_no_zero_and_no_stray_rank(monkeypatch):
    # the results of the kernel and of the shifted primitive block skip
    # TensorElement.__init__'s filter and rank check, so they must hold
    # neither a zero nor a key of another rank; nor may a commutator of
    # tensors
    product = TensorElement.__mul__
    shift = HopfPresentation._shifted_block
    seen, shifted = [], []

    def check(result, rank):
        assert all(result.terms.values())
        assert all(len(key) == result.rank == rank
                   and all(len(m) == len(result.p.names) for m in key)
                   for key in result.terms)

    def spy(self, other):
        result = product(self, other)
        check(result, self.rank)
        seen.append(len(result.terms))
        return result

    def spy_shift(self, g, k, rest):
        result = shift(self, g, k, rest)
        check(result, 2)
        shifted.append(len(result.terms))
        return result

    # the envelopes are built, and their compatibility checked, first
    hopfs = [h for _, h in _catalog_hopf()]
    monkeypatch.setattr(TensorElement, "__mul__", spy)
    monkeypatch.setattr(HopfPresentation, "_shifted_block", spy_shift)
    for h in hopfs:
        for m in h.algebra.monomials_up_to(5):
            h._coproduct_monomial(m)
    # 1668 coproducts made here (the envelopes' checks made the others):
    # 121 through the kernel, the rest shifts
    assert len(seen) >= 121 and len(shifted) >= 1547
    for h in hopfs:
        p = h.algebra
        full = [h.coproduct(p.gen(name)) for name in p.names]
        for a, b in itertools.product(full, repeat=2):
            check(bracket(a, b), 2)


@functools.cache
def _bracket_algebras():
    """Every catalog entry (a CLA by its envelope), the PBW-inconsistent
    F table and the incompatible [Z, X] = Z: (algebra, monomials of
    degree <= 3)."""
    algebras = [h.algebra for _, h in _catalog_hopf()]
    algebras += [_corrupted_f(), _z_x_is_z().algebra]
    return [(p, p.monomials_up_to(3, include_unit=True)) for p in algebras]


def _typed(terms):
    return {key: (type(c), c) for key, c in terms.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 2), st.data())
def test_bracket_is_the_commutator_term_for_term(which, rank, data):
    # only the pairs that do not commute take products, on every table;
    # the sum is a*b - b*a, both storing integral Fractions as ints
    entries = _bracket_algebras()
    p, monos = entries[which % len(entries)]
    key = st.tuples(*[st.sampled_from(monos)] * rank)
    coeff = st.one_of(st.integers(-3, 3), _rationals)

    def combination():
        terms = data.draw(st.dictionaries(key, coeff, max_size=4))
        if rank == 1:
            return AlgebraElement(p, {t[0]: c for t, c in terms.items()})
        return TensorElement(p, 2, terms)

    a, b = combination(), combination()
    got, want = bracket(a, b), a * b - b * a
    assert type(got) is type(want) and got == want
    assert _typed(got.terms) == _typed(want.terms)


def test_sums_and_tensor_products_store_integral_sums_as_ints():
    # halves that add up to whole numbers: +, - and the public tensor *
    # store them as ints, like mul, normal_form and bracket
    p = make_K().algebra
    x, y = p.monomials_up_to(1)[:2]
    half = Fraction(1, 2)
    a = AlgebraElement(p, {x: half, y: half})
    b = AlgebraElement(p, {x: half, y: -half})
    s = TensorElement(p, 2, {(x, y): half})
    t = TensorElement(p, 2, {(y, x): 2})
    for got in (a + b, a - b, s + s, s - (-s), s * t):
        assert got.terms and all(type(c) is int for c in got.terms.values())
    assert (a + b).terms == {x: 1} and list((s * t).terms.values()) == [1]


def test_coassociativity_matches_the_full_coproduct_on_the_catalog():
    # the primitive parts of Delta cancel, so the coassociator of delta
    # on each generator is the full-coproduct difference term for term
    for label, h in _catalog_hopf():
        assert _same_as_full_coproduct(h).passed, label


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from([make_D, make_E, make_F]),
       st.lists(_rationals, min_size=8, max_size=8))
def test_coassociativity_matches_the_full_coproduct_on_seeded_families(
        make, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # off-normalization parameters
        try:
            h = make(*params[:8 if make is make_D else 3])
        except ParameterError:
            assume(False)
    assert _same_as_full_coproduct(h).passed


def test_coassociativity_matches_the_full_coproduct_when_it_fails():
    # delta(W) in K with its Y (x) Z coefficient raised
    h = _perturbed_K("delta", 3, ((0, 1, 0, 0), (0, 0, 1, 0)))
    report = _same_as_full_coproduct(h)
    assert [c.name for c in report.failures()] == ["coassociativity on W"]

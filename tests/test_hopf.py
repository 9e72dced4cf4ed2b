import itertools
import random

import pytest

from hopfalg.catalog import make_lie, make_lie_preset
from hopfalg.errors import InputError, StructuralError
from hopfalg.hopf import HopfPresentation, TensorElement, tensor_bracket, tensor_of
from hopfalg.ore import OrePresentation


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


def test_reduced_coproduct_needs_augmentation_ideal(A000):
    with pytest.raises(InputError):
        A000.reduced_coproduct(A000.algebra.one())


def test_tensor_products_and_brackets(A001, A000):
    u = A001.tensor([(1, {"Z": 1}, {"X": 1}), (-1, {"X": 1}, {"Z": 1}),
                     (1, {"X": 1, "Y": 1}, {"X": 1}),
                     (1, {"X": 1}, {"X": 1, "Y": 1})])
    xx = A001.tensor([(1, {"X": 1}, {}), (1, {}, {"X": 1})])
    assert tensor_bracket(u, xx) == A001.tensor(
        [(1, {"Y": 1}, {"X": 1}), (-1, {"X": 1}, {"Y": 1})])
    t = A000.tensor([(1, {"Y": 1}, {"Z": 1}), (-1, {"Z": 1}, {"Y": 1}),
                     (1, {"X": 1, "Y": 1}, {"Y": 1}),
                     (1, {"Y": 1}, {"X": 1, "Y": 1})])
    yy = A000.tensor([(1, {"Y": 1}, {}), (1, {}, {"Y": 1})])
    assert tensor_bracket(t, yy).is_zero()
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


def test_counit_axiom_on_monomials(F010):
    p = F010.algebra
    for m in monomials(F010, 5, include_unit=True):
        t = F010.coproduct(m)
        left = F010._contract_counit(t, 0)
        right = F010._contract_counit(t, 1)
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


def test_coassociativity_detects_corruption(A000):
    # delta(Z) = X (x) Z breaks the degree-drop invariant, so it can only
    # be built without validation; coassociativity must then fail with
    # witness X (x) X (x) Z
    algebra = OrePresentation([("X", 1), ("Y", 1), ("Z", 2)])
    bad = HopfPresentation(algebra, {"Z": [(1, {"X": 1}, {"Z": 1})]},
                           strict=False)
    report = bad.verify_coassociativity()
    assert not report.passed
    witness = next(c.witness for c in report.failures())
    x = algebra.monomial_tuple({"X": 1})
    z = algebra.monomial_tuple({"Z": 1})
    assert witness.terms == {(x, x, z): -1}


def test_strict_construction_rejects_degree_violations():
    algebra = OrePresentation([("X", 1), ("Y", 1), ("Z", 2)])
    with pytest.raises(StructuralError):
        HopfPresentation(algebra, {"Z": [(1, {"X": 1}, {"Z": 1})]})
    with pytest.raises(StructuralError):
        HopfPresentation(algebra, {"Z": [(1, {}, {"X": 1})]})


def test_antipode_refuses_unvalidated_presentation():
    algebra = OrePresentation([("X", 1), ("Y", 1), ("Z", 2)])
    bad = HopfPresentation(algebra, {"Z": [(1, {"X": 1}, {"Z": 1})]},
                           strict=False)
    with pytest.raises(StructuralError):
        bad.antipode(algebra.gen("Z"))


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
    assert D01.verify_coassociativity(paranoid_degree=4).passed


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

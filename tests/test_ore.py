import itertools
import random
import signal
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfalg.catalog import build, list_catalog, make_D, make_F, make_K
from hopfalg.cla import enveloping
from hopfalg.errors import InputError, StructuralError
from hopfalg.exactlin import add_scaled, add_term
from hopfalg.hopf import HopfPresentation, TensorElement
from hopfalg.ore import GeneratorInfo, OrePresentation, bracket


def reference_normal_form(p, word):
    """Oracle: rewrite the leftmost inversion of whole words, one branch at a
    time (exponential in the word length, independent of the engine)."""
    acc = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, c = stack.pop()
        pos = next((t for t in range(len(w) - 1) if w[t] > w[t + 1]), None)
        if pos is None:
            add_term(acc, tuple(w.count(i) for i in range(len(p.names))), c)
            continue
        j, i = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        stack.append((head + (i, j) + tail, c))
        for mono, kc in p.kappa.get((j, i), {}).items():
            letters = tuple(g for g, e in enumerate(mono) for _ in range(e))
            stack.append((head + letters + tail, c * kc))
    return acc


def word_of(m):
    return tuple(i for i, e in enumerate(m) for _ in range(e))


def random_element(p, rng, max_degree=3, terms=3):
    monos = p.monomials_up_to(max_degree, include_unit=True)
    out = p.zero()
    for _ in range(terms):
        m = rng.choice(monos)
        out = out + p.monomial(dict(zip(p.names, m))).scale(rng.randint(-3, 3))
    return out


def test_generator_invariants():
    with pytest.raises(InputError):
        GeneratorInfo("X", 0)
    with pytest.raises(InputError):
        GeneratorInfo("X", 2, (1, 0))  # components must sum to the degree
    with pytest.raises(InputError):
        OrePresentation([("X", 1), ("X", 2)])
    with pytest.raises(InputError):
        OrePresentation([("X", 1, (1, 0)), ("Y", 1)])  # all or none bidegrees


def test_commutator_degree_invariant_enforced():
    # [Y,X] = X*Y has weighted degree 2, not below deg X + deg Y
    with pytest.raises(StructuralError):
        OrePresentation([("X", 1), ("Y", 1)],
                        {"Y,X": [(1, {"X": 1, "Y": 1})]})
    with pytest.raises(InputError):
        OrePresentation([("X", 1), ("Y", 1)], {"X,Y": [(1, {"X": 1})]})


@pytest.mark.parametrize("table", [
    {"Z,X": [(1, {"Y": 1})], "Z, X": [(2, {"Y": 1})]},
    {"Z,X": [(1, {"Y": 1})], (2, 0): [(1, {"Y": 1})]},
    {"Z,X": [(1, {"Y": 1})], "Z, X": []},
    {"Z,X": [(0, {"Y": 1})], ("Z", "X"): [(1, {"Y": 1})]}],
    ids=["two-strings", "string-and-indices", "zero-after-nonzero",
         "zero-before-nonzero"])
def test_a_commutator_pair_given_twice_is_rejected(table):
    # each spelling names [Z, X]; keeping either one would drop the other
    with pytest.raises(InputError, match=r"\[Z,X\] is given twice"):
        OrePresentation([("X", 1), ("Y", 1), ("Z", 1)], table)


class _Pairs(list):
    """A commutator table as (key, terms) pairs, so a key may be unhashable."""

    def items(self):
        return iter(self)


@pytest.mark.parametrize("key", [
    (True, False), (1, False), ("Y", ["X"]), (1.0, 0), ("Y", None), 1,
    ("Y", "X", "Z")],
    ids=["bools", "int-and-bool", "unhashable", "float", "none", "int",
         "three-parts"])
def test_a_commutator_key_names_two_generators_or_int_indices(key):
    # a bool is not an index: (True, False) would store [Y, X] under a
    # key that is neither a name nor an index
    with pytest.raises(InputError, match="commutator key"):
        OrePresentation([("X", 1), ("Y", 1), ("Z", 1)],
                        _Pairs([(key, [(1, {"Z": 1})])]))


@pytest.mark.parametrize("mono", [
    (Fraction(3, 2), 0, 0, 0), (1.5, 0, 0, 0), ("a", 0, 0, 0),
    (True, 0, 0, 0), (1.0, 0, 0, 0), (Fraction(1), 0, 0, 0),
    (-1, 0, 0, 0), (1, 0, 0),
    {"X": Fraction(3, 2)}, {"X": 1.5}, {"X": "a"}, {"X": True},
    {"X": False}, {"X": -1}],
    ids=["tuple-fraction", "tuple-float", "tuple-string", "tuple-bool",
         "tuple-integral-float", "tuple-integral-fraction",
         "tuple-negative", "tuple-short", "dict-fraction", "dict-float",
         "dict-string", "dict-true", "dict-false", "dict-negative"])
def test_exponents_must_be_non_negative_ints(K, mono):
    # on both paths of monomial_tuple, and through element, kappa term
    # data and delta term data: 1.5 would build X^1.5 of degree 1.5, a
    # string would raise TypeError and True would be taken as 1.  Each
    # call checks every exponent, after X has been accepted on both
    # paths: a memo of accepted monomials would be keyed by equality, and
    # (True, 0, 0, 0) == (1.0, 0, 0, 0) == (Fraction(1), 0, 0, 0) ==
    # (1, 0, 0, 0), so it would let those through
    gens = K.algebra.generators  # X, Y of degree 1, Z of 2, W of 3
    x = (1, 0, 0, 0)
    p = OrePresentation(gens)
    for seen in (x, {"X": 1}):
        assert p.monomial_tuple(seen) == x
        assert p.element([(1, seen)]).terms == {x: 1}
        assert OrePresentation(gens, {"W,Z": [(1, seen)]}).kappa == {
            (3, 2): {x: 1}}
        assert HopfPresentation(p, {"W": [(1, seen, seen)]}).delta_gen == {
            3: {(x, x): 1}}
    with pytest.raises(InputError):
        p.monomial_tuple(mono)
    with pytest.raises(InputError):
        p.monomial(mono)
    with pytest.raises(InputError):
        p.element([(1, mono)])
    with pytest.raises(InputError):
        OrePresentation(gens, {"W,Z": [(1, mono)]})
    for left, right in ((x, mono), (mono, x)):
        with pytest.raises(InputError):
            HopfPresentation(p, {"W": [(1, left, right)]})


def test_structural_checks_follow_the_exponent_checks(K):
    # valid monomials that break the degree drop or carry a unit factor
    # are StructuralErrors, also after a valid term
    gens = K.algebra.generators
    x = (1, 0, 0, 0)
    p = OrePresentation(gens)
    with pytest.raises(StructuralError, match="weighted degree 6 >= 5"):
        OrePresentation(gens, {"W,Z": [(1, x), (1, {"W": 2})]})
    with pytest.raises(StructuralError, match="unit tensor factor"):
        HopfPresentation(p, {"W": [(1, x, x), (1, (0, 0, 0, 0), x)]})
    with pytest.raises(StructuralError, match="strict degree drop"):
        HopfPresentation(p, {"W": [(1, x, {"W": 1})]})
    with pytest.raises(StructuralError, match="total degree 4 > 3"):
        HopfPresentation(p, {"W": [(1, {"Z": 1}, {"Z": 1})]})


def test_normal_form_in_deformed_family(A100):
    p = A100.algebra
    assert p.normal_form(["Z", "X"]) == p.gen("X") * p.gen("Z") + p.gen("X")


def test_normal_form_commuting_generators(A000):
    p = A000.algebra
    assert p.normal_form(["Y", "X"]) == p.monomial({"X": 1, "Y": 1})


def test_normal_form_in_k_family(K):
    p = K.algebra
    want = (p.monomial({"Z": 1, "W": 1}) + p.gen("W")
            - p.monomial({"X": 1, "Y": 2}))
    assert p.normal_form(["W", "Z"]) == want


def test_normal_form_unknown_generator(A000):
    with pytest.raises(InputError):
        A000.algebra.normal_form(["Q"])


def test_unit_law_on_random_elements(A111):
    p = A111.algebra
    rng = random.Random(7)
    for _ in range(5):
        a = random_element(p, rng)
        assert p.one() * a == a
        assert a * p.one() == a


def test_commutative_product_both_orders(A000):
    p = A000.algebra
    xy = p.monomial({"X": 1, "Y": 1})
    assert p.gen("X") * p.gen("Y") == xy
    assert p.gen("Y") * p.gen("X") == xy


def test_product_in_solvable_family(B0):
    p = B0.algebra
    # [Z,X] = -Z here, so Z*X = X*Z - Z
    assert p.gen("Z") * p.gen("X") == p.monomial({"X": 1, "Z": 1}) - p.gen("Z")


def test_mixed_presentation_product_rejected(A000, B0):
    with pytest.raises(InputError):
        A000.algebra.mul(A000.algebra.gen("X"), B0.algebra.gen("X"))


def test_bracket_examples(K, F010):
    p = K.algebra
    assert bracket(p.gen("X"), p.gen("X")).is_zero()
    assert bracket(p.gen("W"), p.gen("X")) == -p.gen("Z")
    wp = p.gen("W") - p.monomial({"X": 1, "Y": 2}).scale("1/2")
    assert bracket(wp, p.gen("Z")) == wp
    q = F010.algebra
    assert bracket(q.gen("W"), q.gen("Y")) == q.gen("Y")  # gamma = 1


def test_overlap_check_passes_for_k_family(K):
    report = K.algebra.verify_pbw_consistency()
    assert report.passed
    names = [c.name for c in report.checks]
    assert "overlap W*Z*X" in names


def test_overlap_check_passes_for_polynomial_ring():
    p = OrePresentation([("X", 1), ("Y", 1), ("Z", 1)])
    assert p.verify_pbw_consistency().passed


def _corrupted_f():
    """F-family tables with [W,Y] replaced by X: not PBW-consistent."""
    return OrePresentation(
        [("X", 1), ("Y", 1), ("Z", 2), ("W", 3)],
        {"Z,X": [(1, {"Y": 1})],
         "W,X": [(0, {"Y": 1})],
         "W,Y": [(1, {"X": 1})],
         "W,Z": [(1, {"Z": 1}), ("-2/3", {"Y": 3})]})


def test_overlap_check_detects_corrupted_relations():
    # the corrupted F-family tables break the overlap W*Z*Y
    p = _corrupted_f()
    report = p.verify_pbw_consistency()
    assert not report.passed
    failing = {c.name for c in report.failures()}
    assert "overlap W*Z*Y" in failing


def test_pbw_count_examples(K, A000, D01):
    assert K.algebra.pbw_count(0) == 1
    # recount of the degree <= 2 monomials: 1, X, Y, X^2, XY, Y^2, Z
    assert A000.algebra.pbw_count(2) == 7
    # independent enumeration oracle
    degs = D01.algebra.degrees
    for bound in range(0, 13):
        brute = sum(1 for exps in itertools.product(range(bound + 1),
                                                    repeat=len(degs))
                    if sum(e * d for e, d in zip(exps, degs)) <= bound)
        assert D01.algebra.pbw_count(bound) == brute


def _monomial_counts_by_exponent(p, bound, by_bidegree=False):
    """The reference count: x_g^e times each grade counted so far, for
    every exponent e that fits under the bound."""
    if by_bidegree:
        steps, counts = p.bidegrees, {(0, 0): 1}
    else:
        steps, counts = p.degrees, {0: 1}
    for d, step in zip(p.degrees, steps):
        nxt = {}
        for grade, ways in counts.items():
            room = bound - (sum(grade) if by_bidegree else grade)
            for e in range(room // d + 1):
                key = ((grade[0] + e * step[0], grade[1] + e * step[1])
                       if by_bidegree else grade + e * step)
                nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
    return counts


def test_monomial_counts_match_the_count_by_exponent():
    # the per-generator recurrence c[k] += c[k - d] against the loop over
    # every exponent, by degree and (where given) by bidegree, on every
    # catalog algebra; the counts depend on the grading alone, so each
    # grading is checked once
    gradings = {}
    for spec in list_catalog():
        obj = build(spec)
        p = (obj if isinstance(obj, HopfPresentation) else
             enveloping(obj)).algebra
        gradings.setdefault((p.degrees, p.bidegrees), (spec.describe(), p))
    for label, p in gradings.values():
        modes = (False, True) if p.bidegrees else (False,)
        for bound in range(61):
            for by_bidegree in modes:
                assert (p._monomial_counts(bound, by_bidegree)
                        == _monomial_counts_by_exponent(p, bound, by_bidegree)
                        ), (label, bound, by_bidegree)


def test_normal_form_idempotence(K):
    p = K.algebra
    rng = random.Random(3)
    for _ in range(5):
        a = random_element(p, rng)
        # re-render each monomial as a word; must come back unchanged
        out = p.zero()
        for m, c in a.terms.items():
            word = [p.names[i] for i, e in enumerate(m) for _ in range(e)]
            out = out + p.normal_form(word).scale(c)
        assert out == a


def test_degree_filtration_and_top_component(K):
    p = K.algebra
    rng = random.Random(11)
    for _ in range(8):
        a = random_element(p, rng)
        b = random_element(p, rng)
        ab = a * b
        if a.is_zero() or b.is_zero():
            assert ab.is_zero()
            continue
        assert ab.degree is not None and ab.degree <= a.degree + b.degree
    # top components multiply like sorted monomials
    W, Z = p.gen("W"), p.gen("Z")
    top = (W * Z).homogeneous_component(5)
    assert top == p.monomial({"Z": 1, "W": 1})
    monos = p.monomials_up_to(3)
    for m1 in monos:
        for m2 in monos:
            a = p.monomial(dict(zip(p.names, m1)))
            b = p.monomial(dict(zip(p.names, m2)))
            d = p.monomial_degree(m1) + p.monomial_degree(m2)
            sorted_product = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            assert (a * b).homogeneous_component(d).terms == \
                {sorted_product: 1}


@pytest.mark.parametrize("family", ["A111", "B1"])
def test_associativity_exhaustive_low_degree(family, request):
    p = request.getfixturevalue(family).algebra
    monos = p.monomials_up_to(2, include_unit=True)
    elems = [p.monomial(dict(zip(p.names, m))) for m in monos]
    for a, b, c in itertools.product(elems, repeat=3):
        if (a.degree or 0) + (b.degree or 0) + (c.degree or 0) > 6:
            continue
        assert (a * b) * c == a * (b * c)


def test_associativity_random_k_family(K):
    p = K.algebra
    rng = random.Random(5)
    for _ in range(6):
        a, b, c = (random_element(p, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_bracket_jacobi_on_generators(K, E110, B1):
    for h in (K, E110, B1):
        p = h.algebra
        gens = [p.gen(n) for n in p.names]
        for a, b, c in itertools.combinations(gens, 3):
            total = (bracket(bracket(a, b), c) + bracket(bracket(b, c), a)
                     + bracket(bracket(c, a), b))
            assert total.is_zero()


def test_element_rendering(K):
    p = K.algebra
    assert repr(p.zero()) == "0"
    assert repr(p.one()) == "1"
    elt = p.monomial({"X": 2, "Y": 1}) - p.gen("W").scale("1/2")
    assert repr(elt) == "X^2*Y - 1/2*W"


CATALOG = [(spec.describe(), obj.algebra) for spec in list_catalog()
           for obj in [build(spec)] if isinstance(obj, HopfPresentation)]


@st.composite
def presentation_and_monomials(draw):
    label, p = draw(st.sampled_from(CATALOG))
    monos = st.sampled_from(p.monomials_up_to(5, include_unit=True))
    word = draw(st.lists(st.sampled_from(range(len(p.names))), max_size=5))
    while sum(p.degrees[i] for i in word) > 5:
        word.pop()
    return label, p, draw(monos), draw(monos), word


@settings(max_examples=300, deadline=None)
@given(presentation_and_monomials())
def test_products_match_word_rewriting_oracle(case):
    label, p, a, b, word = case
    assert p.mul_monomials(a, b) == reference_normal_form(
        p, word_of(a) + word_of(b)), label
    names = [p.names[i] for i in word]
    assert p.normal_form(names).terms == reference_normal_form(p, word), label


@pytest.mark.parametrize("make", [make_K, lambda: make_D(*[1] * 8),
                                  lambda: make_F(0, 1, 0)],
                         ids=["K", "D(1,...,1)", "F(0,1,0)"])
def test_associativity_exhaustive_monomials_degree_4(make):
    p = make().algebra
    monos = p.monomials_up_to(4, include_unit=True)
    for a, b, c in itertools.product(monos, repeat=3):
        left, right = {}, {}
        for t, ct in p.mul_monomials(a, b).items():
            add_scaled(left, p.mul_monomials(t, c), ct)
        for t, ct in p.mul_monomials(b, c).items():
            add_scaled(right, p.mul_monomials(a, t), ct)
        assert left == right, (a, b, c)


def _expire(signum, frame):
    raise TimeoutError("PBW product exceeded its time budget")


@pytest.mark.parametrize("k", [6, 10])
def test_d_product_scales_polynomially(k):
    # whole-word rewriting needed 84 s already at k = 5; the memoised
    # recursion takes well under a second at k = 10
    p = make_D(*[1] * 8).algebra
    a = p.monomial_tuple({"W": k, "Z": k})
    b = p.monomial_tuple({"X": k, "Y": k})
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        product = p.mul_monomials(a, b)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(product) == (k + 1) ** 2
    assert product[p.monomial_tuple({"X": k, "Y": k, "Z": k, "W": k})] == 1


def test_k_coproduct_at_four_stays_within_budget():
    # Delta(W^4 Z^4 X^4 Y^4) in K: X^4 and Y^4 leave as shifted binomial
    # blocks; about 0.3 s on a 2-core machine
    h = make_K()
    mono = h.algebra.monomial({"W": 4, "Z": 4, "X": 4, "Y": 4})
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        tensor = h.coproduct(mono)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(tensor.terms) == 43186
    unit = h.algebra.unit_monomial
    for side in (0, 1):
        assert {t[1 - side]: c for t, c in tensor.terms.items()
                if t[side] == unit} == mono.terms


def test_generator_products_are_cached_per_presentation():
    p, q = make_K().algebra, make_K().algebra
    w, x = p.index["W"], p.index["X"]
    xy = p.monomial_tuple({"X": 1, "Y": 1})
    first = p._gen_times(w, xy)
    assert (w, xy) in p._gen_cache and p._gen_times(w, xy) is first
    assert not q._gen_cache and q._gen_cache is not p._gen_cache
    assert q._gen_times(w, xy) == first and q._gen_times(w, xy) is not first
    # a generator that precedes every letter of m needs no rewriting
    assert p._gen_times(x, xy) == {p.monomial_tuple({"X": 2, "Y": 1}): 1}
    # nor one that commutes with every earlier letter of m: Z (X Y) in D
    r = make_D(*[1] * 8).algebra
    z, rxy = r.index["Z"], r.monomial_tuple({"X": 1, "Y": 1})
    assert r._gen_times(z, rxy) == {r.monomial_tuple({"X": 1, "Y": 1, "Z": 1}): 1}
    assert not r._gen_cache
    # products cache only the pair asked for, not intermediate pairs
    p.mul_monomials(p.monomial_tuple({"W": 2, "Z": 1}), xy)
    assert list(p._mul_cache) == [(p.monomial_tuple({"W": 2, "Z": 1}), xy)]


def _spy_gen_times(monkeypatch, p):
    """Record the generator index j of every `_gen_times(j, m)` call on p,
    the recursion's own calls included."""
    calls = []
    gen_times = p._gen_times

    def spy(j, m):
        calls.append(j)
        return gen_times(j, m)

    monkeypatch.setattr(p, "_gen_times", spy)
    return calls


def test_a_letter_with_no_blockers_never_reaches_gen_times(monkeypatch):
    # in D every commutator is [W, .], so W is the only letter with
    # blockers: X, Y and Z slide into the accumulator with no call
    p = make_D(*[1] * 8).algebra
    w = p.index["W"]
    assert {j for j, _ in p.kappa} == {w}
    calls = _spy_gen_times(monkeypatch, p)
    for a, b, c, d in itertools.product(range(3), repeat=4):
        left = p.monomial_tuple({"W": a, "Z": b})
        right = p.monomial_tuple({"X": c, "Y": d})
        got = p.mul_monomials(left, right)
        assert got == reference_normal_form(p, word_of(left) + word_of(right))
    assert calls and set(calls) == {w}


def test_polynomial_algebra_words_never_reach_gen_times(monkeypatch):
    # k[X, Y, Z]: no commutator, so every letter of every word is a free
    # slide, and the generator cache stays empty
    p = OrePresentation([("X", 1), ("Y", 1), ("Z", 1)])
    calls = _spy_gen_times(monkeypatch, p)
    for length in range(5):
        for word in itertools.product(p.names, repeat=length):
            got = p.normal_form(word)
            want = tuple(word.count(name) for name in p.names)
            assert [(m, type(c), c) for m, c in got.terms.items()] == [
                (want, int, 1)]
    assert not calls and not p._gen_cache


def _commuting_pairs(p, bound):
    """Pairs (a, b) of monomials in which no letter x_j of a meets a letter
    x_i of b, i < j, with [x_j, x_i] != 0 in the public table; the sorted
    pairs, where no letter of b precedes the last letter of a, are among
    them."""
    monos = p.monomials_up_to(bound, include_unit=True)
    for a, b in itertools.product(monos, repeat=2):
        if not any(a[j] and b[i] and p.kappa.get((j, i))
                   for j in range(len(a)) for i in range(j)):
            yield a, b


def test_commuting_products_match_word_rewriting_oracle():
    algebras = [h.algebra for h in map(build, list_catalog())
                if isinstance(h, HopfPresentation)] + [_corrupted_f()]
    for p in algebras:
        for a, b in _commuting_pairs(p, 3):
            got = p.mul_monomials(a, b)
            assert got == reference_normal_form(p, word_of(a) + word_of(b))
            assert [(m, type(c)) for m, c in got.items()] == [
                (tuple(x + y for x, y in zip(a, b)), int)]


def test_sorted_product_miss_skips_rewriting(monkeypatch):
    p = make_K().algebra
    calls = []
    left_mul = p._left_mul

    def spy(letters, terms):
        calls.append(terms)
        return left_mul(letters, terms)

    monkeypatch.setattr(p, "_left_mul", spy)
    pairs = list(_commuting_pairs(p, 3))
    assert len(pairs) > 100
    # Y X is not sorted, but [Y, X] = 0 in K
    y_x = (p.monomial_tuple({"Y": 1}), p.monomial_tuple({"X": 1}))
    assert y_x in pairs
    for a, b in pairs:
        p.mul_monomials(a, b)
    assert not calls and set(p._mul_cache) == set(pairs)
    # a pair that meets a blocker (X of W) still folds the letters of a into b
    x, w = p.monomial_tuple({"X": 1}), p.monomial_tuple({"W": 1})
    p.mul_monomials(w, x)
    assert calls[0] == {x: 1}


def test_a_commuting_pair_never_reaches_mul_monomials_in_bracket(
        monkeypatch):
    # in D every commutator is [W, .]: a pair of terms with no W meeting
    # a letter it does not commute with has a zero share of a*b - b*a and
    # takes no product, in either slot of a tensor
    p = make_D(*[1] * 8).algebra
    x, y, z, w = (p.monomial_tuple({name: 1}) for name in "XYZW")
    xz, y2 = p.monomial_tuple({"X": 1, "Z": 1}), p.monomial_tuple({"Y": 2})
    assert p.kappa.get((3, 0))
    calls = []
    mul = p.mul_monomials

    def spy(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(p, "mul_monomials", spy)
    a = p.element({xz: 2, y2: Fraction(1, 2), w: 1})
    b = p.element({y: 3, z: -1, x: 1})
    assert bracket(a, b) == a * b - b * a
    pairs = {(m, n) for m in a.terms for n in b.terms
             if any(m[j] and n[i] or n[j] and m[i]
                    for (j, i) in p.kappa)}
    assert pairs and pairs <= {(w, x), (w, y), (w, z)}
    calls.clear()
    bracket(a, b)
    assert set(calls) == pairs | {(n, m) for m, n in pairs}
    s = TensorElement(p, 2, {(x, w): 1, (y, y): 1})
    t = TensorElement(p, 2, {(z, x): 1})
    calls.clear()
    assert bracket(s, t) == s * t - t * s
    calls.clear()
    bracket(s, t)
    assert set(calls) == {(x, z), (z, x), (w, x), (x, w)}
    calls.clear()
    assert bracket(TensorElement(p, 2, {(xz, y2): 1}), t).is_zero()
    assert not calls


def test_normal_form_and_products_store_integral_sums_as_ints():
    # in F(0, 1, 5) the X Y^5 coefficient of this word sums Fractions to
    # -14; normal_form, mul and the kept products all store it as an int
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # off-normalization parameters
        p = make_F(0, 1, 5).algebra
    word = ["W", "Y", "Y", "W", "W", "X", "Z"]
    got = p.normal_form(word)
    assert [(type(c), c) for m, c in got.terms.items()
            if m == p.monomial_tuple({"X": 1, "Y": 5})] == [(int, -14)]
    product = p.one()
    for name in word:
        product = product * p.gen(name)
    for element in (got, product):
        assert not [c for c in element.terms.values()
                    if type(c) is Fraction and c.denominator == 1]
    assert product == got


def _typed_items(terms):
    return [(m, type(c), c) for m, c in terms.items()]


def _fresh(p):
    """A new presentation on the table of p, with empty caches."""
    return OrePresentation(p.generators,
                           {pair: dict(t) for pair, t in p.kappa.items()})


@st.composite
def small_tables(draw, coeff=st.sampled_from([1, -1, 2, Fraction(1, 2),
                                              Fraction(-3, 2)])):
    """Three or four generators of degree 1 or 2 and a random commutator
    table whose terms mix single letters, longer words and constants,
    with coefficients drawn from ``coeff``."""
    degrees = sorted(draw(st.lists(st.sampled_from([1, 1, 2]),
                                   min_size=3, max_size=4)))
    gens = [(f"G{g}", d) for g, d in enumerate(degrees)]
    base = OrePresentation(gens)
    table = {}
    for j in range(len(gens)):
        for i in range(j):
            below = base.monomials_up_to(degrees[i] + degrees[j] - 1,
                                         include_unit=True)
            terms = draw(st.dictionaries(st.sampled_from(below), coeff,
                                         max_size=3))
            if terms:
                table[(j, i)] = terms
    return OrePresentation(gens, table)


_RECURSION_TABLES = [p for _, p in CATALOG] + [_corrupted_f()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(_RECURSION_TABLES), small_tables()),
       st.data())
def test_gen_times_is_its_defining_expansion(table, data):
    # y_j y_i m' = y_i (y_j m') + kappa_ji m' in the scaled basis, over the
    # scaled table _kappa, every kappa term folded by _left_mul on its
    # own: the fold plan writes the same keys, in the same order, with the
    # same scalar types, on every table, and every value is an int
    p = _fresh(table)
    blocked = [j for j in range(len(p.names)) if p._blockers[j]]
    assume(blocked)
    j = data.draw(st.sampled_from(blocked))
    m = data.draw(st.sampled_from([
        m for m in p.monomials_up_to(4) if any(m[i] for i in p._blockers[j])]))
    i = next(i for i, e in enumerate(m) if e)
    rest = m[:i] + (m[i] - 1,) + m[i + 1:]
    want = p._left_mul((i,), p._gen_times(j, rest))
    for mono, kc in p._kappa.get((j, i), {}).items():
        add_scaled(want, p._left_mul(p._letters(mono), {rest: kc}))
    got = p._gen_times(j, m)
    assert _typed_items(got) == _typed_items(want)
    assert all(type(c) is int for c in got.values())


def _spy_left_mul(monkeypatch, p):
    """Record (letters, terms) of every `_left_mul` call on p."""
    calls = []
    left_mul = p._left_mul

    def spy(letters, terms):
        letters = tuple(letters)
        calls.append((letters, dict(terms)))
        return left_mul(letters, terms)

    monkeypatch.setattr(p, "_left_mul", spy)
    return calls


def test_a_one_letter_kappa_term_is_one_generator_step(monkeypatch):
    # every commutator of D is linear, so a cold product folds the
    # letters of a into b once and no kappa term reaches _left_mul
    p = make_D(*[1] * 8).algebra
    assert all(sum(mono) == 1 for terms in p.kappa.values() for mono in terms)
    calls = _spy_left_mul(monkeypatch, p)
    a = p.monomial_tuple({"W": 3, "Z": 3})
    b = p.monomial_tuple({"X": 3, "Y": 3})
    got = p.mul_monomials(a, b)
    assert calls == [(tuple(p._letters(a)), {b: 1})]
    assert got == reference_normal_form(p, word_of(a) + word_of(b))
    # K's [W, Z] = W - X Y^2: the X Y^2 term still folds its letters
    q = make_K().algebra
    w, z = q.index["W"], q.index["Z"]
    xy2 = q.monomial_tuple({"X": 1, "Y": 2})
    calls = _spy_left_mul(monkeypatch, q)
    q._gen_times(w, q.letter(z))
    assert calls == [(tuple(q._letters(xy2)), {q.unit_monomial: -1})]


def _plain_gen_times(p, j, m, memo):
    """Oracle: x_j m over the x table kappa in Fraction arithmetic, with no
    scaling, fold plan or shortcut past the recursion itself: m + e_j when
    no letter of m has kappa_ji != 0, else x_i (x_j m') + kappa_ji m' for
    the first generator x_i of m = x_i m', every kappa term folded on its
    own in table order; memoised in ``memo``."""
    if (j, m) not in memo:
        if not any(m[i] and (j, i) in p.kappa for i in range(j)):
            return {m[:j] + (m[j] + 1,) + m[j + 1:]: Fraction(1)}
        i = next(i for i, e in enumerate(m) if e)
        rest = m[:i] + (m[i] - 1,) + m[i + 1:]
        out = _plain_left_mul(p, [i], _plain_gen_times(p, j, rest, memo), memo)
        for mono, kc in p.kappa.get((j, i), {}).items():
            add_scaled(out, _plain_left_mul(p, _right_to_left(mono),
                                            {rest: Fraction(kc)}, memo))
        memo[(j, m)] = out
    return memo[(j, m)]


def _plain_left_mul(p, letters, terms, memo):
    """Oracle: x_{l_k} ... x_{l_1} * terms by `_plain_gen_times`."""
    for j in letters:
        nxt = {}
        for m, c in terms.items():
            add_scaled(nxt, _plain_gen_times(p, j, m, memo), c)
        terms = nxt
    return terms


def _right_to_left(m):
    return [i for i in reversed(range(len(m))) for _ in range(m[i])]


def _canonical(terms):
    """(key, type, value) of each term, in key order, a Fraction with
    denominator 1 taken as its int."""
    return _typed_items({k: c.numerator if c.denominator == 1 else c
                         for k, c in terms.items()})


def _plain_overlaps(p, memo):
    """Oracle: the rows of ``verify_pbw_consistency`` from the two
    resolutions of each overlap x_k x_j x_i by the Fraction recursion, as
    (name, passed, typed witness)."""
    n, unit = len(p.names), p.unit_monomial
    rows = []
    for k, j, i in ((k, j, i) for k in range(n) for j in range(k)
                    for i in range(j)):
        x_i = p.letter(i)
        first = _plain_left_mul(p, (k, j), {x_i: Fraction(1)}, memo)
        for mono, kc in p.kappa.get((k, j), {}).items():
            add_scaled(first, _plain_left_mul(p, _right_to_left(mono),
                                              {x_i: Fraction(kc)}, memo))
        second = _plain_left_mul(p, (j, i, k), {unit: Fraction(1)}, memo)
        for mono, c in p.kappa.get((j, i), {}).items():
            add_scaled(second, _plain_gen_times(p, k, mono, memo), c)
        diff = add_scaled(first, second, -1)
        rows.append((f"overlap {p.names[k]}*{p.names[j]}*{p.names[i]}",
                     not diff, _canonical(diff) if diff else None))
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_tables(st.fractions(-4, 4, max_denominator=6)), st.data())
def test_scaled_rewriting_matches_a_fraction_recursion(p, data):
    # every exit of the int recursion in the scaled basis (a product miss,
    # a normal form, the PBW report with its failing overlaps' witnesses)
    # equals the recursion over the x table in Fraction arithmetic: the
    # same values, scalar types and key order
    memo = {}
    monos = p.monomials_up_to(3, include_unit=True)
    a, b = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
    assert _typed_items(p.mul_monomials(a, b)) == _canonical(_plain_left_mul(
        p, _right_to_left(a), {b: Fraction(1)}, memo))
    word = data.draw(st.lists(st.sampled_from(range(len(p.names))),
                              max_size=4))
    assert _typed_items(p.normal_form([p.names[g] for g in word]).terms) == (
        _canonical(_plain_left_mul(p, reversed(word),
                                   {p.unit_monomial: Fraction(1)}, memo)))
    rows = [(c.name, c.passed,
             None if c.witness is None else _typed_items(c.witness.terms))
            for c in p.verify_pbw_consistency().checks]
    assert rows == _plain_overlaps(p, memo)

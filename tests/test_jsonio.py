import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfalg.catalog import (FamilySpec, build, family_parameter_names,
                             list_catalog, make_cla_a, make_cla_b, make_F,
                             make_lie)
from hopfalg.cla import CLA, enveloping
from hopfalg.errors import InputError
from hopfalg.jsonio import (cla_from_json, cla_to_json, element_to_terms,
                            load_object, presentation_from_json,
                            presentation_to_json)


def test_presentation_round_trip(K):
    data = presentation_to_json(K)
    back = presentation_from_json(data)
    assert back.algebra.names == K.algebra.names
    assert back.algebra.degrees == K.algebra.degrees
    assert back.algebra.kappa == K.algebra.kappa
    assert back.delta_gen == K.delta_gen


def test_presentation_schema_shape(A100):
    data = presentation_to_json(A100)
    assert data["generators"][0] == {"name": "X", "degree": 1,
                                     "bidegree": [1, 0]}
    assert data["commutators"]["Z,X"] == [{"coeff": "1", "monomial": {"X": 1}}]
    assert {"coeff": "1", "left": {"X": 1}, "right": {"Y": 1}} \
        in data["coproducts"]["Z"]


def test_omitted_tables_mean_trivial_structure():
    h = presentation_from_json(
        {"generators": [{"name": "X", "degree": 1},
                        {"name": "Y", "degree": 1}]})
    assert h.algebra.kappa == {}
    assert h.delta_gen == {}


def test_cla_round_trip():
    L = make_cla_b("4/3")
    data = cla_to_json(L)
    assert data["dim"] == 3
    assert cla_from_json(data) == L
    assert cla_from_json(json.loads(json.dumps(data))) == L


def _typed(table):
    """A nested coefficient table with each scalar paired with its type."""
    return {key: {k: (c, type(c)) for k, c in terms.items()}
            for key, terms in table.items()}


def _tables(h):
    """kappa term by term with its fold plan, the blockers and delta_gen of
    h, each value with its type, in key order."""
    a = h.algebra
    kappa = [(pair, [(m, c, type(c), word, kc, type(kc)) for (m, c), (word, kc)
                     in zip(terms.items(), a._kappa_folds[pair], strict=True)])
             for pair, terms in a.kappa.items()]
    delta = [(g, [(t, c, type(c)) for t, c in terms.items()])
             for g, terms in h.delta_gen.items()]
    return kappa, a._blockers, delta


def _in_json_order(h, tables):
    """``tables`` of h in the order presentation_to_json writes them:
    pairs and generators by index, terms by canonical monomial order."""
    key = h.algebra.monomial_key
    kappa, blockers, delta = tables
    return (sorted((pair, sorted(terms, key=lambda t: key(t[0])))
                   for pair, terms in kappa),
            blockers,
            sorted((g, sorted(terms, key=lambda t: (key(t[0][0]),
                                                    key(t[0][1]))))
                   for g, terms in delta))


def _assert_presentation_round_trip(h):
    """h equals its rebuild from JSON, which takes the {name: exp} path:
    generators, kappa, fold plans, blockers and delta_gen in values, value
    types and key order.  presentation_to_json writes its terms in
    canonical order, so the rebuild's key order is compared with h's in
    that order; h's own table order is pinned by the catalog_tables
    golden (tests/test_catalog.py)."""
    back = presentation_from_json(
        json.loads(json.dumps(presentation_to_json(h))))
    assert back.algebra.generators == h.algebra.generators
    assert back.algebra.names == h.algebra.names
    assert _tables(back) == _in_json_order(h, _tables(h))


CATALOG = [(s.describe(), build(s)) for s in list_catalog()]


@pytest.mark.parametrize("obj", [o for _, o in CATALOG],
                         ids=[name for name, _ in CATALOG])
def test_catalog_round_trips(obj):
    # every Hopf entry and the envelope of every CLA; every CLA itself
    if isinstance(obj, CLA):
        back = cla_from_json(json.loads(json.dumps(cla_to_json(obj))))
        assert back.names == obj.names
        assert _typed(back.brackets) == _typed(obj.brackets)
        assert _typed(back.delta) == _typed(obj.delta)
        obj = enveloping(obj)
    _assert_presentation_round_trip(obj)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from("DEF"), st.lists(st.fractions(
    min_value=-4, max_value=4, max_denominator=4), min_size=8, max_size=8))
def test_seeded_families_equal_their_name_exponent_rebuild(tag, values):
    # D, E and F at seeded rational parameters: the compiled term shapes
    # against the {name: exp} path of the JSON reader
    names = family_parameter_names(tag)
    assume(tag != "D" or values[0] or values[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # F outside its normalized classes
        h = build(FamilySpec(tag, dict(zip(names, values))))
    _assert_presentation_round_trip(h)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.lists(st.fractions(
    min_value=-4, max_value=4, max_denominator=4), min_size=9, max_size=9))
def test_random_envelopes_round_trip(kind, entries):
    # U(k^3 x| k) with [t, e_i] = sum_j a_ji e_j, or U(L) of a CLA of
    # family a or b
    if kind == 0:
        h = make_lie(["e0", "e1", "e2", "t"],
                     {(3, i): {j: entries[3 * i + j] for j in range(3)}
                      for i in range(3)})
    else:
        h = enveloping(make_cla_a(*entries[:3]) if kind == 1
                       else make_cla_b(entries[0]))
    _assert_presentation_round_trip(h)


def test_cla_schema_shape():
    data = cla_to_json(make_cla_b(0))
    assert data["brackets"]["0,1"] == [{"coeff": "1", "basis": 1}]
    assert {"coeff": "1", "left": 0, "right": 1} in data["delta"]["2"]


def test_element_terms(K):
    p = K.algebra
    elt = p.monomial({"X": 1, "Y": 2}).scale("-1/2") + p.gen("W")
    assert element_to_terms(elt) == [
        {"coeff": "-1/2", "monomial": {"X": 1, "Y": 2}},
        {"coeff": "1", "monomial": {"W": 1}},
    ]


def test_load_object_dispatch(tmp_path, K):
    pres = tmp_path / "k.json"
    pres.write_text(json.dumps(presentation_to_json(K)))
    assert load_object(str(pres)).algebra.names == K.algebra.names
    cla = tmp_path / "b.json"
    cla.write_text(json.dumps(cla_to_json(make_cla_b(1))))
    assert load_object(str(cla)) == make_cla_b(1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"foo": 1}))
    with pytest.raises(InputError):
        load_object(str(bad))
    notdict = tmp_path / "arr.json"
    notdict.write_text("[1,2]")
    with pytest.raises(InputError):
        load_object(str(notdict))


def test_malformed_presentation_rejected():
    with pytest.raises(InputError):
        presentation_from_json({"generators": [{"degree": 1}]})
    with pytest.raises(InputError):
        cla_from_json({"dim": 2, "basis": ["x"]})


def test_presentation_round_trip_keeps_scalar_types():
    # F(0,1,5): integral coefficients (1, 5, -1) and a proper fraction -2/3
    h = make_F(0, 1, 5)
    text = json.dumps(presentation_to_json(h), sort_keys=True)
    back = presentation_from_json(json.loads(text))
    assert back.algebra.kappa == h.algebra.kappa
    assert back.delta_gen == h.delta_gen
    assert json.dumps(presentation_to_json(back), sort_keys=True) == text
    coeffs = [c for terms in back.algebra.kappa.values()
              for c in terms.values()]
    coeffs += [c for terms in back.delta_gen.values() for c in terms.values()]
    assert Fraction(-2, 3) in coeffs and 5 in coeffs
    for c in coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction)
    assert '"coeff": "-2/3"' in text and '"coeff": "5"' in text

"""The scalar contract: an integral scalar is an ``int``, a proper fraction
a ``Fraction``, and no float (or bool) ever reaches a coefficient."""

import io
import itertools
import tokenize
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hopfalg import Scalar
from hopfalg.catalog import build, list_catalog, make_D
from hopfalg.cla import CLA, enveloping, kernel_delta, lantern_of_cla
from hopfalg.cobar import build_complex
from hopfalg.errors import StructuralError
from hopfalg.exactlin import (P, Matrix, _reconstruct, express, quotient,
                              scalar)
from hopfalg.hopf import HopfPresentation
from hopfalg.structure import (coradical_filtration, extract_cla,
                               lantern_of_hopf, p2_space)

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfalg"


def test_no_division_outside_the_quotient_helper():
    # int / int is a float; every division of scalars goes through
    # exactlin.quotient, which divides without the operator
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.OP and tok.string in ("/", "/="):
                found.append(f"{path.name}:{tok.start[0]}: {tok.line.strip()}")
    assert found == []


def _assert_scalars(values, where):
    # a sparse vector iterates over its int keys, which would pass
    # unchecked: hand over its .values()
    if isinstance(values, Mapping):
        raise TypeError(f"{where}: pass the values of a sparse vector")
    # type(), not isinstance: a bool is an int but not a scalar
    bad = [(v, type(v).__name__) for v in values
           if type(v) not in (int, Fraction)]
    assert not bad, (where, bad[:3])


def _walk_linear_algebra(h: HopfPresentation, cx, where):
    """kernel_basis, express, the P2 and coradical bases, extract_cla and
    the lantern."""
    for vec in cx.d1.kernel_basis():
        _assert_scalars(vec.values(), f"{where}: d1 kernel")
    for b in p2_space(h).basis:
        _assert_scalars(b.terms.values(), f"{where}: p2 basis")
    for b in coradical_filtration(h, 2).basis:
        _assert_scalars(b.terms.values(), f"{where}: coradical basis")
    reduced, _ = cx.d2.row_echelon()
    for row in reduced:
        _assert_scalars(row.values(), f"{where}: d2 RREF")
    # some d1 columns over all of them, and a target outside them
    columns = cx.d1.columns()
    for coords in express(columns, columns[:8] + [{0: 1}])[0]:
        if coords is not None:
            _assert_scalars(coords.values(), f"{where}: express")
    try:
        L = extract_cla(h)
    except StructuralError:
        L = None
    if L is not None:
        _assert_cla(L, f"{where}: extract_cla")
    lantern = lantern_of_hopf(h)
    for terms in lantern.brackets.values():
        _assert_scalars(terms.values(), f"{where}: lantern")


def _assert_cla(L: CLA, where):
    for terms in L.brackets.values():
        _assert_scalars(terms.values(), f"{where} brackets")
    for terms in L.delta.values():
        _assert_scalars(terms.values(), f"{where} delta")


def _walk_hopf(h: HopfPresentation, where):
    p = h.algebra
    for terms in p.kappa.values():
        _assert_scalars(terms.values(), f"{where}: commutators")
    for name in p.names:
        _assert_scalars(h.coproduct(p.gen(name)).terms.values(),
                        f"{where}: coproduct of {name}")
    for m in p.monomials_up_to(4, include_unit=True):
        mono = p.monomial(m)
        _assert_scalars(h.coproduct(mono).terms.values(),
                        f"{where}: coproduct of {m}")
        _assert_scalars(h.antipode(mono).terms.values(),
                        f"{where}: antipode of {m}")
    # the d1 / d2 matrices h2_report(h, 4) eliminates
    cx = build_complex(h, 4)
    _assert_scalars(cx.d1.entries.values(), f"{where}: d1")
    _assert_scalars(cx.d2.entries.values(), f"{where}: d2")
    return cx


def test_every_catalog_scalar_is_an_int_or_a_fraction():
    # the linear algebra runs twice: on the certified RREF and on the
    # exact elimination it falls back to
    for spec in list_catalog():
        obj = build(spec)
        where = spec.describe()
        if isinstance(obj, HopfPresentation):
            cx = _walk_hopf(obj, where)
            _walk_linear_algebra(obj, cx, where)
            with mock.patch.object(Matrix, "_certified_rref",
                                   lambda self: None):
                _walk_linear_algebra(obj, cx, f"{where} (fallback)")
            continue
        _assert_cla(obj, where)
        for vec in kernel_delta(obj):
            _assert_scalars(vec.values(), f"{where}: ker delta")
        if obj.is_anti_cocommutative():
            for terms in lantern_of_cla(obj).brackets.values():
                _assert_scalars(terms.values(), f"{where}: lantern")
        try:
            env = enveloping(obj)
        except StructuralError:
            continue
        _walk_hopf(env, f"U({where})")


def test_no_cache_keeps_an_integral_fraction():
    # a sum or product of Fractions can come out integral; every product,
    # coproduct and antipode cache stores such a value as an int, and the
    # generator cache of the rewriting recursion, which works in the basis
    # scaled to clear kappa's denominators, holds ints alone.  The
    # parameters are the pbw benchmark's seed-11 D.
    h = make_D(Fraction(3, 2), 1, Fraction(-1, 6), Fraction(-5, 2), -1, 1,
               Fraction(-9, 2), Fraction(8, 9))
    p = h.algebra
    for a, b, c, d in itertools.product(range(1, 4), repeat=4):
        p.monomial({"W": a, "Z": b}) * p.monomial({"X": c, "Y": d})
    # the certified antipode check takes S on few monomials, so S is taken
    # on every one of degree <= 6, and the degree loop fills Delta and the
    # row products as the check did before it was certified
    for m in p.monomials_up_to(6, include_unit=True):
        h.antipode(p.monomial(m))
    assert h.verify_antipode(6).passed
    assert h._antipode_loop(6).passed
    assert p._scale > 1 and p._gen_cache
    assert all(type(v) is int for vec in p._gen_cache.values()
               for v in vec.values())
    caches = {
        "_mul_cache": p._mul_cache.values(),
        "_coproduct_cache": [t.terms for t in h._coproduct_cache.values()],
        "_reduced_cache": h._reduced_cache.values(),
        "_antipode_cache": [e.terms for e in h._antipode_cache.values()],
    }
    for name, vectors in caches.items():
        values = [v for vec in vectors for v in vec.values()]
        _assert_scalars(values, name)
        assert any(type(v) is Fraction for v in values), name
        integral = [v for v in values
                    if type(v) is Fraction and v.denominator == 1]
        assert integral == [], (name, len(integral), len(values))


integral = st.integers(-10**30, 10**30)
fractions = st.fractions(max_denominator=10**6)


@settings(max_examples=300)
@given(st.one_of(
    integral, fractions, integral.map(Fraction), integral.map(str),
    fractions.map(str),
    st.tuples(integral, st.integers(1, 50)).map(
        lambda t: f"{t[0] * t[1]}/{t[1]}")))
def test_scalar_is_an_int_exactly_when_integral(value):
    s = scalar(value)
    assert s == Fraction(value)
    if Fraction(value).denominator == 1:
        assert type(s) is int
    else:
        assert type(s) is Fraction and s.denominator > 1


def test_scalar_returns_ints_for_integral_values():
    assert type(scalar(Fraction(6, 3))) is int
    assert type(scalar("-0")) is int
    assert isinstance(scalar(Fraction(-1, 2)), Scalar)


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0])
def test_scalar_refuses_bools_and_floats(value):
    # a JSON true or 0.5 is not an exact rational, though bool is an int
    with pytest.raises(TypeError):
        scalar(value)


@settings(max_examples=300)
@given(st.one_of(integral, fractions),
       st.one_of(integral, fractions).filter(bool))
def test_quotient_is_exact(a, b):
    q = quotient(a, b)
    assert q * b == a
    assert type(q) is (int if Fraction(a, b).denominator == 1 else Fraction)


def test_quotient_of_ints():
    assert quotient(6, 3) == 2 and type(quotient(6, 3)) is int
    assert quotient(1, 2) == Fraction(1, 2)
    assert quotient(-1, 3) == Fraction(-1, 3)
    with pytest.raises(ZeroDivisionError):
        quotient(1, 0)


def test_reconstruct_returns_ints_for_integral_residues():
    for x, want in ((5, 5), (P - 3, -3), (0, 0)):
        q = _reconstruct(x)
        assert q == want and type(q) is int
    half = _reconstruct(pow(2, -1, P))
    assert half == Fraction(1, 2) and type(half) is Fraction
    minus_third = _reconstruct(P - pow(3, -1, P))
    assert minus_third == Fraction(-1, 3)


def test_str_prints_ints_and_fractions_alike():
    assert str(3) == str(Fraction(3)) == "3"
    assert str(-3) == str(Fraction(-6, 2)) == "-3"
    assert str(0) == str(Fraction(0)) == "0"
    assert str(Fraction(-3, 4)) == "-3/4"
    assert str(scalar("6/8")) == "3/4"


def test_assert_scalars_refuses_a_whole_sparse_vector():
    # iterating a sparse vector yields its int keys, not its scalars
    with pytest.raises(TypeError):
        _assert_scalars({0: 0.5}, "vector")
    with pytest.raises(AssertionError):
        _assert_scalars({0: 0.5}.values(), "values")

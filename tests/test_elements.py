"""Laws of the shared element arithmetic on a catalog presentation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfalg.catalog import make_A, make_K
from hopfalg.errors import InputError
from hopfalg.hopf import TensorElement
from hopfalg.ore import AlgebraElement

K = make_K()
P = K.algebra
MONOS = P.monomials_up_to(3, include_unit=True)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
monomials = st.sampled_from(MONOS)
algebra_elements = st.dictionaries(monomials, coefficients, max_size=6).map(
    lambda terms: AlgebraElement(P, terms))
tensor_elements = st.dictionaries(st.tuples(monomials, monomials),
                                  coefficients, max_size=6).map(
    lambda terms: TensorElement(P, 2, terms))
elements = st.one_of(algebra_elements, tensor_elements)
pairs = st.one_of(st.tuples(algebra_elements, algebra_elements),
                  st.tuples(tensor_elements, tensor_elements))


@given(pairs)
def test_subtraction_undoes_addition(pair):
    a, b = pair
    assert (a + b) - b == a
    assert (a - a).is_zero()


@given(pairs)
def test_equal_elements_hash_equal(pair):
    # b + a lists its terms in another order than a does
    a, b = pair
    same = (b + a) - b
    assert same == a and hash(same) == hash(a)


@given(elements)
def test_double_negation_and_scaling(a):
    assert -(-a) == a
    assert a.scale(-1) == -a
    assert Fraction(2) * a == a + a


def test_algebra_element_never_equals_tensor_element():
    assert P.zero() != TensorElement(P, 2, {})
    x = P.gen("X")
    assert x != TensorElement(P, 1, {(m,): c for m, c in x.terms.items()})


def test_rank_mismatch_and_mixed_operands_raise_input_error():
    u = P.unit_monomial
    s = TensorElement(P, 2, {(u, u): 1})
    t = TensorElement(P, 3, {(u, u, u): 1})
    other = make_A(0, 0, 0).algebra
    for left, right in [(s, t), (P.gen("X"), other.gen("X")),
                        (s, TensorElement(other, 2, {})), (P.gen("X"), s)]:
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(InputError):
                op(left, right)
    with pytest.raises(InputError):
        s * t

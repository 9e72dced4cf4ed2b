from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfalg.errors import InputError
from hopfalg.exactlin import (Matrix, add_scaled, add_term, express,
                              format_scalar, in_span, reduce_to_basis, scalar)

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


def test_scalar_parsing_and_formatting():
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar("-7") == Fraction(-7)
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(Fraction(8, 2)) == "4"
    with pytest.raises(TypeError):
        scalar(0.5)
    for bad in ("1/0", "abc"):
        with pytest.raises(InputError):
            scalar(bad)


@given(rationals, rationals)
def test_scalar_sum_matches_cross_multiplication(a, b):
    s = a + b
    # reconstruct through big-integer cross multiplication
    p = a.numerator * b.denominator + b.numerator * a.denominator
    q = a.denominator * b.denominator
    assert s.numerator * q == p * s.denominator
    assert s.denominator > 0
    from math import gcd
    assert gcd(abs(s.numerator), s.denominator) == 1


def test_kernel_of_zero_map():
    m = Matrix.from_rows([[0]])
    assert m.kernel_basis() == [[Fraction(1)]]


def test_kernel_of_identity_is_empty():
    assert Matrix.identity(3).kernel_basis() == []


def test_kernel_of_rank_one_matrix():
    # hand row-reduction: [[1,1],[2,2]] ~ [[1,1],[0,0]]; kernel (1,-1)/scale
    m = Matrix.from_rows([[1, 1], [2, 2]])
    (vec,) = m.kernel_basis()
    assert vec[0] * (-1) == vec[1] and any(vec)


def test_rank_examples():
    assert Matrix(2, 3).rank() == 0
    assert Matrix.identity(4).rank() == 4
    # hand row-reduction: all rows proportional to (1, 2)
    assert Matrix.from_rows([[1, 2], [2, 4], [3, 6]]).rank() == 1


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_nullity_and_exact_kernel(rows, cols, data):
    entries = data.draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                  st.fractions(min_value=-20, max_value=20,
                               max_denominator=6)),
        max_size=12))
    m = Matrix(rows, cols)
    for i, j, v in entries:
        m[i, j] = m[i, j] + v
    kernel = m.kernel_basis()
    assert m.rank() + len(kernel) == cols
    for vec in kernel:
        assert all(v == 0 for v in m.mul_vector(vec))


def test_solve_and_inverse():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    x = m.solve([Fraction(5), Fraction(11)])
    assert m.mul_vector(x) == [Fraction(5), Fraction(11)]
    inv = m.inverse()
    assert inv.mul_vector([Fraction(5), Fraction(11)]) == x
    assert Matrix.from_rows([[1, 1], [1, 1]]).solve(
        [Fraction(0), Fraction(1)]) is None
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 1], [2, 2]]).inverse()


def test_reduce_to_basis_and_span():
    basis = reduce_to_basis([[Fraction(1), Fraction(1), Fraction(0)],
                             [Fraction(2), Fraction(2), Fraction(0)],
                             [Fraction(0), Fraction(0), Fraction(3)]])
    assert len(basis) == 2
    assert in_span(basis, [Fraction(3), Fraction(3), Fraction(-1)])
    assert not in_span(basis, [Fraction(1), Fraction(0), Fraction(0)])


def test_no_stored_zero_entries():
    m = Matrix(2, 2, {(0, 0): Fraction(1)})
    m[0, 0] = 0
    assert m.entries == {}


def test_accumulators_drop_zero_sums():
    acc = {"a": Fraction(1)}
    add_term(acc, "a", Fraction(-1))
    add_term(acc, "b", Fraction(2))
    assert acc == {"b": Fraction(2)}
    assert add_scaled(acc, {"b": Fraction(1), "c": Fraction(1, 2)},
                      Fraction(-2)) == {"c": Fraction(-1)}
    assert add_scaled(acc, {"c": Fraction(1)}) == {}


small_vectors = st.dictionaries(
    st.sampled_from("pqrs"),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    max_size=4)


def _solve_one(basis, target):
    """Per-target oracles over sorted keys: Matrix.solve, and membership by
    comparing the rank of the basis with and without the target."""
    keys = sorted({k for v in basis for k in v} | set(target)) or ["p"]
    rows = {k: i for i, k in enumerate(keys)}
    cols = [{rows[k]: c for k, c in v.items()} for v in basis]
    m = Matrix.from_columns(cols, len(keys))
    grown = Matrix.from_columns(cols + [{rows[k]: c for k, c in target.items()}],
                                len(keys))
    inside = grown.rank() == m.rank()
    return m.solve([target.get(k, Fraction(0)) for k in keys]), inside


@given(st.lists(small_vectors, max_size=4), st.lists(small_vectors, max_size=3))
def test_express_agrees_with_per_target_solve(basis, targets):
    got = express(basis, targets)
    assert len(got) == len(targets)
    for target, coords in zip(targets, got):
        want, inside = _solve_one(basis, target)
        assert (coords is None) == (want is None) == (not inside)
        if coords is not None:
            assert coords == want
            combo = {}
            for v, c in zip(basis, coords):
                add_scaled(combo, v, c)
            assert combo == target


def test_express_judges_each_target_against_the_basis_alone():
    p, q = Fraction(1), Fraction(2)
    basis = [{"x": p}]
    # the second target lies in span(basis, first target), not in span(basis)
    got = express(basis, [{"y": p}, {"x": p, "y": q}, {"x": q}])
    assert got == [None, None, [q]]


def test_express_edge_cases():
    assert express([], [{}, {"x": Fraction(1)}]) == [[], None]
    assert express([{"x": Fraction(1)}, {"x": Fraction(2)}], [{}]) == [
        [Fraction(0), Fraction(0)]]
    assert express([{"x": Fraction(1)}], []) == []

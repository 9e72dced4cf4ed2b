import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from hopfalg import exactlin, structure
from hopfalg.catalog import build, list_catalog
from hopfalg.cla import (CLA, cla_transform, enveloping, kernel_delta,
                         verify_cla)
from hopfalg.errors import InputError
from hopfalg.exactlin import (P, Matrix, add_scaled, add_term, express,
                              lead_coordinates, lead_pair_coordinates,
                              map_slot, scalar)
from hopfalg.structure import coradical_filtration, p2_space, primitive_space

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


def test_scalar_parsing_and_formatting():
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar("-7") == Fraction(-7)
    assert str(Fraction(-3, 4)) == "-3/4"
    assert str(Fraction(8, 2)) == "4"
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


def test_map_slot_splices_images_into_one_slot():
    F = Fraction
    split = {"a": {("b", "c"): F(2)}, "b": {("b", "b"): F(1)}}.get
    # rank grows: a (x) b -> 2 b (x) c (x) b
    assert map_slot({("a", "b"): F(3)}, 0, split) == {("b", "c", "b"): 6}
    assert map_slot({("a", "b"): F(3)}, 1, split) == {("a", "b", "b"): 3}
    # rank shrinks: the empty replacement drops the slot
    counit = lambda k: {(): F(1)} if k == "u" else {}
    assert map_slot({("u", "x"): F(5), ("y", "x"): F(7)}, 0, counit) == {
        ("x",): 5}
    # zero sums are dropped
    assert map_slot({("a", "u"): F(1), ("a", "v"): F(-1)}, 1,
                    lambda k: {("w",): F(1)}) == {}
    # c scales the image and acc is added into (and returned)
    acc = {("b", "c", "b"): F(1), ("z",): F(4)}
    out = map_slot({("a", "b"): F(1, 4)}, 0, split, F(-2), acc)
    assert out is acc and acc == {("z",): 4}


def _apply(m, vec):
    """A v for a sparse vector v, as a sparse vector."""
    out = {}
    for (i, j), a in m.entries.items():
        if j in vec:
            add_term(out, i, a * vec[j])
    return out


def test_kernel_of_zero_map():
    m = Matrix.from_rows([[0]])
    assert m.kernel_basis() == [{0: Fraction(1)}]


def test_kernel_of_identity_is_empty():
    assert Matrix.identity(3).kernel_basis() == []


def test_kernel_of_rank_one_matrix():
    # hand row-reduction: [[1,1],[2,2]] ~ [[1,1],[0,0]]; kernel (1,-1)/scale
    m = Matrix.from_rows([[1, 1], [2, 2]])
    (vec,) = m.kernel_basis()
    assert vec[0] * (-1) == vec[1] and any(vec.values())


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
        assert _apply(m, vec) == {}


def test_solve_and_inverse():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    x = m.solve([Fraction(5), Fraction(11)])
    assert _apply(m, x) == {0: Fraction(5), 1: Fraction(11)}
    inv = m.inverse()
    assert _apply(inv, {0: Fraction(5), 1: Fraction(11)}) == x
    assert Matrix.from_rows([[1, 1], [1, 1]]).solve(
        [Fraction(0), Fraction(1)]) is None
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 1], [2, 2]]).inverse()


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
    # a zero multiple and a zero term leave the accumulator as it is
    acc = {"a": Fraction(3)}
    assert add_scaled(acc, {"a": Fraction(1), "b": Fraction(2)}, 0) is acc
    assert acc == {"a": Fraction(3)}
    add_term(acc, "b", Fraction(0))
    assert acc == {"a": Fraction(3)}


small_vectors = st.dictionaries(
    st.sampled_from("pqrs"),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    max_size=4)


def _solve_one(basis, target):
    """Per-target oracles over sorted keys: Matrix.solve, membership by
    comparing the rank of the basis with and without the target, and the
    rank of the basis."""
    keys = sorted({k for v in basis for k in v} | set(target)) or ["p"]
    rows = {k: i for i, k in enumerate(keys)}

    def matrix(columns):
        return Matrix(len(keys), len(columns), {
            (rows[k], j): c for j, v in enumerate(columns)
            for k, c in v.items()})
    m = matrix(basis)
    grown = matrix(basis + [target])
    inside = grown.rank() == m.rank()
    return (m.solve([target.get(k, Fraction(0)) for k in keys]), inside,
            m.rank())


@given(st.lists(small_vectors, max_size=4), st.lists(small_vectors, max_size=3))
def test_express_agrees_with_per_target_solve(basis, targets):
    got, rank = express(basis, targets)
    assert len(got) == len(targets)
    for target, coords in zip(targets, got):
        want, inside, basis_rank = _solve_one(basis, target)
        assert rank == basis_rank
        assert (coords is None) == (want is None) == (not inside)
        if coords is not None:
            assert coords == want
            combo = {}
            for i, c in coords.items():
                add_scaled(combo, basis[i], c)
            assert combo == target


def test_express_judges_each_target_against_the_basis_alone():
    p, q = Fraction(1), Fraction(2)
    basis = [{"x": p}]
    # the second target lies in span(basis, first target), not in span(basis)
    got = express(basis, [{"y": p}, {"x": p, "y": q}, {"x": q}])
    assert got == ([None, None, {0: q}], 1)


@pytest.fixture(scope="module")
def kept_bases(several_term_clas):
    """(name, basis, leads, order) of every kept basis: P, P2, C_2 and C_3
    of each catalog presentation at its complete bound (U(L) for a CLA),
    and ker delta of each CLA, with the leads the library reads them at
    and the sort key of their keys.  Every such catalog vector is one
    monomial, so the CLAs with vectors of several terms follow, and each
    catalog CLA moved to a seeded random basis, for its ker delta."""
    rng = random.Random(24)
    catalog = [(spec.describe(), build(spec)) for spec in list_catalog()]
    moved = []
    for name, L in catalog:
        if isinstance(L, CLA):
            m = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(L.dim)]
                                  for _ in range(L.dim)])
            if m.rank() == L.dim:
                moved.append((f"{name} moved", cla_transform(L, m)))
    objects = (catalog + [(repr(L), L) for L in several_term_clas]
               + moved)
    out = []
    for name, h in objects:
        if isinstance(h, CLA):
            kernel = kernel_delta(h)
            out.append((f"{name} ker delta", kernel,
                        [max(vec) for vec in kernel], None))
            if not verify_cla(h).passed:
                continue
            h = enveloping(h)
        for label, space in [
                ("P", primitive_space(h)),
                ("P2", p2_space(h)),
                ("C_2", coradical_filtration(h, 2)),
                ("C_3", coradical_filtration(h, 3))]:
            out.append((f"{name} {label}",
                        [b.terms for b in space.basis],
                        structure._leads(space.basis),
                        h.algebra.monomial_key))
    return out


def _targets(rng, columns, keys):
    """Zero, a random combination of the columns, and that combination
    plus a unit at a random key of their support (outside the span unless
    the key is a lead), then a unit at a key no column has."""
    values = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    combo = {}
    for col in rng.sample(columns, min(3, len(columns))):
        add_scaled(combo, col, rng.choice(values))
    off = dict(combo)
    if keys:
        add_scaled(off, {rng.choice(keys): 1}, rng.choice(values))
    return [{}, combo, off, {"nowhere": 1}]


def _pair_products(basis):
    """Oracle: basis[a] (x) basis[b] over pairs of keys, keyed (a, b)."""
    return {(a, b): {(k, l): c * d for k, c in u.items() for l, d in v.items()}
            for a, u in enumerate(basis) for b, v in enumerate(basis)}


def test_kept_bases_are_reduced_at_increasing_leads(kept_bases):
    # the invariant the lead readers rely on: 1 at its own lead and 0 at
    # every other lead, for every kept basis and its pair products
    assert sum(len(vec) > 1 for _, basis, _, _ in kept_bases
               for vec in basis) > 20
    for name, basis, leads, order in kept_bases:
        assert leads == sorted(leads, key=order), name
        assert len(set(leads)) == len(leads) == len(basis), name
        for i, vec in enumerate(basis):
            assert {l: vec[l] for l in leads if l in vec} == {leads[i]: 1}, name
        for (a, b), vec in _pair_products(basis).items():
            assert {(k, l): c for (k, l), c in vec.items()
                    if k in leads and l in leads} == {
                        (leads[a], leads[b]): 1}, name


def test_lead_coordinates_agree_with_express_on_kept_bases(kept_bases):
    # random targets inside and outside the span of every kept basis and
    # of its pair products, each against one elimination
    rng = random.Random(24)
    seen = {"inside": 0, "outside": 0}
    for name, basis, leads, _ in kept_bases:
        pairs = _pair_products(basis)
        pair_leads = [(k, l) for k in leads for l in leads]
        for vectors, at, read, keyed in (
                (basis, leads, lambda targets: [
                    lead_coordinates(basis, leads, t) for t in targets],
                 range(len(basis))),
                (list(pairs.values()), pair_leads, lambda targets:
                 lead_pair_coordinates(basis, leads, targets), list(pairs))):
            keys = sorted({k for vec in vectors for k in vec}, key=repr)
            targets = _targets(rng, vectors, keys)
            for (coords, rest), want in zip(read(targets),
                                            express(vectors, targets)[0]):
                assert (None if rest else coords) == (None if want is None else
                    {keyed[i]: c for i, c in want.items()}), name
                assert list(coords) == sorted(coords), name
                assert not any(l in rest for l in at), name
                seen["outside" if rest else "inside"] += 1
    assert all(seen.values())


def _all_pairs_read(basis, leads, target):
    """Oracle: lead_pair_coordinates probing target at every pair of
    leads, in increasing (a, b) order."""
    coeffs = {(a, b): c for a, k in enumerate(leads)
              for b, l in enumerate(leads) if (c := target.get((k, l)))}
    remainder = dict(target)
    for (a, b), c in coeffs.items():
        add_scaled(remainder, {(k, l): x * y for k, x in basis[a].items()
                               for l, y in basis[b].items()}, -c)
    return coeffs, remainder


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_lead_pair_coordinates_match_the_all_pairs_read(data):
    # random reduced bases (1 at the own lead, 0 at every other lead)
    # over int or monomial keys, and targets mixing pair products, pairs
    # off the leads, zero entries and rows that are no pair of leads
    # (P2's ("s", key) rows, a bare key, a triple): the index read gives
    # the all-pairs read's coordinates, in its increasing (a, b) order,
    # and its remainder, in its key order
    n = data.draw(st.integers(1, 6))
    keys = (list(range(n)) if data.draw(st.booleans())
            else [(i, n - i) for i in range(n)])
    leads = data.draw(st.lists(st.sampled_from(keys), min_size=1,
                               unique=True))
    others = [k for k in keys if k not in leads]
    basis = [{lead: 1, **{k: c for k in others if (c := data.draw(_small))}}
             for lead in leads]
    pairs = [(k, l) for k in keys for l in keys]
    target = {}
    for (a, b), c in data.draw(st.dictionaries(
            st.tuples(st.integers(0, len(leads) - 1),
                      st.integers(0, len(leads) - 1)), _small,
            max_size=8)).items():
        add_scaled(target, {(k, l): x * y for k, x in basis[a].items()
                            for l, y in basis[b].items()}, c)
    rows = st.one_of(st.sampled_from(pairs),
                     st.sampled_from(pairs).map(lambda t: ("s", t)),
                     st.just("nowhere"), st.sampled_from(keys),
                     st.sampled_from(pairs).map(lambda t: t + t[:1]))
    target.update(data.draw(st.dictionaries(rows, _small, max_size=6)))
    # one call reads every target through one index
    targets = [target, dict(reversed(target.items()))]
    for got, t in zip(lead_pair_coordinates(basis, leads, targets), targets):
        want = _all_pairs_read(basis, leads, t)
        assert got == want
        assert list(got[0]) == list(want[0]) == sorted(got[0])
        assert list(got[1].items()) == list(want[1].items())


def test_express_edge_cases():
    assert express([], [{}, {"x": Fraction(1)}]) == ([{}, None], 0)
    assert express([{"x": Fraction(1)}, {"x": Fraction(2)}], [{}]) == ([{}], 1)
    assert express([{"x": Fraction(1)}], []) == ([], 1)


def _sparse_matrix(rows, cols, entries):
    m = Matrix(rows, cols)
    for i, j, v in entries:
        m[i, j] = m[i, j] + v
    return m


def _entries(rows, cols, values, max_size):
    return st.lists(st.tuples(st.integers(0, rows - 1),
                              st.integers(0, cols - 1), values),
                    max_size=max_size)


# no deadline: the first example pays for importing sympy
@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 6), st.data())
def test_rank_profile_matches_fraction_rref_and_sympy(cols, height, inner,
                                                      data):
    # the certified RREF, its kernel and express against the Fraction
    # elimination, and the rank against sympy, on a matrix that is tall
    # (up to 4x as many rows as columns, like the cobar d2) and of any
    # rank: a product of two sparse factors plus a sparse perturbation
    sympy = pytest.importorskip("sympy")
    rows = cols * height
    values = st.fractions(min_value=-10**4, max_value=10**4,
                          max_denominator=10**3)
    left = _sparse_matrix(rows, inner, data.draw(
        _entries(rows, inner, values, 3 * rows)))
    right = _sparse_matrix(inner, cols, data.draw(
        _entries(inner, cols, values, 2 * cols)))
    m = _sparse_matrix(rows, cols, data.draw(
        _entries(rows, cols, values, 3)))
    for (i, k), a in left.entries.items():
        for (k2, j), b in right.entries.items():
            if k == k2:
                m[i, j] = m[i, j] + a * b
    reduced, pivots = m.row_echelon()
    oracle = m._fraction_rref()
    assert (reduced, pivots) == oracle
    assert m.rank_profile() == pivots
    # the kernel vector of free column f: 1 at f, -rref[c][f] at pivot c
    kernel = []
    for f in range(cols):
        if f not in pivots:
            vec = {c: -row[f] for c, row in zip(pivots, oracle[0]) if f in row}
            vec[f] = Fraction(1)
            kernel.append(vec)
    assert m.kernel_basis() == kernel
    # targets in span (a sum of columns) and most likely outside it
    columns = m.columns()
    extra = _sparse_matrix(rows, 2, data.draw(_entries(rows, 2, values, 4)))
    targets = [add_scaled(dict(columns[0]), columns[-1])] + extra.columns()
    with mock.patch.object(Matrix, "_certified_rref", lambda self: None):
        want = express(columns, targets)
    assert express(columns, targets) == want
    dense = sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(
        m[i, j].numerator, m[i, j].denominator))
    assert len(pivots) == m.rank() == dense.rank()


@pytest.mark.parametrize("data, pivots", [
    # a denominator divisible by P has no residue mod P
    ([[Fraction(1, P), 1], [2, 2]], [0, 1]),
    # the rank drops mod P: the reconstructed kernel vector (-1, 1) is
    # a kernel vector mod P only, and the exact product A v = (0, P) says so
    ([[1, 1], [1, 1 + P]], [0, 1]),
    # kernel entries beyond the reconstruction bound of about 2^63: for
    # -3^43 / 2^70 no rational within it matches the residue, for
    # -3^44 / 2^70 a wrong one (6490462988713273897/4498410466312197315 in
    # the RREF) does and the exact product refutes it
    ([[2**70, 3**43]], [0]),
    ([[2**70, 3**44]], [0]),
])
def test_rank_profile_falls_back_when_it_cannot_certify(data, pivots):
    m = Matrix.from_rows(data)
    assert m._certified_rref() is None
    assert m.row_echelon() == m._fraction_rref()
    assert m.rank_profile() == pivots


def test_rank_profile_certifies_rational_kernels():
    # the kernel vector of the free column 2 is (-1/2, -3/7, 1)
    m = Matrix.from_rows([[2, 0, 1], [0, Fraction(7, 3), 1], [4, 0, 2]])
    assert m._certified_rref() == (
        [{0: 1, 2: Fraction(1, 2)}, {1: 1, 2: Fraction(3, 7)}], [0, 1])
    assert Matrix(3, 2)._certified_rref() == ([], [])


def _answered(m):
    """m.rank_profile(), the path that answered it and the number of
    forward passes it ran: "bound" when Hadamard's bound certified the
    modular pivots, "lift" when the lifted RREF did, "exact" when the
    Fraction elimination answered."""
    passes, paths = [], []
    forward, lift, fraction = (exactlin._forward, Matrix._lift,
                               Matrix._fraction_rref)

    def count(*args):
        passes.append(1)
        return forward(*args)

    def lift_spy(self, reduced, pivots):
        paths.append("lift")
        return lift(self, reduced, pivots)

    def fraction_spy(self):
        paths.append("exact")
        return fraction(self)

    with mock.patch.object(exactlin, "_forward", count), \
            mock.patch.object(Matrix, "_lift", lift_spy), \
            mock.patch.object(Matrix, "_fraction_rref", fraction_spy):
        pivots = m.rank_profile()
    return pivots, (paths or ["bound"])[-1], len(passes)


_KINDS = {
    # small entries: every product of squared column norms is far below P^2
    "small": st.fractions(min_value=-9, max_value=9, max_denominator=4),
    # 36 to 44 bits: the bound holds at rank 1 and fails from rank 3 up
    "moderate": st.one_of(st.integers(2**36, 2**44),
                          st.integers(-2**44, -2**36)),
    # 128 bits and more, and multiples of P and their neighbours, on which
    # the rank of a column prefix can drop mod P
    "large": st.one_of(st.integers(2**128, 2**140),
                       st.integers(-2**140, -2**128),
                       st.sampled_from([P, -P, 2 * P, P - 1, P + 1])),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_KINDS)), st.integers(1, 6),
       st.integers(1, 8), st.data())
def test_rank_profile_is_certified_by_hadamard_or_lifted(kind, rows, cols,
                                                         data):
    # the pivots equal the exact elimination's and the rank sympy's on
    # whichever path answered; small entries pass the bound, and large
    # ones fail it unless every nonzero column is a pivot mod P; a failed
    # bound lifts the rows of the one forward pass, and takes a second
    # pass only in the Fraction elimination
    sympy = pytest.importorskip("sympy")
    m = _sparse_matrix(rows, cols, data.draw(
        _entries(rows, cols, _KINDS[kind], 2 * rows * cols)))
    pivots, path, passes = _answered(m)
    event(f"{kind}: {path}")
    assert pivots == m._fraction_rref()[1]
    dense = sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(
        m[i, j].numerator, m[i, j].denominator))
    assert len(pivots) == dense.rank()
    if not m.entries:
        assert (path, passes) == ("bound", 0)
        return
    assert passes == (2 if path == "exact" else 1)
    if kind == "small":
        assert path == "bound"
    if kind == "large":
        nonzero = len({j for _, j in m.entries})
        rank_mod_p = len(m._forward_mod_p()[1])
        assert (path == "bound") == (rank_mod_p == nonzero)


def test_equal_total_ranks_do_not_certify_the_pivots():
    # [[P, 1]] has rank 1 mod P and over Q, but its pivot is column 1 mod
    # P and column 0 over Q; the bound refuses it (P^2 is not below P^2),
    # the lifted kernel vector of column 0 fails, and the exact
    # elimination answers
    assert _answered(Matrix.from_rows([[P, 1]])) == ([0], "exact", 2)


def test_a_failed_bound_lifts_the_one_forward_pass():
    # columns of 2^70: 2^280 is above P^2, but the RREF [1, 1] lifts
    m = Matrix.from_rows([[2**70, 2**70, 1], [0, 0, 3]])
    assert _answered(m) == ([0, 2], "lift", 1)
    assert _answered(Matrix.from_rows([[1, 1, 1], [0, 0, 3]])) == (
        [0, 2], "bound", 1)


def test_rank_profiles_and_echelon_forms_reach_each_other_never(
        monkeypatch):
    # elimination counts spy on both entry points at once, so neither may
    # call the other
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 7]])

    def refuse(self):
        raise AssertionError("one entry point reached the other")

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "row_echelon", refuse)
        assert m.rank_profile() == [0, 2] and m.rank() == 2
    monkeypatch.setattr(Matrix, "rank_profile", refuse)
    assert m.row_echelon()[1] == [0, 2]
    assert m.kernel_basis() == [{0: -2, 1: 1}]
    assert express(m.columns(), [{0: 1}])[1] == 2


@pytest.mark.parametrize("m", [Matrix(3, 2), Matrix(1, 0), Matrix(0, 4),
                               Matrix.from_keyed_columns([{}, {"a": 0}]),
                               Matrix.from_rows([[0, 0], [0, 0]])])
def test_matrix_without_entries_takes_no_elimination(m, monkeypatch):
    def refuse(self):
        raise AssertionError("a matrix with no entries was eliminated")

    monkeypatch.setattr(Matrix, "_certified_rref", refuse)
    monkeypatch.setattr(Matrix, "_fraction_rref", refuse)
    assert m.row_echelon() == ([], [])
    assert m.rank() == 0
    assert m.kernel_basis() == [{f: 1} for f in range(m.cols)]


def _rref_scalars(rref):
    reduced, pivots = rref
    return [v for row in reduced for v in row.values()]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_fraction_rref_of_int_matrices_has_no_floats(rows, cols, data):
    # the exact elimination divides by pivots: every quotient must be an
    # int or a Fraction, and the result must equal the certified RREF
    sympy = pytest.importorskip("sympy")
    entries = data.draw(_entries(rows, cols, st.integers(-9, 9), 2 * rows * cols))
    m = _sparse_matrix(rows, cols, entries)
    oracle = m._fraction_rref()
    assert all(type(v) in (int, Fraction) for v in _rref_scalars(oracle))
    certified = m.row_echelon()
    assert certified == oracle
    assert all(type(v) in (int, Fraction) for v in _rref_scalars(certified))
    # integral entries of the certified RREF and its kernel come back as ints
    assert all(type(v) is int for v in _rref_scalars(certified)
               if v.denominator == 1)
    assert all(type(v) is int for vec in m.kernel_basis()
               for v in vec.values() if v.denominator == 1)
    dense = sympy.Matrix(rows, cols, lambda i, j: int(m[i, j]))
    assert len(certified[1]) == dense.rank()


@pytest.mark.parametrize("data", [
    [[Fraction(1, P), 1], [2, 2]],
    [[1, 1], [1, 1 + P]],
    [[2**70, 3**43]],
    [[2**70, 3**44]],
])
def test_fraction_rref_without_certificate_has_no_floats(data):
    sympy = pytest.importorskip("sympy")
    m = Matrix.from_rows(data)
    rref = m.row_echelon()
    assert all(type(v) in (int, Fraction) for v in _rref_scalars(rref))
    assert all(type(v) in (int, Fraction) for v in m.entries.values())
    assert len(rref[1]) == sympy.Matrix(data).rank()


def test_integral_rref_entries_and_coordinates_are_ints():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 7]])
    reduced, pivots = m.row_echelon()
    assert (reduced, pivots) == ([{0: 1, 1: 2}, {2: 1}], [0, 2])
    assert all(type(v) is int for row in reduced for v in row.values())
    (vec,) = m.kernel_basis()
    assert vec == {0: -2, 1: 1} and all(type(v) is int for v in vec.values())
    (coords,), _ = express(m.columns()[:1] + m.columns()[2:], [{0: 4, 1: 9}])
    assert coords == {0: 1, 1: 1} and all(
        type(v) is int for v in coords.values())


def _assert_sparse(vec, size):
    """A sparse vector: in-range int keys, nonzero int or Fraction values."""
    assert type(vec) is dict
    for k, v in vec.items():
        assert type(k) is int and 0 <= k < size, (k, vec)
        assert type(v) in (int, Fraction) and v, (v, vec)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_solvers_answer_in_sparse_vectors(rows, cols, data):
    # kernel vectors, coordinates and reduced rows are {index: scalar}
    values = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    m = _sparse_matrix(rows, cols, data.draw(
        _entries(rows, cols, values, 2 * rows * cols)))
    pivots = m.rank_profile()
    free = [f for f in range(cols) if f not in pivots]
    kernel = m.kernel_basis()
    assert len(kernel) == len(free)
    for f, vec in zip(free, kernel):
        _assert_sparse(vec, cols)
        assert vec[f] == 1
        assert [k for k in vec if k not in pivots] == [f]
    columns = m.columns()
    extra = _sparse_matrix(rows, 2, data.draw(_entries(rows, 2, values, 4)))
    targets = [add_scaled(dict(columns[0]), columns[-1])] + extra.columns()
    coords, rank = express(columns, targets)
    assert rank == len(pivots) and coords[0] is not None
    for vec in coords:
        if vec is not None:
            _assert_sparse(vec, cols)
    reduced, _ = m.row_echelon()
    assert len(reduced) == len(pivots)
    for vec, c in zip(reduced, pivots):
        _assert_sparse(vec, cols)
        assert min(vec) == c and vec[c] == 1

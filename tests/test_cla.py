import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfalg.catalog import (list_catalog, build, family_parameter_names,
                             make_K, make_cla_35, make_cla_a, make_cla_b,
                             make_lie)
from hopfalg.cobar import _g_prime, _lantern_ce, h2_report
from hopfalg.cla import (CLA, GradedLie, _envelope, cla_transform, conilpotency_index,
                         enveloping, kernel_delta, lantern_of_cla,
                         object_battery, verify_cla)
from hopfalg.errors import InputError, StructuralError
from hopfalg.exactlin import Matrix, add_scaled, express, map_slot
from hopfalg.hopf import HopfPresentation, TensorElement, tensor_of
from hopfalg.jsonio import cla_to_json
from hopfalg.ore import AlgebraElement, bracket
from hopfalg.structure import (coradical_filtration, lantern_of_hopf,
                               p2_space, primitive_space)

from test_cobar import _d2_after_d1, _eliminated_report
from test_complete_bounds import _direct
from test_hopf import _same_as_loop

F = Fraction


def cla_catalog():
    return [build(s) for s in list_catalog() if s.tag.startswith("cla")]


def reference_compatibility_defect(L, env, i, j):
    """Oracle: LHS minus RHS of the compatibility identity in the module
    docstring for the pair (x_i, x_j), term by term in Sweedler notation."""
    p = env.algebra
    gens = [p.monomial_tuple({name: 1}) for name in p.names]

    def gen_elt(k):
        return AlgebraElement(p, {gens[k]: 1})

    def bracket_elt(a, b):
        return AlgebraElement(p, {gens[k]: c for k, c in
                                  L.bracket_constants(a, b).items()})

    def delta_tensor(k):
        return TensorElement(p, 2, {(gens[a], gens[b]): c for (a, b), c in
                                    L.delta_constants(k).items()})

    lhs = {}
    for k, c in L.bracket_constants(i, j).items():
        add_scaled(lhs, delta_tensor(k).terms, c)
    rhs = {}
    # b_1 (x) [a, b_2]  and  [a, b_1] (x) b_2
    for (pp, qq), c in L.delta_constants(j).items():
        add_scaled(rhs, tensor_of(gen_elt(pp), bracket_elt(i, qq)).terms, c)
        add_scaled(rhs, tensor_of(bracket_elt(i, pp), gen_elt(qq)).terms, c)
    # [a_1, b] (x) a_2  and  a_1 (x) [a_2, b]
    for (pp, qq), c in L.delta_constants(i).items():
        add_scaled(rhs, tensor_of(bracket_elt(pp, j), gen_elt(qq)).terms, c)
        add_scaled(rhs, tensor_of(gen_elt(pp), bracket_elt(qq, j)).terms, c)
    add_scaled(rhs, bracket(delta_tensor(i), delta_tensor(j)).terms)
    return TensorElement(p, 2, add_scaled(lhs, rhs, -1))


def random_cla(rng):
    """Random brackets; delta(x_i) over pairs of earlier basis vectors, so
    the kernel filtration of delta always reaches L."""
    n = rng.choice([3, 4])
    coeffs = [-2, -1, 1, 2]
    brackets = {(i, j): {k: rng.choice(coeffs) for k in range(n)
                         if rng.random() < 0.3}
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < 0.5}
    delta = {i: {(a, b): rng.choice(coeffs) for a in range(i)
                 for b in range(i) if rng.random() < 0.3}
             for i in range(1, n) if rng.random() < 0.6}
    return CLA([f"x{i}" for i in range(n)], brackets, delta)


def test_antisymmetry_enforced():
    L = CLA(["x", "y"], brackets={(1, 0): {1: -1}})
    assert L.bracket_constants(0, 1) == {1: 1}
    with pytest.raises(InputError):
        CLA(["x", "y"], brackets={(0, 0): {1: 1}})


def test_verify_cla_on_catalog_family():
    rep = verify_cla(make_cla_a(1, F(1, 2), 0))
    assert rep.passed
    flags = [c for c in rep.checks if c.informational]
    assert flags and flags[0].passed  # anti-cocommutative


def test_verify_cla_trivial_coproduct():
    L = CLA(["x", "y"], brackets={(0, 1): {1: 1}})  # solvable, delta = 0
    rep = verify_cla(L)
    assert rep.passed


def test_verify_cla_detects_wrong_commutator_sign():
    # b-type data with [z,x] = +z + y: compatibility fails on the (x, z) pair
    bad = CLA(["x", "y", "z"],
              brackets={(0, 1): {1: 1}, (2, 0): {2: 1, 1: 1}},
              delta={2: {(0, 1): 1, (1, 0): -1}})
    rep = verify_cla(bad)
    assert not rep.passed
    failing = [c for c in rep.failures()]
    assert any("compatibility" in c.name for c in failing)


def test_enveloping_matches_direct_catalog_tables(A111):
    env = enveloping(make_cla_a(1, 1, 1))
    assert env.algebra.degrees == A111.algebra.degrees
    # same commutator and coproduct tables up to the generator naming
    assert list(env.algebra.kappa) == list(A111.algebra.kappa)
    for key, terms in env.algebra.kappa.items():
        assert terms == A111.algebra.kappa[key]
    assert env.delta_gen == A111.delta_gen


def test_enveloping_of_b_family_matches(B1):
    env = enveloping(make_cla_b(1))
    assert env.algebra.kappa == B1.algebra.kappa
    assert env.delta_gen == B1.delta_gen


def test_enveloping_abelian_with_trivial_coproduct():
    env = enveloping(CLA(["x", "y"]))
    assert env.algebra.kappa == {}
    assert env.delta_gen == {}
    assert env.algebra.degrees == (1, 1)


def test_enveloping_passes_all_verifications():
    env = enveloping(make_cla_35("e", a=1, b=0, c=2))
    assert env.algebra.verify_pbw_consistency().passed
    assert env.verify_coassociativity().passed
    assert env.verify_compatibility().passed


def test_enveloping_rejects_invalid_cla():
    bad = CLA(["x", "y", "z"],
              brackets={(0, 1): {1: 1}, (2, 0): {2: 1, 1: 1}},
              delta={2: {(0, 1): 1, (1, 0): -1}})
    with pytest.raises(StructuralError):
        enveloping(bad)


def test_kernel_and_conilpotency_of_dim4_entries():
    for L in cla_catalog():
        if L.dim != 4:
            continue
        assert len(kernel_delta(L)) == 3
        assert conilpotency_index(L) == 2


def test_conilpotency_trivial_and_chain():
    assert conilpotency_index(CLA(["x", "y"])) == 1
    chain = CLA(["x1", "x2"], delta={1: {(0, 0): 1}})
    assert len(kernel_delta(chain)) == 1
    assert conilpotency_index(chain) == 2
    env = enveloping(chain)
    assert env.algebra.degrees == (1, 2)


def test_non_conilpotent_has_no_enveloping_hopf_structure():
    bad = CLA(["x1", "x2"], delta={1: {(1, 1): 1}})
    assert conilpotency_index(bad) is None
    with pytest.raises(StructuralError):
        _envelope(bad)


def test_delta_lands_in_kernel_square():
    # reduced coproducts of anti-cocommutative entries lie in
    # (ker delta) (x) (ker delta)
    for L in cla_catalog():
        kernel_rows = kernel_delta(L)
        kernel_idx = set()
        for vec in kernel_rows:
            kernel_idx |= set(vec)
        for i, terms in L.delta.items():
            for (j, k) in terms:
                assert j in kernel_idx and k in kernel_idx


def test_dim4_entries_have_skew_line_image():
    # the coproduct image is one-dimensional, spanned by the skew tensor
    # x1 (x) x2 - x2 (x) x1
    for L in cla_catalog():
        if L.dim != 4:
            continue
        images = [terms for terms in L.delta.values() if terms]
        assert len(images) == 1
        assert images[0] == {(0, 1): 1, (1, 0): -1}


def test_lantern_of_abelian_coproduct_free_cla():
    gl = lantern_of_cla(CLA(["a", "b", "c"]))
    assert gl.dims_by_degree() == {1: 3}
    assert gl.brackets == {}


def test_lantern_of_heisenberg_type():
    gl = lantern_of_cla(make_cla_a(0, 0, 0))
    assert gl.dims_by_degree() == {1: 2, 2: 1}
    assert list(gl.brackets) == [(0, 1)]
    (target, coeff), = gl.brackets[(0, 1)].items()
    assert gl.degrees[target] == 2 and coeff != 0


def test_lantern_requires_anti_cocommutativity():
    with pytest.raises(InputError):
        lantern_of_cla(CLA(["x1", "x2"], delta={1: {(0, 0): 1}}))


def test_transform_by_identity():
    L = make_cla_a(1, 2, 0)
    assert cla_transform(L, Matrix.identity(3)) == L


def test_transform_realizes_parameter_inversion():
    for lam in (F(2), F(3)):
        m = Matrix.from_rows([[0, 1, 0], [-1 / lam, 0, 0], [0, 0, 1 / lam]])
        assert cla_transform(make_cla_a(1, lam, 0), m) == \
            make_cla_a(1, 1 / lam, 0)


def test_transform_round_trip():
    L = make_cla_35("h", lam=3, a=0)
    m = Matrix.from_rows([[1, 2, 0, 0], [0, 1, 0, 0],
                          [0, 0, 1, 0], [0, 0, 1, 1]])
    assert cla_transform(cla_transform(L, m), m.inverse()) == L


CLA_CATALOG = cla_catalog()


@st.composite
def adapted_base_changes(draw):
    """A catalog CLA L and an invertible rational M adapted to its kernel
    filtration: x'_i may use x_j only when (weight_j, j) <= (weight_i, i),
    with M_ii nonzero, so each ker delta^n stays spanned by basis vectors."""
    L = draw(st.sampled_from(CLA_CATALOG))
    weights = enveloping(L).algebra.degrees
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = []
    for i in range(L.dim):
        rows.append([draw(entries.filter(bool)) if j == i
                     else draw(entries) if (weights[j], j) < (weights[i], i)
                     else 0 for j in range(L.dim)])
    return L, Matrix.from_rows(rows)


@settings(max_examples=50, deadline=None)
@given(adapted_base_changes())
def test_transform_round_trip_on_catalog(case):
    L, m = case
    moved = cla_transform(L, m)
    assert cla_transform(moved, m.inverse()) == L
    assert verify_cla(moved).passed == verify_cla(L).passed
    # the defining identities, expanded back over the old basis:
    # [x'_i, x'_j] = sum M_ia M_jb [x_a, x_b], delta(x'_i) = sum M_ij delta(x_j)
    rows = [{j: m[i, j] for j in range(L.dim) if m[i, j]} for i in range(L.dim)]
    for i in range(L.dim):
        for j in range(L.dim):
            got, want = {}, {}
            for d, c in moved.bracket_constants(i, j).items():
                add_scaled(got, rows[d], c)
            for a, ca in rows[i].items():
                for b, cb in rows[j].items():
                    add_scaled(want, L.bracket_constants(a, b), ca * cb)
            assert got == want
        got, want = {}, {}
        for (a, b), c in moved.delta_constants(i).items():
            for e, ce in rows[a].items():
                add_scaled(got, {(e, f): ce * cf for f, cf in rows[b].items()}, c)
        for j, c in rows[i].items():
            add_scaled(want, L.delta_constants(j), c)
        assert got == want


def _transform_by_pair_elimination(L, m):
    """cla_transform with delta solved over the rows' pair products: the
    brackets over the rows of M, then delta(x'_i) = sum_j M_ij delta(x_j)
    over their n^2 pairs by a second elimination."""
    n = L.dim
    rows = [{j: m[i, j] for j in range(n) if m[i, j]} for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    images, deltas = [], []
    for i, j in pairs:
        image = {}
        for a, ca in rows[i].items():
            for b, cb in rows[j].items():
                add_scaled(image, L.bracket_constants(a, b), ca * cb)
        images.append(image)
    for row in rows:
        deltas.append({})
        for j, c in row.items():
            add_scaled(deltas[-1], L.delta_constants(j), c)
    products = [{(k, l): c * d for k, c in u.items() for l, d in v.items()}
                for u in rows for v in rows]
    coords, _ = express(products, deltas)
    return CLA(L.names, dict(zip(pairs, express(rows, images)[0])),
               {i: {divmod(ab, n): c for ab, c in sol.items()}
                for i, sol in enumerate(coords)})


def _base_change_inputs():
    """Criterion 8's lam <-> 1/lam base changes, then seeded invertible
    rational matrices on every catalog CLA."""
    cases = []
    for lam in (2, 3):
        inv = F(1, lam)
        cases.append((make_cla_a(1, lam, 0), Matrix.from_rows(
            [[0, 1, 0], [-inv, 0, 0], [0, 0, inv]])))
        cases.append((make_cla_35("h", lam=lam, a=0), Matrix.from_rows(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, inv, 0], [0, 0, 0, -1]])))
    rng = random.Random(24)
    for L in CLA_CATALOG:
        for _ in range(3):
            m = Matrix.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(L.dim)]
                                  for _ in range(L.dim)])
            if m.rank() == L.dim:
                cases.append((L, m))
    return cases


def test_transform_matches_a_pair_elimination():
    cases = _base_change_inputs()
    assert len(cases) > 40
    for L, m in cases:
        moved = cla_transform(L, m)
        assert moved == _transform_by_pair_elimination(L, m)
        assert cla_to_json(moved) == cla_to_json(
            _transform_by_pair_elimination(L, m))


def test_transform_rejects_singular_matrix():
    with pytest.raises(InputError):
        cla_transform(make_cla_a(0, 0, 0),
                      Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))


def test_verify_cla_iff_enveloping_checks_pass():
    good = make_cla_b(1)
    assert verify_cla(good).passed
    env = enveloping(good)
    assert env.algebra.verify_pbw_consistency().passed
    assert env.verify_compatibility().passed
    # corrupt the bracket: the CLA check and the enveloped checks both fail
    bad = CLA(["x", "y", "z"],
              brackets={(0, 1): {1: 1}, (2, 0): {2: 1, 1: 1}},
              delta={2: {(0, 1): 1, (1, 0): -1}})
    assert not verify_cla(bad).passed
    env_bad = _envelope(bad)
    assert not (env_bad.algebra.verify_pbw_consistency().passed
                and env_bad.verify_compatibility().passed)


def test_cla_equality_is_structure_constant_equality():
    assert make_cla_a(1, 2, 0) == CLA(
        ["u", "v", "w"],
        brackets={(2, 0): {0: 1}, (2, 1): {1: 2}},
        delta={2: {(0, 1): 1, (1, 0): -1}})
    assert make_cla_a(1, 2, 0) != make_cla_a(1, 3, 0)


def test_compatibility_check_matches_reference_defect():
    # the catalog CLAs plus 400 seeded random tables (about a second)
    rng = random.Random(2013)
    enveloped = passed = 0
    for L in cla_catalog() + [random_cla(rng) for _ in range(400)]:
        try:
            env = _envelope(L)
        except StructuralError:
            continue
        enveloped += 1
        checks = {c.name: c for c in env.verify_compatibility().checks}
        vanishes = True
        for i, j in itertools.combinations(range(L.dim), 2):
            defect = reference_compatibility_defect(L, env, i, j)
            witness = checks[f"Delta respects [{L.names[j]},{L.names[i]}]"
                             ].witness
            assert (witness.terms if witness is not None else {}) == \
                (-defect).terms
            vanishes = vanishes and defect.is_zero()
        compat, = [c for c in verify_cla(L).checks
                   if c.name == "bracket/coproduct compatibility in U(L)"]
        assert compat.passed == vanishes
        if not compat.passed:
            first = env.verify_compatibility().failures()[0]
            assert compat.witness.terms == first.witness.terms
        passed += compat.passed
    # both outcomes occur, so neither direction holds vacuously
    assert 0 < passed < enveloped


def test_one_presentation_per_enveloping_and_battery(monkeypatch):
    built = []
    init = HopfPresentation.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HopfPresentation, "__init__", spy)
    for run in (lambda: enveloping(make_cla_b(1)),
                lambda: make_lie(["a", "b"], {(0, 1): {1: 1}}),
                lambda: object_battery(make_cla_b(1))):
        built.clear()
        run()
        assert len(built) == 1
    # U(L) is kept on L, so a second reader builds none
    L = make_cla_b(1)
    env = enveloping(L)
    built.clear()
    assert object_battery(L).passed and enveloping(L) is env
    assert verify_cla(L).passed and built == []


def test_basis_not_adapted_to_kernel_filtration():
    # ker delta = span(y, x1 - x2), but of the basis vectors only y is in it
    L = CLA(["x1", "x2", "y"], delta={0: {(2, 2): 1}, 1: {(2, 2): 1}})
    compat, = [c for c in verify_cla(L).failures()
               if c.name == "bracket/coproduct compatibility in U(L)"]
    assert "not adapted" in compat.detail
    with pytest.raises(StructuralError, match="not adapted"):
        _envelope(L)
    with pytest.raises(StructuralError):
        enveloping(L)


def test_ce_h2_of_the_heisenberg_algebra():
    # [x, y] = z: xi^x ^ xi^y = -d xi^z is exact, and the two classes
    # xi^x ^ xi^z, xi^y ^ xi^z sit in degree 3, bidegrees (2,1) and (1,2)
    heis = GradedLie(["x", "y", "z"], [1, 1, 2], {(0, 1): {2: 1}})
    assert heis.ce_h2_dims() == {3: 2}
    assert heis.ce_h2_dims([(1, 0), (0, 1), (1, 1)]) == {(2, 1): 1, (1, 2): 1}


def test_ce_h2_of_abelian_and_filiform_algebras():
    assert GradedLie(["a", "b", "c", "d"], [1] * 4).ce_h2_dims() == {2: 6}
    # the lantern of K: [X, Y] = 2Z, [Y, Z] = 2W; of the 6 two-cochains,
    # d xi^Z and d xi^W are exact and d: Lambda^2 -> Lambda^3 has rank 2
    filiform = GradedLie(["X", "Y", "Z", "W"], [1, 1, 2, 3],
                         {(0, 1): {2: 2}, (1, 2): {3: 2}})
    assert filiform.ce_h2_dims() == {3: 1, 4: 1}


def test_ce_h2_requires_one_grade_per_basis_vector():
    heis = GradedLie(["x", "y", "z"], [1, 1, 2], {(0, 1): {2: 1}})
    with pytest.raises(InputError, match="2 grades for 3 basis vectors"):
        heis.ce_h2_dims([(1, 0), (0, 1)])
    with pytest.raises(InputError, match="4 grades for 3 basis vectors"):
        heis.ce_h2_dims([1, 1, 2, 3])


def test_verify_names_the_bracket_that_does_not_add_degrees():
    bad = GradedLie(["x", "y", "z"], [1, 1, 3], {(0, 1): {2: 1}})
    check = bad.verify().checks[0]
    assert check.name == "brackets add degrees" and not check.passed
    assert check.witness == "[x,y] -> z: 3 != 1 + 1"
    # ce_h2_dims rejects the same bracket
    with pytest.raises(InputError, match=r"\[x,y\] -> z: 3 != 1 \+ 1"):
        bad.ce_h2_dims()
    heis = GradedLie(["x", "y", "z"], [1, 1, 2], {(0, 1): {2: 1}})
    assert heis.verify().to_json()["checks"][0] == {
        "name": "brackets add degrees", "passed": True, "detail": "",
        "witness": None, "informational": False}


def _blockwise_ce_h2(gl, grades=None):
    """Reference CE H^2: one rank per grade block of d1 and of d2."""
    grades = list(gl.degrees if grades is None else grades)

    def grade_sum(a, b):
        return a + b if isinstance(a, int) else tuple(map(sum, zip(a, b)))

    def rank(columns):
        return Matrix.from_keyed_columns(columns).rank() if any(columns) else 0

    n = gl.dim
    blocks = {}   # grade -> (d1 columns, d2 columns)
    for k in range(n):
        col = {}
        for (i, j), terms in gl.brackets.items():
            if terms.get(k):
                if grades[k] != grade_sum(grades[i], grades[j]):
                    raise InputError("grades do not add")
                col[(i, j)] = -terms[k]
        blocks.setdefault(grades[k], ([], []))[0].append(col)
    for i, j in itertools.combinations(range(n), 2):
        col = {}
        for triple in itertools.combinations(range(n), 3):
            # d w (x, y, z) = -w([x,y], z) + w([x,z], y) - w([y,z], x)
            a, b, c = triple
            v = 0
            for p, q, r, sign in ((a, b, c, -1), (a, c, b, 1), (b, c, a, -1)):
                for k, ck in gl.bracket_constants(p, q).items():
                    if (k, r) == (i, j):
                        v += sign * ck
                    elif (r, k) == (i, j):
                        v -= sign * ck
            if v:
                col[triple] = v
        blocks.setdefault(grade_sum(grades[i], grades[j]),
                          ([], []))[1].append(col)
    dims = {}
    for g, (ones, twos) in blocks.items():
        h2 = len(twos) - rank(twos) - rank(ones)
        if h2:
            dims[g] = h2
    return dims


def _catalog_lanterns():
    """(label, lantern, bidegrees or None) for every catalog lantern: of
    each Hopf presentation and CLA envelope, and lantern_of_cla where the
    CLA is anti-cocommutative."""
    out = []
    for spec in list_catalog():
        obj = build(spec)
        if isinstance(obj, CLA):
            if obj.is_anti_cocommutative():
                out.append((spec.describe(), lantern_of_cla(obj), None))
            obj = enveloping(obj)
        alg = obj.algebra
        gl = lantern_of_hopf(obj)
        bidegrees = (None if alg.bidegrees is None else
                     [alg.monomial_bidegree(m) for m in gl.lifts])
        out.append((spec.describe() + " lantern", gl, bidegrees))
    return out


def _same_ce(gl, grades=None):
    try:
        want = _blockwise_ce_h2(gl, grades)
    except InputError:
        with pytest.raises(InputError):
            gl.ce_h2_dims(grades)
        return
    assert gl.ce_h2_dims(grades) == want


def test_ce_h2_matches_blockwise_ranks_on_catalog_lanterns():
    lanterns = _catalog_lanterns()
    assert len(lanterns) == len(list_catalog()) + sum(
        L.is_anti_cocommutative() for L in cla_catalog())
    for label, gl, bidegrees in lanterns:
        _same_ce(gl)
        if bidegrees is not None:
            _same_ce(gl, bidegrees)


@pytest.mark.parametrize("seed", range(30))
def test_ce_h2_matches_blockwise_ranks_on_random_tables(seed):
    # two-step nilpotent: degree-1 vectors bracket into degree-2 ones, so
    # the Jacobi identity holds for any coefficients; each vector gets a
    # bidegree, and a bracket only reaches the vectors of the sum
    rng = random.Random(seed)
    ones = [rng.choice([(1, 0), (0, 1)]) for _ in range(rng.randint(2, 4))]
    twos = [rng.choice([(2, 0), (1, 1), (0, 2)])
            for _ in range(rng.randint(1, 3))]
    bidegrees = ones + twos
    brackets = {}
    for i, j in itertools.combinations(range(len(ones)), 2):
        target = (ones[i][0] + ones[j][0], ones[i][1] + ones[j][1])
        brackets[(i, j)] = {
            k: F(rng.randint(-3, 3), rng.randint(1, 3))
            for k in range(len(ones), len(bidegrees))
            if bidegrees[k] == target and rng.random() < 0.7}
    gl = GradedLie([f"e{k}" for k in range(len(bidegrees))],
                   [sum(b) for b in bidegrees], brackets)
    assert gl.jacobi_witness() is None
    _same_ce(gl)
    _same_ce(gl, bidegrees)


def test_ce_h2_of_the_k_lantern_takes_two_eliminations(monkeypatch):
    # one rank profile of d1 and one of d2, not one per grade block, on a
    # fresh lantern; the d1 profile is kept, so the degree-one
    # certificate and a second grade list read it with no elimination
    gl = lantern_of_hopf(make_K())
    calls = []
    forward = Matrix._forward_mod_p

    def spy(self):
        calls.append((self.rows, self.cols))
        return forward(self)

    monkeypatch.setattr(Matrix, "_forward_mod_p", spy)
    assert gl.ce_h2_dims() == {3: 1, 4: 1}
    assert len(calls) == 2
    assert gl.generated_in_degree_one()
    assert len(calls) == 2
    assert gl.ce_h2_dims([(d, 0) for d in gl.degrees]) == {(3, 0): 1,
                                                            (4, 0): 1}
    assert calls[2:] == calls[:1]


def test_enveloping_eliminates_no_zero_matrix(monkeypatch):
    forward = Matrix._forward_mod_p

    def spy(self):
        assert self.entries, "an all-zero matrix was eliminated"
        return forward(self)

    monkeypatch.setattr(Matrix, "_forward_mod_p", spy)
    for L in cla_catalog():
        assert enveloping(L).verify_compatibility().passed


def test_ker_delta_is_eliminated_once_per_cla(monkeypatch):
    # the first step of the kernel filtration is the ker delta matrix:
    # enveloping, kernel_delta and lantern_of_cla share one elimination
    L = make_cla_35("f")
    matrices = []
    forward = Matrix._forward_mod_p

    def spy(self):
        matrices.append(frozenset(self.entries.items()))
        return forward(self)

    monkeypatch.setattr(Matrix, "_forward_mod_p", spy)
    enveloping(L)
    lantern_of_cla(L)
    kernel = kernel_delta(L)
    kernel[0].clear()
    assert len(matrices) == len(set(matrices))
    assert kernel_delta(L)[0] and len(kernel_delta(L)) == 3


def _two_dict_coassociativity(L):
    """Reference: the first basis name on which (delta(x)id)delta and
    (id(x)delta)delta differ as two separately built dicts, or None."""
    return next((L.names[i] for i in range(L.dim)
                 if map_slot(L.delta_constants(i), 0, L.delta_constants)
                 != map_slot(L.delta_constants(i), 1, L.delta_constants)),
                None)


def test_coassociativity_row_matches_the_two_dict_check(several_term_clas):
    # delta(z) = x(x)y - y(x)x, delta(w) = x(x)z is not coassociative on w
    bad = CLA(["x", "y", "z", "w"],
              delta={2: {(0, 1): 1, (1, 0): -1}, 3: {(0, 2): 1}})
    for L in [*cla_catalog(), *several_term_clas, bad]:
        row = next(c for c in verify_cla(L).checks
                   if c.name == "coassociativity of delta")
        want = _two_dict_coassociativity(L)
        assert (row.passed, row.witness) == (want is None, want), L
    assert _two_dict_coassociativity(bad) == "w"


def _filtered_jacobi_witness(gl, max_degree):
    """Reference: the first basis triple breaking the Jacobi identity
    among those whose degrees sum to at most max_degree, or None."""
    n = gl.dim
    for i, j, k in itertools.combinations(range(n), 3):
        if gl.degrees[i] + gl.degrees[j] + gl.degrees[k] > max_degree:
            continue
        total = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for t, ct in gl.bracket_constants(a, b).items():
                add_scaled(total, gl.bracket_constants(t, c), ct)
        if total:
            return (gl.names[i], gl.names[j], gl.names[k])
    return None


def test_jacobi_on_every_triple_matches_the_degree_filtered_check():
    # [a,b] = d, [d,c] = e breaks Jacobi on (a, b, c), of degree 3 = top
    broken = GradedLie(["a", "b", "c", "d", "e"], [1, 1, 1, 2, 3],
                       {(0, 1): {3: 1}, (2, 3): {4: -1}})
    lanterns = [gl for _, gl, _ in _catalog_lanterns()]
    for gl in [*lanterns, broken]:
        want = _filtered_jacobi_witness(gl, max(gl.degrees, default=0))
        assert gl.jacobi_witness() == want, gl
        row = gl.verify().checks[1]
        assert (row.name, row.passed, row.witness) == (
            "Jacobi identity", want is None, want)
    assert broken.jacobi_witness() == ("a", "b", "c")


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _valid_clas(draw):
    """A random valid point of cla_a, cla_b or cla35a..cla35h: variant g
    with b = c = 0 and h with a = 0, the members that satisfy Jacobi
    (``make_cla_35``), and (a, b) in the domain of variants a, e and g."""
    tag = draw(st.sampled_from(["cla_a", "cla_b",
                                *(f"cla35{v}" for v in "abcdefgh")]))
    names = family_parameter_names(tag)
    params = dict(zip(names, draw(st.lists(_small, min_size=len(names),
                                           max_size=len(names)))))
    if tag == "cla_a":
        return make_cla_a(**params)
    if tag == "cla_b":
        return make_cla_b(**params)
    variant = tag[-1]
    if variant in "aeg":
        params["a"], params["b"] = draw(st.sampled_from(
            [(0, 0), (0, 1), (1, 0), (1, 1)]))
    if variant == "g":
        params["b"] = params["c"] = 0
    if variant == "h":
        params["a"] = 0
        params["lam"] = draw(_small.filter(lambda lam: lam not in (0, -1)))
    return make_cla_35(variant, **params)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_valid_clas())
def test_random_clas_agree_with_every_oracle(L):
    # U(L) passes the battery, with the antipode certificate equal to the
    # degree loop; d^2 d^1 = 0 and H^2 <= the CE sum on C_<=G'; the report
    # rows are one elimination's to G' + 2; and P, P2 and C_3 at their
    # complete bounds are a direct kernel two degrees past 1, 2 and 3 g
    assert object_battery(L, antipode_bound=5).passed
    h = enveloping(L)
    assert _same_as_loop(h, 5).passed
    ce = _lantern_ce(h, False)
    reach = _g_prime(h, ce)
    assert _d2_after_d1(h, reach) is None
    oracle = _eliminated_report(h, reach + 2)
    assert oracle.rows[reach - 1]["h2"] <= sum(ce.values())
    for n in range(1, reach + 3):
        assert h2_report(h, n).rows == oracle.rows[:n], n
    g = h.top_degree
    assert primitive_space(h).basis == _direct(h, g + 2, 1, False)[0]
    assert p2_space(h).basis == _direct(h, 2 * g + 2, 1, True)[-1]
    assert (coradical_filtration(h, 3).basis[1:]
            == _direct(h, 3 * g + 2, 3, False)[2])

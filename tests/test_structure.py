import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfalg import structure
from hopfalg.catalog import (build, list_catalog, make_cla_35, make_cla_a,
                             make_D, make_K, make_lie_preset)
from hopfalg.cla import GradedLie, cla_transform, enveloping, lantern_of_cla
from hopfalg.cli import main
from hopfalg.cobar import h2_report
from hopfalg.errors import InputError
from hopfalg.exactlin import Matrix
from hopfalg.hopf import HopfPresentation
from hopfalg.jsonio import presentation_to_json
from hopfalg.ore import AlgebraElement, OrePresentation, bracket
from hopfalg.structure import (associated_graded, complete_bound,
                               coradical_filtration, extract_cla,
                               lantern_of_hopf, p2_space, primitive_space)
from test_cobar import (HAND_BUILT, _eliminated_report, _random_commutative,
                        _spy_eliminations)
from test_complete_bounds import _central_w

F = Fraction


def hopf_catalog():
    return [(s, build(s)) for s in list_catalog()
            if not s.tag.startswith("cla")]


def test_primitive_space_of_four_generator_families(D01, E110, F010, K):
    for h in (D01, E110, F010, K):
        space = primitive_space(h)
        assert space.dim == 2
        assert space.basis == [h.algebra.gen("X"), h.algebra.gen("Y")]


def test_primitive_space_of_abelian_enveloping_algebra():
    h = make_lie_preset("abelian4")
    assert primitive_space(h).dim == 4


def test_primitive_space_of_thin_gk3_families(A000, A100, A001, A111, B0):
    for h in (A000, A100, A001, A111, B0):
        assert primitive_space(h).dim == 2


def test_p2_space_examples(D01, K):
    space = p2_space(D01)
    assert space.dim == 3
    assert space.basis == [D01.algebra.gen(n) for n in ("X", "Y", "Z")]
    assert p2_space(K).dim == 3


def test_p2_of_enveloping_lie_algebra_is_the_lie_algebra():
    h = make_lie_preset("heis3")
    p = primitive_space(h)
    q = p2_space(h)
    assert p.dim == q.dim == 3


def test_p2_of_enveloping_cla_is_the_cla():
    h = enveloping(make_cla_a(0, 0, 0))
    assert p2_space(h).dim == 3


def test_p_inside_p2_and_quotient_bound():
    for spec, h in hopf_catalog():
        p = primitive_space(h)
        q = p2_space(h)
        assert all(q.contains(b) for b in p.basis)
        n = p.dim
        assert q.dim - p.dim <= n * (n - 1) // 2
        assert q.dim <= 4


def test_p2_bracket_closures(D01, K):
    for h in (D01, K):
        p = primitive_space(h)
        q = p2_space(h)
        primitives_abelian = all(
            bracket(a, b).is_zero() for a, b in
            itertools.combinations(p.basis, 2))
        for a, b in itertools.combinations(q.basis, 2):
            assert q.contains(bracket(a, b))
            if primitives_abelian:
                assert p.contains(bracket(a, b))
        for a in q.basis:
            for b in p.basis:
                assert q.contains(bracket(a, b))


def test_kernels_and_solves_are_served_by_the_certified_rref(K, monkeypatch):
    # with the Fraction elimination out of reach, a kernel or a solve that
    # fell back to it would raise here instead of only running slower
    def refuse(self):
        raise AssertionError("elimination fell back to Fraction arithmetic")

    monkeypatch.setattr(Matrix, "_fraction_rref", refuse)
    assert coradical_filtration(K, 3).dim == 14
    assert p2_space(K).dim == 3


def test_coradical_filtration_levels():
    h = enveloping(make_cla_a(0, 0, 0))
    alg = h.algebra
    level0 = coradical_filtration(h, 0)
    assert level0.basis == [alg.one()]
    level1 = coradical_filtration(h, 1)
    assert level1.dim == 3  # unit and the two primitives
    level2 = coradical_filtration(h, 2)
    assert level2.dim == 7  # 1, x, y, x^2, xy, y^2, z
    assert level2.contains(alg.gen("z"))
    assert level2.contains(alg.monomial({"x": 1, "y": 1}))
    assert not level2.contains(alg.monomial({"x": 3}))
    assert not level2.contains(alg.monomial({"x": 1, "z": 1}))
    level3 = coradical_filtration(h, 3)
    assert all(level3.contains(b) for b in level2.basis)


def test_extract_cla_round_trip_all_catalog_entries():
    for spec in list_catalog():
        if not spec.tag.startswith("cla"):
            continue
        L = build(spec)
        env = enveloping(L)
        back = extract_cla(env)
        assert back == L, spec.describe()
        env2 = enveloping(back)
        assert env2.algebra.kappa == env.algebra.kappa
        assert env2.delta_gen == env.delta_gen


def test_extract_cla_from_heisenberg_enveloping():
    h = make_lie_preset("heis3")
    L = extract_cla(h)
    assert L.dim == 3
    assert L.delta == {}
    assert L.bracket_constants(0, 1) == {2: 1}


def test_extract_cla_from_d_family(D01):
    L = extract_cla(D01)
    assert L.names == ("X", "Y", "Z")
    assert L.brackets == {}
    assert L.delta == {2: {(0, 1): 1, (1, 0): -1}}


def test_extract_cla_reads_p2_at_its_complete_bound(D01):
    # A(0,0,0) with a central primitive W of degree 3: P2 is complete only
    # at g = 3, where it holds W; within degree 2 it would miss W
    assert extract_cla(_central_w()).names == ("X", "Y", "Z", "W")
    # on D, P(gr H) lies in degree 1, so P2 lies in C_2 and is complete at 2
    assert p2_space(D01).complete_bound == 2
    assert extract_cla(D01).names == ("X", "Y", "Z")


def test_extract_cla_names_avoid_the_generator_names():
    # X and p3 primitive, delta(W) = X (x) p3: P2 holds W - X p3 / 2, the
    # third basis vector, whose p3 a generator already has
    h = HopfPresentation(
        OrePresentation([("X", 1), ("p3", 1), ("W", 3)]),
        {"W": [(1, {"X": 1}, {"p3": 1})]})
    L = extract_cla(h)
    assert L.names == ("X", "p3", "p3'")
    assert L.brackets == {}
    assert L.delta == {2: {(0, 1): F(1, 2), (1, 0): F(-1, 2)}}


def test_associated_graded_drops_low_order_terms(A100, A000):
    gr = associated_graded(A100)
    assert gr.algebra.kappa == A000.algebra.kappa == {}
    assert gr.delta_gen == A000.delta_gen


def test_associated_graded_of_deformed_d_family():
    from hopfalg.catalog import make_D
    deformed = make_D(1, 1, 2, 3, 4, 5, 6, 7)
    gr = associated_graded(deformed)
    assert gr.algebra.kappa == {}
    assert gr.delta_gen == make_D(1, 1, 0, 0, 0, 0, 0, 0).delta_gen


def test_associated_graded_fixes_graded_presentations(A000, D01):
    for h in (A000, D01):
        gr = associated_graded(h)
        assert gr.algebra.kappa == h.algebra.kappa
        assert gr.delta_gen == h.delta_gen


def test_lantern_of_abelian_enveloping_algebra():
    gl = lantern_of_hopf(make_lie_preset("abelian4"))
    assert gl.dims_by_degree() == {1: 4}
    assert gl.brackets == {}


def test_lantern_of_nonabelian_enveloping_algebra_is_abelian():
    gl = lantern_of_hopf(make_lie_preset("heis3"))
    assert gl.dims_by_degree() == {1: 3}
    assert gl.brackets == {}


def test_lantern_of_heisenberg_type_cla():
    h = enveloping(make_cla_a(0, 0, 0))
    gl = lantern_of_hopf(h)
    assert gl.dims_by_degree() == {1: 2, 2: 1}
    assert list(gl.brackets) == [(0, 1)]
    ((target, coeff),) = gl.brackets[(0, 1)].items()
    assert gl.degrees[target] == 2 and coeff != 0


def test_lantern_of_d_family_two_step_chain(D01):
    gl = lantern_of_hopf(D01)
    assert gl.dims_by_degree() == {1: 2, 2: 1, 3: 1}
    assert set(gl.brackets[(0, 1)]) == {2}
    # theta = (0, 1): the chain continues through the second primitive dual
    assert (1, 2) in gl.brackets and set(gl.brackets[(1, 2)]) == {3}
    assert (0, 2) not in gl.brackets
    assert gl.verify().passed


def test_lantern_brackets_scale_with_theta():
    from hopfalg.catalog import make_D
    gl = lantern_of_hopf(make_D(1, 0, 0, 0, 0, 0, 0, 0))
    assert (0, 2) in gl.brackets and set(gl.brackets[(0, 2)]) == {3}
    assert (1, 2) not in gl.brackets


def test_lantern_agrees_with_cla_computation():
    for variant, params in [("a", dict(a=1, b=1, c=0)), ("f", {}),
                            ("h", dict(lam=2, a=0))]:
        L = make_cla_35(variant, **params)
        lh = lantern_of_hopf(enveloping(L))
        lc = lantern_of_cla(L)
        assert lh.degrees == lc.degrees
        assert lh.brackets == lc.brackets
        assert lh.names == lc.names


def test_lanterns_match_golden_on_catalog():
    # tests/golden/lanterns_d4.json holds lantern_of_hopf(h) of every Hopf
    # presentation of the catalog, all of whose generators lie in degrees
    # <= 4: integral constants as JSON ints, Fractions as "p/q" strings,
    # so a change of scalar type shows too
    golden = json.loads((Path(__file__).parent / "golden" /
                         "lanterns_d4.json").read_text())
    seen = {}
    for spec, h in hopf_catalog():
        gl = lantern_of_hopf(h)
        seen[spec.describe()] = {
            "names": gl.names, "degrees": gl.degrees,
            "brackets": {f"{i},{j}": {str(k): c if isinstance(c, int) else str(c)
                                      for k, c in sorted(terms.items())}
                         for (i, j), terms in sorted(gl.brackets.items())}}
    assert seen == golden


def test_lantern_runs_no_elimination_and_builds_no_presentation(
        D01, monkeypatch):
    # gr H is polynomial on the generators, so the lantern is read off
    # delta of the generators: no product matrix, no gr H presentation
    calls = []

    def graded_spy(h):
        calls.append("associated_graded")
        return associated_graded(h)

    _spy_eliminations(monkeypatch, lambda m: calls.append(m.cols))
    monkeypatch.setattr(structure, "associated_graded", graded_spy)
    gl = lantern_of_hopf(D01)
    assert calls == []
    assert gl.dims_by_degree() == {1: 2, 2: 1, 3: 1}


def _product_matrix_lantern(h, d):
    """Reference lantern: in each degree m of gr H, the functionals that
    kill every product of lower-degree monomials are the kernel of the
    product matrix; the kernel vector of free column f lifts to monomial
    f, and brackets pair dual functionals against the coproduct of gr H."""
    G = associated_graded(h)
    alg = G.algebra
    by_degree = {}
    for m in alg.monomials_up_to(d):
        by_degree.setdefault(alg.monomial_degree(m), []).append(m)
    lantern = []   # (degree, lift, functional)
    for deg in range(1, d + 1):
        monos = by_degree.get(deg, [])
        coords = {m: i for i, m in enumerate(monos)}
        products = [alg.mul_monomials(u, v) for lower in range(1, deg)
                    for u in by_degree.get(lower, [])
                    for v in by_degree.get(deg - lower, [])]
        matrix = Matrix(len(products), len(monos), {
            (r, coords[m]): c for r, prod in enumerate(products)
            for m, c in prod.items()})
        for vec in matrix.kernel_basis():
            lantern.append((deg, monos[max(vec)],
                            {monos[i]: c for i, c in vec.items()}))
    names = []
    for _, m, _ in lantern:
        assert sum(m) == 1
        names.append(alg.names[m.index(1)] + "*")
    brackets = {}
    for i, (p, _, f) in enumerate(lantern):
        for j in range(i + 1, len(lantern)):
            q, _, g = lantern[j]
            consts = {}
            for k, (r, y, _) in enumerate(lantern):
                if r != p + q:
                    continue
                val = sum(c * (f.get(m1, 0) * g.get(m2, 0)
                               - g.get(m1, 0) * f.get(m2, 0))
                          for (m1, m2), c in
                          G._coproduct_monomial(y).terms.items())
                if val:
                    consts[k] = val
            if consts:
                brackets[(i, j)] = consts
    return names, [deg for deg, _, _ in lantern], brackets, \
        [m for _, m, _ in lantern]


def _typed(brackets):
    return {key: {k: (type(c), c) for k, c in terms.items()}
            for key, terms in brackets.items()}


def _check_lantern_against_product_matrix(h, name):
    """The lantern is the product-matrix oracle's at g: past the top
    generator degree no functional is indecomposable."""
    names, degrees, brackets, lifts = _product_matrix_lantern(h, h.top_degree)
    gl = lantern_of_hopf(h)
    assert (gl.names, gl.degrees) == (names, degrees), name
    assert (list(_typed(gl.brackets).items())
            == list(_typed(brackets).items())), name
    assert gl.lifts == lifts, name


def test_lantern_matches_product_matrix_oracle():
    for name, h in _catalog_presentations() + list(HAND_BUILT.items()):
        _check_lantern_against_product_matrix(h, name)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_lantern_of_random_commutative_matches_product_matrix_oracle(seed):
    _check_lantern_against_product_matrix(_random_commutative(seed), seed)


def _reordered_generators():
    # generators listed out of (degree, index) order; delta(Z) is not
    # skew, so the bracket is the difference of its two coefficients
    return HopfPresentation(
        OrePresentation([("Z", 2, (1, 1)), ("X", 1, (1, 0)),
                         ("Y", 1, (0, 1))]),
        {"Z": [(F(3, 2), {"X": 1}, {"Y": 1}),
               (F(-1, 3), {"Y": 1}, {"X": 1})]})


def test_lantern_orders_duals_by_degree_then_index():
    h = _reordered_generators()
    gl = lantern_of_hopf(h)
    assert gl.names == ["X*", "Y*", "Z*"] and gl.degrees == [1, 1, 2]
    assert gl.brackets == {(0, 1): {2: F(11, 6)}}
    assert type(gl.brackets[(0, 1)][2]) is F
    assert gl.lifts == [(0, 1, 0), (0, 0, 1), (1, 0, 0)]
    # the bidegrees handed to ce_h2_dims follow the lifts, not the table
    bidegrees = [h.algebra.monomial_bidegree(m) for m in gl.lifts]
    assert bidegrees == [(1, 0), (0, 1), (1, 1)]
    assert gl.ce_h2_dims(bidegrees) == {(2, 1): 1, (1, 2): 1}
    # in table order Z* would get X's bidegree, which [X*, Y*] does not add to
    with pytest.raises(InputError, match=r"\[X\*,Y\*\] -> Z\*: \(0, 1\) "
                                         r"!= \(1, 1\) \+ \(1, 0\)"):
        gl.ce_h2_dims(list(h.algebra.bidegrees))
    for bound in range(1, 9):
        for by_bidegree in (False, True):
            assert (h2_report(h, bound, by_bidegree).to_json()
                    == _eliminated_report(h, bound, by_bidegree).to_json()), \
                (bound, by_bidegree)


def test_lantern_cli_on_reordered_generators(tmp_path, capsys):
    path = tmp_path / "reordered.json"
    path.write_text(json.dumps(presentation_to_json(_reordered_generators())))
    assert main(["lantern", "--json", "--file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"basis": ["X*", "Y*", "Z*"], "degrees": [1, 1, 2],
                   "brackets": {"0,1": {"2": "11/6"}}}
    # the lantern is an invariant of H and takes no degree bound
    with pytest.raises(SystemExit):
        main(["lantern", "--max-degree", "3", "--file", str(path)])
    assert "--max-degree" in capsys.readouterr().err


def test_lantern_generated_in_degree_one(K):
    # every degree-2 and degree-3 dual is hit by brackets of lower duals
    gl = lantern_of_hopf(K)
    hit = set()
    for (i, j), terms in gl.brackets.items():
        hit |= set(terms)
    for idx, deg in enumerate(gl.degrees):
        if deg > 1:
            assert idx in hit
    assert gl.generated_in_degree_one()


@pytest.mark.parametrize("degrees, brackets, generated", [
    ([1, 1, 2], {(0, 1): {2: 1}}, True),
    ([1, 2], {}, False),
    ([1, 1, 2, 2], {(0, 1): {2: 1}}, False),
    ([1, 1, 2, 3], {(0, 1): {2: 1}, (0, 2): {3: 1}}, True)],
    ids=["heisenberg", "abelian-degree-2", "one-of-two-degree-2",
         "degree-3-from-1-and-2"])
def test_generated_in_degree_one_ranks_the_brackets(degrees, brackets,
                                                    generated):
    gl = GradedLie([f"e{i}" for i in range(len(degrees))], degrees, brackets)
    assert gl.generated_in_degree_one() is generated


def test_lantern_records_the_lifted_indecomposables(K):
    # one functional per generator, each dual to that generator's monomial
    gl = lantern_of_hopf(K)
    alg = K.algebra
    assert gl.lifts == [alg.monomial_tuple({name: 1})
                        for name in ("X", "Y", "Z", "W")]
    assert lantern_of_cla(make_cla_a(1, 2, 0)).lifts is None


def test_subspace_json_shape(A000):
    data = primitive_space(A000).to_json()
    assert list(data) == ["dimension", "basis", "complete_bound"]
    assert data["dimension"] == 2 and data["complete_bound"] == 1
    assert data["basis"][0] == [{"coeff": "1", "monomial": {"X": 1}}]


def test_contains_refuses_an_element_of_another_presentation():
    space = p2_space(make_D(0, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        space.contains(make_lie_preset("abelian4").algebra.gen("c"))


def test_primitives_are_coradical_level_one():
    # X, Y primitive and delta(Z) = X (x) Y + Y (x) X, so XY - Z is
    # primitive; both routes read it off one kernel with lead Z
    h = HopfPresentation(OrePresentation([("X", 1), ("Y", 1), ("Z", 2)]),
                         {"Z": [(1, {"X": 1}, {"Y": 1}),
                                (1, {"Y": 1}, {"X": 1})]})
    alg = h.algebra
    primitives = primitive_space(h).basis
    assert primitives == coradical_filtration(h, 1).basis[1:]
    assert primitives[-1] == alg.gen("Z") - alg.gen("X") * alg.gen("Y")


def _catalog_presentations():
    return [(s.describe(), enveloping(o) if s.tag.startswith("cla") else o)
            for s in list_catalog() for o in [build(s)]]


def test_subspaces_take_one_elimination_per_kernel(monkeypatch):
    # on a cold presentation: each kernel is eliminated once, with one
    # column per monomial, and every later call reads the kept basis (P2
    # and level 1 read the kept P); coordinates over a kept basis are
    # read at its leads, so membership, extract_cla and the CLA lantern
    # over a kept ker delta take no elimination
    K = make_K()
    # the degree-one certificate is one rank, kept; read it first
    assert complete_bound(K, 1) == 1
    calls = []
    _spy_eliminations(monkeypatch, lambda m: calls.append(m.cols))
    primitives = primitive_space(K).basis   # taken at 1
    assert calls == [len(K.algebra.monomials_up_to(1))]
    calls.clear()
    monos = K.algebra.monomials_up_to(4)
    structure._coradical_kernel(
        K, monos, [K._reduced_monomial(m) for m in monos], primitives)
    assert calls == [len(monos)]
    calls.clear()
    p2 = p2_space(K)   # taken at 2
    assert calls == [len(K.algebra.monomials_up_to(2))]
    for n, new in [(1, 0), (2, 1), (3, 1)]:
        calls.clear()
        coradical_filtration(K, n)
        assert len(calls) == new
    calls.clear()
    primitive_space(K)
    p2_space(K)
    coradical_filtration(K, 3)
    assert p2.contains(p2.basis[-1]) and not p2.contains(K.algebra.one())
    assert calls == []
    L = make_cla_35("f")
    lantern_of_cla(L)
    assert len(calls) == 1
    calls.clear()
    lantern_of_cla(L)
    assert calls == []
    cla_transform(L, Matrix.identity(4))
    assert len(calls) == 1
    calls.clear()
    asked = []

    def p2_spy(h):
        asked.append(h)
        return p2_space(h)

    monkeypatch.setattr(structure, "p2_space", p2_spy)
    extract_cla(K)   # the kept P2, taken at 2
    assert asked == [K] and calls == []


def test_every_coradical_kernel_has_one_column_per_monomial(monkeypatch):
    # the factor pairs are read at their leads, not solved for, so the
    # only columns of the matrix are the monomials'
    presentations = _catalog_presentations()
    columns = []
    kernel = structure._coradical_kernel

    def kernel_spy(h, monos, cols, factors):
        columns.append([len(monos)])
        return kernel(h, monos, cols, factors)

    for _, h in presentations:
        complete_bound(h, 1)   # the kept degree-one certificate, one rank
    _spy_eliminations(monkeypatch, lambda m: columns[-1].append(m.cols))
    monkeypatch.setattr(structure, "_coradical_kernel", kernel_spy)
    for _, h in presentations:
        p2_space(h)
        coradical_filtration(h, 3)
    assert len(columns) == 4 * 34
    assert all(cols[1:] == cols[:1] for cols in columns)


def test_primitive_and_p2_dimensions_survive_grading(E110, K, B1):
    # the filtration invariants of a presentation match those of its
    # associated graded presentation
    for h in (E110, K, B1):
        gr = associated_graded(h)
        assert primitive_space(h).dim == primitive_space(gr).dim
        assert p2_space(h).dim == p2_space(gr).dim


def test_graded_p2_complements_the_decomposables(D01, E110, F010, K):
    # inside gr H: P2 + (degree-1 products) fills degrees one and two,
    # and the two pieces intersect trivially
    for h in (D01, E110, F010, K):
        gr = associated_graded(h)
        alg = gr.algebra
        p2 = p2_space(gr)
        ones = [m for m in alg.monomials_up_to(1)]
        twos = [m for m in alg.monomials_up_to(2)
                if alg.monomial_degree(m) == 2]
        products = []
        for a in ones:
            for b in ones:
                prod = alg.mul_monomials(a, b)
                products.append(AlgebraElement(alg, dict(prod)))
        monos = alg.monomials_up_to(2)
        coords = {m: i for i, m in enumerate(monos)}

        def vec(elt):
            return {coords[m]: c for m, c in elt.terms.items()}

        products = [vec(e) for e in products]
        rank = Matrix.from_keyed_columns(products).rank()
        combined = Matrix.from_keyed_columns(
            [vec(b) for b in p2.basis] + products).rank()
        assert combined == p2.dim + rank
        assert combined == len(ones) + len(twos)


def test_lantern_degree_one_is_dual_to_primitives():
    for spec, h in hopf_catalog():
        gl = lantern_of_hopf(h)
        assert gl.dims_by_degree().get(1, 0) == primitive_space(h).dim

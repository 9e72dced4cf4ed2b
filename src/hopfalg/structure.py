"""Filtration-bounded structure of a Hopf presentation.

The reduced coproduct never raises weighted degree, so restricting to the
span of monomials of degree <= d turns membership conditions like
"delta(a) = 0" or "delta(a) is skew and lies in P(x)P" into exact finite
linear algebra over the rationals.  Results are exact on the truncation;
stability between consecutive bounds is what the callers (and tests) use
to certify statements about the full algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cla import CLA, GradedLie
from .errors import InputError, StructuralError
from .exactlin import Matrix, ONE, ZERO, express, reduce_to_basis, sparse
from .hopf import HopfPresentation, tensor_of
from .ore import AlgebraElement, Monomial, OrePresentation


@dataclass
class FilteredSubspace:
    """A subspace of the degree <= d truncation with a canonical basis."""

    presentation: HopfPresentation
    degree_bound: int
    basis: list[AlgebraElement]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, a: AlgebraElement) -> bool:
        return express([b.terms for b in self.basis], [a.terms])[0] is not None

    def to_json(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "dimension": self.dim,
            "basis": [
                [{"coeff": str(c),
                  "monomial": {name: e for name, e in
                               zip(self.presentation.algebra.names, m) if e}}
                 for m, c in b.sorted_terms()]
                for b in self.basis
            ],
        }

    def __repr__(self):
        basis = ", ".join(repr(b) for b in self.basis)
        return (f"FilteredSubspace(dim {self.dim} within degree "
                f"{self.degree_bound}: {basis})")


def _elements_from_vectors(h: HopfPresentation, monos: list[Monomial],
                           vectors: list[list[Fraction]]) -> list[AlgebraElement]:
    out = []
    for vec in vectors:
        terms = {m: c for m, c in zip(monos, vec) if c}
        out.append(AlgebraElement(h.algebra, terms))
    return out


def primitive_space(h: HopfPresentation, d: int) -> FilteredSubspace:
    """Basis of {a : deg a <= d, counit(a) = 0, delta(a) = 0}."""
    if d < 1:
        raise InputError("degree bound must be >= 1")
    monos = h.algebra.monomials_up_to(d)
    mat = Matrix.from_keyed_columns(
        [h.reduced_coproduct(h.algebra.monomial(m)).terms for m in monos])
    return FilteredSubspace(h, d, _elements_from_vectors(h, monos,
                                                         mat.kernel_basis()))


def p2_space(h: HopfPresentation, d: int,
             primitives: Optional[FilteredSubspace] = None) -> FilteredSubspace:
    """Basis of {a : deg a <= d, delta(a) skew-symmetric and in P(x)P}.

    Solved as one kernel problem: unknowns are the coefficients of a over
    the monomial basis plus auxiliary coefficients mu_ab expressing
    delta(a) = sum mu_ab p_a (x) p_b; the skew condition is a second block
    of equations in the monomial coefficients alone.
    """
    if primitives is None:
        primitives = primitive_space(h, d)
    monos = h.algebra.monomials_up_to(d)
    pbasis = primitives.basis
    deltas = [h.reduced_coproduct(h.algebra.monomial(m)) for m in monos]

    # rows: ("m", key) for delta(a) - sum mu_ab p_a (x) p_b, ("s", key)
    # for the symmetric part of delta(a)
    columns = []
    for t in deltas:
        col = {("m", key): c for key, c in t.terms.items()}
        col.update({("s", key): c for key, c in (t + t.flip()).terms.items()})
        columns.append(col)
    for a in pbasis:
        for b in pbasis:
            columns.append({("m", key): -c
                            for key, c in tensor_of(a, b).terms.items()})

    mat = Matrix.from_keyed_columns(columns)
    kernel = mat.kernel_basis()
    projected = [vec[:len(monos)] for vec in kernel]
    basis_vectors = reduce_to_basis([list(v) for v in projected])
    return FilteredSubspace(h, d, _elements_from_vectors(h, monos, basis_vectors))


def coradical_filtration(h: HopfPresentation, n: int, d: int) -> FilteredSubspace:
    """Basis of the n-th coradical piece within the degree <= d truncation.

    level 0 is spanned by 1; for n >= 1 an augmentation-ideal element lies
    in level n exactly when its reduced coproduct lands in
    (level n-1)+ (x) (level n-1)+.
    """
    if n < 0:
        raise InputError("filtration level must be >= 0")
    if d < 1:
        raise InputError("degree bound must be >= 1")
    if n == 0:
        return FilteredSubspace(h, d, [h.algebra.one()])
    monos = h.algebra.monomials_up_to(d)
    deltas = [h.reduced_coproduct(h.algebra.monomial(m)) for m in monos]
    level_basis: list[AlgebraElement] = []
    for _ in range(1, n + 1):
        columns = [t.terms for t in deltas]
        for a in level_basis:
            for b in level_basis:
                columns.append((-tensor_of(a, b)).terms)
        mat = Matrix.from_keyed_columns(columns)
        kernel = mat.kernel_basis()
        projected = [vec[:len(monos)] for vec in kernel]
        vectors = reduce_to_basis([list(v) for v in projected])
        level_basis = _elements_from_vectors(h, monos, vectors)
    return FilteredSubspace(h, d, [h.algebra.one()] + level_basis)


# -- CLA extraction ------------------------------------------------------------


def extract_cla(h: HopfPresentation, d: int) -> CLA:
    """Read a CLA off the anti-cocommutative space of the presentation.

    The basis is the canonical p2 basis; bracket constants come from
    commutators of basis elements re-expressed in the basis, coproduct
    constants from reduced coproducts re-expressed in basis (x) basis
    coordinates.  Fails when the space is not closed or not stable
    between bounds d-1 and d.
    """
    if d < 2:
        raise InputError("degree bound must be >= 2")
    prev = p2_space(h, d - 1)
    space = p2_space(h, d)
    if prev.dim != space.dim:
        raise StructuralError(
            f"p2 space is not stable between bounds {d - 1} and {d} "
            f"({prev.dim} vs {space.dim}); raise the bound")
    basis = space.basis
    names = []
    for i, b in enumerate(basis):
        if len(b.terms) == 1:
            (mono, coeff), = b.terms.items()
            if coeff == 1 and sum(mono) == 1:
                g = next(idx for idx, e in enumerate(mono) if e)
                names.append(h.algebra.names[g])
                continue
        names.append(f"p{i + 1}")

    nb = len(basis)
    pairs = [(i, j) for i in range(nb) for j in range(i + 1, nb)]
    commutators = [(basis[i] * basis[j] - basis[j] * basis[i]).terms
                   for i, j in pairs]
    brackets = {}
    for (i, j), sol in zip(pairs, express([b.terms for b in basis],
                                          commutators)):
        if sol is None:
            raise StructuralError(
                f"[{names[i]},{names[j]}] does not lie in the p2 space")
        terms = sparse(sol)
        if terms:
            brackets[(i, j)] = terms

    pair_cols = [tensor_of(a, b).terms for a in basis for b in basis]
    deltas = [h.reduced_coproduct(b).terms for b in basis]
    delta = {}
    for i, sol in enumerate(express(pair_cols, deltas)):
        if sol is None:
            raise StructuralError(
                f"delta({names[i]}) does not lie in P2 (x) P2")
        terms = {(a, b): sol[a * nb + b]
                 for a in range(nb) for b in range(nb) if sol[a * nb + b]}
        if terms:
            delta[i] = terms
    return CLA(names, brackets, delta)


# -- associated graded -----------------------------------------------------------


def associated_graded(h: HopfPresentation) -> HopfPresentation:
    """Presentation-level associated graded algebra.

    Each commutator is replaced by its homogeneous component in degree
    deg x_i + deg x_j (empty under the validated strict degree drop, so
    the graded algebra is commutative) and each reduced coproduct by its
    top homogeneous component in degree deg g.
    """
    p = h.algebra
    commutators = {}
    for (j, i), terms in p.kappa.items():
        want = p.degrees[i] + p.degrees[j]
        kept = [(c, m) for m, c in terms.items() if p.monomial_degree(m) == want]
        if kept:
            commutators[(p.names[j], p.names[i])] = [
                (c, {p.names[t]: e for t, e in enumerate(m) if e})
                for c, m in kept]
    coproducts = {}
    for g, terms in h.delta_gen.items():
        want = p.degrees[g]
        kept = []
        for (l, r), c in terms.items():
            if p.monomial_degree(l) + p.monomial_degree(r) == want:
                kept.append((c,
                             {p.names[t]: e for t, e in enumerate(l) if e},
                             {p.names[t]: e for t, e in enumerate(r) if e}))
        if kept:
            coproducts[p.names[g]] = kept
    algebra = OrePresentation(list(p.generators), commutators,
                              strict=p.strict)
    return HopfPresentation(algebra, coproducts, strict=h.strict)


# -- lantern -----------------------------------------------------------------------


def lantern_of_hopf(h: HopfPresentation, d: int) -> GradedLie:
    """Graded Lie algebra dual to the associated graded algebra, degrees <= d.

    In each degree m the indecomposable quotient of gr H is computed by
    greedy echelon pivoting; the dual basis of a monomial complement gives
    the degree-m component.  Brackets of dual functionals pair against the
    coproduct of lifted indecomposables:
    [f, g](y) = (f (x) g - g (x) f)(Delta y), which is independent of the
    lift because commutators of primitive functionals kill decomposables.
    """
    if d < 1:
        raise InputError("degree bound must be >= 1")
    G = associated_graded(h)
    alg = G.algebra

    by_degree: dict[int, list[Monomial]] = {}
    for m in alg.monomials_up_to(d):
        by_degree.setdefault(alg.monomial_degree(m), []).append(m)

    lifts: dict[int, list[Monomial]] = {}
    functionals: dict[int, list[dict[Monomial, Fraction]]] = {}
    for deg in range(1, d + 1):
        monos = by_degree.get(deg, [])
        if not monos:
            lifts[deg] = []
            functionals[deg] = []
            continue
        coords = {m: i for i, m in enumerate(monos)}
        decomposable_rows = []
        for lower in range(1, deg):
            for u in by_degree.get(lower, []):
                for v in by_degree.get(deg - lower, []):
                    prod = alg.mul_monomials(u, v)
                    row = [ZERO] * len(monos)
                    for m, c in prod.items():
                        row[coords[m]] = c
                    decomposable_rows.append(row)
        dec_basis = reduce_to_basis(decomposable_rows)
        pivot = {next(i for i, c in enumerate(row) if c) for row in dec_basis}
        free = [i for i in range(len(monos)) if i not in pivot]
        lifts[deg] = [monos[i] for i in free]
        # invert [decomposable basis | lift coordinates] to read off the
        # dual functionals of the lifts
        ncols = len(dec_basis) + len(free)
        if ncols != len(monos):
            raise StructuralError("indecomposable complement mismatch")
        mat = Matrix(len(monos), ncols)
        for jcol, row in enumerate(dec_basis):
            for i, c in enumerate(row):
                if c:
                    mat[i, jcol] = c
        for jcol, i in enumerate(free):
            mat[i, len(dec_basis) + jcol] = ONE
        inv = mat.inverse()
        funcs = []
        for s in range(len(free)):
            row = len(dec_basis) + s
            funcs.append({monos[c]: inv[row, c] for c in range(len(monos))
                          if inv[row, c]})
        functionals[deg] = funcs

    names = []
    degrees = []
    index: dict[tuple[int, int], int] = {}
    for deg in range(1, d + 1):
        for s, m in enumerate(lifts[deg]):
            index[(deg, s)] = len(names)
            if sum(m) == 1:
                g = next(i for i, e in enumerate(m) if e)
                names.append(alg.names[g] + "*")
            else:
                base = AlgebraElement(alg, {m: ONE}).render_monomial(m)
                names.append(f"({base})*")
            degrees.append(deg)

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for p_deg in range(1, d + 1):
        for q_deg in range(p_deg, d + 1):
            target = p_deg + q_deg
            if target > d or not lifts.get(target):
                continue
            for s, fs in enumerate(functionals[p_deg]):
                t_start = s + 1 if p_deg == q_deg else 0
                for t in range(t_start, len(functionals[q_deg])):
                    ft = functionals[q_deg][t]
                    consts = {}
                    for r, y in enumerate(lifts[target]):
                        val = ZERO
                        for (m1, m2), c in G._coproduct_monomial(y).terms.items():
                            d1 = alg.monomial_degree(m1)
                            d2 = alg.monomial_degree(m2)
                            if d1 == p_deg and d2 == q_deg:
                                a = fs.get(m1, ZERO)
                                b = ft.get(m2, ZERO)
                                if a and b:
                                    val += c * a * b
                            if d1 == q_deg and d2 == p_deg:
                                a = ft.get(m1, ZERO)
                                b = fs.get(m2, ZERO)
                                if a and b:
                                    val -= c * a * b
                        if val:
                            consts[index[(target, r)]] = val
                    if consts:
                        ii = index[(p_deg, s)]
                        jj = index[(q_deg, t)]
                        brackets[(ii, jj)] = consts
    return GradedLie(names, degrees, brackets)

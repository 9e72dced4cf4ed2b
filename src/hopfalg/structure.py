"""Structure of a Hopf presentation: its primitive, anti-cocommutative
and coradical spaces, its lantern and the CLA read off P2.

The reduced coproduct never raises weighted degree, so restricting to the
span of monomials of degree <= d turns membership conditions like
"delta(a) = 0" or "delta(a) is skew and lies in P(x)P" into exact finite
linear algebra over the rationals.  Each space lies in degrees <=
``complete_bound``, read off the lantern's
``GradedLie.generated_in_degree_one``, so it is computed there, whole,
once per presentation: the kernel basis is kept on the presentation and
read by every later call.  None of these invariants of H takes a degree
bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cla import CLA, GradedLie
from .errors import InputError, StructuralError
from .exactlin import (Matrix, Scalar, add_scaled, lead_coordinates,
                       lead_pair_coordinates)
from .hopf import HopfPresentation
from .jsonio import element_to_terms
from .ore import AlgebraElement, Monomial, OrePresentation, bracket
from .reports import require_passed


@dataclass
class FilteredSubspace:
    """A whole subspace S of H with one kernel's basis: each vector reads 1
    at its lead (its last monomial in canonical order, degree first) and 0
    at every other lead; leads increase.  S lies in degrees <=
    ``complete_bound``, and its part S_d in degrees <= d, the space the
    same conditions cut out of the degree <= d truncation, is spanned by
    the basis vectors of degree <= d.  For P that is the definition.  For
    deg a <= d, delta(a) has both factors of degree <= d-1, and the
    factor space T (the level below, or P for P2) has (T (x) T) cap
    (V_{<=d-1} (x) V_{<=d-1}) = T_{d-1} (x) T_{d-1}; induction on the
    level does P2 and the coradical filtration."""

    presentation: HopfPresentation
    basis: list[AlgebraElement]
    complete_bound: int   # S lies in degrees <= this

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, a: AlgebraElement) -> bool:
        if a.p is not self.presentation.algebra:
            raise InputError("element belongs to a different presentation")
        return not lead_coordinates([b.terms for b in self.basis],
                                    _leads(self.basis), a.terms)[1]

    def to_json(self) -> dict:
        return {
            "dimension": self.dim,
            "basis": [element_to_terms(b) for b in self.basis],
            "complete_bound": self.complete_bound,
        }

    def __repr__(self):
        basis = ", ".join(repr(b) for b in self.basis)
        return f"FilteredSubspace(dim {self.dim}: {basis})"


def complete_bound(h: HopfPresentation, level: int) -> int:
    """A degree from which C_level, the level-th piece of the coradical
    filtration, lies in the degree <= d truncation, so C_level computed at
    any d >= it is the same space, with the same canonical basis; 0 for
    C_0 = k1.  With u = 1 when P(gr H) lies in degree 1 and u = g, the top
    generator degree, otherwise: u for P = C_1, 2u for C_2, and level * u
    for a higher level, which needs a coalgebra: StructuralError names the
    failed rows of the kept ``verify_coassociativity`` report.  The
    anti-cocommutative P2 inside C_2 lies in degrees <= g by the P
    argument below, so it is complete at min(g, ``complete_bound(h, 2)``)
    (``p2_space``).

    Top parts: every commutator drops degree and every factor of
    delta(x_i) is unit-free of lower degree, so gr H is the polynomial
    algebra on the generators, and the degree-e part of delta(a), e =
    deg a, is delta_gr(a_top), the reduced coproduct of gr H.
    P: for delta(a) = 0, a_top is primitive in gr H.  Count letters in
    it.  delta_gr of a product of k letters is its shuffle coproduct,
    which keeps k letters in all, plus terms with more (each delta
    term of a letter has a letter on either side).  So the lowest
    letter-count part of a_top has zero shuffle coproduct and is
    linear in the generators (characteristic 0): e <= g.
    Degree one: M_e, for a generator degree e >= 2, has a row per
    generator x_g of degree e, a column per pair i < j with deg x_i + deg
    x_j = e and entry delta(x_g)[x_i (x) x_j] - delta(x_g)[x_j (x) x_i]:
    the bracket constants of the lantern L (``lantern_of_hopf``).  The
    blocks share no row, so one rank of them all tells whether each M_e
    has full row rank, L = L(1) + [L, L]
    (``GradedLie.generated_in_degree_one``).  Then P(gr H) lies in degree
    1: by the P argument, a in P(gr H) of degree e > 1 has a linear lowest
    letter-count part, c.x over the generators of degree e.  Letter (x)
    letter terms of delta_gr(a) come from that part through delta_gr(x_g)
    and from the two-letter part of a through its shuffle coproduct, which
    is symmetric; so the skew letter (x) letter part of delta_gr(a) = 0 is
    c^T M_e, and c = 0, a contradiction.  Only the degree drop, the
    unit-free delta(x_g) and Delta extended as an algebra map are used: no
    PBW, coassociativity or compatibility verdict.  On a coassociative
    presentation the converse holds too, as P(gr H) = (L / [L, L])*; on
    any other it is only sufficient.  So P(gr H) lies in degrees <= u.
    C_2: delta(a) lies in P (x) P, of degree <= 2u.  For deg a above
    that, the degree-e part of delta(a) vanishes, so a_top is primitive
    in gr H and e <= u, a contradiction.  No Hopf axiom is used.
    C_n, n >= 3, with coassociativity: write delta(a) over a basis of
    C_{n-1} whose top parts are independent; its degree-e part lies in
    C_{n-1}(gr H) (x) C_{n-1}(gr H) by induction, so a_top lies in
    C_n(gr H).  The degree-deg x_g part of the coassociativity check on
    x_g is that of gr H, so gr H is a coassociative, commutative,
    connected graded Hopf algebra, gr H = U(L)* for L the lantern,
    which lives in the generator degrees (Milnor-Moore).  By
    coassociativity C_n(gr H) lies in the kernel of the iterated
    reduced coproduct into n+1 factors, the annihilator of I^{n+1} for
    I the augmentation ideal of U(L), that is (U(L) / I^{n+1})*.
    U(L) / I^{n+1} is spanned by products of at most n elements of L,
    each of degree <= g, so a_top, of degree e, has e <= n g.  When
    P(gr H) = (L / [L, L])* lies in degree 1, L is generated by L(1),
    so U(L) is generated in degree 1 and I^{n+1} holds every degree
    above n: e <= n.  Then C_n is the span of the monomials of degree
    <= n (Sweedler, Hopf Algebras, 1969, section 11.2, on strictly
    graded coalgebras; Montgomery, Hopf Algebras and Their Actions on
    Rings, 1993, sections 5.2-5.3).
    """
    if level < 1:
        return 0
    if level > 2:
        require_passed(f"C_{level} needs a coalgebra (coassociative Delta)",
                       h._coassociativity_report())
    unit = 1 if lantern_of_hopf(h).generated_in_degree_one() else h.top_degree
    return level * unit


def primitive_space(h: HopfPresentation) -> FilteredSubspace:
    """Basis of P = {a : counit(a) = 0, delta(a) = 0}, taken at
    ``complete_bound(h, 1)``."""
    return FilteredSubspace(h, _coradical_level(h, 1), complete_bound(h, 1))


def _coradical_level(h: HopfPresentation, n: int) -> list[AlgebraElement]:
    """Canonical basis of the augmentation part of coradical level n >= 1,
    taken at its complete bound and kept on h under ("coradical", n).

    Level n-1 is read at its own complete bound, which is at most level
    n's, and level 1 is P, so P2 and every level read the one kept P.
    """
    def compute():
        monos = h.algebra.monomials_up_to(complete_bound(h, n))
        factors = _coradical_level(h, n - 1) if n > 1 else []
        return _coradical_kernel(
            h, monos, [h._reduced_monomial(m) for m in monos], factors)
    return list(h._kept(("coradical", n), compute))


def _coradical_kernel(h: HopfPresentation, monos: list[Monomial], columns,
                      factors: list[AlgebraElement]) -> list[AlgebraElement]:
    """Canonical basis of the a over monos with delta(a) in factors (x) factors.

    ``columns`` are the reduced coproducts of monos (extra rows may put
    conditions on a alone).  factors (x) factors is reduced at the lead
    pairs of the kept basis factors, so delta(a) lies in it exactly when
    ``lead_pair_coordinates`` leaves no remainder; that remainder is
    linear in a, so the canonical basis is the kernel of the columns'
    remainders.
    """
    terms, leads = [f.terms for f in factors], _leads(factors)
    rests = [rest for _, rest in lead_pair_coordinates(terms, leads, columns)]
    kernel = Matrix.from_keyed_columns(rests).kernel_basis()
    return [AlgebraElement(h.algebra, {monos[i]: c for i, c in vec.items()})
            for vec in kernel]


def _leads(basis: list[AlgebraElement]) -> list[Monomial]:
    """Each kept basis vector's lead: its last monomial in canonical order."""
    return [max(b.terms, key=b.p.monomial_key) for b in basis]


def p2_space(h: HopfPresentation) -> FilteredSubspace:
    """Basis of P2 = {a : delta(a) skew-symmetric and in P(x)P}.

    P2 lies in degrees <= g, the top generator degree, and inside C_2, so
    it is taken at min(g, ``complete_bound(h, 2)``) and kept on h under
    ("p2",); P is the kept ``primitive_space`` basis.  Let a lie in P2,
    e = deg a >= 1.  delta(a) is skew, so its degree-e part
    delta_gr(a_top) is skew too (see ``complete_bound``).  Let k0 be the
    lowest letter count in a_top: the count-k0 part of delta_gr(a_top) is
    the shuffle coproduct of a_top's count-k0 part, as for P.  The shuffle
    coproduct of a polynomial algebra is symmetric, and a symmetric skew
    tensor is 0 in characteristic 0, so that part is linear in the
    generators: a_top has a generator of degree e, and e <= g.  Only the
    degree drop, the unit-free delta(x_g) and Delta extended as an algebra
    map are used, so this holds with no PBW, coassociativity or
    compatibility verdict; so does ``complete_bound(h, 2)``, which is 2
    once P(gr H) lies in degree 1 (delta(a) then lies in P (x) P, of
    degree <= 2).
    """
    bound = min(h.top_degree, complete_bound(h, 2))

    def compute():
        monos = h.algebra.monomials_up_to(bound)
        columns = []
        for m in monos:
            t = h._reduced_monomial(m)
            sym = add_scaled(dict(t), {(r, l): c for (l, r), c in t.items()})
            # rows ("s", key) ask the symmetric part of delta(a) to vanish
            columns.append({**t, **{("s", key): c for key, c in sym.items()}})
        return _coradical_kernel(h, monos, columns, _coradical_level(h, 1))
    return FilteredSubspace(h, list(h._kept(("p2",), compute)), bound)


def coradical_filtration(h: HopfPresentation, n: int) -> FilteredSubspace:
    """Basis of the n-th coradical piece, taken at ``complete_bound(h, n)``.

    level 0 is spanned by 1; for n >= 1 an augmentation-ideal element lies
    in level n exactly when its reduced coproduct lands in
    (level n-1)+ (x) (level n-1)+.
    """
    if n < 0:
        raise InputError("filtration level must be >= 0")
    level = _coradical_level(h, n) if n else []
    return FilteredSubspace(h, [h.algebra.one()] + level,
                            complete_bound(h, n))


# -- CLA extraction ------------------------------------------------------------


def extract_cla(h: HopfPresentation) -> CLA:
    """Read a CLA off the anti-cocommutative space of the presentation.

    The basis is the kept canonical P2 basis, read at its complete bound
    min(g, ``complete_bound(h, 2)``) (``p2_space``): P2 lies in degrees
    <= g, the top generator degree.  A basis vector that is a generator
    keeps its name; any other is p<i> for its place i, primed until no
    generator has that name.  Bracket constants are the coordinates of
    commutators of basis elements, coproduct constants those of reduced
    coproducts over basis (x) basis, each read at the leads
    (``lead_coordinates``, ``lead_pair_coordinates``) with no
    elimination.  Fails when the space is not closed.
    """
    basis = p2_space(h).basis
    names = []
    for i, b in enumerate(basis):
        if len(b.terms) == 1:
            (mono, coeff), = b.terms.items()
            if coeff == 1 and sum(mono) == 1:
                g = next(idx for idx, e in enumerate(mono) if e)
                names.append(h.algebra.names[g])
                continue
        name = f"p{i + 1}"
        while name in h.algebra.names:
            name += "'"
        names.append(name)

    basis_terms = [b.terms for b in basis]
    leads = _leads(basis)
    brackets = {}
    for i, j in itertools.combinations(range(len(basis)), 2):
        terms, rest = lead_coordinates(basis_terms, leads,
                                       bracket(basis[i], basis[j]).terms)
        if rest:
            raise StructuralError(
                f"[{names[i]},{names[j]}] does not lie in the p2 space")
        if terms:
            brackets[(i, j)] = terms

    delta = {}
    coproducts = lead_pair_coordinates(
        basis_terms, leads, [h.reduced_coproduct(b).terms for b in basis])
    for i, (terms, rest) in enumerate(coproducts):
        if rest:
            raise StructuralError(
                f"delta({names[i]}) does not lie in P2 (x) P2")
        if terms:
            delta[i] = terms
    return CLA(names, brackets, delta)


# -- associated graded -----------------------------------------------------------


def associated_graded(h: HopfPresentation) -> HopfPresentation:
    """Presentation-level associated graded algebra.

    Every commutator term has weighted degree below deg x_i + deg x_j
    (``OrePresentation`` rejects the rest), so gr H is the polynomial
    algebra on the generators; each reduced coproduct is replaced by its
    top homogeneous component in degree deg g.
    """
    p = h.algebra
    coproducts = {}
    for g, terms in h.delta_gen.items():
        want = p.degrees[g]
        kept = [(c, l, r) for (l, r), c in terms.items()
                if p.monomial_degree(l) + p.monomial_degree(r) == want]
        if kept:
            coproducts[p.names[g]] = kept
    return HopfPresentation(OrePresentation(p.generators), coproducts)


# -- lantern -----------------------------------------------------------------------


def lantern_of_hopf(h: HopfPresentation) -> GradedLie:
    """Graded Lie algebra dual to the associated graded algebra, built once
    (``_build_lantern``) and kept on h: every reader gets the kept one."""
    return h._kept(("lantern",), lambda: _build_lantern(h))


def _build_lantern(h: HopfPresentation) -> GradedLie:
    """The lantern on every generator.

    gr H is the polynomial algebra on the generators (see
    ``associated_graded``), so its indecomposables are the generators:
    one dual x_g* per generator, ordered by (degree, index), each lifting
    to the monomial x_g.  Brackets pair against the coproduct, [x_i*,
    x_j*](x_k) = (x_i* (x) x_j* - x_j* (x) x_i*)(Delta x_k), which for
    deg x_k = deg x_i + deg x_j reads the two terms x_i (x) x_j and x_j
    (x) x_i of delta(x_k); both lie in its top degree.
    """
    alg = h.algebra
    gens = sorted(range(len(alg.degrees)), key=lambda g: (alg.degrees[g], g))
    degrees = [alg.degrees[g] for g in gens]
    lifts = [alg.letter(g) for g in gens]

    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i, j in itertools.combinations(range(len(gens)), 2):
        consts = {}
        for k, g in enumerate(gens):
            if degrees[k] != degrees[i] + degrees[j]:
                continue
            delta = h.delta_gen.get(g, {})
            val = (delta.get((lifts[i], lifts[j]), 0)
                   - delta.get((lifts[j], lifts[i]), 0))
            if val:
                consts[k] = val
        if consts:
            brackets[(i, j)] = consts
    return GradedLie([alg.names[g] + "*" for g in gens], degrees, brackets,
                     lifts)

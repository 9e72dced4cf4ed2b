"""Coalgebra structure on a PBW presentation: coproduct, counit, antipode.

A Hopf presentation is an algebra presentation together with the reduced
coproduct of each generator,  delta(g) = Delta(g) - g(x)1 - 1(x)g.  Every
tensor factor of delta(g) must be unit-free and of weighted degree
strictly below deg g (connectedness); that degree drop is what makes the
antipode recursion terminate.
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType
from typing import Optional

from .errors import InputError, StructuralError
from .exactlin import (Scalar, add_scaled, add_term, coassociator,
                       integral_values, scalar)
from .ore import (AlgebraElement, Combination, Monomial, OrePresentation,
                  bracket)
from .reports import AnswerStore, VerificationReport


class TensorElement(Combination):
    """Linear combination of r-tuples of PBW monomials over one presentation."""

    __slots__ = ("rank",)

    def __init__(self, p: OrePresentation, rank: int,
                 terms: dict[tuple, Scalar]):
        if rank < 1:
            raise InputError("tensor rank must be positive")
        self.p = p
        self.rank = rank
        self.terms = {t: c for t, c in terms.items() if c}
        for t in self.terms:
            if len(t) != rank:
                raise InputError(f"tuple {t} does not have rank {rank}")

    def _new(self, terms) -> "TensorElement":
        return TensorElement(self.p, self.rank, terms)

    def _shape(self) -> tuple:
        return (self.p, self.rank)

    def _check(self, other):
        super()._check(other)
        if self.rank != other.rank:
            raise InputError(f"rank mismatch: {self.rank} vs {other.rank}")

    def total_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(sum(self.p.monomial_degree(m) for m in t) for t in self.terms)

    def __mul__(self, other):
        """Componentwise product (a(x)b)(c(x)d) = ac(x)bd, factors normalized.

        Each pair of terms takes one normal-form product per slot, except
        that a slot with a unit monomial on either side is the other
        monomial outright; the slot products are accumulated straight into
        the result (`_products_into`, which `bracket` shares).  Every
        tensor product in the library has rank 2 (the coproduct
        recursion, brackets, `tensor_of`), so that loop is written out;
        higher ranks take the same steps slot by slot.

        The coproduct recursion calls this as Delta(x_g^k) * Delta(m'),
        x_g the first generator of m = x_g^k m' (k = 1 unless x_g is
        primitive, when the left factor is the binomial block
        sum_i C(k,i) x_g^i (x) x_g^{k-i}).  A slot product x_g^i * b is
        then an exponent sum in `mul_monomials` unless b carries a blocker
        of x_g from a delta term; a primitive block none of whose slot
        products meets one is shifted without this kernel
        (`HopfPresentation._shifted_block`).  Integral Fractions are stored
        as ints.
        """
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._check(other)
        return TensorElement._trusted(
            self.p, self.rank, integral_values(self._products_into(other, {})))

    def _products_into(self, other: "TensorElement", out: dict,
                       negate: bool = False,
                       skip_commuting: bool = False) -> dict:
        """out += self*other (or -self*other), the kernel of ``__mul__``
        and of ``bracket``: leaves out the term pairs whose slots all
        commute (`OrePresentation._commute`) when asked; returns out.  It
        stores no zero and only keys of the operands' rank."""
        p = self.p
        unit = p.unit_monomial
        mul, commute = p.mul_monomials, p._commute
        left = self.terms.items()
        if negate:
            left = [(t, -c) for t, c in left]
        get = out.get
        if self.rank == 2:
            right = [(b1, b2, c2, b1 == unit, b2 == unit)
                     for (b1, b2), c2 in other.terms.items()]
            for (a1, a2), c1 in left:
                u1 = a1 == unit
                u2 = a2 == unit
                for b1, b2, c2, v1, v2 in right:
                    if skip_commuting and commute(a1, b1) and commute(a2, b2):
                        continue
                    f1 = (((b1, 1),) if u1 else ((a1, 1),) if v1
                          else mul(a1, b1).items())
                    f2 = (((b2, 1),) if u2 else ((a2, 1),) if v2
                          else mul(a2, b2).items())
                    c = c1 * c2
                    for m1, k1 in f1:
                        ck = c * k1
                        for m2, k2 in f2:
                            key = (m1, m2)
                            v = ck * k2
                            old = get(key)
                            if old is None:
                                out[key] = v
                            else:
                                v = old + v
                                if v:
                                    out[key] = v
                                else:
                                    del out[key]
            return out
        for t1, c1 in left:
            for t2, c2 in other.terms.items():
                if skip_commuting and all(map(commute, t1, t2)):
                    continue
                partial = [((), c1 * c2)]
                for a, b in zip(t1, t2):
                    factor = (((b, 1),) if a == unit else ((a, 1),) if b == unit
                              else mul(a, b).items())
                    partial = [(prefix + (m,), c * k)
                               for prefix, c in partial for m, k in factor]
                for key, v in partial:
                    add_term(out, key, v)
        return out

    @classmethod
    def _trusted(cls, p: OrePresentation, rank: int,
                 terms: dict[tuple, Scalar]) -> "TensorElement":
        """A tensor over ``terms`` as they are: the product kernel stores
        no zero and only keys of its rank, so ``__init__``'s filter and
        rank check are skipped."""
        t = cls.__new__(cls)
        t.p, t.rank, t.terms = p, rank, terms
        return t

    def sorted_terms(self):
        keyfn = self.p.monomial_key
        return sorted(self.terms.items(),
                      key=lambda kv: tuple(keyfn(m) for m in kv[0]))

    def _render_key(self, t: tuple) -> str:
        render = AlgebraElement(self.p, {}).render_monomial
        return " (x) ".join(render(m) for m in t)


def tensor_of(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    """The rank-2 tensor a (x) b."""
    if a.p is not b.p:
        raise InputError("factors belong to different presentations")
    terms: dict[tuple, Scalar] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            add_term(terms, (ma, mb), ca * cb)
    return TensorElement(a.p, 2, terms)


class HopfPresentation(AnswerStore):
    """Algebra presentation plus reduced coproducts of the generators;
    every answer that takes no bound is kept on it (``AnswerStore``)."""

    def __init__(self, algebra: OrePresentation, coproducts=None):
        self.algebra = algebra
        # delta_gen[i]: terms of delta(x_i) as (left mono, right mono) -> coeff;
        # read-only, because the coproduct and antipode caches depend on it
        delta_gen: dict[int, MappingProxyType] = {}
        for name, value in (coproducts or {}).items():
            i = algebra.index.get(name)
            if i is None:
                raise InputError(f"coproduct given for unknown generator {name!r}")
            if isinstance(value, TensorElement):
                value = [(c, *t) for t, c in value.terms.items()]
            terms = self.tensor(value).terms
            if not terms:
                continue
            self._validate_delta(i, terms)
            delta_gen[i] = MappingProxyType(terms)
        self.delta_gen = MappingProxyType(delta_gen)
        self._coproduct_cache: dict[Monomial, TensorElement] = {}
        self._reduced_cache: dict[Monomial, dict[tuple, Scalar]] = {}
        self._antipode_cache: dict[Monomial, AlgebraElement] = {}

    def _validate_delta(self, i: int, terms: dict[tuple, Scalar]):
        p = self.algebra
        gname, gdeg = p.names[i], p.degrees[i]
        unit, degree = p.unit_monomial, p.monomial_degree
        for (l, r) in terms:
            if l == unit or r == unit:
                raise StructuralError(
                    f"delta({gname}) has a unit tensor factor; factors must lie "
                    "in the augmentation ideal")
            dl, dr = degree(l), degree(r)
            if dl >= gdeg or dr >= gdeg:
                raise StructuralError(
                    f"delta({gname}) has a factor of weighted degree >= "
                    f"{gdeg}; connectedness requires a strict degree drop")
            if dl + dr > gdeg:
                raise StructuralError(
                    f"delta({gname}) has a term of total degree {dl + dr} > {gdeg}")

    # -- basic coalgebra maps -------------------------------------------------

    def unit_tensor(self) -> TensorElement:
        u = self.algebra.unit_monomial
        return TensorElement(self.algebra, 2, {(u, u): 1})

    def _coproduct_monomial(self, m: Monomial) -> TensorElement:
        """Delta(m), cached per monomial; do not mutate it.

        Split off the first generator x_g of m (g the smallest index with
        e_g > 0).  A primitive x_g leaves as its whole power, m = x_g^k m',
        through the binomial block Delta(x_g^k) = sum_i C(k,i) x_g^i (x)
        x_g^{k-i}: one tensor product instead of k.  Any other x_g leaves
        one letter at a time, Delta(m) = Delta(x_g) * Delta(x_g^{-1} m).
        The left factor holds the smallest letter, so a slot product
        x_g^i * b is an exponent sum unless b carries a blocker of x_g
        (`OrePresentation._blockers`) from a delta term.  When no slot of
        Delta(m') carries one, the primitive block is a shift
        (`_shifted_block`) with no product at all.  Both paths store
        integral Fractions as ints, so each Delta(m) is normalised once.
        """
        cached = self._coproduct_cache.get(m)
        if cached is not None:
            return cached
        p = self.algebra
        if m == p.unit_monomial:
            result = self.unit_tensor()
        else:
            g = next(i for i, e in enumerate(m) if e)
            delta = self.delta_gen.get(g, {})
            k = 1 if delta else m[g]
            rest = self._coproduct_monomial(m[:g] + (m[g] - k,) + m[g + 1:])
            blockers = p._blockers[g]
            if not delta and not (blockers and any(
                    b[i] for key in rest.terms for b in key for i in blockers)):
                result = self._shifted_block(g, k, rest.terms)
            else:
                factor = add_scaled(self._power_block(g, k), delta)
                result = TensorElement(p, 2, factor) * rest
        self._coproduct_cache[m] = result
        return result

    def _shifted_block(self, g: int, k: int, rest: dict[tuple, Scalar]
                       ) -> TensorElement:
        """Delta(x_g^k) * rest for a primitive x_g that commutes with every
        letter in the slots of rest: sum_i C(k,i) (b1 + i e_g) (x) (b2 +
        (k-i) e_g) over the terms b1 (x) b2 of rest.

        The keys come in the product kernel's order (i = k..0 outside, the
        terms of rest inside) and merge the same way, so the result equals
        `TensorElement.__mul__`'s.  Each distinct slot monomial b is
        resolved once, to the list of its shifts b + i e_g, i = 0..k (b
        itself at 0), and each term of rest once, to the shift lists of
        its slots; the key loop indexes them, with no lookup but the merge.
        """
        shifts: dict[Monomial, list[Monomial]] = {}

        def shifted(b):
            s = shifts.get(b)
            if s is None:
                head, e, tail = b[:g], b[g], b[g + 1:]
                s = shifts[b] = [b] + [head + (e + i,) + tail
                                       for i in range(1, k + 1)]
            return s

        terms = [(shifted(b1), shifted(b2), c2) for (b1, b2), c2 in rest.items()]
        out: dict[tuple, Scalar] = {}
        get = out.get
        for i in range(k, -1, -1):
            c1 = comb(k, i)
            for s1, s2, c2 in terms:
                key = (s1[i], s2[k - i])
                v = c1 * c2
                old = get(key)
                if old is None:
                    out[key] = v
                else:
                    v = old + v
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return TensorElement._trusted(self.algebra, 2, integral_values(out))

    def _power_block(self, g: int, k: int) -> dict[tuple, Scalar]:
        """sum_i C(k,i) x_g^i (x) x_g^{k-i}, i = k..0, as a new {pair: coeff}
        dict: Delta(x_g^k) for a primitive x_g (k = 1: x_g(x)1 + 1(x)x_g)."""
        unit = self.algebra.unit_monomial
        head, tail = unit[:g], unit[g + 1:]
        return {(head + (i,) + tail, head + (k - i,) + tail): comb(k, i)
                for i in range(k, -1, -1)}

    def coproduct(self, a: AlgebraElement) -> TensorElement:
        """Delta(a), extended from the generators as an algebra map: the
        sum of the kept Delta(m) over the terms c m of a (`_linear`)."""
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        return self._linear(a, lambda m: self._coproduct_monomial(m).terms)

    def counit(self, a: AlgebraElement) -> Scalar:
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        return a.counit()

    def reduced_coproduct(self, a: AlgebraElement) -> TensorElement:
        """delta(a) = Delta(a) - a(x)1 - 1(x)a, defined on the augmentation ideal."""
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        if a.counit() != 0:
            raise InputError("reduced coproduct requires counit(a) = 0")
        return self._linear(a, self._reduced_monomial)

    def _linear(self, a: AlgebraElement, image) -> TensorElement:
        """sum c * image(m) over the terms c m of a, image(m) a kept {pair:
        coeff} dict, as a new rank-2 tensor that shares no dict with a cache.

        While the sum is empty, a coefficient 1 copies image(m) in one
        step: ``add_scaled`` would store the same values in the same
        order.  ``add_scaled`` stores no zero and every key is a pair of a
        kept rank-2 tensor, so the result skips ``TensorElement``'s filter
        and rank check (``_trusted``).
        """
        out: dict[tuple, Scalar] = {}
        for m, c in a.terms.items():
            if out or c != 1:
                add_scaled(out, image(m), c)
            else:
                out = dict(image(m))
        return TensorElement._trusted(self.algebra, 2, out)

    def _reduced_monomial(self, m: Monomial) -> dict[tuple, Scalar]:
        """Delta(m) - m(x)1 - 1(x)m as {pair: coeff}, cached; do not mutate it."""
        cached = self._reduced_cache.get(m)
        if cached is None:
            unit = self.algebra.unit_monomial
            cached = dict(self._coproduct_monomial(m).terms)
            add_term(cached, (m, unit), -1)
            add_term(cached, (unit, m), -1)
            self._reduced_cache[m] = cached
        return cached

    @property
    def top_degree(self) -> int:
        """g, the top generator degree (1 with no generator): the lantern
        lives in degrees <= g, and so do the indecomposables of gr H."""
        return max(self.algebra.degrees, default=1)

    # -- antipode ----------------------------------------------------------------

    def _antipode_monomial(self, m: Monomial) -> AlgebraElement:
        """S(m), cached per monomial; do not mutate it.

        On a generator, S(x_g) = -x_g - sum S(l) r over delta(x_g) = sum
        l (x) r.  Any other m = x_g m', x_g its first generator, is taken
        as an anti-algebra map, S(m) = S(m') S(x_g), so the left antipode
        identity m(S(x)id)Delta = unit.counit checks S instead of
        repeating its defining sum.  Integral Fractions are stored as ints.
        """
        cached = self._antipode_cache.get(m)
        if cached is not None:
            return cached
        p = self.algebra
        if m == p.unit_monomial:
            result = p.one()
        else:
            g = next(i for i, e in enumerate(m) if e)
            letter = p.letter(g)
            if m == letter:
                out = {m: -1}
                for (l, r), c in self._reduced_monomial(m).items():
                    for ml, cl in self._antipode_monomial(l).terms.items():
                        add_scaled(out, p.mul_monomials(ml, r), -c * cl)
            else:
                out = {}
                rest = self._antipode_monomial(m[:g] + (m[g] - 1,) + m[g + 1:])
                s_g = self._antipode_monomial(letter).terms.items()
                for ma, ca in rest.terms.items():
                    for mb, cb in s_g:
                        add_scaled(out, p.mul_monomials(ma, mb), ca * cb)
            result = AlgebraElement(p, integral_values(out))
        self._antipode_cache[m] = result
        return result

    def antipode(self, a: AlgebraElement) -> AlgebraElement:
        """S(a); the recursion ends by the degree drop validated at construction."""
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        out: dict[Monomial, Scalar] = {}
        for m, c in a.terms.items():
            add_scaled(out, self._antipode_monomial(m).terms, c)
        return AlgebraElement(self.algebra, out)

    # -- tensor utilities ----------------------------------------------------------

    def tensor(self, terms) -> TensorElement:
        """Build a rank-2 tensor from [(coeff, mono, mono), ...] term data.

        Each term's coefficient is coerced and its arity checked before
        its two monomials are converted; the sum stores no zero and only
        pairs, so it is the tensor's terms as they are (``_trusted``).
        """
        monomial_tuple = self.algebra.monomial_tuple
        out: dict[tuple, Scalar] = {}
        for item in terms:
            c = scalar(item[0])
            if len(item) != 3:
                raise InputError("term arity does not match rank")
            add_term(out, (monomial_tuple(item[1]), monomial_tuple(item[2])), c)
        return TensorElement._trusted(self.algebra, 2, out)

    # -- verifications ----------------------------------------------------------------

    # The kept reports, computed on the first read.  Internal readers take
    # them as they are and must not change them; ``verify_*`` hands out copies.

    def _pbw_report(self) -> VerificationReport:
        return self._kept(("pbw",), self.algebra.verify_pbw_consistency)

    def _coassociativity_report(self) -> VerificationReport:
        return self._kept(("coassociativity",), self._coassociativity)

    def _compatibility_report(self) -> VerificationReport:
        return self._kept(("compatibility",), self._compatibility)

    def verify_pbw_consistency(self) -> VerificationReport:
        """The algebra's ``verify_pbw_consistency``, run once and kept on
        the presentation, not on the algebra: a failing overlap's witness
        is an element of the algebra, which would then refer back to it."""
        return self._pbw_report().copy()

    def verify_coassociativity(self) -> VerificationReport:
        """(Delta(x)id)Delta = (id(x)Delta)Delta.

        Checking the generators suffices: both sides are algebra maps, so
        agreement on generators forces agreement everywhere.  On x_g, with
        Delta m = m(x)1 + 1(x)m + delta m for every monomial m, the
        primitive parts cancel term for term, so the two sides differ by
        (delta(x)id - id(x)delta) delta(x_g) (``coassociator``, the cobar
        d^2 of delta(x_g)).  The counit axioms on x_g hold exactly when
        delta(x_g) has no unit factor, which construction
        (``_validate_delta``) already requires, so they are not rows here.
        """
        return self._coassociativity_report().copy()

    def _coassociativity(self) -> VerificationReport:
        """The generator loop of ``verify_coassociativity``, run once."""
        report = VerificationReport("coassociativity")
        p = self.algebra
        for g, name in enumerate(p.names):
            diff = coassociator(self.delta_gen.get(g, {}),
                                self._reduced_monomial)
            report.add(f"coassociativity on {name}", not diff,
                       witness=TensorElement(p, 3, diff) if diff else None)
        report.add(
            "generator check suffices", True, informational=True,
            detail="both sides of coassociativity are algebra maps, so "
                   "agreement on generators extends to all of the algebra")
        return report

    def verify_compatibility(self) -> VerificationReport:
        """Delta respects every commutator relation: Delta([x_j,x_i]) = [Delta x_j, Delta x_i].

        Write Delta x = P x + delta x with P x = x(x)1 + 1(x)x.  The
        primitive parts cancel, [P x_j, P x_i] = P kappa_ji, so for
        kappa_ji = sum_m c_m m the check compares sum_m c_m delta(m) (with
        delta(1) = -1(x)1) against [Delta x_j, delta x_i] + [delta x_j, P x_i].
        A bracket whose delta is zero is skipped: two primitive generators
        need no tensor product.  The witness is still the full difference
        Delta(kappa_ji) - [Delta x_j, Delta x_i].
        """
        return self._compatibility_report().copy()

    def _compatibility(self) -> VerificationReport:
        """The relation loop of ``verify_compatibility``, run once."""
        report = VerificationReport("bialgebra compatibility with the relations")
        p = self.algebra
        n = len(p.names)
        delta = {g: TensorElement(p, 2, terms)
                 for g, terms in self.delta_gen.items()}
        prim = [TensorElement(p, 2, self._power_block(g, 1)) for g in range(n)]
        for j in range(1, n):
            dj = delta.get(j)
            for i in range(j):
                kappa = AlgebraElement(p, dict(p.kappa.get((j, i), {})))
                lhs: dict[tuple, Scalar] = {}
                for m, c in kappa.terms.items():
                    add_scaled(lhs, self._reduced_monomial(m), c)
                diff = TensorElement(p, 2, lhs)
                di = delta.get(i)
                if di is not None:
                    full_j = prim[j] if dj is None else prim[j] + dj
                    diff = diff - bracket(full_j, di)
                if dj is not None:
                    diff = diff - bracket(dj, prim[i])
                name = f"Delta respects [{p.names[j]},{p.names[i]}]"
                report.add(name, diff.is_zero(),
                           witness=None if diff.is_zero() else diff)
                report.add(f"counit kills [{p.names[j]},{p.names[i]}]",
                           kappa.counit() == 0)
        return report

    def verify_antipode(self, degree_bound: int) -> VerificationReport:
        """m(S(x)id)Delta = unit*counit = m(id(x)S)Delta on monomials up to the bound.

        When ``_antipode_certified`` holds (its verdict is kept), both rows
        hold in every degree and no monomial is checked; otherwise every
        monomial up to the bound is checked (``_antipode_loop``), and a
        failure carries a witness.
        """
        if degree_bound < 0:
            raise InputError("degree bound must be >= 0")
        if self._antipode_certificate():
            return _antipode_report(degree_bound, True, True, None)
        return self._antipode_loop(degree_bound)

    def _antipode_certificate(self) -> bool:
        """The ``_antipode_certified`` verdict, kept on the presentation:
        ``verify_antipode`` and ``object_battery`` read this one run."""
        return self._kept(("antipode",), self._antipode_certified)

    def _antipode_loop(self, degree_bound: int) -> VerificationReport:
        """Both antipode rows on every monomial of degree <= the bound."""
        p = self.algebra
        ok_left = ok_right = True
        witness = None
        for m in p.monomials_up_to(degree_bound, include_unit=True):
            left, right = self._antipode_rows(m)
            want = {m: 1} if m == p.unit_monomial else {}
            if left != want:
                ok_left = False
                witness = witness or (m, AlgebraElement(p, left))
            if right != want:
                ok_right = False
                witness = witness or (m, AlgebraElement(p, right))
        return _antipode_report(degree_bound, ok_left, ok_right, witness)

    def _antipode_rows(self, m: Monomial) -> tuple[dict, dict]:
        """m(S(x)id)Delta(m) and m(id(x)S)Delta(m), each as {monomial: coeff}."""
        p = self.algebra
        left: dict[Monomial, Scalar] = {}
        right: dict[Monomial, Scalar] = {}
        for (l, r), c in self._coproduct_monomial(m).terms.items():
            for ml, cl in self._antipode_monomial(l).terms.items():
                add_scaled(left, p.mul_monomials(ml, r), c * cl)
            for mr, cr in self._antipode_monomial(r).terms.items():
                add_scaled(right, p.mul_monomials(l, mr), c * cr)
        return left, right

    def _antipode_certified(self) -> bool:
        """Whether both antipode rows vanish on every monomial but 1, in
        every degree: the kept PBW, compatibility and coassociativity
        verdicts pass, and both rows vanish on each generator.
        ``_antipode_certificate`` keeps the verdict on the presentation.

        With (a) the overlaps resolved (``verify_pbw_consistency``), the
        normal-form product is associative; with (b) Delta respecting
        every relation (``verify_compatibility``, counit rows included),
        the monomial-wise Delta(x_g m') = Delta(x_g) Delta(m') is an
        algebra map H -> H (x) H, so H is a bialgebra once Delta is
        coassociative (``verify_coassociativity``).  Every factor of
        delta(x_g) has lower degree and their degrees add to at most deg
        x_g (``_validate_delta``), and Delta is an algebra map, so the
        degree filtration is a coalgebra filtration with F_0 = k.  So id
        has a two-sided convolution inverse S_true, which is an
        anti-algebra map (Takeuchi; Montgomery, Hopf Algebras and Their
        Actions on Rings, 1993, sections 5.2 and 1.5).  The recursion's S
        (``_antipode_monomial``) is S_true, by induction on degree: on a
        letter, S(x_g) = -x_g - sum S(l) r over delta(x_g) = sum l (x) r,
        with l of lower degree, is the left row m(S(x)id)Delta(x_g) = 0
        solved for S(x_g), which S_true satisfies; on m = x_g m' with m'
        != 1, S(m) = S(m') S(x_g) = S_true(m') S_true(x_g) = S_true(x_g
        m').  So both rows vanish on every monomial but 1.  The generator
        rows are not implied when S is computed some other way, and they
        cost one row pair per generator, so they are kept.
        """
        p = self.algebra
        return (self._pbw_report().passed
                and self._compatibility_report().passed
                and self._coassociativity_report().passed
                and all(self._antipode_rows(p.letter(g)) == ({}, {})
                        for g in range(len(p.names))))

    # -- morphisms -------------------------------------------------------------------

    def _image_target(self, images: dict[str, AlgebraElement]):
        """The one presentation holding the images of exactly our generators."""
        stray = [name for name in images if name not in self.algebra.index]
        missing = [name for name in self.algebra.names if name not in images]
        if stray or missing or not images:
            raise InputError(f"images must map exactly the source generators: "
                             f"unknown {stray}, missing {missing}")
        targets = {img.p for img in images.values()}
        if len(targets) > 1:
            raise InputError("images live in different presentations")
        return targets.pop()

    def apply_map(self, images: dict[str, AlgebraElement],
                  a: AlgebraElement) -> AlgebraElement:
        """Extend a generator assignment multiplicatively and linearly."""
        dst = self._image_target(images)
        out: dict[Monomial, Scalar] = {}
        for m, c in a.terms.items():
            word = dst.one()
            for i, e in enumerate(m):
                img = images[self.algebra.names[i]]
                for _ in range(e):
                    word = word * img
            add_scaled(out, word.terms, c)
        return AlgebraElement(dst, out)

    def verify_morphism(self, dst: "HopfPresentation",
                        images: dict[str, AlgebraElement],
                        check_coalgebra: bool = True) -> VerificationReport:
        """Check a generator assignment defines an algebra (or Hopf) map.

        Bijectivity is *not* decided; only that the relations and, when
        requested, the coproducts and counits are respected.
        """
        report = VerificationReport("morphism verification")
        src = self.algebra
        if self._image_target(images) is not dst.algebra:
            raise InputError("images lie outside the target presentation")
        n = len(src.names)
        for j in range(1, n):
            for i in range(j):
                kappa = AlgebraElement(src, dict(src.kappa.get((j, i), {})))
                diff = (bracket(images[src.names[j]], images[src.names[i]])
                        - self.apply_map(images, kappa))
                name = f"relation [{src.names[j]},{src.names[i]}]"
                report.add(name, diff.is_zero(),
                           witness=None if diff.is_zero() else diff)
        if check_coalgebra:
            for name in src.names:
                g = src.gen(name)
                img = images[name]
                lhs = dst.coproduct(img)
                rhs_terms: dict[tuple, Scalar] = {}
                for (l, r), c in self.coproduct(g).terms.items():
                    fl = self.apply_map(images, AlgebraElement(src, {l: 1}))
                    fr = self.apply_map(images, AlgebraElement(src, {r: 1}))
                    add_scaled(rhs_terms, tensor_of(fl, fr).terms, c)
                rhs = TensorElement(dst.algebra, 2, rhs_terms)
                diff = lhs - rhs
                report.add(f"coproduct respected on {name}", diff.is_zero(),
                           witness=None if diff.is_zero() else diff)
                report.add(f"counit vanishes on image of {name}",
                           img.counit() == 0)
        return report

    def __repr__(self):
        prim = [n for i, n in enumerate(self.algebra.names)
                if i not in self.delta_gen]
        return (f"HopfPresentation({self.algebra!r}, "
                f"primitive={{{', '.join(prim)}}})")


def _antipode_report(degree_bound: int, ok_left: bool, ok_right: bool,
                     witness) -> VerificationReport:
    """The two rows of the antipode check; the witness sits on the first."""
    report = VerificationReport(f"antipode axiom through degree {degree_bound}")
    report.add("m(S(x)id)Delta = unit.counit", ok_left, witness=witness)
    report.add("m(id(x)S)Delta = unit.counit", ok_right)
    return report

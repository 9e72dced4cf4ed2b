"""Coalgebra structure on a PBW presentation: coproduct, counit, antipode.

A Hopf presentation is an algebra presentation together with the reduced
coproduct of each generator,  delta(g) = Delta(g) - g(x)1 - 1(x)g.  Every
tensor factor of delta(g) must be unit-free and of weighted degree
strictly below deg g (connectedness); that degree drop is what makes the
antipode recursion terminate.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .errors import InputError, StructuralError
from .exactlin import ONE, add_scaled, add_term, scalar
from .ore import AlgebraElement, Monomial, OrePresentation
from .reports import VerificationReport


class TensorElement:
    """Linear combination of r-tuples of PBW monomials over one presentation."""

    __slots__ = ("p", "rank", "terms")

    def __init__(self, p: OrePresentation, rank: int,
                 terms: dict[tuple, Fraction]):
        if rank < 1:
            raise InputError("tensor rank must be positive")
        self.p = p
        self.rank = rank
        self.terms = {t: c for t, c in terms.items() if c}
        for t in self.terms:
            if len(t) != rank:
                raise InputError(f"tuple {t} does not have rank {rank}")

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(sum(self.p.monomial_degree(m) for m in t) for t in self.terms)

    def _check_compatible(self, other: "TensorElement"):
        if self.p is not other.p:
            raise InputError("tensors belong to different presentations")
        if self.rank != other.rank:
            raise InputError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._check_compatible(other)
        return TensorElement(self.p, self.rank,
                             add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement(self.p, self.rank,
                             {t: -c for t, c in self.terms.items()})

    def scale(self, q):
        q = scalar(q)
        return TensorElement(self.p, self.rank,
                             {t: q * c for t, c in self.terms.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def __mul__(self, other):
        """Componentwise product (a(x)b)(c(x)d) = ac(x)bd, factors normalized."""
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._check_compatible(other)
        p = self.p
        out: dict[tuple, Fraction] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                partial: dict[tuple, Fraction] = {(): c1 * c2}
                for s in range(self.rank):
                    factor = p.mul_monomials(t1[s], t2[s])
                    nxt: dict[tuple, Fraction] = {}
                    for prefix, c in partial.items():
                        for m, cm in factor.items():
                            add_term(nxt, prefix + (m,), c * cm)
                    partial = nxt
                add_scaled(out, partial)
        return TensorElement(self.p, self.rank, out)

    def flip(self) -> "TensorElement":
        """Reverse the tensor factors (the flip map tau)."""
        return TensorElement(self.p, self.rank,
                             {t[::-1]: c for t, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, TensorElement) and self.p is other.p
                and self.rank == other.rank and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.p), self.rank, frozenset(self.terms.items())))

    def sorted_terms(self):
        keyfn = self.p.monomial_key
        return sorted(self.terms.items(),
                      key=lambda kv: tuple(keyfn(m) for m in kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        render = AlgebraElement(self.p, {self.p.unit_monomial: ONE}).render_monomial
        chunks = []
        for t, c in self.sorted_terms():
            body = " (x) ".join(render(m) for m in t)
            if c == 1:
                text = body
            elif c == -1:
                text = f"-{body}"
            else:
                text = f"{c}*{body}"
            if chunks and not text.startswith("-"):
                chunks.append("+ " + text)
            elif chunks:
                chunks.append("- " + text[1:])
            else:
                chunks.append(text)
        return " ".join(chunks)


def tensor_bracket(s: TensorElement, t: TensorElement) -> TensorElement:
    """Commutator s*t - t*s of tensors (componentwise products, no sign rule)."""
    return s * t - t * s


def tensor_of(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    """The rank-2 tensor a (x) b."""
    if a.p is not b.p:
        raise InputError("factors belong to different presentations")
    terms: dict[tuple, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            add_term(terms, (ma, mb), ca * cb)
    return TensorElement(a.p, 2, terms)


class HopfPresentation:
    """Algebra presentation plus reduced coproducts of the generators."""

    def __init__(self, algebra: OrePresentation, coproducts=None,
                 *, strict: bool = True):
        self.algebra = algebra
        self.strict = strict and algebra.strict
        # delta_gen[i]: terms of delta(x_i) as (left mono, right mono) -> coeff;
        # read-only, because the coproduct and antipode caches depend on it
        delta_gen: dict[int, MappingProxyType] = {}
        for name, value in (coproducts or {}).items():
            i = algebra.index.get(name)
            if i is None:
                raise InputError(f"coproduct given for unknown generator {name!r}")
            terms = self._tensor_terms_from(value)
            if not terms:
                continue
            if strict:
                self._validate_delta(i, terms)
            delta_gen[i] = MappingProxyType(terms)
        self.delta_gen = MappingProxyType(delta_gen)
        self._coproduct_cache: dict[Monomial, TensorElement] = {}
        self._antipode_cache: dict[Monomial, AlgebraElement] = {}

    def _tensor_terms_from(self, value) -> dict[tuple, Fraction]:
        """Accept [(coeff, left mono, right mono), ...] or a TensorElement."""
        out: dict[tuple, Fraction] = {}
        if isinstance(value, TensorElement):
            items = [(c, t[0], t[1]) for t, c in value.terms.items()]
        else:
            items = list(value)
        for coeff, left, right in items:
            c = scalar(coeff)
            add_term(out, (self.algebra.monomial_tuple(left),
                           self.algebra.monomial_tuple(right)), c)
        return out

    def _validate_delta(self, i: int, terms: dict[tuple, Fraction]):
        gname = self.algebra.names[i]
        gdeg = self.algebra.degrees[i]
        unit = self.algebra.unit_monomial
        for (l, r) in terms:
            if l == unit or r == unit:
                raise StructuralError(
                    f"delta({gname}) has a unit tensor factor; factors must lie "
                    "in the augmentation ideal")
            dl = self.algebra.monomial_degree(l)
            dr = self.algebra.monomial_degree(r)
            if dl >= gdeg or dr >= gdeg:
                raise StructuralError(
                    f"delta({gname}) has a factor of weighted degree >= "
                    f"{gdeg}; connectedness requires a strict degree drop")
            if dl + dr > gdeg:
                raise StructuralError(
                    f"delta({gname}) has a term of total degree {dl + dr} > {gdeg}")

    # -- basic coalgebra maps -------------------------------------------------

    def delta_of_generator(self, i: int) -> TensorElement:
        return TensorElement(self.algebra, 2, dict(self.delta_gen.get(i, {})))

    def unit_tensor(self) -> TensorElement:
        u = self.algebra.unit_monomial
        return TensorElement(self.algebra, 2, {(u, u): ONE})

    def _coproduct_monomial(self, m: Monomial) -> TensorElement:
        cached = self._coproduct_cache.get(m)
        if cached is not None:
            return cached
        p = self.algebra
        unit = p.unit_monomial
        if m == unit:
            result = self.unit_tensor()
        else:
            # split off the last generator letter: m = m' * x_g
            g = max(i for i, e in enumerate(m) if e)
            rest = list(m)
            rest[g] -= 1
            xg = [0] * len(m)
            xg[g] = 1
            xg = tuple(xg)
            factor_terms = {(xg, unit): ONE, (unit, xg): ONE}
            add_scaled(factor_terms, self.delta_gen.get(g, {}))
            factor = TensorElement(p, 2, factor_terms)
            result = self._coproduct_monomial(tuple(rest)) * factor
        self._coproduct_cache[m] = result
        return result

    def coproduct(self, a: AlgebraElement) -> TensorElement:
        """Delta(a), extended from the generators as an algebra map."""
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        out: dict[tuple, Fraction] = {}
        for m, c in a.terms.items():
            add_scaled(out, self._coproduct_monomial(m).terms, c)
        return TensorElement(self.algebra, 2, out)

    def counit(self, a: AlgebraElement) -> Fraction:
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        return a.counit()

    def reduced_coproduct(self, a: AlgebraElement) -> TensorElement:
        """delta(a) = Delta(a) - a(x)1 - 1(x)a, defined on the augmentation ideal."""
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        if a.counit() != 0:
            raise InputError("reduced coproduct requires counit(a) = 0")
        t = self.coproduct(a)
        unit = self.algebra.unit_monomial
        terms = dict(t.terms)
        for m, c in a.terms.items():
            add_term(terms, (m, unit), -c)
            add_term(terms, (unit, m), -c)
        return TensorElement(self.algebra, 2, terms)

    # -- antipode ----------------------------------------------------------------

    def _antipode_monomial(self, m: Monomial) -> AlgebraElement:
        cached = self._antipode_cache.get(m)
        if cached is not None:
            return cached
        p = self.algebra
        if m == p.unit_monomial:
            result = p.one()
        else:
            mono = AlgebraElement(p, {m: ONE})
            result = -mono
            for (l, r), c in self.reduced_coproduct(mono).terms.items():
                # S(m) = -m - sum S(m'_1) m'_2 over delta(m) = sum m'_1 (x) m'_2
                sl = self._antipode_monomial(l)
                result = result - (sl * AlgebraElement(p, {r: c}))
        self._antipode_cache[m] = result
        return result

    def antipode(self, a: AlgebraElement) -> AlgebraElement:
        """S(a); the recursion needs the validated degree-drop invariant."""
        if a.p is not self.algebra:
            raise InputError("element belongs to a different presentation")
        if not self.strict:
            raise StructuralError(
                "antipode recursion requires a presentation validated for the "
                "degree-drop invariant (strict=True)")
        out: dict[Monomial, Fraction] = {}
        for m, c in a.terms.items():
            add_scaled(out, self._antipode_monomial(m).terms, c)
        return AlgebraElement(self.algebra, out)

    # -- tensor utilities ----------------------------------------------------------

    def _expand_slot(self, t: TensorElement, slot: int) -> TensorElement:
        """Apply the full coproduct to one tensor slot (rank grows by one)."""
        out: dict[tuple, Fraction] = {}
        for tup, c in t.terms.items():
            inner = self._coproduct_monomial(tup[slot])
            for (l, r), ci in inner.terms.items():
                add_term(out, tup[:slot] + (l, r) + tup[slot + 1:], c * ci)
        return TensorElement(self.algebra, t.rank + 1, out)

    def _contract_counit(self, t: TensorElement, slot: int) -> TensorElement:
        """Apply the counit to one tensor slot (rank drops by one)."""
        unit = self.algebra.unit_monomial
        out: dict[tuple, Fraction] = {}
        for tup, c in t.terms.items():
            if tup[slot] != unit:
                continue
            add_term(out, tup[:slot] + tup[slot + 1:], c)
        return TensorElement(self.algebra, t.rank - 1, out)

    def tensor(self, terms, rank: int = 2) -> TensorElement:
        """Build a tensor from [(coeff, mono, mono, ...), ...] term data."""
        out: dict[tuple, Fraction] = {}
        for item in terms:
            c = scalar(item[0])
            key = tuple(self.algebra.monomial_tuple(m) for m in item[1:])
            if len(key) != rank:
                raise InputError("term arity does not match rank")
            add_term(out, key, c)
        return TensorElement(self.algebra, rank, out)

    # -- verifications ----------------------------------------------------------------

    def verify_coassociativity(self, paranoid_degree: Optional[int] = None
                               ) -> VerificationReport:
        """(Delta(x)id)Delta = (id(x)Delta)Delta and the counit axioms.

        Checking the generators suffices: both sides are algebra maps, so
        agreement on generators forces agreement everywhere.  The optional
        paranoid mode re-checks every monomial up to a degree bound.
        """
        report = VerificationReport("coassociativity and counit axioms")
        p = self.algebra
        for i, name in enumerate(p.names):
            g = p.gen(name)
            t = self.coproduct(g)
            left = self._expand_slot(t, 0)
            right = self._expand_slot(t, 1)
            diff = left - right
            report.add(f"coassociativity on {name}", diff.is_zero(),
                       witness=None if diff.is_zero() else diff)
            lu = self._contract_counit(t, 0)
            ru = self._contract_counit(t, 1)
            want = TensorElement(p, 1, {(m,): c for m, c in g.terms.items()})
            report.add(f"counit axiom on {name}",
                       lu == want and ru == want)
        report.add(
            "generator check suffices", True, informational=True,
            detail="both sides of coassociativity are algebra maps, so "
                   "agreement on generators extends to all of the algebra")
        if paranoid_degree is not None:
            for m in p.monomials_up_to(paranoid_degree, include_unit=True):
                t = self._coproduct_monomial(m)
                diff = self._expand_slot(t, 0) - self._expand_slot(t, 1)
                if not diff.is_zero():
                    report.add(f"paranoid coassociativity at {m}", False,
                               witness=diff)
            report.add(f"paranoid re-check through degree {paranoid_degree}",
                       True, informational=True)
        return report

    def verify_compatibility(self) -> VerificationReport:
        """Delta respects every commutator relation: Delta([x_j,x_i]) = [Delta x_j, Delta x_i]."""
        report = VerificationReport("bialgebra compatibility with the relations")
        p = self.algebra
        n = len(p.names)
        for j in range(1, n):
            dj = self.coproduct(p.gen(p.names[j]))
            for i in range(j):
                kappa = AlgebraElement(p, dict(p.kappa.get((j, i), {})))
                lhs = self.coproduct(kappa)
                rhs = tensor_bracket(dj, self.coproduct(p.gen(p.names[i])))
                diff = lhs - rhs
                name = f"Delta respects [{p.names[j]},{p.names[i]}]"
                report.add(name, diff.is_zero(),
                           witness=None if diff.is_zero() else diff)
                report.add(f"counit kills [{p.names[j]},{p.names[i]}]",
                           kappa.counit() == 0)
        return report

    def verify_antipode(self, degree_bound: int) -> VerificationReport:
        """m(S(x)id)Delta = unit*counit = m(id(x)S)Delta on monomials up to the bound."""
        report = VerificationReport(f"antipode axiom through degree {degree_bound}")
        p = self.algebra
        ok_left = ok_right = True
        witness = None
        for m in p.monomials_up_to(degree_bound, include_unit=True):
            t = self._coproduct_monomial(m)
            left = p.zero()
            right = p.zero()
            for (l, r), c in t.terms.items():
                left = left + (self._antipode_monomial(l)
                               * AlgebraElement(p, {r: c}))
                right = right + (AlgebraElement(p, {l: c})
                                 * self._antipode_monomial(r))
            want = p.one().scale(AlgebraElement(p, {m: ONE}).counit())
            if left != want:
                ok_left = False
                witness = witness or (m, left)
            if right != want:
                ok_right = False
                witness = witness or (m, right)
        report.add("m(S(x)id)Delta = unit.counit", ok_left, witness=witness)
        report.add("m(id(x)S)Delta = unit.counit", ok_right)
        return report

    # -- morphisms -------------------------------------------------------------------

    def apply_map(self, images: dict[str, AlgebraElement],
                  a: AlgebraElement) -> AlgebraElement:
        """Extend a generator assignment multiplicatively and linearly."""
        if not images:
            raise InputError("empty image assignment")
        dst = next(iter(images.values())).p
        for name in self.algebra.names:
            if name not in images:
                raise InputError(f"no image given for generator {name!r}")
            if images[name].p is not dst:
                raise InputError("images live in different presentations")
        out = dst.zero()
        for m, c in a.terms.items():
            word = dst.one()
            for i, e in enumerate(m):
                img = images[self.algebra.names[i]]
                for _ in range(e):
                    word = word * img
            out = out + word.scale(c)
        return out

    def verify_morphism(self, dst: "HopfPresentation",
                        images: dict[str, AlgebraElement],
                        check_coalgebra: bool = True) -> VerificationReport:
        """Check a generator assignment defines an algebra (or Hopf) map.

        Bijectivity is *not* decided; only that the relations and, when
        requested, the coproducts and counits are respected.
        """
        report = VerificationReport("morphism verification")
        src = self.algebra
        for name in src.names:
            if name not in images:
                raise InputError(f"no image given for generator {name!r}")
            if images[name].p is not dst.algebra:
                raise InputError(
                    f"image of {name!r} lies in a different presentation")
        n = len(src.names)
        for j in range(1, n):
            for i in range(j):
                fj = images[src.names[j]]
                fi = images[src.names[i]]
                kappa = AlgebraElement(src, dict(src.kappa.get((j, i), {})))
                diff = fj * fi - fi * fj - self.apply_map(images, kappa)
                name = f"relation [{src.names[j]},{src.names[i]}]"
                report.add(name, diff.is_zero(),
                           witness=None if diff.is_zero() else diff)
        if check_coalgebra:
            for name in src.names:
                g = src.gen(name)
                img = images[name]
                lhs = dst.coproduct(img)
                rhs_terms: dict[tuple, Fraction] = {}
                for (l, r), c in self.coproduct(g).terms.items():
                    fl = self.apply_map(images, AlgebraElement(src, {l: ONE}))
                    fr = self.apply_map(images, AlgebraElement(src, {r: ONE}))
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

"""Filtered algebra presentations with PBW normal forms.

An algebra is presented by ordered, weighted generators x_1 < ... < x_n
and a commutator table [x_j, x_i] = kappa_ji (j > i) whose entries have
weighted degree strictly below deg x_i + deg x_j.  The blockers of x_j
are the x_i, i < j, with kappa_ji != 0 (`_blockers`); a letter slides
past every other generator for free.  So a product a*b in which no
letter x_j of a meets one of its blockers in b is the exponent sum; any
other folds the letters of a, right to left, through one memoised
recursion on a generator times a sorted monomial m = x_i m'
(`_gen_times`, cached on (j, m)): x_j m = m + e_j if m has no blocker of
x_j, else x_j x_i m' = x_i (x_j m') + kappa_ji m'.  The fold and the
recursion add each c x_j m to their accumulator through one rule
(`_add_gen_times`): a free slide writes its one term m + e_j with
coefficient c straight in.  The kappa term is folded term by term by a
plan compiled once per presentation (`_kappa_folds`): a one-letter term
kc x_l (83 of the catalog's 87 terms) is the one rule step that adds
kc x_l m'; any other term folds its letters, right to left, into m'
seeded with kc.  Every key gets the value, in the order, that adding c
times the whole product x_j m gives, and since c != 0 the same sums
cancel.  Under the degree drop (weighted degree, inversion count) falls
at every step, so it terminates.  The sorted monomials
x_1^{e_1}...x_n^{e_n} span the algebra; whether they are a
*basis* is certified by the overlap check (`verify_pbw_consistency`),
never assumed.

The recursion runs on ints alone, for every table.  With D the lcm of
kappa's denominators (`_scale`, 1 for an integral table) it works in the
basis y_g = D^{deg x_g} x_g, where every commutator coefficient is an
int (`_scaled_table`), and a result leaves it only through `_unscale`:
a product miss of `mul_monomials` (whose cache keeps the x form), a
`normal_form` and an overlap witness.  This is the same algebra in
another basis.  A word of degree w in the y's is D^w times its word in
the x's, and y^t = D^{deg t} x^t, so the y-form value at t of every
accumulator is the x-form value times D^{w - deg t}, a nonzero constant
per key.  Every addition into a key is scaled by that one constant, so
the same sums vanish, and the same keys are written and deleted in the
same order as over the x table; dividing by D^{w - deg t} with
`quotient` gives the x-form values with an int for every integral one.
Values, scalar types and key order are those of the x-form recursion,
and when D = 1 nothing is scaled and no pass is made over a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from types import MappingProxyType
from typing import Optional, Sequence

from .errors import InputError, StructuralError
from .exactlin import (Scalar, add_scaled, add_term, integral_values, quotient,
                       scalar)
from .reports import VerificationReport

Monomial = tuple  # exponent vector, one entry per generator


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class GeneratorInfo:
    """An ordered generator: name, filtration weight, optional bidegree."""

    name: str
    degree: int
    bidegree: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InputError(f"generator name {self.name!r} must be a string")
        if not _is_int(self.degree) or self.degree <= 0:
            raise InputError(
                f"generator {self.name}: degree must be a positive integer")
        if self.bidegree is not None:
            bd = tuple(self.bidegree)
            if (len(bd) != 2 or not all(_is_int(c) and c >= 0 for c in bd)
                    or sum(bd) != self.degree):
                raise InputError(
                    f"generator {self.name}: bidegree {bd} must be a pair of "
                    f"non-negative integers summing to degree {self.degree}")
            object.__setattr__(self, "bidegree", bd)


class OrePresentation:
    """Ordered weighted generators plus the commutator table [x_j, x_i] = kappa_ji."""

    def __init__(self, generators: Sequence[GeneratorInfo], commutators=None):
        gens = []
        for g in generators:
            if not isinstance(g, GeneratorInfo):
                g = GeneratorInfo(*g)
            gens.append(g)
        self.generators: tuple[GeneratorInfo, ...] = tuple(gens)
        self.names = tuple(g.name for g in gens)
        if len(set(self.names)) != len(self.names):
            raise InputError("generator names must be unique")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.degrees = tuple(g.degree for g in gens)
        with_bidegree = [g for g in gens if g.bidegree is not None]
        if with_bidegree and len(with_bidegree) != len(gens):
            raise InputError("either all generators carry a bidegree or none do")
        self.bidegrees = tuple(g.bidegree for g in gens) if with_bidegree else None

        # kappa[(j, i)] with j > i: terms of [x_j, x_i] as monomial -> coefficient.
        # The public table is a read-only view because _mul_cache is only
        # valid for one table; rewriting reads the scaled integer table
        # `_kappa` instead (see `_scaled_table`).
        kappa: dict[tuple[int, int], dict[Monomial, Scalar]] = {}
        given: dict[tuple[int, int], object] = {}
        for key, value in (commutators or {}).items():
            j, i = self._pair_indices(key)
            if (j, i) in given:
                raise InputError(
                    f"commutator [{self.names[j]},{self.names[i]}] is given "
                    f"twice, as {given[(j, i)]!r} and {key!r}")
            given[(j, i)] = key
            terms = self._terms_from(value)
            if not terms:
                continue
            bound = self.degrees[i] + self.degrees[j]
            worst = max(map(self.monomial_degree, terms))
            if worst >= bound:
                raise StructuralError(
                    f"[{self.names[j]},{self.names[i]}] has weighted degree "
                    f"{worst} >= {bound}; rewriting would not terminate")
            kappa[(j, i)] = terms
        self.kappa = MappingProxyType(
            {key: MappingProxyType(terms) for key, terms in kappa.items()})
        # _scale: D, the lcm of kappa's denominators; _powers[k] = D^k,
        # extended by `_unscale`; _kappa: kappa in the basis y_g = D^deg(g) x_g
        self._scale = math.lcm(*{c.denominator for terms in kappa.values()
                                 for c in terms.values()
                                 if type(c) is not int})
        self._powers = [1]
        self._kappa: dict[tuple[int, int], dict[Monomial, int]] = (
            self._scaled_table(kappa))
        # _kappa_folds[(j, i)]: the fold plan of the scaled kappa_ji
        # (`_add_kappa_times`), one (word, coefficient) per term in table
        # order; the word of a one-letter term is its generator index, of
        # any other its letters right to left
        self._kappa_folds: dict[tuple[int, int], tuple] = {
            pair: tuple((mono.index(1) if sum(mono) == 1
                         else tuple(self._letters(mono)), kc)
                        for mono, kc in terms.items())
            for pair, terms in self._kappa.items()}
        # _blockers[j]: the i < j with kappa_ji != 0, read off the fixed table
        self._blockers = tuple(
            tuple(i for i in range(j) if (j, i) in self._kappa)
            for j in range(len(gens)))

        self._mul_cache: dict[tuple[Monomial, Monomial], dict[Monomial, Scalar]] = {}
        self._gen_cache: dict[tuple[int, Monomial], dict[Monomial, int]] = {}
        self._mask_cache: dict[Monomial, tuple[int, int]] = {}

    # -- construction helpers ----------------------------------------------

    def _pair_indices(self, key) -> tuple[int, int]:
        """(j, i) of "HIGHER,LOWER" or a pair of names or ints (not bools)."""
        if isinstance(key, str):
            parts = [s.strip() for s in key.split(",")]
        else:
            parts = list(key) if isinstance(key, tuple) else [key]
        if len(parts) != 2:
            raise InputError(f"commutator key {key!r} must name two generators")
        idx = []
        for p in parts:
            p = (p if _is_int(p) else
                 self.index.get(p) if isinstance(p, str) else None)
            if p is None or not (0 <= p < len(self.names)):
                raise InputError(f"unknown generator in commutator key {key!r}")
            idx.append(p)
        j, i = idx
        if j <= i:
            raise InputError(
                f"commutator key {key!r} must be ordered HIGHER,LOWER in the "
                "generator order")
        return j, i

    def _terms_from(self, value) -> dict[Monomial, Scalar]:
        """Accept [(coeff, {name: exp}), ...] or {Monomial: coeff} term data."""
        if isinstance(value, dict):
            value = [(c, m) for m, c in value.items()]
        out: dict[Monomial, Scalar] = {}
        monomial_tuple = self.monomial_tuple
        for coeff, mono in value:
            c = scalar(coeff)
            add_term(out, monomial_tuple(mono), c)
        return out

    def monomial_tuple(self, mono) -> Monomial:
        """Coerce {name: exp} (or an exponent tuple) to an exponent tuple;
        every exponent must be a non-negative int (not a bool).

        An exponent of type int passes on its type alone; any other is
        an int subclass that is not a bool (`_is_int`) or is rejected.
        Each call checks every exponent: no monomial is trusted for having
        passed before, since (True, 0) == (1, 0) and 1.0 == 1.
        """
        if isinstance(mono, tuple):
            if len(mono) == len(self.degrees):
                for e in mono:
                    if type(e) is not int and not _is_int(e) or e < 0:
                        break
                else:
                    return mono
            raise InputError(f"bad exponent vector {mono!r}")
        if not isinstance(mono, dict):
            raise InputError(f"monomial {mono!r} is not a {{name: exponent}} "
                             "object")
        exps = [0] * len(self.degrees)
        index = self.index
        for name, e in mono.items():
            i = index.get(name)
            if i is None:
                raise InputError(f"unknown generator {name!r}")
            if type(e) is not int and not _is_int(e) or e < 0:
                raise InputError(
                    f"exponent of {name!r} must be a non-negative integer")
            exps[i] += e
        return tuple(exps)

    def monomial_dict(self, m: Monomial) -> dict[str, int]:
        """{name: exp} of an exponent tuple; the inverse of monomial_tuple."""
        return {name: e for name, e in zip(self.names, m) if e}

    # -- degrees and orderings -----------------------------------------------

    @property
    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def monomial_degree(self, m: Monomial) -> int:
        return sum(map(mul, m, self.degrees))

    def monomial_bidegree(self, m: Monomial) -> tuple[int, int]:
        if self.bidegrees is None:
            raise InputError("presentation carries no bidegrees")
        a = sum(e * bd[0] for e, bd in zip(m, self.bidegrees))
        b = sum(e * bd[1] for e, bd in zip(m, self.bidegrees))
        return (a, b)

    def monomial_key(self, m: Monomial):
        """Canonical order: by weighted degree, then earlier generators first."""
        return (self.monomial_degree(m), tuple(-e for e in m))

    def monomials_up_to(self, bound: int, include_unit: bool = False) -> list[Monomial]:
        """All PBW monomials of weighted degree <= bound, canonically ordered."""
        if bound < 0:
            raise InputError("degree bound must be >= 0")
        # (exponent prefix, its degree), one generator at a time; no
        # recursive closure, whose reference cycle would keep self alive
        prefixes: list[tuple[Monomial, int]] = [((), 0)]
        for d in self.degrees:
            prefixes = [(m + (e,), used + e * d) for m, used in prefixes
                        for e in range((bound - used) // d + 1)]
        out = sorted((m for m, _ in prefixes), key=self.monomial_key)
        if not include_unit:
            out = [m for m in out if any(m)]
        return out

    def pbw_count(self, bound: int) -> int:
        """Number of PBW monomials of weighted degree <= bound."""
        if bound < 0:
            raise InputError("degree bound must be >= 0")
        return sum(self._monomial_counts(bound).values())

    def _monomial_counts(self, bound: int, by_bidegree: bool = False) -> dict:
        """Number of PBW monomials (the unit included) of weighted degree
        <= bound per degree, or per bidegree, by degree then bidegree:
        counted, never listed, by one recurrence per generator of degree
        d, c[k] += c[k - d] in increasing k (multiplying the counts so far
        by 1 + x_g + x_g^2 + ...), on the bidegree grid in increasing
        total degree."""
        if not by_bidegree:
            counts = [1] + [0] * bound
            for d in self.degrees:
                for k in range(d, bound + 1):
                    counts[k] += counts[k - d]
            return {k: c for k, c in enumerate(counts) if c}
        grid = [(a, t - a) for t in range(bound + 1) for a in range(t + 1)]
        counts = dict.fromkeys(grid, 0)
        counts[(0, 0)] = 1
        for s0, s1 in self.bidegrees:
            for a, b in grid:
                if a >= s0 and b >= s1:
                    counts[(a, b)] += counts[(a - s0, b - s1)]
        return {g: c for g, c in counts.items() if c}

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {self.unit_monomial: 1})

    def letter(self, g: int) -> Monomial:
        """The monomial x_g of the generator with index g."""
        unit = self.unit_monomial
        return unit[:g] + (1,) + unit[g + 1:]

    def gen(self, name: str) -> "AlgebraElement":
        i = self.index.get(name)
        if i is None:
            raise InputError(f"unknown generator {name!r}")
        return AlgebraElement(self, {self.letter(i): 1})

    def monomial(self, mono) -> "AlgebraElement":
        return AlgebraElement(self, {self.monomial_tuple(mono): 1})

    def element(self, terms) -> "AlgebraElement":
        return AlgebraElement(self, self._terms_from(terms))

    # -- rewriting -------------------------------------------------------------

    def _scaled_table(self, kappa: dict
                      ) -> dict[tuple[int, int], dict[Monomial, int]]:
        """kappa in the basis y_g = D^{deg x_g} x_g, D = `_scale`.

        Multiplying [x_j, x_i] = sum_m kappa_ji[m] x^m by D^{deg x_i +
        deg x_j} gives [y_j, y_i] = sum_m kappa_ji[m] D^e y^m with e =
        deg x_i + deg x_j - deg m >= 1 (the constructor's degree drop),
        so each coefficient is the int numerator * (D // denominator) *
        D^{e-1}, formed by int operations alone.  When D = 1 it is kappa
        itself.
        """
        scale = self._scale
        if scale == 1:
            return kappa
        degrees, degree = self.degrees, self.monomial_degree
        out = {}
        for (j, i), terms in kappa.items():
            top = degrees[i] + degrees[j] - 1
            out[(j, i)] = {m: c.numerator * (scale // c.denominator)
                           * scale ** (top - degree(m))
                           for m, c in terms.items()}
        return out

    def _unscale(self, terms: dict[Monomial, int], w: int
                 ) -> dict[Monomial, Scalar]:
        """The x form of a y-form result of word degree w (the module
        docstring): the coefficient of t over D^{w - deg t}, by
        `quotient`, in key order; terms itself when D = 1."""
        if self._scale == 1:
            return terms
        powers, degree = self._powers, self.monomial_degree
        while len(powers) <= w:
            powers.append(powers[-1] * self._scale)
        return {t: quotient(c, powers[w - degree(t)])
                for t, c in terms.items()}

    def _gen_times(self, j: int, m: Monomial) -> dict[Monomial, int]:
        """y_j * m for a sorted monomial m in the y basis (the module
        docstring), cached on (j, m); do not mutate it.  Written below in
        the x's, as the recursion reads the same in both bases.

        When m has no letter among the blockers of x_j (`_blockers[j]`,
        the i < j with kappa_ji != 0), x_j m = m + e_j, returned uncached.
        Otherwise, with x_i the first generator of m = x_i m' (i < j), it
        is x_i (x_j m') + kappa_ji m'.  (Weighted degree, inversion count)
        drops in every recursive call: x_j m' and kappa_ji m' lose degree,
        and x_i times a term of x_j m' either loses degree or is sorted
        already.  The shortcut returns what that recursion returns, on
        every table, PBW-consistent or not: if kappa_ji = 0 for every
        earlier letter x_i of m, the recursion gives x_i (x_j m') + 0, by
        induction x_j m' = m' + e_j, and x_i times that is sorted, so
        x_j m = m + e_j.  Both sums go into the cached dict, the first
        through `_add_gen_times`, the second by the fold plan of kappa_ji
        (`_add_kappa_times`): a one-letter term kc x_l is the one step
        ``_add_gen_times(hit, l, m', kc)``, with no letter generator, seed
        dict or second merge, and any other term is folded from kc m'
        rather than scaled after its fold.  That adds, key by key, the
        value ``add_scaled(hit, _left_mul(letters, {m': kc}))`` would:
        c v = 0 exactly when v = 0 for c != 0, so the same keys are
        written and deleted in the same order.  Every coefficient of the
        scaled table is an int, so the cache holds ints alone.  A direct
        caller (`_resolve_overlap`) gets a free slide from the early
        return.
        """
        for i in self._blockers[j]:
            if m[i]:
                break
        else:
            return {m[:j] + (m[j] + 1,) + m[j + 1:]: 1}
        key = (j, m)
        hit = self._gen_cache.get(key)
        if hit is None:
            i = next(i for i, e in enumerate(m) if e)
            rest = m[:i] + (m[i] - 1,) + m[i + 1:]
            hit = {}
            for t, c in self._gen_times(j, rest).items():
                self._add_gen_times(hit, i, t, c)
            self._add_kappa_times(hit, j, i, rest)
            self._gen_cache[key] = hit
        return hit

    def _add_kappa_times(self, acc: dict[Monomial, int], j: int, i: int,
                         m: Monomial) -> None:
        """acc += kappa_ji * m, kappa scaled to the y basis, for a sorted
        monomial m, term by term in table order through the fold plan
        `_kappa_folds[(j, i)]`.

        A one-letter term kc x_l adds kc * x_l m by one `_add_gen_times`
        step; any other term folds its letters into m seeded with kc
        (`_left_mul`).  Either way acc receives what
        ``add_scaled(acc, _left_mul(letters, {m: kc}))`` gives it.
        """
        for word, kc in self._kappa_folds.get((j, i), ()):
            if type(word) is int:
                self._add_gen_times(acc, word, m, kc)
            else:
                add_scaled(acc, self._left_mul(word, {m: kc}))

    def _add_gen_times(self, acc: dict[Monomial, int], j: int,
                       m: Monomial, c: int) -> None:
        """acc += c * y_j m, for a sorted monomial m and an int c != 0.

        A free slide (m has no letter among the blockers of x_j) adds the
        one term m + e_j with coefficient c: no dict, no `_gen_times`
        call and no product c * 1, so what ``add_scaled(acc, {m + e_j:
        1}, c)`` adds.  Any other m adds c * `_gen_times(j, m)`.
        """
        for i in self._blockers[j]:
            if m[i]:
                add_scaled(acc, self._gen_times(j, m), c)
                return
        add_term(acc, m[:j] + (m[j] + 1,) + m[j + 1:], c)

    def _letters(self, m: Monomial):
        """The letters of a sorted monomial, right to left."""
        return (i for i in range(len(m) - 1, -1, -1) for _ in range(m[i]))

    def _left_mul(self, letters, terms: dict[Monomial, int]
                  ) -> dict[Monomial, int]:
        """y_{l_k} ... y_{l_1} * terms in the y basis: a new dict, or terms
        if no letters."""
        add_gen_times = self._add_gen_times
        for j in letters:
            nxt: dict[Monomial, int] = {}
            for m, c in terms.items():
                add_gen_times(nxt, j, m, c)
            terms = nxt
        return terms

    def normal_form(self, word: Sequence[str]) -> "AlgebraElement":
        """Normal form of a single word (sequence of generator names)."""
        for name in word:
            if name not in self.index:
                raise InputError(f"unknown generator {name!r} in word")
        letters = [self.index[name] for name in reversed(word)]
        return AlgebraElement(self, self._unscale(
            self._left_mul(letters, {self.unit_monomial: 1}),
            sum(self.degrees[g] for g in letters)))

    def mul_monomials(self, a: Monomial, b: Monomial) -> dict[Monomial, Scalar]:
        """Normal form of a*b for PBW monomials, cached; do not mutate it.

        When a slides into b (`_slides`), the normal form is the exponent
        sum; otherwise the letters of a are folded into b right to left in
        the y basis, and the result is mapped back (`_unscale`, word
        degree deg a + deg b).  Both results are cached in the x form: the
        exponent sums are cheaper to keep than to rebuild.
        """
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is None:
            if self._slides(a, b):
                hit = {tuple(x + y for x, y in zip(a, b)): 1}
            else:
                hit = self._unscale(self._left_mul(self._letters(a), {b: 1}),
                                    self.monomial_degree(a)
                                    + self.monomial_degree(b))
            self._mul_cache[key] = hit
        return hit

    def _masks(self, m: Monomial) -> tuple[int, int]:
        """The letters of m and the blockers of its letters (`_blockers`),
        as bit masks over the generator indices; cached."""
        hit = self._mask_cache.get(m)
        if hit is None:
            letters = blocked = 0
            for j, e in enumerate(m):
                if e:
                    letters |= 1 << j
                    for i in self._blockers[j]:
                        blocked |= 1 << i
            hit = self._mask_cache[m] = (letters, blocked)
        return hit

    def _slides(self, a: Monomial, b: Monomial) -> bool:
        """Whether every letter of a slides into b for free: no letter
        x_j of a meets a letter of b among its blockers, so a*b is the
        exponent sum a + b (`_gen_times`)."""
        return not self._masks(a)[1] & self._masks(b)[0]

    def _commute(self, a: Monomial, b: Monomial) -> bool:
        """Whether a*b = b*a = a + b by the blocker rule: a slides into b
        and b into a (`_slides`), so no letter of a and letter of b form a
        pair with kappa != 0.  It reads the table alone, so it holds on
        every table, PBW-consistent or not."""
        letters_a, blocked_a = self._masks(a)
        letters_b, blocked_b = self._masks(b)
        return not (blocked_a & letters_b or blocked_b & letters_a)

    def mul(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        if a.p is not self or b.p is not self:
            raise InputError("elements belong to a different presentation")
        return AlgebraElement(self, integral_values(a._products_into(b, {})))

    # -- confluence --------------------------------------------------------------

    def verify_pbw_consistency(self) -> VerificationReport:
        """Resolve every overlap x_k x_j x_i (k > j > i) in the two possible ways.

        Confluence of all such overlaps certifies that the sorted monomials
        form a basis (none of them can be collapsed by the relations).  The
        two sides are compared in the y form (`_unscale`), which is zero
        exactly when the x form is; only a nonzero difference, the
        witness, is mapped back to the x basis.
        """
        report = VerificationReport("PBW consistency (overlap resolution)")
        n, degrees = len(self.names), self.degrees
        found = False
        for k in range(2, n):
            for j in range(1, k):
                for i in range(j):
                    found = True
                    diff = add_scaled(
                        self._resolve_overlap(k, j, i, inner_first=False),
                        self._resolve_overlap(k, j, i, inner_first=True), -1)
                    witness = None
                    if diff:
                        witness = AlgebraElement(self, self._unscale(
                            diff, degrees[k] + degrees[j] + degrees[i]))
                    name = f"overlap {self.names[k]}*{self.names[j]}*{self.names[i]}"
                    report.add(name, not diff, witness=witness)
        if not found:
            report.add("no overlaps (fewer than three generators)", True,
                       informational=True)
        return report

    def _resolve_overlap(self, k: int, j: int, i: int, inner_first: bool
                         ) -> dict[Monomial, int]:
        """y_k y_j y_i in the y form, rewritten from the inner or the outer
        pair first."""
        if inner_first:
            # x_k (x_j x_i) -> x_k x_i x_j + x_k kappa_ji
            acc = self._left_mul((j, i, k), {self.unit_monomial: 1})
            for mono, c in self._kappa.get((j, i), {}).items():
                add_scaled(acc, self._gen_times(k, mono), c)
        else:
            # (x_k x_j) x_i -> x_j x_k x_i + kappa_kj x_i
            x_i = self.letter(i)
            acc = self._left_mul((k, j), {x_i: 1})
            self._add_kappa_times(acc, k, j, x_i)
        return acc

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"OrePresentation({gens})"


class Combination:
    """A sparse linear combination over one presentation: shared arithmetic.

    Subclasses add construction (``_new`` builds one of the same kind and
    shape), the operand check (``_check``), the product kernel
    (``_products_into``, which ``*`` and ``bracket`` share), the term
    order (``sorted_terms``) and key rendering (``_render_key``, None for
    a key that prints as its bare coefficient).
    """

    __slots__ = ("p", "terms")

    def _shape(self) -> tuple:
        return (self.p,)

    def _check(self, other):
        if type(other) is not type(self):
            raise InputError(f"cannot combine {type(self).__name__} with "
                             f"{type(other).__name__}")
        if other.p is not self.p:
            raise InputError("operands belong to different presentations")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        """The sum; integral Fractions are stored as ints, as by ``-``."""
        self._check(other)
        return self._new(integral_values(add_scaled(dict(self.terms),
                                                    other.terms)))

    def __sub__(self, other):
        self._check(other)
        return self._new(integral_values(add_scaled(dict(self.terms),
                                                    other.terms, -1)))

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, q):
        q = scalar(q)
        return self._new({k: q * c for k, c in self.terms.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (type(other) is type(self) and self._shape() == other._shape()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self._shape(), frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        chunks = []
        for key, c in self.sorted_terms():
            body = self._render_key(key)
            if body is None:
                text = str(c)
            elif c == 1:
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


class AlgebraElement(Combination):
    """A linear combination of PBW monomials over a fixed presentation."""

    __slots__ = ()

    def __init__(self, p: OrePresentation, terms: dict[Monomial, Scalar]):
        self.p = p
        self.terms = {m: c for m, c in terms.items() if c}

    def _new(self, terms) -> "AlgebraElement":
        return AlgebraElement(self.p, terms)

    @property
    def degree(self) -> Optional[int]:
        """Weighted degree; None for the zero element."""
        if not self.terms:
            return None
        return max(self.p.monomial_degree(m) for m in self.terms)

    def homogeneous_component(self, n: int) -> "AlgebraElement":
        return AlgebraElement(self.p, {
            m: c for m, c in self.terms.items() if self.p.monomial_degree(m) == n})

    def counit(self) -> Scalar:
        return self.terms.get(self.p.unit_monomial, 0)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.p.mul(self, other)
        return self.scale(other)

    def _products_into(self, other: "AlgebraElement", out: dict,
                       negate: bool = False,
                       skip_commuting: bool = False) -> dict:
        """out += self*other (or -self*other), term pair by term pair,
        leaving out the pairs that commute (`OrePresentation._commute`)
        when asked; returns out.  No zero is stored."""
        p = self.p
        mul, commute = p.mul_monomials, p._commute
        for x, ca in self.terms.items():
            if negate:
                ca = -ca
            for y, cb in other.terms.items():
                if not (skip_commuting and commute(x, y)):
                    add_scaled(out, mul(x, y), ca * cb)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.p.monomial_key(kv[0]))

    def render_monomial(self, m: Monomial) -> str:
        if not any(m):
            return "1"
        parts = []
        for name, e in zip(self.p.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def _render_key(self, m: Monomial) -> Optional[str]:
        return self.render_monomial(m) if any(m) else None


def bracket(a: Combination, b: Combination) -> Combination:
    """Commutator a*b - b*a in normal form: of algebra elements, or of
    tensors with componentwise products (no sign rule).

    Only the term pairs that do not commute take products.  Monomials x,
    y that commute by the blocker rule (`OrePresentation._commute`) have
    x*y = y*x = x + y, so the pair's share c (x*y - y*x) of the sum is
    exactly zero; a pair of tensors whose slots all commute has equal
    slot products both ways, so its share is zero too.  The rule reads
    the table alone, so the skip holds on every table, PBW-consistent or
    not.  The other pairs go through the product kernel of ``*``
    (``_products_into``), once each way, into one sum whose keys and
    values are those of a*b - b*a; integral Fractions are stored as ints
    (`integral_values`).
    """
    a._check(b)
    out = a._products_into(b, {}, skip_commuting=True)
    b._products_into(a, out, negate=True, skip_commuting=True)
    return a._new(integral_values(out))

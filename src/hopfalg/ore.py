"""Filtered algebra presentations with PBW normal forms.

An algebra is presented by ordered, weighted generators x_1 < ... < x_n
and a commutator table [x_j, x_i] = kappa_ji (j > i) whose entries have
weighted degree strictly below deg x_i + deg x_j.  Under that degree drop
the rewriting rule  x_j x_i -> x_i x_j + kappa_ji  terminates, and the
sorted monomials x_1^{e_1}...x_n^{e_n} span the algebra; whether they are
a *basis* is certified separately by the overlap check
(`verify_pbw_consistency`), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Optional, Sequence

from .errors import InputError, StructuralError
from .exactlin import ONE, ZERO, add_scaled, add_term, scalar
from .reports import VerificationReport

Monomial = tuple  # exponent vector, one entry per generator


@dataclass(frozen=True)
class GeneratorInfo:
    """An ordered generator: name, filtration weight, optional bidegree."""

    name: str
    degree: int
    bidegree: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.degree <= 0:
            raise InputError(f"generator {self.name}: degree must be positive")
        if self.bidegree is not None:
            bd = tuple(self.bidegree)
            if len(bd) != 2 or any(c < 0 for c in bd) or sum(bd) != self.degree:
                raise InputError(
                    f"generator {self.name}: bidegree {bd} must be a pair of "
                    f"non-negative integers summing to degree {self.degree}")
            object.__setattr__(self, "bidegree", bd)


class OrePresentation:
    """Ordered weighted generators plus the commutator table [x_j, x_i] = kappa_ji."""

    def __init__(self, generators: Sequence[GeneratorInfo], commutators=None,
                 *, strict: bool = True):
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
        self.strict = strict

        # kappa[(j, i)] with j > i: terms of [x_j, x_i] as monomial -> coefficient.
        # The public table is a read-only view because _mul_cache is only
        # valid for one table; rewriting reads the faster plain dicts behind it.
        self._kappa: dict[tuple[int, int], dict[Monomial, Fraction]] = {}
        for key, value in (commutators or {}).items():
            j, i = self._pair_indices(key)
            terms = self._terms_from(value)
            if not terms:
                continue
            if strict:
                bound = self.degrees[i] + self.degrees[j]
                worst = max(self.monomial_degree(m) for m in terms)
                if worst >= bound:
                    raise StructuralError(
                        f"[{self.names[j]},{self.names[i]}] has weighted degree "
                        f"{worst} >= {bound}; rewriting would not terminate")
            self._kappa[(j, i)] = terms
        self.kappa = MappingProxyType(
            {key: MappingProxyType(terms) for key, terms in self._kappa.items()})

        self._mul_cache: dict[tuple[Monomial, Monomial], dict[Monomial, Fraction]] = {}

    # -- construction helpers ----------------------------------------------

    def _pair_indices(self, key) -> tuple[int, int]:
        if isinstance(key, str):
            parts = [s.strip() for s in key.split(",")]
        else:
            parts = list(key)
        if len(parts) != 2:
            raise InputError(f"commutator key {key!r} must name two generators")
        idx = []
        for p in parts:
            p = p if isinstance(p, int) else self.index.get(p)
            if p is None or not (0 <= p < len(self.names)):
                raise InputError(f"unknown generator in commutator key {key!r}")
            idx.append(p)
        j, i = idx
        if j <= i:
            raise InputError(
                f"commutator key {key!r} must be ordered HIGHER,LOWER in the "
                "generator order")
        return j, i

    def _terms_from(self, value) -> dict[Monomial, Fraction]:
        """Accept [(coeff, {name: exp}), ...] or {Monomial: coeff} term data."""
        out: dict[Monomial, Fraction] = {}
        if isinstance(value, dict):
            items = [(c, m) for m, c in value.items()]
        else:
            items = list(value)
        for coeff, mono in items:
            c = scalar(coeff)
            add_term(out, self.monomial_tuple(mono), c)
        return out

    def monomial_tuple(self, mono) -> Monomial:
        """Coerce {name: exp} (or an exponent tuple) to an exponent tuple."""
        n = len(self.names)
        if isinstance(mono, tuple):
            if len(mono) != n or any(e < 0 for e in mono):
                raise InputError(f"bad exponent vector {mono!r}")
            return mono
        exps = [0] * n
        for name, e in mono.items():
            i = self.index.get(name)
            if i is None:
                raise InputError(f"unknown generator {name!r}")
            if e < 0:
                raise InputError(f"negative exponent for {name!r}")
            exps[i] += e
        return tuple(exps)

    # -- degrees and orderings -----------------------------------------------

    @property
    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def monomial_degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self.degrees))

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
        out: list[Monomial] = []

        def rec(pos: int, left: int, acc: list[int]):
            if pos == len(self.names):
                out.append(tuple(acc))
                return
            d = self.degrees[pos]
            e = 0
            while e * d <= left:
                acc.append(e)
                rec(pos + 1, left - e * d, acc)
                acc.pop()
                e += 1

        rec(0, bound, [])
        out.sort(key=self.monomial_key)
        if not include_unit:
            out = [m for m in out if any(m)]
        return out

    def pbw_count(self, bound: int) -> int:
        """Number of PBW monomials of weighted degree <= bound."""
        if bound < 0:
            raise InputError("degree bound must be >= 0")
        ways = [0] * (bound + 1)
        ways[0] = 1
        for d in self.degrees:
            nxt = [0] * (bound + 1)
            for t in range(bound + 1):
                e = 0
                while t - e * d >= 0:
                    nxt[t] += ways[t - e * d]
                    e += 1
            ways = nxt
        return sum(ways)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {self.unit_monomial: ONE})

    def gen(self, name: str) -> "AlgebraElement":
        i = self.index.get(name)
        if i is None:
            raise InputError(f"unknown generator {name!r}")
        exps = [0] * len(self.names)
        exps[i] = 1
        return AlgebraElement(self, {tuple(exps): ONE})

    def monomial(self, mono) -> "AlgebraElement":
        return AlgebraElement(self, {self.monomial_tuple(mono): ONE})

    def element(self, terms) -> "AlgebraElement":
        return AlgebraElement(self, self._terms_from(terms))

    # -- rewriting -------------------------------------------------------------

    def _monomial_word(self, m: Monomial) -> tuple[int, ...]:
        word: list[int] = []
        for i, e in enumerate(m):
            word.extend([i] * e)
        return tuple(word)

    def _word_monomial(self, w: tuple[int, ...]) -> Monomial:
        exps = [0] * len(self.names)
        for i in w:
            exps[i] += 1
        return tuple(exps)

    def _normalize_word(self, word: tuple[int, ...], coeff: Fraction,
                        acc: dict[Monomial, Fraction]):
        """Rewrite the leftmost out-of-order pair until sorted, into acc.

        Terminates because each step either keeps the weighted degree and
        lowers the inversion count (the swap) or strictly lowers the
        weighted degree (the kappa terms).
        """
        stack = [(word, coeff)]
        while stack:
            w, c = stack.pop()
            pos = -1
            for t in range(len(w) - 1):
                if w[t] > w[t + 1]:
                    pos = t
                    break
            if pos < 0:
                add_term(acc, self._word_monomial(w), c)
                continue
            j, i = w[pos], w[pos + 1]
            head, tail = w[:pos], w[pos + 2:]
            stack.append((head + (i, j) + tail, c))
            km = self._kappa.get((j, i))
            if km:
                for mono, kc in km.items():
                    stack.append((head + self._monomial_word(mono) + tail, c * kc))

    def normal_form(self, word: Sequence[str], coeff=1) -> "AlgebraElement":
        """Normal form of a single word (sequence of generator names)."""
        idx = []
        for name in word:
            i = self.index.get(name)
            if i is None:
                raise InputError(f"unknown generator {name!r} in word")
            idx.append(i)
        acc: dict[Monomial, Fraction] = {}
        self._normalize_word(tuple(idx), scalar(coeff), acc)
        return AlgebraElement(self, acc)

    def mul_monomials(self, a: Monomial, b: Monomial) -> dict[Monomial, Fraction]:
        """Normal form of the product of two PBW monomials (cached)."""
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is None:
            acc: dict[Monomial, Fraction] = {}
            self._normalize_word(self._monomial_word(a) + self._monomial_word(b),
                                 ONE, acc)
            self._mul_cache[key] = hit = acc
        return hit

    def mul(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        if a.p is not self or b.p is not self:
            raise InputError("elements belong to a different presentation")
        terms: dict[Monomial, Fraction] = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                add_scaled(terms, self.mul_monomials(ma, mb), ca * cb)
        return AlgebraElement(self, terms)

    # -- confluence --------------------------------------------------------------

    def verify_pbw_consistency(self) -> VerificationReport:
        """Resolve every overlap x_k x_j x_i (k > j > i) in the two possible ways.

        Confluence of all such overlaps certifies that the sorted monomials
        form a basis (none of them can be collapsed by the relations).
        """
        report = VerificationReport("PBW consistency (overlap resolution)")
        n = len(self.names)
        found = False
        for k in range(2, n):
            for j in range(1, k):
                for i in range(j):
                    found = True
                    first = self._resolve_overlap(k, j, i, inner_first=False)
                    second = self._resolve_overlap(k, j, i, inner_first=True)
                    diff = first - second
                    name = f"overlap {self.names[k]}*{self.names[j]}*{self.names[i]}"
                    report.add(name, diff.is_zero(),
                               witness=None if diff.is_zero() else diff)
        if not found:
            report.add("no overlaps (fewer than three generators)", True,
                       informational=True)
        return report

    def _resolve_overlap(self, k: int, j: int, i: int, inner_first: bool):
        acc: dict[Monomial, Fraction] = {}
        if inner_first:
            # x_k (x_j x_i) -> x_k x_i x_j + x_k kappa_ji
            self._normalize_word((k, i, j), ONE, acc)
            for mono, c in self.kappa.get((j, i), {}).items():
                self._normalize_word((k,) + self._monomial_word(mono), c, acc)
        else:
            # (x_k x_j) x_i -> x_j x_k x_i + kappa_kj x_i
            self._normalize_word((j, k, i), ONE, acc)
            for mono, c in self.kappa.get((k, j), {}).items():
                self._normalize_word(self._monomial_word(mono) + (i,), c, acc)
        return AlgebraElement(self, acc)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"OrePresentation({gens})"


class AlgebraElement:
    """A linear combination of PBW monomials over a fixed presentation."""

    __slots__ = ("p", "terms")

    def __init__(self, p: OrePresentation, terms: dict[Monomial, Fraction]):
        self.p = p
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Optional[int]:
        """Weighted degree; None for the zero element."""
        if not self.terms:
            return None
        return max(self.p.monomial_degree(m) for m in self.terms)

    def homogeneous_component(self, n: int) -> "AlgebraElement":
        return AlgebraElement(self.p, {
            m: c for m, c in self.terms.items() if self.p.monomial_degree(m) == n})

    def counit(self) -> Fraction:
        return self.terms.get(self.p.unit_monomial, ZERO)

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(self.p.monomial_tuple(mono), ZERO)

    def _check_same(self, other: "AlgebraElement"):
        if self.p is not other.p:
            raise InputError("elements belong to different presentations")

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement(self.p, add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.p, {m: -c for m, c in self.terms.items()})

    def scale(self, q) -> "AlgebraElement":
        q = scalar(q)
        return AlgebraElement(self.p, {m: q * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.p.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.p is other.p
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.p), frozenset(self.terms.items())))

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

    def __repr__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            mono = self.render_monomial(m)
            if mono == "1":
                text = str(c)
            elif c == 1:
                text = mono
            elif c == -1:
                text = f"-{mono}"
            else:
                text = f"{c}*{mono}"
            if chunks and not text.startswith("-"):
                chunks.append("+ " + text)
            elif chunks:
                chunks.append("- " + text[1:])
            else:
                chunks.append(text)
        return " ".join(chunks)


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Commutator a*b - b*a in normal form."""
    return a * b - b * a

"""Coassociative Lie algebras (CLAs) given by structure constants.

A CLA is a Lie algebra L with a coassociative, counit-free coproduct
delta: L -> L(x)L that is compatible with the bracket inside the
enveloping algebra:

    delta([a,b]) = b_1(x)[a,b_2] + [a,b_1](x)b_2
                 + [a_1,b](x)a_2 + a_1(x)[a_2,b] + [delta(a), delta(b)]

(Sweedler notation, sums omitted).  The last term is a commutator of
tensors in U(L)(x)U(L), so the check builds the enveloping presentation
and runs its ``verify_compatibility``, Delta([a,b]) = [Delta a, Delta b].
With Delta = x(x)1 + 1(x)x + delta on generators, expand
[a(x)1 + 1(x)a + delta(a), b(x)1 + 1(x)b + delta(b)]: the primitive parts
give [a,b](x)1 + 1(x)[a,b], the part of Delta([a,b]) outside
delta([a,b]); the commutators of a primitive part with a delta give the
first four terms above; and [delta(a), delta(b)] is the last.  So the
two checks agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .errors import InputError, StructuralError
from .exactlin import (Matrix, Scalar, add_scaled, add_term, coassociator,
                       express, grade_sum, graded_h2, lead_pair_coordinates,
                       map_slot, scalar)
from .hopf import HopfPresentation
from .ore import GeneratorInfo, OrePresentation, _is_int
from .reports import AnswerStore, VerificationReport


class LieConstants:
    """Lie bracket structure constants on a named basis.

    Subclasses set ``names`` and ``brackets``, stored for i < j only:
    {(i, j): {k: b_ijk}} meaning [x_i, x_j] = sum_k b_ijk x_k.
    """

    names: Sequence[str]
    brackets: dict[tuple[int, int], dict[int, Scalar]]

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket_constants(self, i: int, j: int) -> dict[int, Scalar]:
        """[x_i, x_j] as {k: coefficient}."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def jacobi_witness(self):
        """Names of the first basis triple breaking the Jacobi identity, or None."""
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total: dict[int, Scalar] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for t, ct in self.bracket_constants(a, b).items():
                            add_scaled(total, self.bracket_constants(t, c), ct)
                    if total:
                        return (self.names[i], self.names[j], self.names[k])
        return None


class CLA(LieConstants, AnswerStore):
    """Finite-dimensional bracket + coproduct structure constants.

    brackets: {(i, j): {k: b_ijk}} meaning [x_i, x_j] = sum_k b_ijk x_k;
    antisymmetry is enforced, only one orientation needs to be given.
    delta: {i: {(j, k): d_ijk}} meaning delta(x_i) = sum d_ijk x_j (x) x_k.
    """

    def __init__(self, basis: Sequence[str], brackets=None, delta=None):
        self.names = tuple(basis)
        if not all(isinstance(name, str) for name in self.names):
            raise InputError("basis names must be strings")
        if len(set(self.names)) != len(self.names):
            raise InputError("basis names must be unique")
        n = self.dim

        def indices(*ks) -> bool:
            return all(_is_int(k) and 0 <= k < n for k in ks)

        self.brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), terms in (brackets or {}).items():
            if not indices(i, j):
                raise InputError(f"bracket index ({i!r},{j!r}) is not a "
                                 f"pair of integers in range({n})")
            if i == j:
                if any(scalar(c) for c in terms.values()):
                    raise InputError(f"[x_{i},x_{i}] must vanish")
                continue
            clean = {}
            for k, c in terms.items():
                c = scalar(c)
                if not indices(k):
                    raise InputError(f"bracket target {k!r} is not an "
                                     f"integer in range({n})")
                if c:
                    clean[k] = c
            key, sign = ((i, j), 1) if i < j else ((j, i), -1)
            stored = {k: sign * c for k, c in clean.items()}
            if key in self.brackets and self.brackets[key] != stored:
                raise InputError(
                    f"inconsistent antisymmetric data for bracket {key}")
            if stored:
                self.brackets[key] = stored
        self.delta: dict[int, dict[tuple[int, int], Scalar]] = {}
        for i, terms in (delta or {}).items():
            if not indices(i):
                raise InputError(f"delta index {i!r} is not an integer in "
                                 f"range({n})")
            clean = {}
            for (j, k), c in terms.items():
                c = scalar(c)
                if not indices(j, k):
                    raise InputError(f"delta target ({j!r},{k!r}) is not a "
                                     f"pair of integers in range({n})")
                if c:
                    clean[(j, k)] = c
            if clean:
                self.delta[i] = clean

    def delta_constants(self, i: int) -> dict[tuple[int, int], Scalar]:
        return dict(self.delta.get(i, {}))

    def _checked(self) -> tuple[VerificationReport, Optional[HopfPresentation]]:
        """The kept ``_checked_envelope`` pair: the ``verify_cla`` report
        and U(L), None unless the report passes."""
        return self._kept(("envelope",), lambda: _checked_envelope(self))

    def is_anti_cocommutative(self) -> bool:
        for terms in self.delta.values():
            for (j, k), c in terms.items():
                if terms.get((k, j), 0) != -c:
                    return False
        return True

    def __eq__(self, other):
        """Literal structure-constant equality (basis names ignored)."""
        return (isinstance(other, CLA) and self.dim == other.dim
                and self.brackets == other.brackets and self.delta == other.delta)

    def __repr__(self):
        rels = []
        for (i, j), terms in sorted(self.brackets.items()):
            rhs = " + ".join(f"{c}*{self.names[k]}" for k, c in sorted(terms.items()))
            rels.append(f"[{self.names[i]},{self.names[j]}]={rhs}")
        return f"CLA({', '.join(self.names)}; {'; '.join(rels) or 'abelian'})"


@dataclass
class GradedLie(LieConstants, AnswerStore):
    """Graded Lie algebra by structure constants (brackets add degrees).

    ``lifts``, when the algebra was read off a presentation, holds per
    basis vector the PBW monomial it is dual to.
    """

    names: list[str]
    degrees: list[int]
    # brackets stored for i < j only: {(i, j): {k: coeff}}
    brackets: dict[tuple[int, int], dict[int, Scalar]] = field(default_factory=dict)
    lifts: Optional[list[tuple[int, ...]]] = field(default=None, compare=False)

    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out

    def ce_h2_dims(self, grades: Optional[Sequence] = None) -> dict:
        """dim H^2 of the Chevalley-Eilenberg complex (trivial coefficients)
        per grade, for the grades where it is nonzero.

        The grade of basis vector i is its degree, or ``grades[i]`` (an int
        or a tuple such as a bidegree) when given, one per basis vector;
        brackets must add grades, and InputError names the first bracket
        that does not.  The cochains Lambda^k L* split into grade blocks,
        xi^i ^ xi^j of grade g_i + g_j, that d preserves, so ``graded_h2``
        counts them all from one rank profile per differential, with
            d xi^k = -sum_{i<j} c_ij^k xi^i ^ xi^j,
            d w (x, y, z) = -w([x,y], z) + w([x,z], y) - w([y,z], x).
        The answer is kept per grade list; the brackets must not change
        after the first call.
        """
        n = self.dim
        grades = tuple(self.degrees if grades is None else grades)
        if len(grades) != n:
            raise InputError(f"{len(grades)} grades for {n} basis vectors")
        return dict(self._kept(("ce h2", grades), lambda: self._ce_h2(grades)))

    def _ce_h2(self, grades: tuple) -> dict:
        """The elimination behind ``ce_h2_dims`` for one grade list."""
        n = self.dim
        bad = self._ungraded_bracket(grades)
        if bad:
            raise InputError(f"grades do not add on {bad}")
        d2: dict[tuple[int, int], dict] = {
            pair: {} for pair in combinations(range(n), 2)}
        for triple in combinations(range(n), 3):
            i, j, l = triple
            for p, q, r, sign in ((i, j, l, -1), (i, l, j, 1), (j, l, i, -1)):
                for k, c in self.bracket_constants(p, q).items():
                    if k != r:
                        pair, s = ((k, r), sign) if k < r else ((r, k), -sign)
                        add_term(d2[pair], triple, s * c)
        d2_pivots = Matrix.from_keyed_columns(list(d2.values())).rank_profile()
        cocycles, coboundaries = graded_h2(
            grades, self._d1_pivots(),
            [grade_sum(grades[i], grades[j]) for i, j in d2], d2_pivots)
        return {g: h2 for g, z in cocycles.items()
                if (h2 := z - coboundaries.get(g, 0))}

    def _d1_pivots(self) -> tuple[int, ...]:
        """The rank profile of CE d^1, kept: column k is d xi^k = -sum_{i<j}
        c_ij^k xi^i ^ xi^j, the negated transpose of the bracket constants,
        so it depends on no grade list."""
        def compute():
            d1: list[dict] = [{} for _ in range(self.dim)]
            for (i, j), terms in self.brackets.items():
                for k, c in terms.items():
                    d1[k][(i, j)] = -c
            return tuple(Matrix.from_keyed_columns(d1).rank_profile())
        return self._kept(("ce d1",), compute)

    def generated_in_degree_one(self) -> bool:
        """Whether L(1) generates L, that is L = L(1) + [L, L]: the rank of
        the bracket constants, which span [L, L], is that of CE d^1, their
        negated transpose (``_d1_pivots``), against the number of basis
        vectors of degree >= 2."""
        return len(self._d1_pivots()) == sum(d > 1 for d in self.degrees)

    def _ungraded_bracket(self, grades: Sequence) -> Optional[str]:
        """The first stored bracket [x_i, x_j] with a term x_k whose grade
        is not g_i + g_j, as "[x_i,x_j] -> x_k: g_k != g_i + g_j", or None."""
        names = self.names
        for (i, j), terms in self.brackets.items():
            for k in terms:
                if grades[k] != grade_sum(grades[i], grades[j]):
                    return (f"[{names[i]},{names[j]}] -> {names[k]}: "
                            f"{grades[k]} != {grades[i]} + {grades[j]}")
        return None

    def verify(self) -> VerificationReport:
        """Degree additivity and the Jacobi identity on every basis triple.

        Once brackets add degrees, a triple whose degrees sum past the top
        degree has each double bracket in an empty degree, so checking it
        too changes no verdict.
        """
        report = VerificationReport("graded Lie axioms")
        witness = self._ungraded_bracket(self.degrees)
        report.add("brackets add degrees", witness is None, witness=witness)
        witness = self.jacobi_witness()
        report.add("Jacobi identity", witness is None, witness=witness)
        return report

    def __repr__(self):
        degs = self.dims_by_degree()
        rels = []
        for (i, j), terms in sorted(self.brackets.items()):
            rhs = " + ".join(f"{c}*{self.names[k]}"
                             for k, c in sorted(terms.items())) or "0"
            rels.append(f"[{self.names[i]},{self.names[j]}]={rhs}")
        return (f"GradedLie(dims by degree {degs}; "
                f"{'; '.join(rels) or 'abelian'})")


# -- verification and the enveloping algebra ------------------------------------


def verify_cla(L: CLA) -> VerificationReport:
    """Jacobi, coassociativity, the bracket/coproduct compatibility, and an
    informational anti-cocommutativity flag.

    The compatibility check builds U(L) once and runs its
    ``verify_compatibility``; when U(L) cannot be built (L is not
    conilpotent, or its basis is not adapted to the kernel filtration of
    delta) the check fails with the reason as its detail.  The report is
    kept on L with U(L); each call returns a copy.
    """
    return L._checked()[0].copy()


def enveloping(L: CLA) -> HopfPresentation:
    """The enveloping Hopf presentation U(L) of a CLA that passes ``verify_cla``.

    The commutator table is the bracket and the reduced coproduct table is
    delta.  Filtration weights are read off the kernel filtration of delta
    (weight n for basis vectors first killed by the n-fold coproduct); for
    anti-cocommutative CLAs this is weight 1 on ker delta and 2 elsewhere.
    Raises StructuralError naming the first failed axiom otherwise.
    """
    report, env = L._checked()
    if env is None:
        raise StructuralError(
            f"CLA axioms fail, cannot envelope: {report.failures()[0].name}")
    return env


def object_battery(obj, antipode_bound: int = 4) -> VerificationReport:
    """The verification battery of a Hopf presentation (PBW consistency,
    coassociativity, compatibility, the antipode up to ``antipode_bound``);
    of a CLA, the ``verify_cla`` rows and, when they pass, those of U(L)."""
    if isinstance(obj, HopfPresentation):
        h, report = obj, VerificationReport("verification battery")
    else:
        report = verify_cla(obj)
        if not report.passed:
            return report
        h = enveloping(obj)
    for part in (h.verify_pbw_consistency(), h.verify_coassociativity(),
                 h.verify_compatibility()):
        report.extend(part)
    antipode = h.verify_antipode(antipode_bound)
    report.extend(antipode)
    # the battery keeps no sub-report titles; this one carries the bound
    report.add(antipode.title, antipode.passed, informational=True)
    return report


def _checked_envelope(L: CLA
                      ) -> tuple[VerificationReport, Optional[HopfPresentation]]:
    """The ``verify_cla`` report, and U(L) when the report passes (else None)."""
    report = VerificationReport(f"CLA axioms for {L!r}")
    n = L.dim

    witness = L.jacobi_witness()
    report.add("Jacobi identity", witness is None, witness=witness)

    witness = next((L.names[i] for i in range(n) if coassociator(
        L.delta_constants(i), L.delta_constants)), None)
    report.add("coassociativity of delta", witness is None, witness=witness)

    env = None
    try:
        env = _envelope(L)
    except (StructuralError, InputError) as exc:
        report.add("bracket/coproduct compatibility in U(L)", False,
                   detail=f"enveloping presentation could not be built: {exc}")
    else:
        failures = env._compatibility_report().failures()
        report.add("bracket/coproduct compatibility in U(L)", not failures,
                   witness=failures[0].witness if failures else None)

    report.add("anti-cocommutative", L.is_anti_cocommutative(),
               informational=True)
    return report, env if report.passed else None


def _envelope(L: CLA) -> HopfPresentation:
    """U(L) built from the structure constants, without checking the axioms."""
    steps = _delta_kernel_steps(L)
    if steps[-1][0] != L.dim:
        raise StructuralError(
            "CLA is not (locally) conilpotent: the kernel filtration of delta "
            "stabilizes below L, so U(L) is a bialgebra but not a connected "
            "Hopf algebra")

    n = L.dim
    weights = [0] * n
    for step, (dim, killed) in enumerate(steps, start=1):
        if len(killed) != dim:
            raise StructuralError(
                "the standard basis is not adapted to the kernel filtration "
                "of delta; change basis (cla_transform) so that each ker "
                "delta^n is spanned by basis vectors")
        for i in killed:
            weights[i] = weights[i] or step

    gens = [GeneratorInfo(L.names[i], weights[i]) for i in range(n)]
    commutators = {}
    for j in range(1, n):
        for i in range(j):
            terms = [(c, {L.names[k]: 1}) for k, c in
                     L.bracket_constants(j, i).items()]
            if terms:
                commutators[(L.names[j], L.names[i])] = terms
    coproducts = {}
    for i in range(n):
        terms = [(c, {L.names[j]: 1}, {L.names[k]: 1})
                 for (j, k), c in L.delta_constants(i).items()]
        if terms:
            coproducts[L.names[i]] = terms
    try:
        algebra = OrePresentation(gens, commutators)
        return HopfPresentation(algebra, coproducts)
    except StructuralError as exc:
        raise StructuralError(f"no valid weight assignment: {exc}") from exc


# -- kernel filtration -----------------------------------------------------------


def _delta_kernel_steps(L: CLA) -> list[tuple[int, list[int]]]:
    """(dim ker delta^n, basis indices i with delta^n(x_i) = 0) for n = 1, 2, ...

    Stops once ker delta^n = L or the dimension repeats.  Basis vector i
    lies in ker delta^n exactly when its column of iterated coproducts is
    zero, so the basis is adapted to the filtration when the killed
    indices number dim ker delta^n at every step.
    """
    n = L.dim
    # per basis vector, the iterated coproduct as {index tuple: coeff}
    tensors = [{(i,): 1} for i in range(n)]
    steps: list[tuple[int, list[int]]] = []
    for _ in range(n + 1):
        # apply delta to the first slot of each tensor
        tensors = [map_slot(t, 0, L.delta_constants) for t in tensors]
        # the first step is the matrix of ker delta, kept by kernel_delta
        dim = (n - Matrix.from_keyed_columns(tensors).rank() if steps
               else len(kernel_delta(L)))
        steps.append((dim, [i for i, t in enumerate(tensors) if not t]))
        if dim == n or (len(steps) >= 2 and dim == steps[-2][0]):
            break
    return steps


def kernel_delta(L: CLA) -> list[dict[int, Scalar]]:
    """Canonical basis of ker delta (sparse coefficient vectors over the CLA
    basis), eliminated once per CLA and kept on it."""
    kernel = L._kept(("ker delta",), lambda: Matrix.from_keyed_columns(
        [L.delta_constants(i) for i in range(L.dim)]).kernel_basis())
    return [dict(vec) for vec in kernel]


def conilpotency_index(L: CLA) -> Optional[int]:
    """Smallest n with ker delta^n = L, or None when the chain stabilizes early."""
    for step, (dim, _) in enumerate(_delta_kernel_steps(L), start=1):
        if dim == L.dim:
            return step
    return None


# -- lantern ------------------------------------------------------------------------


def lantern_of_cla(L: CLA) -> GradedLie:
    """The graded Lie algebra dual to gr U(L).

    Degree 1 is dual to ker delta, degree 2 to a complement; the bracket of
    two degree-1 duals pairs against the skew coproduct of the complement:
    with delta(y_s) = sum C^s_{ab} k_a (x) k_b one gets
    [k_a*, k_b*] = sum_s 2 C^s_{ab} y_s*.  The factor 2 is fixed by the
    dual-basis pairing and is cross-checked against the presentation-level
    lantern computation in the test-suite.  C^s is read at the lead pairs
    of the kept ker delta (``lead_pair_coordinates``), with no elimination.
    """
    if not L.is_anti_cocommutative():
        raise InputError("lantern of a CLA requires anti-cocommutativity")
    n = L.dim
    kernel = kernel_delta(L)
    kdim = len(kernel)
    leads = [max(vec) for vec in kernel]
    complement = [i for i in range(n) if i not in leads]

    def vec_name(vec) -> str:
        support = sorted(vec.items())
        if len(support) == 1 and support[0][1] == 1:
            return L.names[support[0][0]] + "*"
        return "(" + " + ".join(f"{c}*{L.names[i]}" for i, c in support) + ")*"

    names = [vec_name(v) for v in kernel] + [L.names[i] + "*" for i in complement]
    degrees = [1] * kdim + [2] * len(complement)

    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    coproducts = lead_pair_coordinates(
        kernel, leads, [L.delta_constants(c) for c in complement])
    for s, (sol, rest) in enumerate(coproducts):
        if rest:
            raise StructuralError(
                f"delta({L.names[complement[s]]}) does not lie in "
                "(ker delta)(x)(ker delta)")
        for (a, b), coeff in sol.items():
            if a < b:
                brackets.setdefault((a, b), {})[kdim + s] = 2 * coeff
    return GradedLie(names, degrees, brackets)


# -- base change -------------------------------------------------------------------


def cla_transform(L: CLA, m: Matrix) -> CLA:
    """Transport the structure constants to the basis x'_i = sum_j M_ij x_j.

    [x'_i, x'_j] = sum M_ia M_jb [x_a, x_b] and the x_a are expressed over
    the rows of M in one elimination; delta(x'_i) = sum_j M_ij delta(x_j)
    goes to the new basis slot by slot through those x_a coordinates.
    """
    n = L.dim
    if m.rows != n or m.cols != n:
        raise InputError(f"base-change matrix must be {n}x{n}")
    rows: list[dict[int, Scalar]] = [{} for _ in range(n)]
    deltas: list[dict[tuple[int, int], Scalar]] = [{} for _ in range(n)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
        add_scaled(deltas[i], L.delta_constants(j), v)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    images = []
    for i, j in pairs:
        image: dict[int, Scalar] = {}
        for a, ca in rows[i].items():
            for b, cb in rows[j].items():
                add_scaled(image, L.bracket_constants(a, b), ca * cb)
        images.append(image)
    sols, rank = express(rows, images + [{a: 1} for a in range(n)])
    if rank < n:
        raise InputError("base-change matrix is singular")
    new = [{(c,): v for c, v in x.items()} for x in sols[len(pairs):]]
    return CLA(L.names, dict(zip(pairs, sols)), {
        i: map_slot(map_slot(t, 0, new.__getitem__), 1, new.__getitem__)
        for i, t in enumerate(deltas)})

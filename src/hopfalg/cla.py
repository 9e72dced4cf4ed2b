"""Coassociative Lie algebras (CLAs) given by structure constants.

A CLA is a Lie algebra L with a coassociative, counit-free coproduct
delta: L -> L(x)L that is compatible with the bracket inside the
enveloping algebra:

    delta([a,b]) = b_1(x)[a,b_2] + [a,b_1](x)b_2
                 + [a_1,b](x)a_2 + a_1(x)[a_2,b] + [delta(a), delta(b)]

(Sweedler notation, sums omitted).  The last term is a commutator of
tensors in U(L)(x)U(L), which is why the compatibility check builds the
enveloping presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, StructuralError
from .exactlin import (Matrix, ONE, ZERO, add_scaled, add_term, express,
                       reduce_to_basis, scalar, sparse)
from .hopf import HopfPresentation, TensorElement, tensor_bracket, tensor_of
from .ore import AlgebraElement, GeneratorInfo, OrePresentation
from .reports import VerificationReport


class LieConstants:
    """Lie bracket structure constants on a named basis.

    Subclasses set ``names`` and ``brackets``, stored for i < j only:
    {(i, j): {k: b_ijk}} meaning [x_i, x_j] = sum_k b_ijk x_k.
    """

    names: Sequence[str]
    brackets: dict[tuple[int, int], dict[int, Fraction]]

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket_constants(self, i: int, j: int) -> dict[int, Fraction]:
        """[x_i, x_j] as {k: coefficient}."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket_vectors(self, u: Sequence[Fraction], v: Sequence[Fraction]
                        ) -> list[Fraction]:
        """Bracket of two coefficient vectors."""
        out = [ZERO] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                for k, c in self.bracket_constants(i, j).items():
                    out[k] += ci * cj * c
        return out

    def jacobi_witness(self, max_degree: Optional[int] = None):
        """Names of the first basis triple breaking the Jacobi identity, or None.

        With ``max_degree``, only triples whose ``degrees`` (which the
        subclass must then provide) sum to at most max_degree are checked.
        """
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if (max_degree is not None and self.degrees[i]
                            + self.degrees[j] + self.degrees[k] > max_degree):
                        continue
                    total: dict[int, Fraction] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for t, ct in self.bracket_constants(a, b).items():
                            add_scaled(total, self.bracket_constants(t, c), ct)
                    if total:
                        return (self.names[i], self.names[j], self.names[k])
        return None


class CLA(LieConstants):
    """Finite-dimensional bracket + coproduct structure constants.

    brackets: {(i, j): {k: b_ijk}} meaning [x_i, x_j] = sum_k b_ijk x_k;
    antisymmetry is enforced, only one orientation needs to be given.
    delta: {i: {(j, k): d_ijk}} meaning delta(x_i) = sum d_ijk x_j (x) x_k.
    """

    def __init__(self, basis: Sequence[str], brackets=None, delta=None):
        self.names = tuple(basis)
        if len(set(self.names)) != len(self.names):
            raise InputError("basis names must be unique")
        n = self.dim
        self.brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), terms in (brackets or {}).items():
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"bracket index ({i},{j}) out of range")
            if i == j:
                if any(scalar(c) for c in terms.values()):
                    raise InputError(f"[x_{i},x_{i}] must vanish")
                continue
            clean = {}
            for k, c in terms.items():
                c = scalar(c)
                if not (0 <= k < n):
                    raise InputError(f"bracket target {k} out of range")
                if c:
                    clean[k] = c
            key, sign = ((i, j), 1) if i < j else ((j, i), -1)
            stored = {k: sign * c for k, c in clean.items()}
            if key in self.brackets and self.brackets[key] != stored:
                raise InputError(
                    f"inconsistent antisymmetric data for bracket {key}")
            if stored:
                self.brackets[key] = stored
        self.delta: dict[int, dict[tuple[int, int], Fraction]] = {}
        for i, terms in (delta or {}).items():
            if not (0 <= i < n):
                raise InputError(f"delta index {i} out of range")
            clean = {}
            for (j, k), c in terms.items():
                c = scalar(c)
                if not (0 <= j < n and 0 <= k < n):
                    raise InputError(f"delta target ({j},{k}) out of range")
                if c:
                    clean[(j, k)] = c
            if clean:
                self.delta[i] = clean

    def delta_constants(self, i: int) -> dict[tuple[int, int], Fraction]:
        return dict(self.delta.get(i, {}))

    def delta_matrix(self) -> Matrix:
        """delta as a matrix from L to L(x)L (pair coordinates (j,k))."""
        n = self.dim
        m = Matrix(n * n, n)
        for i in range(n):
            for (j, k), c in self.delta.get(i, {}).items():
                m[j * n + k, i] = m[j * n + k, i] + c
        return m

    def is_anti_cocommutative(self) -> bool:
        for terms in self.delta.values():
            for (j, k), c in terms.items():
                if terms.get((k, j), ZERO) != -c:
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
class GradedLie(LieConstants):
    """Graded Lie algebra by structure constants (brackets add degrees)."""

    names: list[str]
    degrees: list[int]
    # brackets stored for i < j only: {(i, j): {k: coeff}}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = field(default_factory=dict)

    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out

    def verify(self, max_total_degree: Optional[int] = None) -> VerificationReport:
        """Degree additivity and the Jacobi identity (within the stored range)."""
        report = VerificationReport("graded Lie axioms")
        top = max(self.degrees, default=0)
        graded_ok = True
        for (i, j), terms in self.brackets.items():
            want = self.degrees[i] + self.degrees[j]
            for k in terms:
                if self.degrees[k] != want:
                    graded_ok = False
        report.add("brackets add degrees", graded_ok)
        bound = max_total_degree if max_total_degree is not None else top
        witness = self.jacobi_witness(bound)
        report.add(f"Jacobi identity (total degree <= {bound})",
                   witness is None, witness=witness)
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


# -- verification ----------------------------------------------------------------


def verify_cla(L: CLA) -> VerificationReport:
    """Jacobi, coassociativity, the bracket/coproduct compatibility, and an
    informational anti-cocommutativity flag."""
    report = VerificationReport(f"CLA axioms for {L!r}")
    n = L.dim

    witness = L.jacobi_witness()
    report.add("Jacobi identity", witness is None, witness=witness)

    coassoc_ok = True
    witness = None
    for i in range(n):
        lhs: dict[tuple, Fraction] = {}
        rhs: dict[tuple, Fraction] = {}
        for (j, k), c in L.delta_constants(i).items():
            for (p, q), c2 in L.delta_constants(j).items():
                add_term(lhs, (p, q, k), c * c2)
            for (p, q), c2 in L.delta_constants(k).items():
                add_term(rhs, (j, p, q), c * c2)
        if lhs != rhs:
            coassoc_ok = False
            witness = witness or L.names[i]
    report.add("coassociativity of delta", coassoc_ok, witness=witness)

    try:
        env = enveloping(L, check=False)
        compat_ok = True
        witness = None
        for i in range(n):
            for j in range(i + 1, n):
                diff = _compatibility_defect(L, env, i, j)
                if not diff.is_zero():
                    compat_ok = False
                    witness = witness or (L.names[i], L.names[j], diff)
        report.add("bracket/coproduct compatibility in U(L)", compat_ok,
                   witness=witness)
    except (StructuralError, InputError) as exc:
        report.add("bracket/coproduct compatibility in U(L)", False,
                   detail=f"enveloping presentation could not be built: {exc}")

    report.add("anti-cocommutative", L.is_anti_cocommutative(),
               informational=True)
    return report


def _compatibility_defect(L: CLA, env: HopfPresentation, i: int, j: int
                          ) -> TensorElement:
    """LHS minus RHS of the compatibility condition for the pair (x_i, x_j)."""
    p = env.algebra
    gens = [p.monomial_tuple({name: 1}) for name in p.names]

    def gen_elt(k: int) -> AlgebraElement:
        return AlgebraElement(p, {gens[k]: ONE})

    def bracket_elt(a: int, b: int) -> AlgebraElement:
        return AlgebraElement(p, {gens[k]: c for k, c in
                                  L.bracket_constants(a, b).items()})

    def delta_tensor(k: int) -> TensorElement:
        return TensorElement(p, 2, {(gens[a], gens[b]): c for (a, b), c in
                                    L.delta_constants(k).items()})

    lhs = TensorElement(p, 2, {})
    for k, c in L.bracket_constants(i, j).items():
        lhs = lhs + delta_tensor(k).scale(c)

    rhs = TensorElement(p, 2, {})
    # b_1 (x) [a, b_2]  and  [a, b_1] (x) b_2
    for (pp, qq), c in L.delta_constants(j).items():
        rhs = rhs + tensor_of(gen_elt(pp), bracket_elt(i, qq)).scale(c)
        rhs = rhs + tensor_of(bracket_elt(i, pp), gen_elt(qq)).scale(c)
    # [a_1, b] (x) a_2  and  a_1 (x) [a_2, b]
    for (pp, qq), c in L.delta_constants(i).items():
        rhs = rhs + tensor_of(bracket_elt(pp, j), gen_elt(qq)).scale(c)
        rhs = rhs + tensor_of(gen_elt(pp), bracket_elt(qq, j)).scale(c)
    rhs = rhs + tensor_bracket(delta_tensor(i), delta_tensor(j))
    return lhs - rhs


# -- kernel filtration -----------------------------------------------------------


def _iterated_delta_kernel_dims(L: CLA, max_steps: Optional[int] = None):
    """Dimensions of ker delta^n for n = 1, 2, ... until stabilization."""
    n = L.dim
    # state: per basis vector, the iterated coproduct as {index tuple: coeff}
    tensors = [{(i,): ONE} for i in range(n)]
    dims = []
    steps = max_steps if max_steps is not None else n + 1
    kernels = []
    for _ in range(steps):
        # apply delta to the first slot of each tensor
        nxt = []
        for t in tensors:
            out: dict[tuple, Fraction] = {}
            for tup, c in t.items():
                for (j, k), c2 in L.delta_constants(tup[0]).items():
                    add_term(out, (j, k) + tup[1:], c * c2)
            nxt.append(out)
        tensors = nxt
        kernel = Matrix.from_keyed_columns(tensors).kernel_basis()
        dims.append(len(kernel))
        kernels.append(kernel)
        if len(kernel) == n:
            break
        if len(dims) >= 2 and dims[-1] == dims[-2]:
            break
    return dims, kernels


def kernel_delta(L: CLA) -> list[list[Fraction]]:
    """Canonical basis of ker delta (coefficient vectors over the CLA basis)."""
    return L.delta_matrix().kernel_basis()


def conilpotency_index(L: CLA) -> Optional[int]:
    """Smallest n with ker delta^n = L, or None when the chain stabilizes early."""
    dims, _ = _iterated_delta_kernel_dims(L)
    for step, d in enumerate(dims, start=1):
        if d == L.dim:
            return step
    return None


# -- enveloping algebra ----------------------------------------------------------


def enveloping(L: CLA, check: bool = True) -> HopfPresentation:
    """The enveloping Hopf presentation U(L).

    The commutator table is the bracket and the reduced coproduct table is
    delta.  Filtration weights are read off the kernel filtration of delta
    (weight n for basis vectors first killed by the n-fold coproduct); for
    anti-cocommutative CLAs this is weight 1 on ker delta and 2 elsewhere.
    """
    if check:
        report = verify_cla(L)
        if not report.passed:
            raise StructuralError(
                f"CLA axioms fail, cannot envelope: {report.failures()[0].name}")

    dims, kernels = _iterated_delta_kernel_dims(L)
    if not dims or dims[-1] != L.dim:
        raise StructuralError(
            "CLA is not (locally) conilpotent: the kernel filtration of delta "
            "stabilizes below L, so U(L) is a bialgebra but not a connected "
            "Hopf algebra")

    n = L.dim
    weights: list[Optional[int]] = [None] * n
    units = [{i: ONE} for i in range(n)]
    for step, kernel in enumerate(kernels, start=1):
        basis_in = 0
        coords = express([sparse(v) for v in kernel], units)
        for i in range(n):
            if coords[i] is not None:
                basis_in += 1
                if weights[i] is None:
                    weights[i] = step
        if basis_in != len(kernel):
            raise StructuralError(
                "the standard basis is not adapted to the kernel filtration "
                "of delta; change basis (cla_transform) so that each ker "
                "delta^n is spanned by basis vectors")
    if any(w is None for w in weights):
        raise StructuralError("no valid weight assignment for the basis")

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


# -- lantern ------------------------------------------------------------------------


def lantern_of_cla(L: CLA) -> GradedLie:
    """The graded Lie algebra dual to gr U(L).

    Degree 1 is dual to ker delta, degree 2 to a complement; the bracket of
    two degree-1 duals pairs against the skew coproduct of the complement:
    with delta(y_s) = sum C^s_{ab} k_a (x) k_b one gets
    [k_a*, k_b*] = sum_s 2 C^s_{ab} y_s*.  The factor 2 is fixed by the
    dual-basis pairing and is cross-checked against the presentation-level
    lantern computation in the test-suite.
    """
    if not L.is_anti_cocommutative():
        raise InputError("lantern of a CLA requires anti-cocommutativity")
    n = L.dim
    kernel = reduce_to_basis(kernel_delta(L))
    kdim = len(kernel)
    lead_idx = {next(i for i, c in enumerate(vec) if c) for vec in kernel}
    complement = [i for i in range(n) if i not in lead_idx]

    def vec_name(vec) -> str:
        support = [(i, c) for i, c in enumerate(vec) if c]
        if len(support) == 1 and support[0][1] == 1:
            return L.names[support[0][0]] + "*"
        return "(" + " + ".join(f"{c}*{L.names[i]}" for i, c in support) + ")*"

    names = [vec_name(v) for v in kernel] + [L.names[i] + "*" for i in complement]
    degrees = [1] * kdim + [2] * len(complement)

    # express delta of each complement vector over kernel-basis pairs
    pair_cols = [{(i, j): ci * cj
                  for i, ci in enumerate(kernel[a]) if ci
                  for j, cj in enumerate(kernel[b]) if cj}
                 for a in range(kdim) for b in range(kdim)]
    deltas = [L.delta_constants(c_idx) for c_idx in complement]
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for s, sol in enumerate(express(pair_cols, deltas)):
        if sol is None:
            raise StructuralError(
                f"delta({L.names[complement[s]]}) does not lie in "
                "(ker delta)(x)(ker delta)")
        for a in range(kdim):
            for b in range(a + 1, kdim):
                coeff = sol[a * kdim + b]
                if coeff:
                    brackets.setdefault((a, b), {})[kdim + s] = 2 * coeff
    return GradedLie(names, degrees, brackets)


# -- base change -------------------------------------------------------------------


def cla_transform(L: CLA, m: Matrix) -> CLA:
    """Transport the structure constants to the basis x'_i = sum_j M_ij x_j."""
    n = L.dim
    if m.rows != n or m.cols != n:
        raise InputError(f"base-change matrix must be {n}x{n}")
    try:
        inv = m.inverse()
    except ValueError as exc:
        raise InputError("base-change matrix is singular") from exc

    rows = [[m[i, j] for j in range(n)] for i in range(n)]
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            out = L.bracket_vectors(rows[i], rows[j])
            terms = {}
            for d in range(n):
                v = sum((out[c] * inv[c, d] for c in range(n)), ZERO)
                if v:
                    terms[d] = v
            if terms:
                brackets[(i, j)] = terms

    delta: dict[int, dict[tuple[int, int], Fraction]] = {}
    for i in range(n):
        acc: dict[tuple[int, int], Fraction] = {}
        for jj in range(n):
            cj = m[i, jj]
            if not cj:
                continue
            for (a, b), coeff in L.delta_constants(jj).items():
                for p in range(n):
                    ia = inv[a, p]
                    if not ia:
                        continue
                    for q in range(n):
                        ib = inv[b, q]
                        if not ib:
                            continue
                        add_term(acc, (p, q), cj * coeff * ia * ib)
        if acc:
            delta[i] = acc
    return CLA(L.names, brackets, delta)

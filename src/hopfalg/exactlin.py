"""Exact rational scalars and sparse rational linear algebra.

Everything downstream (normal forms, subspace computations, cohomology)
reduces to kernels, ranks and solves over the rationals.  The solvers
take and return sparse vectors: a kernel vector, a coordinate vector or
a reduced echelon row is a dict {index: nonzero scalar}.  A scalar is an
``int`` when it is integral and a ``fractions.Fraction`` (lowest terms,
positive denominator) when it is a proper fraction; floating point is
never used.  Integral presentations therefore run on Python ints
throughout.  Sums and products of scalars stay scalars, but ``int / int``
is a float, so every division goes through ``quotient``.  A product
involving a Fraction may come out integral yet still be a Fraction;
equality, hashing and printing do not tell the two apart.

Every elimination (rank, kernel, solve) is one forward pass of the rows
reduced mod the Mersenne prime P = 2^127 - 1.  Reduction mod P cannot
raise the rank of any column prefix, so the pivots found mod P bound the
rational rank profile from below.

A rank profile is certified by Hadamard's bound, with no lifting.  Scale
each column by the lcm of its denominators, which changes no prefix rank
over Q and, the lcm being a unit mod P, none mod P either; let R be the
rank mod P.  Take a column prefix of rank r mod P.  Each of its
(r+1)-minors vanishes mod P, and by Hadamard's inequality its absolute
value is at most the product of the norms of its r + 1 columns, so at most
the square root of the product of the R + 1 largest squared column norms
(nonzero integer columns have norm >= 1; with fewer than R + 1 of them
every one is a pivot mod P and there is nothing to show).  When that
product is below P^2 each such minor is a multiple of P of absolute value
below P, so it is 0: the prefix has rank r over Q as well.  Every prefix
rank agrees, so the pivots agree.  The total ranks agreeing would not be
enough: [[P, 1]] has rank 1 both ways, pivots [1] mod P and [0] over Q,
and the bound refuses it (P^2 is not below P^2).

An echelon form, and a rank profile the bound refuses, are lifted from
the same reduced rows: back substitution gives the RREF mod P, each of
its entries is lifted to a rational by reconstruction, and for each free
column f the kernel vector v_f (1 at f, -rref[c][f] at each pivot c) is
checked to satisfy A v_f = 0 in exact integer arithmetic.
That shows column f is not a pivot over Q either, so the pivot sets are
equal.  The pivot columns are then independent over Q, so column f has
one set of coefficients over them: the RREF entries over Q are the
lifted ones.  In particular a target t is outside span(A) whenever it
is a pivot of [A | t] mod P, because
rank_Q[A | t] >= rank_P[A | t] = rank_P(A) + 1 = rank_Q(A) + 1.
Whenever a denominator vanishes mod P, a reconstruction fails or a
product is nonzero, the exact elimination ``_fraction_rref`` answers
instead, and a matrix with no entries takes no elimination.  Each matrix
the library eliminates is built by ``from_keyed_columns``; ``express`` is
the one solver, ``graded_h2`` counts cobar and Chevalley-Eilenberg H^2
per grade, and coordinates over a kept reduced basis or its pair products
are read at the leads with no elimination (``lead_coordinates``,
``lead_pair_coordinates``).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import InputError

Scalar = int | Fraction

# the prime of the modular elimination (a Mersenne prime), and Wang's bound
# sqrt(P/2) on the numerator and denominator of a reconstructed rational
P = 2**127 - 1
_WANG_BOUND = math.isqrt(P // 2)


def _lowest(q: Fraction) -> Scalar:
    """q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def scalar(value) -> Scalar:
    """Coerce ints, strings like ``"-3/4"``, or Fractions to a scalar: an
    int when the value is integral, else a Fraction.

    A string that is not a rational (or has a zero denominator) is
    malformed input and raises InputError; a float or a bool (an int
    subclass, but not a number in a presentation) raises TypeError.
    """
    if type(value) is int:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction):
        return _lowest(value)
    if isinstance(value, str):
        try:
            return _lowest(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{value!r} is not an exact rational") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def quotient(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b: an int when it is integral, else a Fraction.

    The one division of scalars in the package (``int / int`` is a float).
    """
    return _lowest(Fraction(a, b))


# -- sparse linear combinations ---------------------------------------------
#
# A sparse vector is a dict key -> nonzero scalar over any hashable keys
# (monomials, tensor tuples, row indices); these helpers are the only
# place that adds into one.  The solvers below answer in the same format,
# over column indices: kernel vectors, coordinates and reduced rows.


def add_term(acc: dict, key: Hashable, c: Scalar) -> None:
    """acc[key] += c, dropping the key when the sum vanishes."""
    old = acc.get(key)
    if old is None:
        if c:
            acc[key] = c
        return
    s = old + c
    if s:
        acc[key] = s
    else:
        del acc[key]


def add_scaled(acc: dict, terms: Mapping, c: Scalar = 1) -> dict:
    """acc += c * terms, dropping zero sums; returns acc."""
    # add_term inlined: this loop is the row operation of every elimination
    if not c:
        return acc
    get = acc.get
    if c == 1:
        for key, v in terms.items():
            old = get(key)
            if old is None:
                acc[key] = v
            else:
                s = old + v
                if s:
                    acc[key] = s
                else:
                    del acc[key]
    else:
        for key, v in terms.items():
            old = get(key)
            if old is None:
                acc[key] = c * v
            else:
                s = old + c * v
                if s:
                    acc[key] = s
                else:
                    del acc[key]
    return acc


def integral_values(acc: dict) -> dict:
    """Turn every integral Fraction value of acc into an int, in place;
    returns acc.

    A sum or product of Fractions can come out integral, and the
    accumulators above do not check; a cache calls this once per stored
    result, so the hot loops stay as they are.
    """
    for key, v in acc.items():
        if type(v) is Fraction and v.denominator == 1:
            acc[key] = v.numerator
    return acc


def map_slot(terms: Mapping, slot: int, image: Callable[..., Mapping],
             c: Scalar = 1, acc: Optional[dict] = None) -> dict:
    """acc += c * (image applied at tuple position slot); returns acc.

    ``terms`` is a sparse vector over tuples and ``image(key)`` a sparse
    vector over replacement tuples, spliced in place of the key: a pair
    raises the rank by one, the empty tuple drops the slot.
    """
    if acc is None:
        acc = {}
    for tup, v in terms.items():
        head, tail = tup[:slot], tup[slot + 1:]
        cv = c * v
        for rep, w in image(tup[slot]).items():
            add_term(acc, head + rep + tail, cv * w)
    return acc


def coassociator(w: Mapping, delta: Callable[..., Mapping]) -> dict:
    """(delta(x)id)w - (id(x)delta)w for a sparse vector ``w`` over pairs,
    ``delta(key)`` a sparse vector over pairs: the cobar d^2 of a rank-2
    cochain, and on w = delta(x) the failure of coassociativity on x."""
    return map_slot(w, 1, delta, -1, map_slot(w, 0, delta))


class Matrix:
    """Sparse rational matrix; entries stored as (row, col) -> nonzero scalar."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Scalar] = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = scalar(v)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Matrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        m = cls(rows, cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m[i, j] = scalar(v)
        return m

    @classmethod
    def from_keyed_columns(cls, columns: Sequence[Mapping]) -> "Matrix":
        """Build from sparse columns over any hashable keys.

        Each key gets a row, numbered in order of first appearance; the
        matrix has at least one row.
        """
        index: dict = {}
        entries = {}
        for j, col in enumerate(columns):
            for key, v in col.items():
                if v:
                    entries[(index.setdefault(key, len(index)), j)] = v
        m = cls(max(len(index), 1), len(columns))
        m.entries = entries
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def __getitem__(self, key) -> Scalar:
        return self.entries.get(key, 0)

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        v = scalar(value)
        if v == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = v

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def columns(self) -> list[dict[int, Scalar]]:
        """The columns as sparse dicts row -> value."""
        cols: list[dict[int, Scalar]] = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    # -- echelon machinery -------------------------------------------------

    def row_echelon(self):
        """Reduced row echelon form: (the nonzero rows as sparse dicts, their
        pivot columns in increasing order).

        Column c is a pivot exactly when it is not a combination of the
        columns before it.  The form is computed mod P and certified over
        Q (see the module docstring); when the certificate cannot be made,
        the exact elimination ``_fraction_rref`` answers.
        """
        if not self.entries:
            return [], []
        certified = self._certified_rref()
        return self._fraction_rref() if certified is None else certified

    def _fraction_rref(self):
        """The reduced echelon form by exact elimination over Q."""
        rows: list[dict[int, Scalar]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        reduced, pivots = _forward(rows, _normalise_exact, _reduce_exact)
        _back_substitute(reduced, pivots, _reduce_exact)
        return reduced, pivots

    def _certified_rref(self):
        """The reduced echelon form mod P with every entry reconstructed as
        a rational, or None unless it is certified (``_lift``)."""
        forward = self._forward_mod_p()
        return None if forward is None else self._lift(*forward)

    def _forward_mod_p(self):
        """The forward pass of the rows reduced mod P, (pivot rows,
        pivots), or None when a denominator is 0 mod P: the one modular
        elimination of a matrix."""
        inverse: dict[int, int] = {}
        rows: list[dict[int, int]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            d = v.denominator
            inv = inverse.get(d)
            if inv is None:
                if d % P == 0:
                    return None
                inv = inverse[d] = pow(d, -1, P)
            x = v.numerator * inv % P
            if x:
                rows[i][j] = x
        return _forward(rows, _normalise_mod, _reduce_mod)

    def _lift(self, reduced: list[dict], pivots: list[int]):
        """The RREF from a forward pass mod P: back substituted, every
        entry reconstructed as a rational, and returned only when each free
        column is shown to be that combination of the pivot columns by an
        exact kernel vector; else None."""
        _back_substitute(reduced, pivots, _reduce_mod)
        # minus the kernel vector of free column f: -1 at f, rref[c][f] at
        # each pivot c < f
        pivot_set = set(pivots)
        kernel: dict[int, dict[int, Scalar]] = {
            f: {f: -1} for f in range(self.cols) if f not in pivot_set}
        for c, row in zip(pivots, reduced):
            row[c] = 1
            for f, x in row.items():
                if f != c:
                    q = _reconstruct(x)
                    if q is None:
                        return None
                    row[f] = q
                    kernel[f][c] = q
        return (reduced, pivots) if self._annihilates(kernel.values()) else None

    def _column_scales(self) -> list[int]:
        """Per column j, the lcm s_j of its denominators: s_j times the
        column is integral."""
        scale = [1] * self.cols
        for (_, j), v in self.entries.items():
            if type(v) is not int:
                scale[j] = math.lcm(scale[j], v.denominator)
        return scale

    def _annihilates(self, vectors) -> bool:
        """Whether A v = 0 for every sparse rational vector v, checked in
        integers: column j is scaled by s_j (``_column_scales``) and v by
        the lcm of den(v_j) * s_j over its entries."""
        scale = self._column_scales()
        columns: dict[int, dict[int, int]] = {
            j: {} for vec in vectors for j in vec}
        for (i, j), v in self.entries.items():
            col = columns.get(j)
            if col is not None:
                col[i] = v.numerator * (scale[j] // v.denominator)
        for vec in vectors:
            lcm = math.lcm(*(q.denominator * scale[j] for j, q in vec.items()))
            acc: dict[int, int] = {}
            for j, q in vec.items():
                k = q.numerator * (lcm // (q.denominator * scale[j]))
                for i, a in columns[j].items():
                    acc[i] = acc.get(i, 0) + k * a
            if any(acc.values()):
                return False
        return True

    def _hadamard_certifies(self, rank: int) -> bool:
        """Whether Hadamard's bound shows that every column prefix has the
        same rank over Q as mod P, where rank is the rank mod P: the
        product of the rank + 1 largest squared norms of the columns,
        each scaled to integers (``_column_scales``), is below P^2 (see
        the module docstring).  With every column a pivot mod P there is
        nothing to show."""
        if rank == self.cols:
            return True
        scale = self._column_scales()
        norms = [0] * self.cols
        for (_, j), v in self.entries.items():
            norms[j] += (v.numerator * (scale[j] // v.denominator)) ** 2
        return math.prod(sorted(norms)[-rank - 1:]) < P * P

    def rank_profile(self) -> list[int]:
        """The pivot columns of the reduced echelon form, in increasing order.

        One forward pass mod P; its pivots answer when Hadamard's bound
        certifies them (``_hadamard_certifies``).  Otherwise the same
        reduced rows are lifted and checked as in ``row_echelon``
        (``_lift``), and the exact elimination answers if that fails too.
        """
        if not self.entries:
            return []
        forward = self._forward_mod_p()
        if forward is not None:
            if self._hadamard_certifies(len(forward[1])):
                return forward[1]
            certified = self._lift(*forward)
            if certified is not None:
                return certified[1]
        return self._fraction_rref()[1]

    def rank(self) -> int:
        return len(self.rank_profile())

    def kernel_basis(self) -> list[dict[int, Scalar]]:
        """Basis of the right null space, one sparse vector per free column.

        The vector for free column f is -rref[c][f] at each pivot column
        c < f where that is nonzero, then 1 at f, its largest key; vectors
        are listed by increasing f.
        """
        reduced, pivots = self.row_echelon()
        pivot_set = set(pivots)
        basis: dict[int, dict[int, Scalar]] = {
            f: {} for f in range(self.cols) if f not in pivot_set}
        for c, row in zip(pivots, reduced):
            for f, v in row.items():
                if f != c:
                    basis[f][c] = -v
        for f, vec in basis.items():
            vec[f] = 1
        return list(basis.values())

    def solve(self, rhs: Sequence[Scalar]) -> Optional[dict[int, Scalar]]:
        """One solution of self * x = rhs as a sparse vector, or None when
        inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch")
        target = {i: scalar(v) for i, v in enumerate(rhs) if v}
        return express(self.columns(), [target])[0][0]

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        n = self.rows
        cols, rank = express(self.columns(), [{i: 1} for i in range(n)])
        if rank < n:
            raise ValueError("matrix is singular")
        inv = Matrix(n, n)
        inv.entries = {(i, j): v for j, col in enumerate(cols)
                       for i, v in col.items()}
        return inv


def _forward(rows: list[dict], normalise, reduce):
    """Forward elimination of sparse rows.

    Rows are filed by leading column; for each column c in turn the
    sparsest row of its bucket becomes the pivot row (normalised to 1 at
    c), c is eliminated from the rest of the bucket and each survivor is
    re-filed under its new leading column.  ``normalise(row, c)`` returns
    the pivot row and ``reduce(row, piv, f)`` subtracts f * piv in place,
    so one loop serves every arithmetic.  Returns the pivot rows and their
    columns in increasing order; every other row is reduced to zero.
    """
    buckets: dict[int, list[dict]] = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    # elimination never adds a column that no row had
    stop = max((max(r) for r in rows if r), default=-1) + 1
    reduced: list[dict] = []
    pivots: list[int] = []
    for c in range(stop):
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        best = min(range(len(bucket)), key=lambda k: len(bucket[k]))
        piv = normalise(bucket.pop(best), c)
        for r in bucket:
            reduce(r, piv, r[c])
            if r:
                buckets.setdefault(min(r), []).append(r)
        reduced.append(piv)
        pivots.append(c)
    return reduced, pivots


def _back_substitute(reduced: list[dict], pivots: list[int], reduce) -> None:
    """Clear every other pivot column from the pivot rows, last row first.

    A pivot row minus a multiple of a later, already cleared one gains
    entries in non-pivot columns only, so one sweep per row suffices.
    """
    where = dict(zip(pivots, reduced))
    for c, row in zip(reversed(pivots), reversed(reduced)):
        for k in [k for k in row if k != c and k in where]:
            reduce(row, where[k], row[k])


def _normalise_exact(row: dict, c: int) -> dict:
    inv = quotient(1, row[c])
    return {k: v * inv for k, v in row.items()}


def _reduce_exact(row: dict, piv: Mapping, f: Scalar) -> None:
    add_scaled(row, piv, -f)


def _normalise_mod(row: dict, c: int) -> dict:
    inv = pow(row[c], -1, P)
    return {k: v * inv % P for k, v in row.items()}


def _reduce_mod(row: dict, piv: Mapping, f: int) -> None:
    get = row.get
    for k, v in piv.items():
        s = (get(k, 0) - f * v) % P
        if s:
            row[k] = s
        else:
            row.pop(k, None)


def _reconstruct(x: int) -> Optional[Scalar]:
    """The rational a/b with a = b x mod P and |a|, |b| <= sqrt(P/2), or
    None when there is none (Wang 1981: extended Euclid stopped at the
    first remainder below the bound)."""
    r0, r1, t0, t1 = P, x, 0, 1
    while r1 > _WANG_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _WANG_BOUND or math.gcd(r1, t1) != 1:
        return None
    return quotient(r1, t1)


def express(basis: Sequence[Mapping], targets: Sequence[Mapping]
            ) -> tuple[list[Optional[dict[int, Scalar]]], int]:
    """Coordinates of each target over the basis vectors, and the
    dimension of span(basis), from one elimination.

    Vectors are sparse dicts over any hashable keys.  Returns per target
    the nonzero coordinates {basis index: coefficient}, or None when the
    target is outside span(basis); when the basis vectors are dependent,
    the non-pivot ones get no coefficient.  Each target is judged against
    span(basis) alone, never against earlier targets.
    """
    n = len(basis)
    m = Matrix.from_keyed_columns(list(basis) + list(targets))
    reduced, pivots = m.row_echelon()
    # in the RREF of [basis | targets] a target column is a combination of
    # the pivot columns; it is outside span(basis) exactly when that
    # combination uses a target pivot column
    k = sum(1 for c in pivots if c < n)
    outside = {c for row in reduced[k:] for c in row}
    out = [None if t in outside else
           {col: row[t] for col, row in zip(pivots[:k], reduced) if t in row}
           for t in range(n, m.cols)]
    return out, k


def graded_h2(grades1: Sequence, pivots1: Iterable[int], grades2: Sequence,
              pivots2: Iterable[int]) -> tuple[Counter, Counter]:
    """Cocycles and coboundaries in C^2 of C^1 -d1-> C^2 -d2-> C^3 per
    grade, from the pivot columns of d1 and of d2 (column j of d1 has
    grade grades1[j], of d2 grades2[j]): the d2 columns minus their
    pivots, and the d1 pivots.  The pivots of a grade number the rank of
    its block when grade blocks share no rows; summed up to a grade, the
    rank of that truncation when columns are sorted by grade.
    """
    cocycles = Counter(grades2)
    cocycles.subtract(grades2[p] for p in pivots2)
    return cocycles, Counter(grades1[p] for p in pivots1)


def grade_sum(a, b):
    """g_a + g_b for int grades, entrywise for tuples."""
    return a + b if isinstance(a, int) else tuple(map(sum, zip(a, b)))


def lead_coordinates(basis: Sequence[Mapping], leads: Sequence[Hashable],
                     target: Mapping) -> tuple[dict[int, Scalar], dict]:
    """Coordinates of target over a reduced basis, read at its leads, and
    what is left of target after subtracting them; no elimination.

    basis[i] reads 1 at leads[i] and 0 at every other lead (a
    ``kernel_basis``), so target lies in the span exactly when the
    remainder is empty.
    """
    coeffs = {i: c for i, lead in enumerate(leads) if (c := target.get(lead))}
    remainder = dict(target)
    for i, c in coeffs.items():
        add_scaled(remainder, basis[i], -c)
    return coeffs, remainder


def lead_pair_coordinates(basis: Sequence[Mapping], leads: Sequence[Hashable],
                          targets: Sequence[Mapping]
                          ) -> list[tuple[dict[tuple[int, int], Scalar], dict]]:
    """Per target, its coordinates over the products basis[a] (x) basis[b],
    keyed (a, b) in increasing order and read at the lead pairs, and what
    is left of it after subtracting them; no elimination.

    With basis as in ``lead_coordinates``, basis[a] (x) basis[b] reads 1
    at (leads[a], leads[b]) and 0 at every other lead pair, so a target
    lies in the span exactly when its remainder is empty.  The coordinates
    are found through one lead -> position index over each target's own
    keys, so a read costs O(len(target)), not O(len(leads)^2); a key that
    is not a pair of leads (a row of another kind) is passed over.  A pair
    product is formed only for a nonzero coordinate.
    """
    position = {lead: a for a, lead in enumerate(leads)}
    out = []
    for target in targets:
        found = []
        for key, c in target.items():
            if c and isinstance(key, tuple) and len(key) == 2:
                a, b = position.get(key[0]), position.get(key[1])
                if a is not None and b is not None:
                    found.append(((a, b), c))
        coeffs = dict(sorted(found))
        remainder = dict(target)
        for (a, b), c in coeffs.items():
            add_scaled(remainder, {(k, l): x * y for k, x in basis[a].items()
                                   for l, y in basis[b].items()}, -c)
        out.append((coeffs, remainder))
    return out

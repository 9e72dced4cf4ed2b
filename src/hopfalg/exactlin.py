"""Exact rational scalars and sparse rational linear algebra.

Everything downstream (normal forms, subspace computations, cohomology)
reduces to kernels, ranks and solves over the rationals, so this module
works exclusively with ``fractions.Fraction`` (arbitrary-precision,
always in lowest terms with positive denominator) and never touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Optional, Sequence

from .errors import InputError

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce ints, strings like ``"-3/4"``, or Fractions to a Fraction.

    A string that is not a rational (or has a zero denominator) is
    malformed input and raises InputError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{value!r} is not an exact rational") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_scalar(q: Fraction) -> str:
    """Serialize as ``"p/q"`` (or ``"p"`` when q = 1), sign on the numerator."""
    return str(q)


# -- sparse linear combinations ---------------------------------------------
#
# A sparse vector is a dict key -> nonzero Fraction over any hashable keys
# (monomials, tensor tuples, row indices); these two helpers are the only
# place that adds into one.


def add_term(acc: dict, key: Hashable, c: Fraction) -> None:
    """acc[key] += c, dropping the key when the sum vanishes."""
    s = acc.get(key, ZERO) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add_scaled(acc: dict, terms: Mapping, c: Fraction = ONE) -> dict:
    """acc += c * terms, dropping zero sums; returns acc."""
    # add_term inlined: this loop is the row operation of every elimination
    get = acc.get
    if c == 1:
        for key, v in terms.items():
            s = get(key, ZERO) + v
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    else:
        for key, v in terms.items():
            s = get(key, ZERO) + c * v
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return acc


class Matrix:
    """Sparse rational matrix; entries stored as (row, col) -> nonzero Fraction."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Fraction] = {}
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
    def from_columns(cls, columns: Sequence[dict[int, Fraction]], rows: int) -> "Matrix":
        """Build from sparse columns (dicts row -> value)."""
        m = cls(rows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                m[i, j] = v
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
        return cls(n, n, {(i, i): ONE for i in range(n)})

    def __getitem__(self, key) -> Fraction:
        return self.entries.get(key, ZERO)

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

    def copy(self) -> "Matrix":
        m = Matrix(self.rows, self.cols)
        m.entries = dict(self.entries)
        return m

    def columns(self) -> list[dict[int, Fraction]]:
        """The columns as sparse dicts row -> value."""
        cols: list[dict[int, Fraction]] = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def mul_vector(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        out = [ZERO] * self.rows
        for (i, j), v in self.entries.items():
            c = vec[j]
            if c:
                out[i] += v * c
        return out

    # -- echelon machinery -------------------------------------------------

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def row_echelon(self, pivot_limit: Optional[int] = None):
        """Reduced row echelon form.

        Returns (rref rows as sparse dicts, pivot column list). Columns are
        eliminated left to right, so ``pivots[:k]`` restricted to columns
        < c gives the rank profile of every column prefix.

        With ``pivot_limit``, only columns below it are pivoted; the rows
        left nonzero (entries in columns >= pivot_limit only) follow the
        ``len(pivots)`` pivot rows.
        """
        limit = self.cols if pivot_limit is None else pivot_limit
        rows = [r for r in self._sparse_rows() if r]
        pivots: list[int] = []
        reduced: list[dict[int, Fraction]] = []
        for col in range(limit):
            # pick the sparsest available row with a nonzero entry in col
            best = None
            for idx, r in enumerate(rows):
                if col in r and (best is None or len(r) < len(rows[best])):
                    best = idx
            if best is None:
                continue
            piv = rows.pop(best)
            inv = ONE / piv[col]
            piv = {c: v * inv for c, v in piv.items()}
            survivors = []
            for r in rows:
                f = r.get(col)
                if f:
                    add_scaled(r, piv, -f)
                if r:
                    survivors.append(r)
            rows = survivors
            for r in reduced:
                f = r.get(col)
                if f:
                    add_scaled(r, piv, -f)
            reduced.append(piv)
            pivots.append(col)
        return reduced + rows, pivots

    def rank(self) -> int:
        return len(self.row_echelon()[1])

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right null space, one vector per free column.

        The vector for free column f has 1 in position f, solved entries at
        pivot columns, zeros elsewhere; vectors are listed by increasing f.
        """
        reduced, pivots = self.row_echelon()
        pivot_set = set(pivots)
        pivot_row = {col: r for col, r in zip(pivots, reduced)}
        basis = []
        for f in range(self.cols):
            if f in pivot_set:
                continue
            vec = [ZERO] * self.cols
            vec[f] = ONE
            for col in pivots:
                coeff = pivot_row[col].get(f)
                if coeff:
                    vec[col] = -coeff
            basis.append(vec)
        return basis

    def solve(self, rhs: Sequence[Fraction]):
        """One solution of self * x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch")
        target = {i: scalar(v) for i, v in enumerate(rhs) if v}
        return express(self.columns(), [target])[0]

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        n = self.rows
        cols = express(self.columns(), [{i: ONE} for i in range(n)])
        if None in cols:
            raise ValueError("matrix is singular")
        inv = Matrix(n, n)
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if v:
                    inv.entries[(i, j)] = v
        return inv


def express(basis: Sequence[Mapping], targets: Sequence[Mapping]
            ) -> list[Optional[list[Fraction]]]:
    """Coordinates of each target over the basis vectors.

    Vectors are sparse dicts over any hashable keys.  One elimination of
    [basis | targets] pivots on basis columns only, so a target is judged
    against span(basis) alone, never against earlier targets.  Returns per
    target a list of len(basis) coefficients, or None when the target is
    outside the span; when the basis vectors are dependent, the solution
    has zero coefficients on the non-pivot ones.
    """
    n = len(basis)
    m = Matrix.from_keyed_columns(list(basis) + list(targets))
    reduced, pivots = m.row_echelon(pivot_limit=n)
    outside = {c for row in reduced[len(pivots):] for c in row}
    out: list[Optional[list[Fraction]]] = []
    for t in range(n, m.cols):
        if t in outside:
            out.append(None)
            continue
        x = [ZERO] * n
        for col, row in zip(pivots, reduced):
            x[col] = row.get(t, ZERO)
        out.append(x)
    return out


def sparse(vec: Sequence[Fraction]) -> dict[int, Fraction]:
    """A dense coefficient list as a sparse vector over its positions."""
    return {i: c for i, c in enumerate(vec) if c}


def in_span(basis: list[list[Fraction]], vec: list[Fraction]) -> bool:
    return express([sparse(b) for b in basis], [sparse(vec)])[0] is not None


def reduce_to_basis(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical (reduced-echelon) basis of the span of the given vectors."""
    if not vectors:
        return []
    m = Matrix.from_rows(vectors)
    reduced, pivots = m.row_echelon()
    out = []
    for row in reduced:
        vec = [ZERO] * m.cols
        for c, v in row.items():
            vec[c] = v
        out.append(vec)
    return out

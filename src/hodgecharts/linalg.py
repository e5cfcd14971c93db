"""Exact rational linear algebra and integer-lattice utilities.

All vectors are row vectors of exact rationals, and one scalar invariant holds
throughout: a value is a Python int when it is integral and a
fractions.Fraction only when it is not, so integral data stays in integer
arithmetic (2 == Fraction(2), with equal hashes and equal str).  Matrices are
immutable, dense, row-major; a product adds up the rows of B scaled by the
nonzero entries of A, and M v sums only the nonzero entries of v, so zero
entries cost nothing.  Subspaces of Q^n are canonicalized as reduced row
echelon bases, so subspace equality is syntactic equality of bases; a kernel
is one elimination, of M with reversed columns.  Membership and coordinates
in Q^n/S are read off the echelon basis, with no further elimination, so the
library has no general linear solve.
A subspace computes its pivot columns and its orthogonal complement at most
once each, and links itself to its complement, since the complement of the
complement is the subspace itself.
Integer lattices are canonicalized by row-style Hermite normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidInput

Rational = int | Fraction


def _exact(x: Rational) -> Rational:
    """x as an int when it is integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _frac(x) -> Rational:
    if type(x) is int:
        return x
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot coerce {x!r} to a rational")
    return _exact(x)


def vec(values) -> tuple[Rational, ...]:
    return tuple(map(_frac, values))


def dot(u, v) -> Rational:
    total = 0
    for a, b in zip(u, v, strict=True):
        if a and b:  # skipping zero factors saves most Fraction arithmetic
            total += a * b
    return total if type(total) is int else _exact(total)


class RationalMatrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[Rational, ...], ...]):
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "RationalMatrix":
        data = tuple(vec(r) for r in rows)
        if data:
            ncols = len(data[0])
            if any(len(r) != ncols for r in data):
                raise InvalidInput("ragged rows")
            if cols is not None and cols != ncols:
                raise InvalidInput(f"rows have {ncols} entries, not the stated {cols}")
        else:
            if cols is None:
                raise InvalidInput("empty matrix needs an explicit column count")
            ncols = cols
        return cls(len(data), ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        rows = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
        return cls(n, n, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Rational, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "RationalMatrix":
        if self.rows == 0:
            return RationalMatrix(self.cols, 0, tuple(() for _ in range(self.cols)))
        return RationalMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InvalidInput("shape mismatch")
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(_exact(a + b) for a, b in zip(r, s))
                for r, s in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InvalidInput("shape mismatch")
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(_exact(a - b) for a, b in zip(r, s))
                for r, s in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        rows = tuple(tuple(_exact(c * a) for a in r) for r in self.entries)
        return RationalMatrix(self.rows, self.cols, rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Row i of AB is the sum of a_ij B_j over the nonzero a_ij."""
        if self.cols != other.rows:
            raise InvalidInput("shape mismatch")
        zero = (0,) * other.cols
        out = []
        for r in self.entries:
            acc = zero
            for a, b in zip(r, other.entries):
                if a:
                    acc = [x + a * y if y else x for x, y in zip(acc, b)]
            out.append(acc if acc is zero else tuple(map(_exact, acc)))
        return RationalMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v) -> tuple[Rational, ...]:
        """M v with v a column vector, returned as a flat tuple."""
        v = vec(v)
        if len(v) != self.cols:
            raise InvalidInput("shape mismatch")
        nonzero = [(j, x) for j, x in enumerate(v) if x]
        return tuple(_exact(sum(r[j] * x for j, x in nonzero if r[j])) for r in self.entries)

    def power(self, k: int) -> "RationalMatrix":
        if self.rows != self.cols:
            raise InvalidInput("power of a non-square matrix")
        if k < 0:
            raise InvalidInput("negative power")
        out = RationalMatrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def flatten(self) -> tuple[Rational, ...]:
        return tuple(x for r in self.entries for x in r)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.rows and self.cols != other.cols:
            raise InvalidInput("shape mismatch")
        return RationalMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        m = [list(r) for r in self.entries]
        nrows, ncols = self.rows, self.cols
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            if m[pivot][c] not in (1, -1):  # a unit pivot needs no division
                pivot = next((i for i in range(pivot + 1, nrows) if m[i][c] in (1, -1)), pivot)
            m[r], m[pivot] = m[pivot], m[r]
            if m[r][c] == -1:
                m[r] = [-x for x in m[r]]
            elif m[r][c] != 1:
                inv = Fraction(1, m[r][c])  # never 1 / p: on ints that is a float
                m[r] = [_exact(x * inv) if x else x for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [_exact(a - f * b) if b else a for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return RationalMatrix(nrows, ncols, tuple(tuple(row) for row in m)), tuple(pivots)


class Subspace:
    """Row-span subspace of Q^n, stored as a reduced row echelon basis."""

    # _perp and _pivots hold the orthogonal complement and the pivot columns
    # once computed; they are derived data, so they take no part in equality
    # or hashing.
    __slots__ = ("ambient_dim", "basis", "_perp", "_pivots")

    def __init__(self, ambient_dim: int, basis: RationalMatrix):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._perp = None
        self._pivots = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        return _row_space(RationalMatrix.from_rows(vectors, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix(0, ambient_dim, ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row, in order."""
        if self._pivots is None:
            self._pivots = tuple(map(_pivot, self.basis.entries))
        return self._pivots

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_vector(self, v) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise InvalidInput("dimension mismatch")
        return not any(self.residues([v])[0])

    def residues(self, vectors) -> list[tuple[Rational, ...]]:
        """Each exact vector's coordinates in Q^n/S, at the columns that lead
        no basis row; all are zero exactly when the vector lies in S.  Read
        off the RREF basis, with no elimination (Cohen, GTM 138, 2.3)."""
        null = _null_rows(self.basis, self.pivots)
        return [tuple(dot(z, v) for z in null) for v in vectors]

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis.entries)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # Pairs (a, b) with a.B1 = b.B2 are the kernel of the stacked transpose.
        stacked = self.basis.stack(other.basis.scale(-1)).transpose()
        pair_space = kernel(stacked)
        rows = [
            tuple(dot(coeffs[: self.dim], col) for col in zip(*self.basis.entries))
            for coeffs in pair_space.basis.entries
        ]
        return Subspace.from_vectors(self.ambient_dim, rows)

    def orthogonal_complement(self) -> "Subspace":
        """Orthogonal complement for the standard inner product on Q^n.

        Computed once per subspace.  Both bases are canonical, so the
        complement's own complement is this very subspace.
        """
        if self._perp is None:
            perp = kernel(self.basis) if self.dim else Subspace.full(self.ambient_dim)
            perp._perp, self._perp = self, perp
        return self._perp


def rank(m: RationalMatrix) -> int:
    return len(m.rref()[1])


def _row_space(m: RationalMatrix) -> Subspace:
    """The canonical subspace spanned by the rows of an exact matrix."""
    red, pivots = m.rref()
    rows = red.entries[: len(pivots)]
    return Subspace(m.cols, RationalMatrix(len(rows), m.cols, rows))


def kernel(m: RationalMatrix) -> Subspace:
    """Null space {v : M v^T = 0}, as a canonical row-span subspace.

    One elimination, of M with its columns reversed, whose pivots are the
    lexicographically last column basis: the row of each free column f is
    nonzero only at f and at pivots after f, so the rows are already RREF."""
    red, pivots = RationalMatrix(m.rows, m.cols, tuple(r[::-1] for r in m.entries)).rref()
    rows = tuple(r[::-1] for r in reversed(_null_rows(red, pivots)))
    return Subspace(m.cols, RationalMatrix(len(rows), m.cols, rows))


def _null_rows(red: RationalMatrix, pivots) -> list[tuple[Rational, ...]]:
    """A basis of {v : R v^T = 0} for R in reduced row echelon form with the
    given pivot columns: e_f - sum_i R[i][f] e_{p_i} for each free column f."""
    rows = []
    for f in range(red.cols):
        if f in pivots:
            continue
        v = [0] * red.cols
        v[f] = 1
        for r, p in zip(red.entries, pivots):
            v[p] = -r[f]
        rows.append(tuple(v))
    return rows


def _pivot(row) -> int:
    return next(i for i, x in enumerate(row) if x)


def image(m: RationalMatrix) -> Subspace:
    """Column space of M, returned in the row-vector convention."""
    return Subspace.from_vectors(m.rows, tuple(zip(*m.entries)) if m.rows and m.cols else ())


# ---------------------------------------------------------------------------
# Integer lattices.


def _primitive_integer(v) -> list[int]:
    """Clear the denominators of a rational vector and divide out content."""
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g > 1 else ints


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    zero rows are dropped.  The result is the canonical basis of the row span.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    basis: list[list[int]] = []
    r = 0
    for c in range(ncols):
        idx = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not idx:
            continue
        # Euclid on the column entries below the current row.
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(m[i][c]))
            i0 = idx[0]
            for i in idx[1:]:
                q = m[i][c] // m[i0][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
            idx = [i for i in idx if m[i][c] != 0]
        i0 = idx[0]
        m[r], m[i0] = m[i0], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                q = m[i][c] // m[r][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    basis = [row for row in m[:r] if any(row)]
    return basis


def integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """HNF basis of {v in Z^ncols : (each row) . v = 0}.

    The HNF of [A^T | I] is echelon, so its rows whose A^T-part vanishes span
    the kernel lattice (saturated by unimodularity) and are already its HNF.
    """
    m = len(rows)
    work = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    return [w[m:] for w in hnf_rows(work) if not any(w[:m])]


def lattice_basis(s: Subspace) -> RationalMatrix:
    """HNF basis of the saturated lattice S cap Z^n (rows generate S over Q)."""
    n = s.ambient_dim
    constraints = [_primitive_integer(r) for r in s.orthogonal_complement().basis.entries]
    return RationalMatrix.from_rows(integer_kernel(constraints, n), cols=n)

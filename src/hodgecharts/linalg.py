"""Exact rational linear algebra and integer-lattice utilities.

All vectors are row vectors of fractions.Fraction; matrices are immutable,
dense, row-major.  Subspaces of Q^n are canonicalized as reduced row echelon
bases, so subspace equality is syntactic equality of bases.  Integer lattices
are canonicalized by row-style Hermite normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotInvariant

Q = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def vec(values) -> tuple[Fraction, ...]:
    return tuple(_frac(x) for x in values)


_ZERO = Q(0)
_ONE = Q(1)


def dot(u, v) -> Fraction:
    total = _ZERO
    for a, b in zip(u, v, strict=True):
        if a and b:  # skipping zero factors saves most Fraction arithmetic
            total += a * b
    return total


class RationalMatrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[Fraction, ...], ...]):
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "RationalMatrix":
        data = tuple(vec(r) for r in rows)
        if data:
            ncols = len(data[0])
            if any(len(r) != ncols for r in data):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        return cls(len(data), ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, tuple((Q(0),) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        rows = tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
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

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "RationalMatrix":
        if self.rows == 0:
            return RationalMatrix(self.cols, 0, tuple(() for _ in range(self.cols)))
        return RationalMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "RationalMatrix":
        return self.scale(Q(-1))

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix(self.rows, self.cols, tuple(tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.cols == 0:
            return RationalMatrix.zeros(self.rows, other.cols)
        cols = other.transpose().entries
        return RationalMatrix(
            self.rows,
            other.cols,
            tuple(tuple(dot(r, c) for c in cols) for r in self.entries),
        )

    def mul_vec(self, v) -> tuple[Fraction, ...]:
        """M v with v a column vector, returned as a flat tuple."""
        v = vec(v)
        return tuple(dot(r, v) for r in self.entries)

    def power(self, k: int) -> "RationalMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = RationalMatrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for r in self.entries for x in r)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.rows and self.cols != other.cols:
            raise ValueError("shape mismatch")
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
            m[r], m[pivot] = m[pivot], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv if x else x for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return RationalMatrix(nrows, ncols, tuple(tuple(row) for row in m)), tuple(pivots)


class Subspace:
    """Row-span subspace of Q^n, stored as a reduced row echelon basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RationalMatrix):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        m = RationalMatrix.from_rows(vectors, cols=ambient_dim)
        red, pivots = m.rref()
        rows = red.entries[: len(pivots)]
        return cls(ambient_dim, RationalMatrix(len(rows), ambient_dim, rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix(0, ambient_dim, ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

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
            raise ValueError("dimension mismatch")
        stacked = self.basis.stack(RationalMatrix.from_rows([v]))
        return rank(stacked) == self.dim

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis.entries)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(
            self.ambient_dim, self.basis.entries + other.basis.entries
        )

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
        """Orthogonal complement for the standard inner product on Q^n."""
        return kernel(self.basis) if self.dim else Subspace.full(self.ambient_dim)

    def coordinates_of(self, v) -> tuple[Fraction, ...] | None:
        """Coefficients of v in this basis, or None if v is outside."""
        return solve(self.basis.transpose(), v)


def rank(m: RationalMatrix) -> int:
    return len(m.rref()[1])


def kernel(m: RationalMatrix) -> Subspace:
    """Null space {v : M v^T = 0}, as a canonical row-span subspace."""
    return Subspace.from_vectors(m.cols, _kernel_rows(m)[0])


def _kernel_rows(m: RationalMatrix) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """A basis of {v : M v^T = 0}, one row per free column of rref(M) and not
    in echelon form, together with the pivot columns of M."""
    red, pivots = m.rref()
    rows = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red.entries[i][f]
        rows.append(v)
    return rows, pivots


def image(m: RationalMatrix) -> Subspace:
    """Column space of M, returned in the row-vector convention."""
    return Subspace.from_vectors(m.rows, tuple(zip(*m.entries)) if m.rows and m.cols else ())


def solve(m: RationalMatrix, b) -> tuple[Fraction, ...] | None:
    """One exact solution x of M x = b, or None if the system is inconsistent."""
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    aug = RationalMatrix(m.rows, m.cols + 1, tuple(r + (bb,) for r, bb in zip(m.entries, b)))
    red, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red.entries[i][m.cols]
    return tuple(x)


def restrict_map(m: RationalMatrix, s_domain: Subspace, s_codomain: Subspace) -> RationalMatrix:
    """Matrix of M restricted to s_domain, in the two given bases.

    Requires M . s_domain <= s_codomain; raises NotInvariant otherwise.  The
    result R satisfies M d_j = sum_i R[i][j] c_i for the basis rows d_j, c_i.
    """
    cod_t = s_codomain.basis.transpose()
    cols = []
    for d in s_domain.basis.entries:
        y = m.mul_vec(d)
        coeffs = solve(cod_t, y)
        if coeffs is None:
            raise NotInvariant("image vector leaves the codomain subspace")
        cols.append(coeffs)
    out_rows = tuple(zip(*cols)) if cols else tuple(() for _ in range(s_codomain.dim))
    return RationalMatrix(s_codomain.dim, s_domain.dim, tuple(tuple(r) for r in out_rows))


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

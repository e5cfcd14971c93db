"""Multilinear positivity checks for curvature of Hodge-type bundles.

A curvature triple is a trilinear map A : T (x) W -> U together with a
positive metric on U; when a bundle's curvature has the shape
Theta(e, xi) = |A(xi) e|^2 its positivity is governed by the linear algebra
of A.  A is held once, as the block row [A_0 | ... | A_{dim_t - 1}] of its
slices A_s = A(t_s) in Q^{dim_w x dim_u}, so each map below is one product of
exact matrices: e [A_0 | ...] = [e A_0 | ...] holds the rows of xi -> A(xi) e.
Everything here runs over exact rationals (rank is brittle in floats):
entries are ints, Fractions or "p/q" strings, as for linalg.vec.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._record import Record
from .errors import InvalidInput
from .linalg import Rational, RationalMatrix, dot, rank, vec


class CurvatureTriple:
    """A : T (x) W -> U, with slices A_s[i][j] = entries[s][i][j] held side by
    side in the dim_w x (dim_t dim_u) matrix blocks, and a metric on U."""

    def __init__(self, dim_t: int, dim_w: int, dim_u: int, entries,
                 metric: RationalMatrix | None = None):
        entries = [[vec(row) for row in sl] for sl in entries]
        if len(entries) != dim_t or any(
            len(sl) != dim_w or any(len(r) != dim_u for r in sl) for sl in entries
        ):
            raise InvalidInput("entry array has inconsistent shape")
        if metric is None:
            metric = RationalMatrix.identity(dim_u)
        if metric.rows != dim_u or metric.cols != dim_u:
            raise InvalidInput("metric must be dim_u x dim_u")
        _check_positive_definite(metric)
        self.dim_t = dim_t
        self.dim_w = dim_w
        self.dim_u = dim_u
        self.blocks = RationalMatrix(
            dim_w, dim_t * dim_u, tuple(sum((sl[i] for sl in entries), ()) for i in range(dim_w))
        )
        self.metric = metric

    def apply(self, xi, e) -> tuple[Rational, ...]:
        """A(xi) e in U."""
        return (_row(xi, self.dim_t) @ self.slice_matrix(e)).entries[0]

    def slice_matrix(self, e) -> RationalMatrix:
        """The map xi -> A(xi) e as the dim_t x dim_u matrix with rows e A_s."""
        (row,) = (_row(e, self.dim_w) @ self.blocks).entries
        return RationalMatrix(self.dim_t, self.dim_u, self._split(row))

    def _split(self, row) -> tuple[tuple[Rational, ...], ...]:
        """A row of dim_t * dim_u entries cut into its dim_t blocks."""
        u = self.dim_u
        return tuple(row[s * u:(s + 1) * u] for s in range(self.dim_t))

    def norm_sq(self, u) -> Rational:
        u = vec(u)
        return dot(u, self.metric.mul_vec(u))


def _check_positive_definite(metric: RationalMatrix) -> None:
    """Refuse a metric unless it is symmetric and elimination with no row
    exchange meets only positive pivots (Sylvester: positive definite)."""
    if metric.transpose() != metric:
        raise InvalidInput("metric must be symmetric")
    rows = [list(r) for r in metric.entries]
    for i, top in enumerate(rows):
        if top[i] <= 0:
            raise InvalidInput(f"metric must be positive definite: pivot {i + 1} is {top[i]}")
        for row in rows[i + 1:]:
            if row[i]:
                f = Fraction(row[i], top[i])
                row[i:] = [x - f * y for x, y in zip(row[i:], top[i:])]


def _row(v, n: int) -> RationalMatrix:
    """v as a 1 x n matrix; InvalidInput when v does not have n entries."""
    return RationalMatrix.from_rows([v], cols=n)


class CurvatureIdentity(Record):
    lhs: Rational
    rhs: Rational
    match: bool


def curvature_identity_check(triple: CurvatureTriple, e, xi) -> CurvatureIdentity:
    """Compare the -(conj A)^t ^ A contraction against |A(xi) e|^2.

    The left side contracts the curvature 4-tensor sum_j A[s,a,j] g[j,j'] A[t,b,j']
    against e in both bundle slots and xi in both tangent slots: with
    S = slice_matrix(e) it is x (S g S^t) x^t.  The right side applies A
    first, |x S|^2_g.  Both are products of the same exact matrices, so
    lhs = rhs by associativity for every input: match checks the
    contraction's bookkeeping, not a property of A or g.
    """
    s, x = triple.slice_matrix(e), _row(xi, triple.dim_t)
    lhs = (x @ (s @ triple.metric @ s.transpose()) @ x.transpose()).entries[0][0]
    rhs = triple.norm_sq(triple.apply(xi, e))
    return CurvatureIdentity(lhs, rhs, lhs == rhs)


def numerical_dimension(triple: CurvatureTriple, samples: int = 20, seed: int = 0):
    """(rho, n): rho is the generic rank of xi -> A(xi) e, n = rank(E) - 1 + rho.

    "Generic" is the maximum over samples >= 1 seeded random integer e.
    """
    if samples < 1:
        raise InvalidInput(f"samples must be at least 1, not {samples}")
    rng = random.Random(seed)
    rho = 0
    for _ in range(samples):
        e = [rng.randint(-5, 5) for _ in range(triple.dim_w)]
        rho = max(rho, rank(triple.slice_matrix(e)))
    return rho, triple.dim_w - 1 + rho


class SigmaReport(Record):
    matrix: RationalMatrix
    rank: int
    injective: bool


def _contraction(triple: CurvatureTriple, q_form: RationalMatrix) -> SigmaReport:
    """The map T -> W (x) U, t_s -> q A_s: column s of the matrix is q A_s
    flattened row by row.  Row r of q [A_0 | ...] holds row r of every q A_s."""
    blocks = [triple._split(r) for r in (q_form @ triple.blocks).entries]
    images = tuple(tuple(x for b in blocks for x in b[s]) for s in range(triple.dim_t))
    mat = RationalMatrix(triple.dim_t, q_form.rows * triple.dim_u, images).transpose()
    rk = rank(mat)
    return SigmaReport(mat, rk, rk == triple.dim_t)


def sigma_weight1(q_form: RationalMatrix) -> SigmaReport:
    """The contraction Sym^2 W -> W* (x) W, s -> q s, in monomial bases.

    This is the sigma contraction of the tautological triple, whose slices are
    the symmetric units S_ij = E_ij + E_ji (i <= j).  Injective exactly when
    the quadric q is nonsingular.
    """
    if q_form.transpose() != q_form:
        raise InvalidInput("quadric must be symmetric")
    m = q_form.rows
    units = [
        [[int(r == i and c == j) + int(r == j and c == i) for c in range(m)] for r in range(m)]
        for i in range(m)
        for j in range(i, m)
    ]
    return _contraction(CurvatureTriple(len(units), m, m, units), q_form)


def sigma_weight2(triple: CurvatureTriple, q_form: RationalMatrix) -> SigmaReport:
    """The composite T -> W (x) U contracting A against a quadric on W.

    Requires A injective as T -> Hom(W, U); then the composite is injective
    for every nonsingular q.
    """
    if q_form.rows != triple.dim_w or q_form.transpose() != q_form:
        raise InvalidInput("quadric must be symmetric on W")
    if not _contraction(triple, RationalMatrix.identity(triple.dim_w)).injective:
        raise InvalidInput("A must be injective as a map T -> Hom(W, U)")
    return _contraction(triple, q_form)

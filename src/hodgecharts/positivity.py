"""Multilinear positivity checks for curvature of Hodge-type bundles.

A curvature triple is a trilinear map A : T (x) W -> U together with a
positive metric on U; when a bundle's curvature has the shape
Theta(e, xi) = |A(xi) e|^2 its positivity is governed by the linear algebra
of A.  Everything here runs over exact rationals (rank is brittle in floats):
entries are ints, Fractions or "p/q" strings, as for linalg.vec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import Rational, RationalMatrix, _exact, dot, rank, vec


class CurvatureTriple:
    """A : T (x) W -> U as a 3-index array entries[s][i][j] with a metric on U."""

    def __init__(self, dim_t: int, dim_w: int, dim_u: int, entries,
                 metric: RationalMatrix | None = None):
        entries = tuple(tuple(vec(row) for row in sl) for sl in entries)
        if len(entries) != dim_t or any(
            len(sl) != dim_w or any(len(r) != dim_u for r in sl) for sl in entries
        ):
            raise ValueError("entry array has inconsistent shape")
        if metric is None:
            metric = RationalMatrix.identity(dim_u)
        if metric.rows != dim_u or metric.cols != dim_u:
            raise ValueError("metric must be dim_u x dim_u")
        self.dim_t = dim_t
        self.dim_w = dim_w
        self.dim_u = dim_u
        self.entries = entries
        self.metric = metric

    def apply(self, xi, e) -> tuple[Rational, ...]:
        """A(xi) e in U."""
        xi, e = vec(xi), vec(e)
        out = [0] * self.dim_u
        for s, x in enumerate(xi):
            if not x:
                continue
            for i, ei in enumerate(e):
                if not ei:
                    continue
                row = self.entries[s][i]
                for j in range(self.dim_u):
                    out[j] += x * ei * row[j]
        return vec(out)

    def slice_matrix(self, e) -> RationalMatrix:
        """The map xi -> A(xi) e as a dim_t x dim_u matrix of rows."""
        e = vec(e)
        rows = []
        for s in range(self.dim_t):
            row = [0] * self.dim_u
            for i, ei in enumerate(e):
                if not ei:
                    continue
                for j in range(self.dim_u):
                    row[j] += ei * self.entries[s][i][j]
            rows.append(row)
        return RationalMatrix.from_rows(rows, cols=self.dim_u)

    def norm_sq(self, u) -> Rational:
        u = vec(u)
        return dot(u, self.metric.mul_vec(u))


@dataclass(frozen=True)
class CurvatureIdentity:
    lhs: Rational
    rhs: Rational
    match: bool


def curvature_identity_check(triple: CurvatureTriple, e, xi) -> CurvatureIdentity:
    """Compare the -(conj A)^t ^ A contraction against |A(xi) e|^2.

    The left side contracts the curvature 4-tensor sum_j A[s,a,j] g[j,j'] A[t,b,j']
    against e in both bundle slots and xi in both tangent slots; the right side
    applies A first.  Exact equality is the curvature-shape identity.
    """
    e, xi = vec(e), vec(xi)
    lhs = 0
    images = [triple.apply([int(s == i) for i in range(triple.dim_t)], e)
              for s in range(triple.dim_t)]
    for s in range(triple.dim_t):
        if not xi[s]:
            continue
        gs = triple.metric.mul_vec(images[s])
        for t in range(triple.dim_t):
            if not xi[t]:
                continue
            lhs += xi[s] * xi[t] * dot(images[t], gs)
    rhs = triple.norm_sq(triple.apply(xi, e))
    return CurvatureIdentity(_exact(lhs), rhs, lhs == rhs)


def numerical_dimension(triple: CurvatureTriple, samples: int = 20, seed: int = 0):
    """(rho, n): rho is the generic rank of xi -> A(xi) e, n = rank(E) - 1 + rho.

    "Generic" is the maximum over seeded random integer samples of e.
    """
    rng = random.Random(seed)
    rho = 0
    for _ in range(samples):
        e = [rng.randint(-5, 5) for _ in range(triple.dim_w)]
        rho = max(rho, rank(triple.slice_matrix(e)))
    return rho, triple.dim_w - 1 + rho


def _sym_basis(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i, m)]


@dataclass(frozen=True)
class SigmaReport:
    matrix: RationalMatrix
    rank: int
    injective: bool


def sigma_weight1(q_form: RationalMatrix) -> SigmaReport:
    """The contraction Sym^2 W -> W* (x) W, s -> q s, in monomial bases.

    Injective exactly when the quadric q is nonsingular.
    """
    if q_form.transpose() != q_form:
        raise ValueError("quadric must be symmetric")
    m = q_form.rows
    pairs = _sym_basis(m)
    cols = []
    for (i, j) in pairs:
        s = [[0] * m for _ in range(m)]
        s[i][j] += 1
        s[j][i] += 1
        prod = q_form @ RationalMatrix.from_rows(s, cols=m)
        cols.append(prod.flatten())
    rows = tuple(zip(*cols))
    mat = RationalMatrix(m * m, len(pairs), tuple(tuple(r) for r in rows))
    rk = rank(mat)
    return SigmaReport(mat, rk, rk == len(pairs))


def sigma_weight2(triple: CurvatureTriple, q_form: RationalMatrix) -> SigmaReport:
    """The composite T -> W (x) U contracting A against a quadric on W.

    Requires A injective as T -> Hom(W, U); then the composite is injective
    for every nonsingular q.
    """
    if q_form.rows != triple.dim_w or q_form.transpose() != q_form:
        raise ValueError("quadric must be symmetric on W")
    flat_rows = [
        [triple.entries[s][i][j] for i in range(triple.dim_w) for j in range(triple.dim_u)]
        for s in range(triple.dim_t)
    ]
    if rank(RationalMatrix.from_rows(flat_rows, cols=triple.dim_w * triple.dim_u)) < triple.dim_t:
        raise ValueError("A must be injective as a map T -> Hom(W, U)")
    cols = []
    for s in range(triple.dim_t):
        out = [[0] * triple.dim_u for _ in range(triple.dim_w)]
        for i in range(triple.dim_w):
            for ip in range(triple.dim_w):
                c = q_form.entries[i][ip]
                if not c:
                    continue
                for j in range(triple.dim_u):
                    out[i][j] += c * triple.entries[s][ip][j]
        cols.append([_exact(x) for row in out for x in row])
    rows = tuple(zip(*cols))
    mat = RationalMatrix(
        triple.dim_w * triple.dim_u, triple.dim_t, tuple(tuple(r) for r in rows)
    )
    rk = rank(mat)
    return SigmaReport(mat, rk, rk == triple.dim_t)

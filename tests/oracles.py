"""Independent brute-force oracles used by the test-suite.

These deliberately avoid the code paths they check: feasibility questions go
through Fourier-Motzkin elimination instead of the simplex, weight
filtrations are verified against the two defining properties directly, and
relation spaces and adjoint membership are recomputed from W(ad N_I) on the
isometry algebra, which the library never builds; relation spaces are
also recomputed from the conditions of every level of W(N_I), where the
library takes the levels at and above the center.  The relation table is
rebuilt index set by index set, without the memo on W(N_I), and the Farkas
split by one Farkas alternative per coordinate, each scaling its own
tableau, where the library scales the rows of S^perp once per split.  The library's
earlier weight filtration (one kernel, image and intersection per piece),
phase-one simplex (a Fraction tableau), lmhs cokernel map (one solve per
kernel vector), all-Fraction elimination and two-elimination kernel are kept
here verbatim as references for the elimination-sparing, integer-pivoting,
direct, int-when-integral and one-elimination versions; matrix products are
checked against the dot-product definition.  Subspace membership by a
stacked rank, the positive basis with its dropped lattice row found by
solve, and the greedy graded pieces with the induced maps solved against
them are the references for the read-offs from the echelon basis.  Linear
solves and subspace sums by elimination live only here: the library reads
such answers off echelon bases.  The curvature-triple maps and both sigma
contractions by index loops over the entries of A, and the lmhs graded
dimensions counted from kernel bases, are the references for the slice
products and the rank counts.  The
graded boundary frames of the metric engine, with pivots from scipy's pivoted
QR frozen at a base point, graded columns chosen by a greedy singular-value
loop and one solve per free column at every w, are the reference for its one
column-pivoting helper and its kernel solved once on the untwisted frame; the
polarization form by a double loop over the primitive
representatives is the reference for its one matrix product.  The
library's earlier Hodge decomposition, from span intersections by the one
column-pivoting cut, and its augmented determinant through the Weil operator
and an inverse of the pieces' basis, are the reference for the augmented
determinant from the flag's own pairings; the span intersection by an SVD
kernel with its own rank cut, orthonormalized by QR, is the reference for
those span intersections.  The
library's earlier residue integral, a Gauss-Legendre by trapezoid quadrature,
is the low-degree reference for its closed form.  The Siegel
escape probe in numpy (np.log on the grid, np.exp, the Cholesky factor as an
array and np.polyfit) is the reference for the probe in plain floats with its exact
least-squares slope, and the orbit point in numpy, from the cone data and
from a solution's solvable parameters, checks that each parameter solve
places the point it was given.  The separation scan over every atlas row and
the relation table encoded once per index set are the references for the
scan over charts and the one encoding per stratum.  The closure of I in the
matroid of the generators' images is the reference for the whole K-map of
graphic and positive semidefinite sp(2g) cones.  The JSON writers for cones
and complex scalars build test inputs; the CLI only reads them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

from hodgecharts.cones import (
    FarkasAlternative, FarkasSplit, farkas_alternative, farkas_split, relation_space,
)
from hodgecharts.errors import (
    NotAComplex, NotFiltrationCompatible, NotPolarized, SeparationFailure,
)
from hodgecharts.filtrations import (
    NilpotentCone,
    WeightFiltration,
    _powers,
    index_set,
    primitive_subspace,
    weight_filtration,
)
from hodgecharts.linalg import (
    Rational,
    RationalMatrix,
    Subspace,
    _exact,
    _primitive_integer,
    dot,
    image,
    kernel,
    lattice_basis,
    rank,
    vec,
)
from hodgecharts.metrics import (
    ALGEBRAIC_TOL,
    SVD_TOL,
    FlagPoint,
    OrbitSpec,
    _coefficient_kernel,
    _hermitian_log_det,
    _independent_columns,
    _np_matrix,
    augmented_weights,
)
from hodgecharts.ncd import WeightComplexes, _require_complex
from hodgecharts.positivity import CurvatureIdentity, CurvatureTriple, SigmaReport
from hodgecharts.serialize import matrix_to_json
from hodgecharts.siegel import (
    DEFAULT_GRID,
    SLOPE_THRESHOLD,
    ConeSpec,
    ProbeReport,
    SiegelSolution,
    solve_minimal,
)

Q = Fraction

# ---------------------------------------------------------------------------
# Linear solves and subspace sums by elimination.


def solve(m: RationalMatrix, b) -> tuple[Rational, ...] | None:
    """One exact solution x of M x = b, or None if the system is inconsistent."""
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    aug = RationalMatrix(m.rows, m.cols + 1, tuple(r + (bb,) for r, bb in zip(m.entries, b)))
    red, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red.entries[i][m.cols]
    return tuple(x)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """S + T, by one elimination of both bases stacked."""
    return Subspace.from_vectors(a.ambient_dim, a.basis.entries + b.basis.entries)


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility for systems  sum c_i x_i + d >= 0.


def _normalize(coeffs, d):
    """Scale an inequality to a canonical representative for deduplication."""
    scale = None
    for x in coeffs:
        if x != 0:
            scale = abs(x)
            break
    if scale is None:
        scale = abs(d) if d != 0 else Fraction(1)
    return (tuple(x / scale for x in coeffs), d / scale)


def fm_feasible(constraints: list[tuple[list[Fraction], Fraction]]) -> bool:
    """Feasibility of a conjunction of non-strict linear inequalities.

    Plain Fourier-Motzkin with normalization and deduplication between
    elimination rounds to keep the constraint growth in check.
    """
    if not constraints:
        return True
    nvars = len(constraints[0][0])
    rows = {_normalize(list(c), Fraction(d)) for c, d in constraints}
    for var in range(nvars):
        lower, upper, rest = [], [], []
        for coeffs, d in rows:
            a = coeffs[var]
            if a > 0:
                lower.append((coeffs, d))
            elif a < 0:
                upper.append((coeffs, d))
            else:
                rest.append((coeffs, d))
        new_rows = set(rest)
        for lc, ld in lower:
            a = lc[var]
            for uc, ud in upper:
                b = -uc[var]
                coeffs = [a * uc[i] + b * lc[i] for i in range(nvars)]
                coeffs[var] = Fraction(0)
                new_rows.add(_normalize(coeffs, a * ud + b * ld))
        rows = new_rows
        if not rows:
            return True
    return all(d >= 0 for _, d in rows)


def eliminate_equalities(
    eqs: list[tuple[list[Fraction], Fraction]],
    ineqs: list[tuple[list[Fraction], Fraction]],
) -> list[tuple[list[Fraction], Fraction]] | None:
    """Substitute equalities sum c x + d = 0 into the inequalities.

    Returns the reduced inequality system, or None if the equalities are
    inconsistent on their own.
    """
    eqs = [(list(c), Fraction(d)) for c, d in eqs]
    ineqs = [(list(c), Fraction(d)) for c, d in ineqs]
    while eqs:
        coeffs, d = eqs.pop()
        pivot = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if pivot is None:
            if d != 0:
                return None
            continue
        a = coeffs[pivot]
        # x_pivot = -(d + sum_{i != pivot} c_i x_i) / a
        def substitute(row):
            rc, rd = row
            f = rc[pivot]
            if f == 0:
                return row
            new_c = [rc[i] - f * coeffs[i] / a for i in range(len(rc))]
            new_c[pivot] = Fraction(0)
            return (new_c, rd - f * d / a)

        eqs = [substitute(r) for r in eqs]
        ineqs = [substitute(r) for r in ineqs]
    return ineqs


def support_witness_feasible(basis: RationalMatrix, support: set[int]) -> bool:
    """Whether the row span of basis contains v >= 0 with support exactly the
    given 1-based set (positivity normalized to v_i >= 1)."""
    k = basis.cols
    s = basis.rows
    if s == 0:
        return not support
    eqs, ineqs = [], []
    for i in range(k):
        col = [basis.entries[r][i] for r in range(s)]
        if (i + 1) in support:
            ineqs.append((col, Fraction(-1)))  # v_i - 1 >= 0
        else:
            eqs.append((col, Fraction(0)))
    reduced = eliminate_equalities(eqs, ineqs)
    return reduced is not None and fm_feasible(reduced)


def split_supports(space: Subspace) -> list[tuple[int, ...]]:
    """All supports K admitting both witnesses, by exhaustive enumeration."""
    k = space.ambient_dim
    perp = space.orthogonal_complement()
    out = []
    for mask in range(1 << k):
        support = {i + 1 for i in range(k) if mask >> i & 1}
        co_support = set(range(1, k + 1)) - support
        if support_witness_feasible(space.basis, support) and support_witness_feasible(
            perp.basis, co_support
        ):
            out.append(tuple(sorted(support)))
    return out


def farkas_branch_infeasible(a: RationalMatrix, b, branch: str) -> bool:
    """Check by elimination that the named Farkas branch has no solution."""
    if branch == "solution":
        # x >= 0 with A x = b.
        eqs = [(list(a.row(i)), -Fraction(bi)) for i, bi in enumerate(b)]
        ineqs = [
            ([Fraction(int(i == j)) for j in range(a.cols)], Fraction(0))
            for i in range(a.cols)
        ]
        reduced = eliminate_equalities(eqs, ineqs)
        return reduced is None or not fm_feasible(reduced)
    # y with A^T y >= 0 and y.b <= -1 (scale invariance).
    ineqs = [(list(a.col(j)), Fraction(0)) for j in range(a.cols)]
    ineqs.append(([-Fraction(bi) for bi in b], Fraction(-1)))
    return not fm_feasible(ineqs)


# ---------------------------------------------------------------------------
# Weight filtration oracle.


def filtration_satisfies_defining_properties(n: RationalMatrix, filtration) -> bool:
    """Both defining properties, checked from scratch on the raw subspaces."""
    dim = n.rows
    c = filtration.center
    for level in range(filtration.low - 1, filtration.high + 1):
        if not filtration.step(level + 1).contains(filtration.step(level)):
            return False
    # N lowers levels by two.
    for level in range(filtration.low, filtration.high + 1):
        target = filtration.step(level - 2)
        for row in filtration.step(level).basis.entries:
            if not target.contains_vector(n.mul_vec(row)):
                return False
    # N^l induces an isomorphism between opposite graded pieces.
    span = max(filtration.high - c, c - filtration.low)
    for ell in range(0, span + 1):
        hi, lo = filtration.step(c + ell), filtration.step(c + ell - 1)
        hi2, lo2 = filtration.step(c - ell), filtration.step(c - ell - 1)
        if (hi.dim - lo.dim) != (hi2.dim - lo2.dim):
            return False
        if ell == 0:
            continue
        power = n.power(ell)
        image_rows = [power.mul_vec(r) for r in hi.basis.entries]
        pushed = subspace_sum(Subspace.from_vectors(dim, image_rows), lo2)
        if pushed.dim - lo2.dim != hi2.dim - lo2.dim:
            return False  # induced map is not surjective
    return True


def intersection_weight_filtration(n: RationalMatrix, center: int) -> WeightFiltration:
    """The unique filtration with N.W_l <= W_{l-2} and N^l : Gr_{c+l} ~ Gr_{c-l}.

    Built from the classical closed form: the step at c+l is the span of all
    ker(N^{i+1}) cap im(N^{i-l}), i >= 0, with nonpositive powers read as the
    identity.
    """
    powers = _powers(n)
    d = len(powers) - 1
    dim = n.rows
    if d == 0:  # zero-dimensional space
        return WeightFiltration(center, 0, {center: Subspace.full(0)})
    kernels = {i: kernel(powers[i]) for i in range(1, d + 1)}
    images = {j: image(powers[j]) for j in range(1, d)}
    # ker N^{i+1} cap im N^j, shared by the levels that use it.  im N^0 is the
    # whole space, im N^j = 0 for j >= d, and im N^j <= ker N^{i+1} once
    # i + 1 + j >= d.
    pieces: dict[tuple[int, int], Subspace] = {}
    steps: dict[int, Subspace] = {}
    for l in range(-(d - 1), d):
        rows = []
        for i in range(d):
            j = max(0, i - l)
            if j >= d:
                continue
            piece = pieces.get((i, j))
            if piece is None:
                if j == 0:
                    piece = kernels[i + 1]
                elif i + 1 + j >= d:
                    piece = images[j]
                else:
                    piece = kernels[i + 1].intersect(images[j])
                pieces[(i, j)] = piece
            rows.extend(piece.basis.entries)
        steps[center + l] = Subspace.from_vectors(dim, rows)
    if d == 1:
        steps[center] = Subspace.full(dim)
    return WeightFiltration(center, dim, steps)


def random_nilpotent(rng, dim: int) -> RationalMatrix:
    """Strictly upper-triangular integer matrix conjugated by a unimodular one."""
    upper = [
        [Fraction(rng.randint(-2, 2)) if j > i else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ]
    n = RationalMatrix.from_rows(upper, cols=dim)
    g = RationalMatrix.identity(dim)
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        rows = [list(r) for r in g.entries]
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        g = RationalMatrix.from_rows(rows, cols=dim)
    g_inv_cols = []
    ident = RationalMatrix.identity(dim)
    for j in range(dim):
        g_inv_cols.append(solve(g, ident.col(j)))
    g_inv = RationalMatrix.from_rows(tuple(zip(*g_inv_cols)), cols=dim)
    return g @ n @ g_inv


# ---------------------------------------------------------------------------
# The adjoint filtration W(ad N_I) on the isometry algebra, and relation
# spaces read off it.


class LieContext:
    """The isometry algebra g = {X : X^T Q + Q X = 0} with a fixed basis."""

    __slots__ = ("form", "dim", "basis", "_basis_matrix_t")

    def __init__(self, form: RationalMatrix):
        n = form.rows
        # Kernel of X |-> X^T Q + Q X on flattened n x n matrices.
        rows = []
        for a in range(n):
            for b in range(n):
                row = [Q(0)] * (n * n)
                # (X^T Q)_{ab} = sum_c X_{ca} Q_{cb};  (Q X)_{ab} = sum_c Q_{ac} X_{cb}
                for c in range(n):
                    row[c * n + a] += form.entries[c][b]
                    row[c * n + b] += form.entries[a][c]
                rows.append(row)
        ker = kernel(RationalMatrix.from_rows(rows, cols=n * n))
        self.form = form
        self.dim = ker.dim
        self.basis = tuple(
            RationalMatrix(n, n, tuple(tuple(r[i * n : (i + 1) * n]) for i in range(n)))
            for r in ker.basis.entries
        )
        self._basis_matrix_t = ker.basis.transpose()

    def to_coords(self, x: RationalMatrix) -> tuple[Fraction, ...] | None:
        return solve(self._basis_matrix_t, x.flatten())

    def from_coords(self, coords) -> RationalMatrix:
        coords = vec(coords)
        n = self.form.rows
        out = RationalMatrix.zeros(n, n)
        for c, b in zip(coords, self.basis, strict=True):
            if c:
                out = out + b.scale(c)
        return out

    def ad_matrix(self, n_mat: RationalMatrix) -> RationalMatrix:
        """Matrix of ad N = [N, .] on g in the fixed basis."""
        cols = []
        for b in self.basis:
            bracket = n_mat @ b - b @ n_mat
            coords = self.to_coords(bracket)
            if coords is None:  # pragma: no cover - g is an ideal under ad
                raise AssertionError("bracket left the isometry algebra")
            cols.append(coords)
        rows = tuple(zip(*cols)) if cols else ()
        return RationalMatrix(self.dim, self.dim, tuple(tuple(r) for r in rows))


@cache
def lie_context(form: RationalMatrix) -> LieContext:
    """One LieContext per form, shared by the tests that revisit a cone."""
    return LieContext(form)


def ad_weight_filtration(cone: NilpotentCone, index) -> tuple[WeightFiltration, LieContext]:
    """W(ad N_I) on the isometry algebra, centered at 0, with its context."""
    index = index_set(index)
    if not index:
        raise ValueError("adjoint filtration needs a nonempty index set")
    ctx = lie_context(cone.form)
    return weight_filtration(ctx.ad_matrix(cone.n_of(index)), 0), ctx


def adjoint_relation_space(cone: NilpotentCone, index) -> Subspace:
    """S_I = {a : sum a_i N_i in W_{-1}(ad N_I)} for nonempty I, read off the
    weight filtration of ad N_I on the isometry algebra in its own basis."""
    w, ctx = ad_weight_filtration(cone, index)
    coord_cols = [ctx.to_coords(n) for n in cone.generators]
    assert all(c is not None for c in coord_cols), "generator outside the isometry algebra"
    comp = w.step(-1).orthogonal_complement()
    m = RationalMatrix.from_rows(tuple(zip(*coord_cols)), cols=cone.k)
    return kernel(comp.basis @ m) if comp.dim else Subspace.full(cone.k)


def all_levels_relation_space(cone: NilpotentCone, w: WeightFiltration) -> Subspace:
    """S_I for nonempty I with W = W(N_I), from the conditions of every level
    of W: the residue modulo W_{l-1} of N_i v for each lift v of Gr_l."""
    rows = []
    for level in w.levels():
        lifts, _ = w.graded_lifts(level)
        res = w.step(level - 1).residues([n.mul_vec(v) for v in lifts for n in cone.generators])
        for at in range(0, len(res), cone.k):  # one lift's k images
            rows.extend(row for row in zip(*res[at : at + cone.k]) if any(row))
    return kernel(RationalMatrix(len(rows), cone.k, tuple(rows)))


def unkeyed_k_index_map(cone: NilpotentCone):
    """(table, image, splits) of k_index_map, with relation_space and
    farkas_split computed afresh for every index set; splits covers every I."""
    splits = {}
    for mask in range(1 << cone.k):
        index = tuple(i + 1 for i in range(cone.k) if mask >> i & 1)
        s = relation_space(cone, index)
        splits[index] = (s, farkas_split(s))
    table = {index: split.support for index, (_, split) in splits.items()}
    return table, _image(table), splits


def matroid_closure_k_map(images, dim: int):
    """(table, image) of k_index_map with K_I the closure of I in the
    matroid of the generators' images: j lies in K_I when the span of images[j]
    (vectors in Q^dim spanning generator j + 1's image) lies in the span of the
    images of I, that is when adding j keeps the rank.  One rank per subset."""
    k = len(images)
    ranks = [
        rank(RationalMatrix.from_rows(
            [v for j in range(k) if mask >> j & 1 for v in images[j]], cols=dim
        ))
        for mask in range(1 << k)
    ]
    table = {
        tuple(i + 1 for i in range(k) if mask >> i & 1): tuple(
            j + 1 for j in range(k) if ranks[mask | 1 << j] == ranks[mask]
        )
        for mask in range(1 << k)
    }
    return table, _image(table)


def _image(table) -> tuple:
    return tuple(sorted(set(table.values()), key=_by_size))


def _by_size(index) -> tuple:
    return len(index), index


# ---------------------------------------------------------------------------
# Phase-one simplex over a Fraction tableau.


def fraction_phase_one(a_rows: list[list[Fraction]], b: list[Fraction], n: int):
    """Exact phase-one simplex for {x >= 0 : Ax = b}.

    Returns (value, x, y): value is the artificial optimum (0 iff feasible),
    x a feasible point when value = 0, and y the simplex multipliers of the
    sign-normalized system otherwise.  Bland's rule throughout, so the
    iteration terminates.
    """
    m = len(b)
    signs = [Q(1) if bi >= 0 else Q(-1) for bi in b]
    tab = [[signs[i] * x for x in a_rows[i]] + [Q(0)] * m + [signs[i] * b[i]] for i in range(m)]
    for i in range(m):
        tab[i][n + i] = Q(1)
    basis = [n + i for i in range(m)]
    # Reduced cost row for min(sum of artificials); artificial columns start at 0.
    obj = [-sum(tab[i][j] for i in range(m)) for j in range(n)] + [Q(0)] * m

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:  # pragma: no cover - phase one is bounded
            raise AssertionError("phase-one problem cannot be unbounded")
        row = best[1]
        piv = tab[row][enter]
        tab[row] = [x / piv for x in tab[row]]
        for i in range(m):
            if i != row and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
        f = obj[enter]
        if f:
            obj = [x - f * y for x, y in zip(obj, tab[row][:-1])]
        basis[row] = enter

    value = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    # Multipliers for the normalized system: y_i = 1 - reduced cost of the
    # i-th artificial column; undo the sign normalization afterwards.
    y = [signs[i] * (Q(1) - obj[n + i]) for i in range(m)]
    return value, tuple(x), tuple(y)


def fraction_farkas_alternative(a_rows: list[list[Fraction]], b: list[Fraction], n: int):
    """The Farkas alternative for Ax = b, x >= 0 read off fraction_phase_one:
    its point when the artificial optimum is 0, else its negated multipliers."""
    value, x, y = fraction_phase_one(a_rows, b, n)
    if value == 0:
        return FarkasAlternative(solution=x, certificate=None)
    return FarkasAlternative(solution=None, certificate=tuple(-yi for yi in y))


def per_lp_farkas_split(s: Subspace) -> FarkasSplit:
    """farkas_split with one farkas_alternative per coordinate i, each on the
    matrix of S^perp stacked on e_i, so that every LP builds and scales its
    own tableau."""
    k = s.ambient_dim
    mu = s.orthogonal_complement().basis
    ns = mu.rows
    b = [0] * ns + [1]
    support: list[int] = []
    v = [0] * k
    v_tilde = [0] * k
    for i in range(k):
        e_i = [0] * k
        e_i[i] = 1
        a_i = RationalMatrix(ns + 1, k, mu.entries + (tuple(e_i),))
        res = farkas_alternative(a_i, b)
        if res.solution is not None:
            support.append(i + 1)
            v = [_exact(a + c) for a, c in zip(v, res.solution)]
        else:
            y = res.certificate
            x_tilde = [0] * k
            for coef, row in zip(y[:ns], mu.entries):
                if coef:
                    x_tilde = [_exact(a + coef * c) for a, c in zip(x_tilde, row)]
            v_tilde = [_exact(a + c) for a, c in zip(v_tilde, x_tilde)]
    return FarkasSplit(tuple(support), tuple(v), tuple(v_tilde))


# ---------------------------------------------------------------------------
# Elimination and products over Fraction matrices, and the scalar invariant
# they are checked by.


def fraction_rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns, every entry a Fraction."""
    m = [[Fraction(x) for x in r] for r in matrix.entries]
    nrows, ncols = matrix.rows, matrix.cols
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


def two_elimination_kernel(m: RationalMatrix) -> Subspace:
    """{v : M v^T = 0}: one row per free column of rref(M), then the RREF of
    those rows."""
    red, pivots = m.rref()
    rows = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [0] * m.cols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -red.entries[i][f]
        rows.append(tuple(v))
    red, pivots = RationalMatrix(len(rows), m.cols, tuple(rows)).rref()
    return Subspace(m.cols, RationalMatrix(len(pivots), m.cols, red.entries[: len(pivots)]))


def dot_product_matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """AB by its definition, entry (i, j) the Fraction dot product of row i of A
    with column j of B, zeros included."""
    cols = [tuple(r[j] for r in b.entries) for j in range(b.cols)]
    return RationalMatrix(
        a.rows,
        b.cols,
        tuple(
            tuple(sum((Q(x) * y for x, y in zip(r, c)), Q(0)) for c in cols)
            for r in a.entries
        ),
    )


def inexact_values(values) -> list:
    """The scalars in a nest of tuples, lists, matrices and subspaces that break
    the exact core's invariant: each value an int when integral, a Fraction
    otherwise, and never a float (or a bool)."""
    if isinstance(values, Subspace):
        values = values.basis
    if isinstance(values, RationalMatrix):
        values = values.entries
    if isinstance(values, (tuple, list)):
        return [bad for v in values for bad in inexact_values(v)]
    exact = type(values) is int or (type(values) is Fraction and values.denominator != 1)
    return [] if exact else [values]


# ---------------------------------------------------------------------------
# The lmhs map from top kernels to bottom cokernels, one solve per vector.


def solve_kernel_to_cokernel(g: RationalMatrix, r: RationalMatrix) -> bool:
    """Whether the induced map ker(g) -> target/im(r) is an isomorphism, with
    g acting on the space r maps to."""
    ker = kernel(g)
    im = image(r)
    n = g.cols
    # Complement basis of im(r): the non-pivot standard vectors.
    pivots = set(im.basis.rref()[1]) if im.dim else set()
    free = [j for j in range(n) if j not in pivots]
    stacked = im.basis.stack(
        RationalMatrix.from_rows(
            [[Q(int(j == f)) for j in range(n)] for f in free], cols=n
        )
    ).transpose()
    cols = []
    for v in ker.basis.entries:
        coeffs = solve(stacked, v)
        if coeffs is None:  # pragma: no cover - complement spans everything
            raise AssertionError("cokernel complement does not span")
        cols.append(coeffs[im.dim :])
    rows = tuple(zip(*cols)) if cols else tuple(() for _ in free)
    mat = RationalMatrix(len(free), ker.dim, tuple(tuple(r_) for r_ in rows))
    return ker.dim == len(free) and rank(mat) == ker.dim


# ---------------------------------------------------------------------------
# Read-offs by elimination: membership by a stacked rank and the positive
# basis's dropped row j0 by solve.


def stacked_rank_contains(s: Subspace, v) -> bool:
    """v lies in S exactly when stacking it under S's basis keeps the rank."""
    stacked = s.basis.stack(RationalMatrix.from_rows([vec(v)], cols=s.ambient_dim))
    return rank(stacked) == s.dim


def solve_first_dependency(h: RationalMatrix, cert) -> int:
    """The first row of h with a nonzero coefficient in cert = sum_j gamma_j h_j."""
    gamma = solve(h.transpose(), cert)
    return next(j for j, g in enumerate(gamma) if g != 0)


def solve_positive_basis(s: Subspace, split) -> RationalMatrix:
    """cones.positive_basis for a valid split, with j0 found by solve."""
    k = s.ambient_dim
    off = [i for i in range(k) if (i + 1) not in split.support]
    h = lattice_basis(s.orthogonal_complement())
    if h.rows == 0:
        return RationalMatrix(0, k, ())
    cert = _primitive_integer(split.cowitness)
    j0 = solve_first_dependency(h, cert)
    rows = [cert]
    for j, hrow in enumerate(h.entries):
        if j == j0:
            continue
        need = max((Q(1 - hrow[i], cert[i]) for i in off if hrow[i] < 1), default=0)
        shift = max(0, -(-need.numerator // need.denominator))
        rows.append([int(x) + shift * c for x, c in zip(hrow, cert)])
    return RationalMatrix.from_rows(rows, cols=k)


# ---------------------------------------------------------------------------
# Graded pieces picked greedily, and induced maps solved against them.


def greedy_graded_pieces(filtration: WeightFiltration) -> list[tuple[int, RationalMatrix]]:
    """(level, rows lifting a basis of Gr_level) per level, each row the next
    step basis row outside the span so far."""
    out = []
    for level in filtration.levels():
        below = filtration.step(level - 1)
        reprs = []
        span = below
        for row in filtration.step(level).basis.entries:
            if not span.contains_vector(row):
                reprs.append(row)
                span = subspace_sum(span, Subspace.from_vectors(filtration.ambient_dim, [row]))
        out.append((level, RationalMatrix.from_rows(reprs, cols=filtration.ambient_dim)))
    return out


def solve_induced_map(
    m: RationalMatrix, filtration: WeightFiltration, shift: int
) -> dict[int, RationalMatrix]:
    """Per-level matrices Gr_a -> Gr_{a+shift} induced by M.

    Requires M . W_l <= W_{l+shift} for all l; raises NotFiltrationCompatible
    otherwise.  Matrices are written in the greedy_graded_pieces
    representative bases.
    """
    for level in filtration.levels():
        target = filtration.step(level + shift)
        for row in filtration.step(level).basis.entries:
            if not target.contains_vector(m.mul_vec(row)):
                raise NotFiltrationCompatible(
                    f"M W_{level} is not contained in W_{level + shift}"
                )
    pieces = dict(greedy_graded_pieces(filtration))
    out: dict[int, RationalMatrix] = {}
    for level, reprs in pieces.items():
        target_level = level + shift
        target_reprs = pieces.get(target_level)
        tdim = target_reprs.rows if target_reprs else 0
        cols = []
        for row in reprs.entries:
            y = m.mul_vec(row)
            if tdim:
                below = filtration.step(target_level - 1)
                stacked = target_reprs.stack(below.basis).transpose()
                coeffs = solve(stacked, y)
                if coeffs is None:  # pragma: no cover - containment already checked
                    raise AssertionError("containment check missed a vector")
                cols.append(coeffs[:tdim])
            else:
                cols.append(())
        rows = tuple(zip(*cols)) if cols and tdim else ()
        out[level] = RationalMatrix(tdim, reprs.rows, tuple(tuple(r) for r in rows))
    return out


# ---------------------------------------------------------------------------
# The curvature-triple maps and sigma contractions by index loops over the
# entries of A, and the lmhs graded dimensions from kernel bases.


def _entries(triple: CurvatureTriple):
    """A as the 3-index array entries[s][i][j]."""
    u, rows = triple.dim_u, triple.blocks.entries
    return tuple(tuple(r[s * u:(s + 1) * u] for r in rows) for s in range(triple.dim_t))


def loop_apply(triple: CurvatureTriple, xi, e) -> tuple[Rational, ...]:
    """A(xi) e in U."""
    xi, e = vec(xi), vec(e)
    entries = _entries(triple)
    out = [0] * triple.dim_u
    for s, x in enumerate(xi):
        if not x:
            continue
        for i, ei in enumerate(e):
            if not ei:
                continue
            row = entries[s][i]
            for j in range(triple.dim_u):
                out[j] += x * ei * row[j]
    return vec(out)


def loop_slice_matrix(triple: CurvatureTriple, e) -> RationalMatrix:
    """The map xi -> A(xi) e as a dim_t x dim_u matrix of rows."""
    e = vec(e)
    entries = _entries(triple)
    rows = []
    for s in range(triple.dim_t):
        row = [0] * triple.dim_u
        for i, ei in enumerate(e):
            if not ei:
                continue
            for j in range(triple.dim_u):
                row[j] += ei * entries[s][i][j]
        rows.append(row)
    return RationalMatrix.from_rows(rows, cols=triple.dim_u)


def loop_curvature_identity_check(triple: CurvatureTriple, e, xi) -> CurvatureIdentity:
    """The curvature 4-tensor contracted against e, e, xi, xi term by term,
    against |A(xi) e|^2."""
    e, xi = vec(e), vec(xi)
    lhs = 0
    images = [loop_apply(triple, [int(s == i) for i in range(triple.dim_t)], e)
              for s in range(triple.dim_t)]
    for s in range(triple.dim_t):
        if not xi[s]:
            continue
        gs = triple.metric.mul_vec(images[s])
        for t in range(triple.dim_t):
            if not xi[t]:
                continue
            lhs += xi[s] * xi[t] * dot(images[t], gs)
    rhs = triple.norm_sq(loop_apply(triple, xi, e))
    return CurvatureIdentity(_exact(lhs), rhs, lhs == rhs)


def loop_sigma_weight1(q_form: RationalMatrix) -> SigmaReport:
    """The contraction Sym^2 W -> W* (x) W, s -> q s, in monomial bases."""
    if q_form.transpose() != q_form:
        raise ValueError("quadric must be symmetric")
    m = q_form.rows
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
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


def loop_sigma_weight2(triple: CurvatureTriple, q_form: RationalMatrix) -> SigmaReport:
    """The composite T -> W (x) U contracting A against a quadric on W.  With
    dim_t = 0 the matrix has dim_w * dim_u rows but no row entries."""
    if q_form.rows != triple.dim_w or q_form.transpose() != q_form:
        raise ValueError("quadric must be symmetric on W")
    entries = _entries(triple)
    flat_rows = [
        [entries[s][i][j] for i in range(triple.dim_w) for j in range(triple.dim_u)]
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
                    out[i][j] += c * entries[s][ip][j]
        cols.append([_exact(x) for row in out for x in row])
    rows = tuple(zip(*cols))
    mat = RationalMatrix(
        triple.dim_w * triple.dim_u, triple.dim_t, tuple(tuple(r) for r in rows)
    )
    rk = rank(mat)
    return SigmaReport(mat, rk, rk == triple.dim_t)


def kernel_graded_dims(w: WeightComplexes) -> tuple[int, int, int, int, int]:
    """Graded dimensions with a kernel basis built for each kernel counted."""
    _require_complex(w)
    g1 = w.r2.transpose()  # the Gysin map H0(X^[3])(-2) -> H2(X^[2])(-1)
    i4 = kernel(g1).dim
    i0 = w.r2.rows - rank(w.r2)
    first = w.g_mid.stack(w.r2)  # H0(X^[2]) -> H2(X^[1]) + H0(X^[3])
    if g1.rows != w.r_mid.rows:
        raise NotAComplex("block shapes are inconsistent")
    second_rows = tuple(a + b for a, b in zip(w.r_mid.entries, g1.entries))
    second = RationalMatrix(
        w.r_mid.rows, w.r_mid.cols + g1.cols, second_rows
    )
    i2 = kernel(second).dim - rank(first)
    i3 = kernel(w.g_odd).dim
    i1 = w.r_odd.rows - rank(w.r_odd)
    return (i0, i1, i2, i3, i4)


# ---------------------------------------------------------------------------
# The graded boundary frames with pivoted QR, a greedy singular-value column
# loop and one solve per free column; the polarization form by a double loop.


class QRNestedFrame:
    """The graded boundary frames with pivots frozen at a base point by
    scipy's pivoted QR, and the coefficient kernel re-solved at every w, or
    solved on the frame at one given point."""

    def __init__(self, orbit: OrbitSpec, index, w_base: complex):
        index = index_set(index)
        n_i = orbit.cone.n_of(index)
        filtration = weight_filtration(n_i, orbit.cone.weight)
        self.orbit = orbit
        self.n_float = _np_matrix(n_i)
        self.filtration = filtration
        # Exact complements of each step, as float constraint matrices.
        self.constraints = {}
        for level in filtration.levels():
            comp = filtration.step(level).orthogonal_complement()
            self.constraints[level] = _np_matrix(comp.basis)
        self._freeze(w_base)

    def _coefficient_kernel(self, level: int, frame: np.ndarray, pivots=None):
        from scipy.linalg import qr

        c = self.constraints[level]
        m = c @ frame if c.shape[0] else np.zeros((0, frame.shape[1]))
        if m.shape[0] == 0:
            return np.eye(frame.shape[1], dtype=complex), ()
        if pivots is None:
            _, r, perm = qr(m, pivoting=True)
            diag = np.abs(np.diag(r)) if min(m.shape) else np.array([])
            nrank = int(np.sum(diag > SVD_TOL * max(1.0, diag[0] if diag.size else 0)))
            pivots = tuple(int(p) for p in perm[:nrank])
        free = [j for j in range(m.shape[1]) if j not in pivots]
        cols = []
        a = m[:, list(pivots)]
        for j in free:
            sol = np.linalg.lstsq(a, -m[:, j], rcond=None)[0] if pivots else np.zeros(0)
            col = np.zeros(m.shape[1], dtype=complex)
            col[j] = 1.0
            for pi, s in zip(pivots, sol):
                col[pi] = s
            cols.append(col)
        basis = np.column_stack(cols) if cols else np.zeros((m.shape[1], 0), dtype=complex)
        return basis, pivots

    def _frame(self, w: complex) -> np.ndarray:
        return self.orbit.zeta(w) @ self.orbit.f0.level(self.orbit.weight)

    def _freeze(self, w_base: complex) -> None:
        frame = self._frame(w_base)
        self.pivot_table = {}
        self.column_choice = {}
        prev = np.zeros((frame.shape[1], 0), dtype=complex)
        for level in self.filtration.levels():
            basis, pivots = self._coefficient_kernel(level, frame)
            self.pivot_table[level] = pivots
            chosen = []
            acc = prev
            for j in range(basis.shape[1]):
                cand = np.column_stack([acc, basis[:, j]])
                svals = np.linalg.svd(cand, compute_uv=False)
                if cand.shape[1] <= cand.shape[0] and svals[-1] > SVD_TOL:
                    chosen.append(j)
                    acc = cand
            self.column_choice[level] = tuple(chosen)
            prev = acc

    def log_det(self, w: complex, kernel_at: complex | None = None) -> float:
        """Sum over levels of log|det Q(N^q u_i, conj u_j)| on the level frames
        at w, with the coefficient kernel solved on the frame at kernel_at (at
        w itself by default)."""
        frame = self._frame(w)
        solve_on = frame if kernel_at is None else self._frame(kernel_at)
        n = self.orbit.cone.weight
        total = 0.0
        for level in self.filtration.levels():
            chosen = self.column_choice[level]
            if not chosen:
                continue
            basis, _ = self._coefficient_kernel(level, solve_on, self.pivot_table[level])
            reps = frame @ basis[:, list(chosen)]
            q_pow = level - n
            if q_pow < 0:
                raise NotPolarized(
                    "top Hodge piece meets a weight level below the center"
                )
            mat = np.linalg.matrix_power(self.n_float.astype(complex), q_pow) if q_pow else None
            paired = (mat @ reps) if mat is not None else reps
            block = paired.T @ self.orbit.form @ reps.conj()
            det = np.linalg.det(block)
            if abs(det) <= 0.0:
                raise NotPolarized(f"degenerate graded pairing at level {level}")
            total += float(np.log(abs(det)))
        return total


# ---------------------------------------------------------------------------
# The Hodge decomposition by span intersections, and the augmented
# determinant through its Weil operator.


def flag_at(orbit: OrbitSpec, t, w) -> FlagPoint:
    """The flag g(t, w) F0 of the orbit at (t, w)."""
    g = orbit.group_element(t, w)
    return FlagPoint(orbit.weight, {p: g @ m for p, m in orbit.f0.levels.items()})


def _intersect_spans(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning span(a) cap span(b): the images a x of the
    kernel vectors (x, y) of [a | -b], both by the one column-pivoting cut."""
    m = np.hstack([a, -b])
    null = _coefficient_kernel(m, _independent_columns(m)[0])
    return _independent_columns(a @ null[: a.shape[1]])[1]


def hodge_decomposition(flag: FlagPoint, form: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Hodge decomposition H^{p,q} = F^p cap conj(F^{n-p}) with positivity.

    Raises NotPolarized when the pieces fail to fill the space or the Hermitian
    form i^{p-q} Q(u, conj v) is not positive definite on some piece.
    """
    n = flag.weight
    dim = form.shape[0]
    pieces = {
        (p, n - p): _intersect_spans(flag.level(p), flag.level(n - p).conj())
        for p in range(n, -1, -1)
    }
    combined = np.hstack(list(pieces.values()))
    if combined.shape[1] != dim:
        raise NotPolarized(f"Hodge pieces span dimension {combined.shape[1]} of {dim}")
    smin = np.linalg.svd(combined, compute_uv=False)[-1]
    if smin < ALGEBRAIC_TOL:
        raise NotPolarized(
            f"Hodge pieces are not in direct sum: smallest singular value "
            f"{smin:.3g} < tolerance {ALGEBRAIC_TOL:.3g}"
        )
    for (p, q), basis in pieces.items():
        if basis.shape[1] == 0:
            continue
        gram = (1j) ** (p - q) * (basis.T @ form @ basis.conj())
        herm = 0.5 * (gram + gram.conj().T)
        deviation = np.linalg.norm(gram - herm)
        tol = ALGEBRAIC_TOL * max(1.0, np.linalg.norm(gram))
        if deviation > tol:
            raise NotPolarized(
                f"H^{p},{q} pairing is not Hermitian: deviation {deviation:.3g} "
                f"> tolerance {tol:.3g}"
            )
        smallest = np.linalg.eigvalsh(herm).min()
        if smallest <= ALGEBRAIC_TOL:
            raise NotPolarized(
                f"H^{p},{q} pairing is not positive definite: smallest eigenvalue "
                f"{smallest:.3g} <= tolerance {ALGEBRAIC_TOL:.3g}"
            )
    return pieces


def weil_augmented_log_det(orbit: OrbitSpec, t, w) -> float:
    """The augmented determinant with the Hodge metric Q(C u, conj v) of the
    Weil operator C = i^{p-q} on H^{p,q}, built from the Hodge decomposition
    at the point and an inverse of its basis: the weighted sum of
    differences of consecutive full Gram log-determinants on every level."""
    flag = flag_at(orbit, t, w)
    pieces = hodge_decomposition(flag, orbit.form)
    n = orbit.weight
    basis = np.hstack(list(pieces.values()))
    weights = np.concatenate([np.full(b.shape[1], (1j) ** (p - q)) for (p, q), b in pieces.items()])
    weil = basis @ np.diag(weights) @ np.linalg.inv(basis)

    def gram_log_det(frame: np.ndarray) -> float:
        gram = (weil @ frame).T @ orbit.form @ frame.conj()
        return _hermitian_log_det(gram, "Hodge-metric Gram matrix")

    def level_frame(p: int) -> np.ndarray:
        if p > n:
            return np.zeros((orbit.form.shape[0], 0), dtype=complex)
        return flag.level(p)

    total = 0.0
    for p, n_p in augmented_weights(n):
        total += n_p * (
            gram_log_det(level_frame(n - p)) - gram_log_det(level_frame(n - p + 1))
        )
    return total


def svd_intersect_spans(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning span(a) cap span(b): the kernel of [a | -b]
    from an SVD cut at SVD_TOL * max(1, largest singular value), then QR.
    The QR gives a basis only when a has independent columns."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    _, s, vh = np.linalg.svd(np.hstack([a, -b]))
    nrank = int(np.sum(s > SVD_TOL * max(1.0, s[0] if s.size else 0.0)))
    basis = a @ vh[nrank:].conj().T[: a.shape[1]]
    return np.linalg.qr(basis)[0] if basis.shape[1] else basis


def quadrature_residue_integral(coefficients: dict[tuple[int, int], complex], t: complex) -> float:
    """The residue integral of |g(x, t/x)|^2 over x = exp(s + i theta),
    s in [log|t|, 0], by 24 Gauss-Legendre nodes per unit of s times a
    trapezoid rule in theta on max(64, 4 deg + 8) angles.  The trapezoid rule
    is exact while 2 deg stays below the angle count, and the Gauss rule
    loses accuracy as the degree grows (x^200 at t = 0.5 reads 0.19% low), so
    it is a reference at low degree only."""
    t = complex(t)
    s_lo = math.log(abs(t))
    deg = max((max(i, j) for i, j in coefficients), default=0)
    n_theta = max(64, 4 * deg + 8)
    thetas = np.linspace(0.0, 2 * math.pi, n_theta, endpoint=False)
    npanels = max(1, int(np.ceil(-s_lo)))
    glx, glw = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(s_lo, 0.0, npanels + 1)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = np.exp((mid + half * glx)[:, None] + 1j * thetas[None, :])
        y = t / x
        g = sum((c * x**i * y**j for (i, j), c in coefficients.items()), np.zeros_like(x))
        vals = (np.abs(g) ** 2).sum(axis=1) * (2 * math.pi / n_theta)
        total += float(np.sum(vals * half * glw))
    return total


def loop_polarization_form(cone: NilpotentCone, index, a: int) -> RationalMatrix:
    """Gram matrix of Q(u, N_I^a v) on the primitive representatives."""
    prim = primitive_subspace(cone, index, a)
    n_pow = cone.n_of(index_set(index)).power(a)
    rows = []
    for u in prim.representatives.entries:
        row = []
        for v in prim.representatives.entries:
            nv = n_pow.mul_vec(v)
            row.append(dot(u, cone.form.mul_vec(nv)))
        rows.append(row)
    return RationalMatrix.from_rows(rows, cols=prim.representatives.rows)


# ---------------------------------------------------------------------------
# The Siegel escape probe in numpy.


def numpy_boundedness_probe(
    cone: ConeSpec, family, parabolic: str, grid=DEFAULT_GRID
) -> ProbeReport:
    """siegel.boundedness_probe on numpy: np.exp of the minimal parabolic's
    parameters, |B_i|^4 as row products of the maximal parabolic's Cholesky
    factor held as a numpy array, and slopes by np.polyfit against np.log of
    the grid.  Valid inputs only: it checks no domain."""
    grid = tuple(grid)
    xs = np.log(np.asarray(grid, dtype=float))
    monitored: dict[str, list[float]] = {}
    for t_val in grid:
        y = family(t_val)
        if parabolic == "minimal":
            sol = solve_minimal(cone, y)
            vals = {"exp_2(a-d)": np.exp(2 * (sol.a - sol.d)), "exp_2d": np.exp(2 * sol.d)}
        else:
            r, p, q = cone.sums(y)
            gram = np.array([[q, r], [r, p]]) / np.sqrt(p * q - r * r)
            l11 = np.sqrt(gram[0, 0])
            l21 = gram[1, 0] / l11
            b = np.array([[l11, 0.0], [l21, np.sqrt(gram[1, 1] - l21 * l21)]])
            vals = {"norm_B1_4": float(b[0] @ b[0]) ** 2, "norm_B2_4": float(b[1] @ b[1]) ** 2}
        for k, v in vals.items():
            monitored.setdefault(k, []).append(float(v))
    slopes = {
        k: float(np.polyfit(xs, np.log(np.asarray(v)), 1)[0]) for k, v in monitored.items()
    }
    if parabolic == "minimal":
        escapes = any(s < -SLOPE_THRESHOLD for s in slopes.values())
    else:
        escapes = any(s > SLOPE_THRESHOLD for s in slopes.values())
    return ProbeReport(
        "escapes-every-Siegel-set" if escapes else "contained",
        parabolic,
        {k: tuple(v) for k, v in monitored.items()},
        slopes,
        tuple(float(t) for t in grid),
    )


def orbit_point(cone: ConeSpec, y) -> np.ndarray:
    """The orbit's 2-plane at purely imaginary times, as 4 x 2 columns."""
    if any(float(v) <= 0 for v in y):
        raise ValueError("parameters must be positive")
    r, p, q = cone.sums(y)
    col1 = np.array([-1j * r, -1j * p, 1.0, 0.0])
    col2 = np.array([-1j * q, -1j * r, 0.0, 1.0])
    return np.column_stack([col1, col2])


def solution_point(sol: SiegelSolution) -> np.ndarray:
    """The orbit point that a solution's parameters place, as 4 x 2 columns."""
    if sol.parabolic == "minimal":
        e2d, e2a = np.exp(2 * sol.d), np.exp(2 * sol.a)
        col1 = np.array([-1j * sol.beta * e2d, -1j * e2d, 1.0, 0.0])
        col2 = np.array([-1j * (e2a + sol.beta**2 * e2d), -1j * sol.beta * e2d, 0.0, 1.0])
        return np.column_stack([col1, col2])
    e2a = np.exp(2 * sol.a)
    b1, b2 = np.asarray(sol.b)
    col1 = np.array([-1j * e2a * (b1 @ b2), -1j * e2a * (b2 @ b2), 1.0, 0.0])
    col2 = np.array([-1j * e2a * (b1 @ b1), -1j * e2a * (b1 @ b2), 0.0, 1.0])
    return np.column_stack([col1, col2])


# ---------------------------------------------------------------------------
# The charts path row by row.


def row_scan_witnesses(atlas) -> dict:
    """separation_check's witnesses by a scan over every atlas row, with the
    support sets rebuilt per row: the first row whose chart support K_c
    contains exactly one of K and K'."""
    rows = atlas.exponents
    supports = [chart.support for chart in atlas.charts for _ in chart.exponents]
    witnesses = {}
    ks = [chart.support for chart in atlas.charts]
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            k1, k2 = ks[a], ks[b]
            found = None
            for idx in range(len(rows)):
                kc = supports[idx]
                vanishes_on_1 = not set(k1) <= set(kc)
                vanishes_on_2 = not set(k2) <= set(kc)
                if vanishes_on_1 != vanishes_on_2:
                    found = idx
                    break
            if found is None:
                raise SeparationFailure(f"strata {k1} and {k2} are not separated")
            witnesses[(k1, k2)] = found
    return witnesses


def per_index_set_relation_table(atlas) -> list[dict]:
    """The charts report's relation table with every index set's row encoded
    anew from its stratum's entry, and C's entries passed through int."""
    km = atlas.k_map
    table = []
    for index in sorted(km.table, key=lambda t: (len(t), t)):
        entry = atlas.relation_table.get(km.table[index])
        table.append(
            {
                "I": list(index),
                "K": list(km.table[index]),
                "S_basis": matrix_to_json(entry.space.basis),
                "C": [[int(x) for x in row] for row in entry.basis.entries],
                "certificates": {
                    "v": [str(x) for x in entry.witness],
                    "v_tilde": [str(x) for x in entry.cowitness],
                },
            }
        )
    return table


# ---------------------------------------------------------------------------
# JSON writers for test inputs.


def cone_to_json(cone: NilpotentCone) -> dict:
    return {
        "dim": cone.dim,
        "weight": cone.weight,
        "symmetry": "symmetric" if cone.weight % 2 == 0 else "alternating",
        "form": matrix_to_json(cone.form),
        "generators": [matrix_to_json(n) for n in cone.generators],
    }


def complex_to_json(x: complex) -> list[float]:
    x = complex(x)
    return [x.real, x.imag]

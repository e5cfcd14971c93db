"""Independent brute-force oracles used by the test-suite.

These deliberately avoid the code paths they check: feasibility questions go
through Fourier-Motzkin elimination instead of the simplex, weight
filtrations are verified against the two defining properties directly, and
relation spaces are recomputed from W(ad N_I) on the isometry algebra.  The
relation table is rebuilt index set by index set, without the memo on W(N_I).
"""

from __future__ import annotations

from fractions import Fraction

from hodgecharts.cones import farkas_split, relation_space
from hodgecharts.filtrations import NilpotentCone, adjoint_filtration, index_set
from hodgecharts.linalg import RationalMatrix, Subspace, kernel, solve

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
        pushed = Subspace.from_vectors(dim, image_rows).sum(lo2)
        if pushed.dim - lo2.dim != hi2.dim - lo2.dim:
            return False  # induced map is not surjective
    return True


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
# Relation spaces from the adjoint filtration.


def adjoint_relation_space(cone: NilpotentCone, index) -> Subspace:
    """S_I = {a : sum a_i N_i in W_{-1}(ad N_I)} for nonempty I, read off the
    weight filtration of ad N_I on the isometry algebra in its own basis."""
    adj = adjoint_filtration(cone, index_set(index))
    ctx = adj.context
    coord_cols = [ctx.to_coords(n) for n in cone.generators]
    assert all(c is not None for c in coord_cols), "generator outside the isometry algebra"
    comp = adj.filtration.step(-1).orthogonal_complement()
    m = RationalMatrix.from_rows(tuple(zip(*coord_cols)), cols=cone.k)
    return kernel(comp.basis @ m) if comp.dim else Subspace.full(cone.k)


def unkeyed_k_index_map(cone: NilpotentCone):
    """(table, image, strata, splits) of k_index_map, with relation_space and
    farkas_split computed afresh for every index set; splits covers every I."""
    splits = {}
    for mask in range(1 << cone.k):
        index = tuple(i + 1 for i in range(cone.k) if mask >> i & 1)
        s = relation_space(cone, index)
        splits[index] = (s, farkas_split(s))
    table = {index: split.support for index, (_, split) in splits.items()}
    image = tuple(sorted(set(table.values()), key=_by_size))
    strata = {k: tuple(sorted((i for i in table if table[i] == k), key=_by_size)) for k in image}
    return table, image, strata, splits


def _by_size(index) -> tuple:
    return len(index), index

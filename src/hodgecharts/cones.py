"""Relation spaces of a nilpotent cone, their support splits, and positive
integer bases.

For an index set I the relation space S_I collects the coefficient vectors a
with sum a_i N_i in W_{-1}(ad N_I).  On gl(V) the weight filtration of ad N is
the one induced from W = W(N) on V, and it restricts to the isometry algebra
because an sl2-triple through N can be chosen there (Cattani-Kaplan-Schmid,
Degeneration of Hodge structures, Ann. Math. 123, 1986).  So S_I is computed
on V alone: a lies in S_I exactly when sum a_i N_i maps every W_l(N_I) into
W_{l-1}(N_I), which hard Lefschetz reduces to the levels l >= center.

Each subspace S of Q^k determines a unique support subset K carrying
complementary nonnegative witnesses in S and S^perp; the witnesses are
produced by one exact Farkas alternative per coordinate, the k of them
extending one integer tableau of S^perp.  All feasibility questions are
settled by an exact simplex with Bland's rule, pivoting over the integers, so
there are no tolerance parameters anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from ._record import Record
from .errors import ConeTooLarge, InvalidInput, InvalidSplit
from .filtrations import (
    IndexSet,
    NilpotentCone,
    WeightFiltration,
    index_set,
    weight_filtration,
)
from .linalg import (
    Rational, RationalMatrix, Subspace, _exact, _primitive_integer, kernel,
    lattice_basis, vec,
)

MAX_GENERATORS = 12


def relation_space(cone: NilpotentCone, index) -> Subspace:
    """S_I = {a in Q^k : sum a_i N_i lies in W_{-1}(ad N_I)}.

    For I empty this is the space of linear relations among the generators.
    Otherwise a lies in S_I exactly when sum a_i N_i . W_l <= W_{l-1} for
    every level l of W = W(N_I) on V, so S_I depends on I only through W.
    """
    index = index_set(index)
    if not index:
        flat_cols = [n.flatten() for n in cone.generators]
        rows = tuple(zip(*flat_cols))
        return kernel(RationalMatrix.from_rows(rows, cols=cone.k))
    return _relation_space_of(cone, weight_filtration(cone.n_of(index), cone.weight))


def _relation_space_of(cone: NilpotentCone, w: WeightFiltration) -> Subspace:
    """S_I for nonempty I, from W = W(N_I) alone.

    The criterion of relation_space holds because W(ad N) is induced from
    W(N) (Cattani-Kaplan-Schmid).  X = sum a_i N_i commutes with N_I, so it
    preserves W and lies in W_{-1}(ad N_I) exactly when Gr X = 0 on each
    Gr_l: when the residue of X v modulo W_{l-1}, linear in a, vanishes for the
    lifts v of Gr_l (WeightFiltration.graded_lifts).  N_I^j maps Gr_{c+j}
    onto Gr_{c-j} (hard Lefschetz, c the center) and commutes with Gr X, so
    only the levels l >= c give conditions.
    """
    rows = []
    for level in range(max(w.low, w.center), w.high + 1):
        lifts, _ = w.graded_lifts(level)
        res = w.step(level - 1).residues([n.mul_vec(v) for v in lifts for n in cone.generators])
        for at in range(0, len(res), cone.k):  # one lift's k images
            rows.extend(row for row in zip(*res[at : at + cone.k]) if any(row))
    return kernel(RationalMatrix(len(rows), cone.k, tuple(rows)))


# ---------------------------------------------------------------------------
# Exact linear programming.


class FarkasAlternative(Record):
    """Either a nonnegative solution x of Ax = b, or a certificate y with
    A^T y >= 0 and y.b < 0.  Exactly one of the two is set."""

    solution: tuple[Rational, ...] | None
    certificate: tuple[Rational, ...] | None


def _integer_tableau(rows, n: int, m: int) -> tuple[list[list[int]], int]:
    """The integer tableau den [A | I | b] of the rows [A | b], A with n
    columns and I with m >= len(rows) columns, the last m - len(rows) of them
    left to rows added later.

    Integer pivoting (Bareiss; the lrs simplex): row i scaled by the lcm L_i
    of its denominators makes the artificial basis diag(L_i), of determinant
    den = prod L_i, and den times each row is integral; scaling leaves the
    tableau B^-1 M as it is.
    """
    den = prod(lcm(*(x.denominator for x in r)) for r in rows)
    tab = []
    for i, r in enumerate(rows):
        ints = [x.numerator * (den // x.denominator) for x in r]
        tab.append(ints[:n] + [den * (j == i) for j in range(m)] + ints[n:])
    return tab, den


def _bland(tab: list[list[int]], den: int, n: int):
    """Phase one on the integer tableau den [A | I | b], b >= 0, from its
    artificial basis, by Bland's rule, so the iteration terminates.  The
    tableau and the reduced-cost row stay integers over den, the determinant
    of the current basis, so every update divides exactly.  The rows of tab
    are replaced, never changed in place.  Returns (value, x, y): value is
    the artificial optimum (0 iff feasible), x a feasible point when value =
    0, and y the simplex multipliers of this system otherwise."""
    m = len(tab)
    basis = [n + i for i in range(m)]
    # Reduced cost row for min(sum of artificials); artificial columns start at 0.
    obj = [-sum(r[j] for r in tab) for j in range(n)] + [0] * m
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                # tab[i][-1] / tab[i][enter] against the best ratio, cross-multiplied.
                if best is None:
                    best = i
                    continue
                lhs = tab[i][-1] * tab[best][enter]
                rhs = tab[best][-1] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:  # pragma: no cover - phase one is bounded
            raise AssertionError("phase-one problem cannot be unbounded")
        pivot_row = tab[best]
        piv = pivot_row[enter]
        for i in range(m):
            if i != best:
                f = tab[i][enter]
                tab[i] = [(x * piv - f * y) // den for x, y in zip(tab[i], pivot_row)]
        f = obj[enter]
        obj = [(x * piv - f * y) // den for x, y in zip(obj, pivot_row)]
        den = piv
        basis[best] = enter

    value = _exact(Fraction(sum(tab[i][-1] for i in range(m) if basis[i] >= n), den))
    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = _exact(Fraction(tab[i][-1], den))
    # Multipliers: y_i = 1 - reduced cost of the i-th artificial column.
    y = [_exact(Fraction(den - obj[n + i], den)) for i in range(m)]
    return value, tuple(x), tuple(y)


def farkas_alternative(a: RationalMatrix, b) -> FarkasAlternative:
    """Exact Farkas alternative for Ax = b, x >= 0, by phase one on the rows
    [A | b] with b_i < 0 negated; the multipliers of the rows read back for
    Ax = b give the certificate."""
    b = vec(b)
    if len(b) != a.rows:
        raise InvalidInput("right-hand side has wrong length")
    rows = [(*r, bi) if bi >= 0 else tuple(-x for x in (*r, bi)) for r, bi in zip(a.entries, b)]
    value, x, y = _bland(*_integer_tableau(rows, a.cols, a.rows), a.cols)
    if value == 0:
        return FarkasAlternative(solution=x, certificate=None)
    return FarkasAlternative(
        solution=None, certificate=tuple(-yi if bi >= 0 else yi for yi, bi in zip(y, b))
    )


class FarkasSplit(Record):
    """The unique support subset K of Lemma-2.8 type for a subspace S."""

    support: IndexSet  # 1-based positions where the S-side witness is positive
    witness: tuple[Rational, ...]  # v in S, nonnegative, support exactly K
    cowitness: tuple[Rational, ...]  # v~ in S^perp, nonnegative, support K^c


def farkas_split(s: Subspace) -> FarkasSplit:
    """The split of S, from one Farkas alternative per coordinate i: the LP
    {x >= 0 : S^perp x = 0, x_i = 1} is feasible exactly when i lies in K.
    Its tableau is farkas_alternative's: the rows of S^perp are scaled to
    integers once for all k LPs, and each LP adds its row e_i."""
    k = s.ambient_dim
    mu = s.orthogonal_complement().basis
    ns = mu.rows
    # den [S^perp | I | 0], the identity's last column left to e_i
    base, den = _integer_tableau([(*r, 0) for r in mu.entries], k, ns + 1)
    support: list[int] = []
    v = [0] * k
    v_tilde = [0] * k
    for i in range(k):
        e_row = [0] * (k + ns + 2)
        e_row[i] = e_row[-2] = e_row[-1] = den
        value, x, y = _bland(base + [e_row], den, k)
        if value == 0:
            support.append(i + 1)
            v = [_exact(a + c) for a, c in zip(v, x)]
        else:  # the certificate is -y, and its part on S^perp is -y[:ns] . mu
            for coef, row in zip(y, mu.entries):
                if coef:
                    v_tilde = [_exact(a - coef * c) for a, c in zip(v_tilde, row)]
    return FarkasSplit(tuple(support), tuple(v), tuple(v_tilde))


def positive_basis(s: Subspace, split: FarkasSplit) -> RationalMatrix:
    """Integer basis of S^perp that vanishes on K and is positive elsewhere,
    for the support K of split = farkas_split(s).

    Rows are a Q-basis of S^perp drawn from the saturated lattice: the
    Hermite-normal-form lattice basis, shifted by the minimal nonnegative
    multiple of the strictly-positive certificate (the integerized cowitness),
    which replaces the first lattice row it depends on.

    s is read as S_K: S^perp vanishes at i exactly when e_i lies in S, that
    is when N_i lies in W_{-1}(ad N_K).  A cone that is not strictly convex
    can fail this; the InvalidSplit error names K and the first such i in K.
    """
    support = split.support
    perp = s.orthogonal_complement()
    k = s.ambient_dim
    off = [i for i in range(k) if (i + 1) not in support]
    for i in support:
        if any(row[i - 1] for row in perp.basis.entries):
            raise InvalidSplit(
                f"stratum K={support}: N_{i} is not in W_-1(ad N_K), "
                "so S_K^perp does not vanish on K"
            )
    h = lattice_basis(perp)
    if h.rows == 0:
        return RationalMatrix(0, k, ())
    cert = _primitive_integer(split.cowitness)
    # cert = sum_j gamma_j h_j, and h_0 is the only HNF row that is nonzero
    # at its pivot, which lies off K, where cert is positive: gamma_0 != 0,
    # so cert replaces h_0.
    rows = [cert]
    for hrow in h.entries[1:]:
        need = max(
            (Fraction(1 - hrow[i], cert[i]) for i in off if hrow[i] < 1),
            default=0,
        )
        shift = max(0, -(-need.numerator // need.denominator))  # ceil
        rows.append([int(x) + shift * c for x, c in zip(hrow, cert)])
    return RationalMatrix.from_rows(rows, cols=k)


class KIndexMap(Record):
    """The full table I -> K_I and its image.

    splits holds S_K and its Farkas split for every K in the image, so that
    the atlas reuses them instead of solving the same LPs again.
    """

    table: dict[IndexSet, IndexSet]
    image: tuple[IndexSet, ...]
    splits: dict[IndexSet, tuple[Subspace, FarkasSplit]]


def k_index_map(cone: NilpotentCone) -> KIndexMap:
    """The table I -> K_I over all 2^k index sets.

    S_I depends on a nonempty I only through W(N_I), and many index sets share
    one filtration, so S_I and its Farkas split are computed once per distinct
    W (WeightFiltration equality compares the canonical RREF step bases), and
    W itself once per distinct matrix N_I.  N_I is built in mask order as
    N_{I minus max I} + N_{max I}.
    """
    if cone.k > MAX_GENERATORS:
        raise ConeTooLarge(f"{cone.k} generators exceed the enumeration cap {MAX_GENERATORS}")
    s = relation_space(cone, ())
    results = {(): (s, farkas_split(s))}
    sums = [RationalMatrix.zeros(cone.dim, cone.dim)]  # N_I by mask
    by_filtration: dict[WeightFiltration, tuple[Subspace, FarkasSplit]] = {}
    by_matrix: dict[RationalMatrix, tuple[Subspace, FarkasSplit]] = {}
    for mask in range(1, 1 << cone.k):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        n = sums[rest] + cone.generators[top]
        sums.append(n)
        known = by_matrix.get(n)
        if known is None:
            w = weight_filtration(n, cone.weight)
            known = by_filtration.get(w)
            if known is None:
                s = _relation_space_of(cone, w)
                known = by_filtration[w] = (s, farkas_split(s))
            by_matrix[n] = known
        results[tuple(i + 1 for i in range(cone.k) if mask >> i & 1)] = known
    table: dict[IndexSet, IndexSet] = {
        index: split.support for index, (_, split) in results.items()
    }
    image = tuple(sorted(set(table.values()), key=lambda t: (len(t), t)))
    return KIndexMap(table, image, {k: results[k] for k in image})

"""Relation spaces of a nilpotent cone, their support splits, and positive
integer bases.

For an index set I the relation space S_I collects the coefficient vectors a
with sum a_i N_i in W_{-1}(ad N_I).  On gl(V) the weight filtration of ad N is
the one induced from W = W(N) on V, and it restricts to the isometry algebra
because an sl2-triple through N can be chosen there (Cattani-Kaplan-Schmid,
Degeneration of Hodge structures, Ann. Math. 123, 1986).  So S_I is computed
on V alone: a lies in S_I exactly when sum a_i N_i maps every W_l(N_I) into
W_{l-1}(N_I).

Each subspace S of Q^k determines a unique support subset K carrying
complementary nonnegative witnesses in S and S^perp; the witnesses are
produced by one exact Farkas alternative per coordinate.  All feasibility
questions are settled by an exact simplex with Bland's rule, pivoting over the
integers, so there are no tolerance parameters anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from .errors import ConeTooLarge, InvalidSplit
from .filtrations import (
    IndexSet,
    NilpotentCone,
    WeightFiltration,
    index_set,
    weight_filtration,
)
from .linalg import Q, RationalMatrix, Subspace, _kernel_rows, _primitive_integer, dot, kernel, vec

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
    W(N) (Cattani-Kaplan-Schmid).  Each w in a basis of W_l modulo W_{l-1}
    and each basis row p of W_{l-1}^perp give one linear condition
    sum a_i p.(N_i w) = 0.
    """
    rows = []
    perp_below = RationalMatrix.identity(cone.dim).entries  # W_{low-1} = 0
    pivots_below: set[int] = set()
    for level in w.levels():
        step = w.step(level)
        pivots = {_pivot(v) for v in step.basis.entries}
        # Pivots of W_{l-1} are pivots of W_l, and the rows of W_l with the
        # other pivots span W_l modulo W_{l-1}; the rows of W_{l-1} already
        # met the stronger condition one level down.
        for v in step.basis.entries:
            if _pivot(v) in pivots_below:
                continue
            images = [n.mul_vec(v) for n in cone.generators]
            for p in perp_below:
                row = tuple(dot(p, y) for y in images)
                if any(row):
                    rows.append(row)
        # Any basis of W_l^perp gives conditions with the same kernel.
        perp_below = _kernel_rows(step.basis)[0]
        pivots_below = pivots
    return kernel(RationalMatrix.from_rows(rows, cols=cone.k))


def _pivot(row) -> int:
    return next(i for i, x in enumerate(row) if x)


# ---------------------------------------------------------------------------
# Exact linear programming.


@dataclass(frozen=True)
class FarkasAlternative:
    """Either a nonnegative solution x of Ax = b, or a certificate y with
    A^T y >= 0 and y.b < 0.  Exactly one of the two is set."""

    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None


def _phase_one(a_rows: list[list[Fraction]], b: list[Fraction], n: int):
    """Exact phase-one simplex for {x >= 0 : Ax = b}.

    Returns (value, x, y): value is the artificial optimum (0 iff feasible),
    x a feasible point when value = 0, and y the simplex multipliers of the
    sign-normalized system otherwise.  Bland's rule throughout, so the
    iteration terminates.

    Integer pivoting (Bareiss; the lrs simplex): each row, artificial entry
    included, is scaled to integers, which leaves the tableau B^-1 M as it is.
    The tableau and the reduced-cost row are kept as integers over den, the
    determinant of the current basis, so every update divides exactly.
    """
    m = len(b)
    rows = [r + [bi] if bi >= 0 else [-x for x in r] + [-bi] for r, bi in zip(a_rows, b)]
    # Row i scaled by the lcm L_i of its denominators makes the artificial
    # basis diag(L_i), of determinant den; den times each row is integral.
    den = prod(lcm(*(x.denominator for x in r)) for r in rows)
    ints = [[x.numerator * (den // x.denominator) for x in r] for r in rows]
    tab = [r[:n] + [den if j == i else 0 for j in range(m)] + r[n:] for i, r in enumerate(ints)]
    basis = [n + i for i in range(m)]
    # Reduced cost row for min(sum of artificials); artificial columns start at 0.
    obj = [-sum(tab[i][j] for i in range(m)) for j in range(n)] + [0] * m

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

    value = Fraction(sum(tab[i][-1] for i in range(m) if basis[i] >= n), den)
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], den)
    # Multipliers for the normalized system: y_i = 1 - reduced cost of the
    # i-th artificial column; undo the sign normalization afterwards.
    y = [Fraction(den - obj[n + i], den if b[i] >= 0 else -den) for i in range(m)]
    return value, tuple(x), tuple(y)


def farkas_alternative(a: RationalMatrix, b) -> FarkasAlternative:
    """Exact Farkas alternative for Ax = b, x >= 0."""
    b = list(vec(b))
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    value, x, y = _phase_one([list(r) for r in a.entries], b, a.cols)
    if value == 0:
        return FarkasAlternative(solution=x, certificate=None)
    return FarkasAlternative(solution=None, certificate=tuple(-yi for yi in y))


@dataclass(frozen=True)
class FarkasSplit:
    """The unique support subset K of Lemma-2.8 type for a subspace S."""

    support: IndexSet  # 1-based positions where the S-side witness is positive
    witness: tuple[Fraction, ...]  # v in S, nonnegative, support exactly K
    cowitness: tuple[Fraction, ...]  # v~ in S^perp, nonnegative, support K^c


def farkas_split(s: Subspace) -> FarkasSplit:
    k = s.ambient_dim
    mu = s.orthogonal_complement().basis
    ns = mu.rows
    b = [Q(0)] * ns + [Q(1)]
    support: list[int] = []
    v = [Q(0)] * k
    v_tilde = [Q(0)] * k
    for i in range(k):
        e_i = [Q(0)] * k
        e_i[i] = Q(1)
        a_i = RationalMatrix.from_rows(list(mu.entries) + [e_i], cols=k)
        res = farkas_alternative(a_i, b)
        if res.solution is not None:
            support.append(i + 1)
            v = [a + c for a, c in zip(v, res.solution)]
        else:
            y = res.certificate
            x_tilde = [Q(0)] * k
            for coef, row in zip(y[:ns], mu.entries):
                if coef:
                    x_tilde = [a + coef * c for a, c in zip(x_tilde, row)]
            v_tilde = [a + c for a, c in zip(v_tilde, x_tilde)]
    return FarkasSplit(tuple(support), tuple(v), tuple(v_tilde))


def positive_basis(s: Subspace, support) -> RationalMatrix:
    """Integer basis of S^perp that vanishes on K and is positive elsewhere.

    Rows are a Q-basis of S^perp drawn from the saturated lattice: the
    Hermite-normal-form lattice basis, shifted by the minimal nonnegative
    multiple of the strictly-positive certificate (the integerized cowitness),
    which replaces the first lattice row it depends on.
    """
    support = index_set(support)
    split = farkas_split(s)
    if support != split.support:
        raise InvalidSplit(f"support {support} does not match the split {split.support}")
    return _positive_basis(s, split)


def _positive_basis(s: Subspace, split: FarkasSplit) -> RationalMatrix:
    """positive_basis for the support of an already computed farkas_split(s)."""
    from .linalg import lattice_basis, solve

    support = split.support
    perp = s.orthogonal_complement()
    k = s.ambient_dim
    off = [i for i in range(k) if (i + 1) not in support]
    for row in perp.basis.entries:
        if any(row[i - 1] != 0 for i in support):
            raise InvalidSplit("S^perp does not vanish on the support positions")
    h = lattice_basis(perp)
    if h.rows == 0:
        return RationalMatrix(0, k, ())
    cert = _primitive_integer(split.cowitness)
    gamma = solve(h.transpose(), cert)
    j0 = next(j for j, g in enumerate(gamma) if g != 0)
    rows = [cert]
    for j, hrow in enumerate(h.entries):
        if j == j0:
            continue
        need = max(
            (Fraction(1 - hrow[i], cert[i]) for i in off if hrow[i] < 1),
            default=Q(0),
        )
        shift = max(0, -(-need.numerator // need.denominator))  # ceil
        rows.append([int(x) + shift * c for x, c in zip(hrow, cert)])
    return RationalMatrix.from_rows(rows, cols=k)


@dataclass(frozen=True)
class RelationData:
    """Everything the chart construction needs for one index set."""

    index: IndexSet
    space: Subspace
    support: IndexSet  # K_I
    basis: RationalMatrix  # positive integer basis of S_I^perp
    witness: tuple[Fraction, ...]
    cowitness: tuple[Fraction, ...]


def relation_data(cone: NilpotentCone, index) -> RelationData:
    index = index_set(index)
    s = relation_space(cone, index)
    return _relation_data(index, s, farkas_split(s))


def _relation_data(index: IndexSet, s: Subspace, split: FarkasSplit) -> RelationData:
    basis = _positive_basis(s, split)
    return RelationData(index, s, split.support, basis, split.witness, split.cowitness)


@dataclass(frozen=True)
class KIndexMap:
    """The full table I -> K_I, its image, and the stratum partition.

    splits holds S_K and its Farkas split for every K in the image, so that
    the atlas reuses them instead of solving the same LPs again.
    """

    table: dict[IndexSet, IndexSet]
    image: tuple[IndexSet, ...]
    strata: dict[IndexSet, tuple[IndexSet, ...]]
    splits: dict[IndexSet, tuple[Subspace, FarkasSplit]] = field(
        default_factory=dict, compare=False, repr=False
    )


def k_index_map(cone: NilpotentCone) -> KIndexMap:
    """The table I -> K_I over all 2^k index sets.

    S_I depends on a nonempty I only through W(N_I), and many index sets share
    one filtration, so S_I and its Farkas split are computed once per distinct
    W (WeightFiltration equality compares the canonical RREF step bases).
    N_I is built in mask order as N_{I minus max I} + N_{max I}.
    """
    if cone.k > MAX_GENERATORS:
        raise ConeTooLarge(f"{cone.k} generators exceed the enumeration cap {MAX_GENERATORS}")
    s = relation_space(cone, ())
    results = {(): (s, farkas_split(s))}
    sums = [RationalMatrix.zeros(cone.dim, cone.dim)]  # N_I by mask
    by_filtration: dict[WeightFiltration, tuple[Subspace, FarkasSplit]] = {}
    for mask in range(1, 1 << cone.k):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        n = sums[rest] + cone.generators[top]
        sums.append(n)
        w = weight_filtration(n, cone.weight)
        known = by_filtration.get(w)
        if known is None:
            s = _relation_space_of(cone, w)
            known = by_filtration[w] = (s, farkas_split(s))
        results[tuple(i + 1 for i in range(cone.k) if mask >> i & 1)] = known
    table: dict[IndexSet, IndexSet] = {
        index: split.support for index, (_, split) in results.items()
    }
    image = tuple(sorted(set(table.values()), key=lambda t: (len(t), t)))
    strata = {
        k: tuple(sorted((i for i in table if table[i] == k), key=lambda t: (len(t), t)))
        for k in image
    }
    return KIndexMap(table, image, strata, {k: results[k] for k in image})

"""Monodromy weight filtrations of commuting nilpotent isometry logarithms.

Conventions: every filtration is computed on the underlying space V and
centered at the weight n.  A nilpotent N acts by N . W_l <= W_{l-2}, and N^l
induces isomorphisms between the graded pieces at center+l and center-l;
these two properties determine the filtration uniquely.  W(N) is built in
the closed form W_{c+l} = sum over j >= max(0, -l) of N^j ker N^{l+2j+1},
read off the kernels of the powers of N by matrix products, with no
intersection; both sides are additive over N-stable direct sums, so the
form reduces to one Jordan block.  The filtration of ad N on the isometry
algebra (centered at 0) is never built: it is induced from W(N)
(Cattani-Kaplan-Schmid), so membership in it is read on V.
"""

from __future__ import annotations

from ._record import Record
from .errors import InvalidInput, NotFiltrationCompatible, NotNilpotent
from .linalg import Rational, RationalMatrix, Subspace, _row_space, kernel

IndexSet = tuple[int, ...]


def index_set(values) -> IndexSet:
    values = tuple(values)
    for v in values:
        if type(v) is not int:  # a bool, float or str is never truncated
            raise InvalidInput(f"index set entries must be ints, not {v!r}")
    return tuple(sorted(set(values)))


class WeightFiltration:
    """Increasing filtration of Q^n with finitely many jumps."""

    __slots__ = ("center", "ambient_dim", "low", "high", "steps")

    def __init__(self, center: int, ambient_dim: int, steps: dict[int, Subspace]):
        levels = sorted(steps)
        high = next(l for l in levels if steps[l].dim == ambient_dim)
        low = next((l for l in levels if steps[l].dim > 0), high)  # Q^0 has no such step
        self.center = center
        self.ambient_dim = ambient_dim
        self.low = low
        self.high = high
        self.steps = {l: steps[l] for l in range(low, high + 1)}

    def step(self, level: int) -> Subspace:
        if level < self.low:
            return Subspace.zero(self.ambient_dim)
        if level > self.high:
            return Subspace.full(self.ambient_dim)
        return self.steps[level]

    def levels(self) -> range:
        return range(self.low, self.high + 1)

    def graded_dim(self, level: int) -> int:
        return self.step(level).dim - self.step(level - 1).dim

    def graded_lifts(self, level: int) -> tuple[list[tuple[Rational, ...]], list[int]]:
        """Rows lifting a basis of Gr_l, and where their coordinates sit.

        The pivots of W_{l-1} are pivots of W_l, and the rows of W_l's
        canonical basis at the other pivots lift a basis of Gr_l.  A vector y
        of W_l reduced modulo W_{l-1} at that step's pivots is the sum of
        these rows weighted by its entries at their pivots, and those entries
        are y's residues modulo W_{l-1} (Subspace.residues) at the returned
        positions.  Nothing is eliminated.
        """
        below = set(self.step(level - 1).pivots)
        step = self.step(level)
        lifts, at = [], []
        for i, (row, p) in enumerate(zip(step.basis.entries, step.pivots)):
            if p not in below:
                at.append(p - i + len(lifts))  # i - len(lifts) pivots of W_{l-1} precede p
                lifts.append(row)
        return lifts, at

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightFiltration)
            and self.center == other.center
            and self.ambient_dim == other.ambient_dim
            and self.low == other.low
            and self.high == other.high
            and self.steps == other.steps
        )

    def __hash__(self) -> int:
        return hash((self.center, self.ambient_dim, self.low, self.high))

    def __repr__(self) -> str:
        dims = {l: self.steps[l].dim for l in self.levels()}
        return f"WeightFiltration(center={self.center}, dims={dims})"


def _powers(n: RationalMatrix) -> list[RationalMatrix]:
    """[I, N, ..., N^d] with N^d the first zero power; raises NotNilpotent if
    N^dim is not zero."""
    if n.rows != n.cols:
        raise InvalidInput("nilpotency of a non-square matrix")
    powers = [RationalMatrix.identity(n.rows), n] if n.rows else [n]  # on Q^0, N = I
    while not powers[-1].is_zero():
        if len(powers) > n.rows:
            raise NotNilpotent("matrix is not nilpotent")
        powers.append(powers[-1] @ n)
    return powers


def weight_filtration(n: RationalMatrix, center: int) -> WeightFiltration:
    """The unique filtration with N.W_l <= W_{l-2} and N^l : Gr_{c+l} ~ Gr_{c-l}.

    Built from the classical closed form: the step at c+l is the sum of the
    N^j ker N^{l+2j+1}, j >= max(0, -l), with ker N^r = V for r >= d, the
    nilpotency index.  Both sides are additive over N-stable direct sums, so
    one Jordan block e_1 <- ... <- e_m of weights c+2k-m-1 suffices: there
    N^j ker N^r is spanned by e_1 .. e_{min(r, m)-j}, and the largest of
    these stops at the last e_k with 2k-m-1 <= l.  One elimination of each
    N^j, 0 < j < d, gives the canonical basis of ker N^j <= ker N^r (j < r),
    and N^j maps the rows of ker N^r at the pivots ker N^j lacks onto a
    basis of N^j ker N^r.  For r >= d these rows are unit vectors, whose
    images are columns of N^j spanning im N^j, which holds every later
    summand.  So each step is one elimination and no intersection; the step
    at c+d-2 is ker N^{d-1}, which holds im N since N^d = 0.
    """
    powers = _powers(n)
    d = len(powers) - 1
    dim = n.rows
    if d <= 1:  # N = 0, or the zero-dimensional space
        return WeightFiltration(center, dim, {center: Subspace.full(dim)})
    kernels = {j: kernel(powers[j]) for j in range(1, d)}
    # W_{c+d-1} holds ker N^d, and W_{c+d-2} is ker N^{d-1}, which holds im N.
    steps: dict[int, Subspace] = {
        center + d - 1: Subspace.full(dim),
        center + d - 2: kernels[d - 1],
    }
    for l in range(-(d - 1), d - 2):
        rows = []
        for j in range(max(0, -l), d):
            r = l + 2 * j + 1
            if j == 0:
                rows.extend(kernels[r].basis.entries)
                continue
            known = set(kernels[j].pivots)
            if r >= d:  # im N^j, which holds N^i ker N^{l+2i+1} for i > j
                rows.extend(powers[j].col(p) for p in range(dim) if p not in known)
                break
            ker = kernels[r]
            rows.extend(
                powers[j].mul_vec(row)
                for row, p in zip(ker.basis.entries, ker.pivots)
                if p not in known
            )
        steps[center + l] = _row_space(RationalMatrix(len(rows), dim, tuple(rows)))
    return WeightFiltration(center, dim, steps)


class NilpotentCone:
    """Commuting nilpotent infinitesimal isometries N_1..N_k of (V, Q)."""

    def __init__(self, dim: int, weight: int, form: RationalMatrix, generators):
        generators = tuple(generators)
        if form.rows != dim or form.cols != dim:
            raise InvalidInput("form must be dim x dim")
        sign = 1 if weight % 2 == 0 else -1
        if form.transpose() != form.scale(sign):
            kind = "symmetric" if weight % 2 == 0 else "alternating"
            raise InvalidInput(f"form must be {kind} for weight {weight}")
        for i, n in enumerate(generators):
            if n.rows != dim or n.cols != dim:
                raise InvalidInput(f"generator {i + 1} has wrong shape")
            if n.is_zero():
                raise InvalidInput(f"generator {i + 1} is zero")
            _powers(n)  # raises NotNilpotent
            qn = form @ n  # N^T Q + Q N = 0 reads (QN)^T = -sign QN, as Q^T = sign Q
            if qn.transpose() != qn.scale(-sign):
                raise InvalidInput(f"generator {i + 1} does not preserve the form")
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                a, b = generators[i], generators[j]
                if a @ b != b @ a:
                    raise InvalidInput(f"generators {i + 1} and {j + 1} do not commute")
        self.dim = dim
        self.weight = weight
        self.form = form
        self.generators = generators
        self.k = len(generators)

    def n_of(self, index: IndexSet) -> RationalMatrix:
        """N_I = sum of the generators named by the 1-based index set."""
        out = RationalMatrix.zeros(self.dim, self.dim)
        for i in index:
            if not 1 <= i <= self.k:
                raise InvalidInput(f"index {i} out of range 1..{self.k}")
            out = out + self.generators[i - 1]
        return out


class AdjointFiltration(Record):
    """W(ad N_I) on the isometry algebra, held as W(N_I) on V.

    W(ad N) is induced from W(N) (Cattani-Kaplan-Schmid), so an isometry X
    lies in W_l(ad N_I) exactly when X . W_j <= W_{j+l} for every j.
    """

    index: IndexSet
    filtration: WeightFiltration  # W(N_I) on V, centered at the weight
    form: RationalMatrix

    def contains(self, x: RationalMatrix, level: int) -> bool:
        q, w = self.form, self.filtration
        if (x.rows, x.cols) != (q.rows, q.cols) or not (x.transpose() @ q + q @ x).is_zero():
            raise InvalidInput("matrix is not in the isometry algebra")
        return _maps_into(x, w, level)


def adjoint_filtration(cone: NilpotentCone, index) -> AdjointFiltration:
    """Weight filtration of ad N_I on the isometry algebra, centered at 0,
    read through W(N_I) on V."""
    index = index_set(index)
    if not index:
        raise InvalidInput("adjoint filtration needs a nonempty index set")
    return AdjointFiltration(
        index, weight_filtration(cone.n_of(index), cone.weight), cone.form
    )


def _maps_into(m: RationalMatrix, filtration: WeightFiltration, shift: int) -> bool:
    """Whether M . W_l <= W_{l+shift} for every l, read as residues."""
    return not any(
        any(r)
        for l in filtration.levels()
        for r in filtration.step(l + shift).residues(
            [m.mul_vec(v) for v in filtration.step(l).basis.entries]
        )
    )


def induced_map(
    m: RationalMatrix, filtration: WeightFiltration, shift: int
) -> dict[int, RationalMatrix]:
    """Per-level matrices Gr_a -> Gr_{a+shift} induced by M.

    Requires M . W_l <= W_{l+shift} for all l; raises NotFiltrationCompatible
    otherwise.  Matrices are written in the graded_lifts bases: column j
    holds the residues of M r_j modulo W_{a+shift-1} at the pivots of the
    target lifts.
    """
    if not _maps_into(m, filtration, shift):
        raise NotFiltrationCompatible(f"M does not map each W_l into W_(l{shift:+d})")
    out: dict[int, RationalMatrix] = {}
    for level in filtration.levels():
        lifts, _ = filtration.graded_lifts(level)
        _, at = filtration.graded_lifts(level + shift)
        res = filtration.step(level + shift - 1).residues([m.mul_vec(r) for r in lifts])
        rows = tuple(tuple(y[i] for y in res) for i in at)
        out[level] = RationalMatrix(len(at), len(lifts), rows)
    return out


class PrimitivePiece(Record):
    """Kernel of the (a+1)-st induced power map on Gr_{a+n}."""

    level: int
    graded_subspace: Subspace  # in graded_lifts coordinates
    representatives: RationalMatrix  # rows in the ambient space


def primitive_subspace(cone: NilpotentCone, index, a: int) -> PrimitivePiece:
    if not 0 <= a <= cone.weight:
        raise InvalidInput("primitive level a must satisfy 0 <= a <= weight")
    index = index_set(index)
    n_i = cone.n_of(index)
    filtration = weight_filtration(n_i, cone.weight)
    level = cone.weight + a
    if not filtration.low <= level <= filtration.high:
        return PrimitivePiece(
            level, Subspace.zero(0), RationalMatrix(0, cone.dim, ())
        )
    ker = kernel(induced_map(n_i.power(a + 1), filtration, -2 * (a + 1))[level])
    lifts, _ = filtration.graded_lifts(level)
    return PrimitivePiece(
        level, ker, ker.basis @ RationalMatrix(len(lifts), cone.dim, tuple(lifts))
    )


def polarization_form(cone: NilpotentCone, index, a: int) -> RationalMatrix:
    """Gram matrix R Q N_I^a R^T of Q(u, N_I^a v), R the primitive representatives."""
    reps = primitive_subspace(cone, index, a).representatives
    return reps @ cone.form @ cone.n_of(index_set(index)).power(a) @ reps.transpose()


class RwfpReport(Record):
    """Outcome of the nested-filtration compatibility consequence.

    Both filtrations are W on V, centered at the weight; W(ad N_I) is the
    filtration that W(N_I) induces on the isometry algebra.
    """

    premise: bool  # N_{I'} in W_{-1}(ad N_I)
    filtrations_equal: bool  # W(N_I) = W(N_{I'}) on V
    holds: bool  # premise implies equality


def rwfp_consequence_check(cone: NilpotentCone, index, index_larger) -> RwfpReport:
    index = index_set(index)
    index_larger = index_set(index_larger)
    if not set(index) <= set(index_larger):
        raise InvalidInput("first index set must be contained in the second")
    w_small = adjoint_filtration(cone, index)
    w_large = (
        w_small if index == index_larger else adjoint_filtration(cone, index_larger)
    )
    premise = w_small.contains(cone.n_of(index_larger), -1)
    equal = w_small.filtration == w_large.filtration
    return RwfpReport(premise, equal, (not premise) or equal)

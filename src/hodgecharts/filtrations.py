"""Monodromy weight filtrations of commuting nilpotent isometry logarithms.

Conventions: filtrations on the underlying space are centered at the weight n;
filtrations on the infinitesimal isometry algebra are centered at 0.  A
nilpotent N acts by N . W_l <= W_{l-2}, and N^l induces isomorphisms between
the graded pieces at center+l and center-l; these two properties determine
the filtration uniquely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotFiltrationCompatible, NotNilpotent
from .linalg import Q, RationalMatrix, Subspace, image, kernel, solve, vec

IndexSet = tuple[int, ...]


def index_set(values) -> IndexSet:
    out = tuple(sorted(set(int(v) for v in values)))
    return out


class WeightFiltration:
    """Increasing filtration of Q^n with finitely many jumps."""

    __slots__ = ("center", "ambient_dim", "low", "high", "steps")

    def __init__(self, center: int, ambient_dim: int, steps: dict[int, Subspace]):
        levels = sorted(steps)
        low = next(l for l in levels if steps[l].dim > 0)
        high = next(l for l in levels if steps[l].dim == ambient_dim)
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


def nilpotency_index(n: RationalMatrix) -> int:
    """Smallest d with N^d = 0; raises NotNilpotent if there is none."""
    return len(_powers(n)) - 1


def _powers(n: RationalMatrix) -> list[RationalMatrix]:
    """[I, N, ..., N^d] with N^d the first zero power; raises NotNilpotent if
    N^dim is not zero."""
    if n.rows != n.cols:
        raise ValueError("nilpotency of a non-square matrix")
    powers = [RationalMatrix.identity(n.rows), n] if n.rows else [n]  # on Q^0, N = I
    while not powers[-1].is_zero():
        if len(powers) > n.rows:
            raise NotNilpotent("matrix is not nilpotent")
        powers.append(powers[-1] @ n)
    return powers


def weight_filtration(n: RationalMatrix, center: int) -> WeightFiltration:
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


class NilpotentCone:
    """Commuting nilpotent infinitesimal isometries N_1..N_k of (V, Q)."""

    def __init__(self, dim: int, weight: int, form: RationalMatrix, generators):
        generators = tuple(generators)
        if form.rows != dim or form.cols != dim:
            raise ValueError("form must be dim x dim")
        sign = Q(1) if weight % 2 == 0 else Q(-1)
        if form.transpose() != form.scale(sign):
            kind = "symmetric" if weight % 2 == 0 else "alternating"
            raise ValueError(f"form must be {kind} for weight {weight}")
        for i, n in enumerate(generators):
            if n.rows != dim or n.cols != dim:
                raise ValueError(f"generator {i + 1} has wrong shape")
            if n.is_zero():
                raise ValueError(f"generator {i + 1} is zero")
            nilpotency_index(n)
            if not (n.transpose() @ form + form @ n).is_zero():
                raise ValueError(f"generator {i + 1} does not preserve the form")
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                a, b = generators[i], generators[j]
                if not (a @ b - b @ a).is_zero():
                    raise ValueError(f"generators {i + 1} and {j + 1} do not commute")
        self.dim = dim
        self.weight = weight
        self.form = form
        self.generators = generators
        self.k = len(generators)
        self._lie: LieContext | None = None
        self._adjoint_cache: dict[IndexSet, "AdjointFiltration"] = {}

    def n_of(self, index: IndexSet) -> RationalMatrix:
        """N_I = sum of the generators named by the 1-based index set."""
        out = RationalMatrix.zeros(self.dim, self.dim)
        for i in index:
            if not 1 <= i <= self.k:
                raise ValueError(f"index {i} out of range 1..{self.k}")
            out = out + self.generators[i - 1]
        return out

    def lie_algebra(self) -> LieContext:
        if self._lie is None:
            self._lie = LieContext(self.form)
        return self._lie

    def combination(self, coeffs) -> RationalMatrix:
        coeffs = vec(coeffs)
        if len(coeffs) != self.k:
            raise ValueError("coefficient vector has wrong length")
        out = RationalMatrix.zeros(self.dim, self.dim)
        for c, n in zip(coeffs, self.generators):
            if c:
                out = out + n.scale(c)
        return out


@dataclass(frozen=True)
class AdjointFiltration:
    """W(ad N_I) on the isometry algebra, with the coordinate context."""

    index: IndexSet
    filtration: WeightFiltration
    context: LieContext

    def contains(self, x: RationalMatrix, level: int) -> bool:
        coords = self.context.to_coords(x)
        if coords is None:
            raise ValueError("matrix is not in the isometry algebra")
        return self.filtration.step(level).contains_vector(coords)


def adjoint_filtration(cone: NilpotentCone, index) -> AdjointFiltration:
    """Weight filtration of ad N_I on the isometry algebra, centered at 0.

    Results are memoized on the cone.
    """
    index = index_set(index)
    if not index:
        raise ValueError("adjoint filtration needs a nonempty index set")
    cached = cone._adjoint_cache.get(index)
    if cached is not None:
        return cached
    ctx = cone.lie_algebra()
    ad = ctx.ad_matrix(cone.n_of(index))
    out = AdjointFiltration(index, weight_filtration(ad, 0), ctx)
    cone._adjoint_cache[index] = out
    return out


@dataclass(frozen=True)
class GradedPiece:
    level: int
    dimension: int
    representatives: RationalMatrix  # rows lift a basis of W_l / W_{l-1}


def graded_pieces(filtration: WeightFiltration) -> list[GradedPiece]:
    out = []
    for level in filtration.levels():
        below = filtration.step(level - 1)
        reprs = []
        span = below
        for row in filtration.step(level).basis.entries:
            if not span.contains_vector(row):
                reprs.append(row)
                span = span.sum(Subspace.from_vectors(filtration.ambient_dim, [row]))
        out.append(
            GradedPiece(
                level,
                len(reprs),
                RationalMatrix.from_rows(reprs, cols=filtration.ambient_dim),
            )
        )
    return out


def induced_map(
    m: RationalMatrix, filtration: WeightFiltration, shift: int
) -> dict[int, RationalMatrix]:
    """Per-level matrices Gr_a -> Gr_{a+shift} induced by M.

    Requires M . W_l <= W_{l+shift} for all l; raises NotFiltrationCompatible
    otherwise.  Matrices are written in the graded_pieces representative bases.
    """
    for level in filtration.levels():
        target = filtration.step(level + shift)
        for row in filtration.step(level).basis.entries:
            if not target.contains_vector(m.mul_vec(row)):
                raise NotFiltrationCompatible(
                    f"M W_{level} is not contained in W_{level + shift}"
                )
    pieces = {p.level: p for p in graded_pieces(filtration)}
    out: dict[int, RationalMatrix] = {}
    for level, piece in pieces.items():
        target_level = level + shift
        target_reprs = pieces.get(target_level)
        tdim = target_reprs.dimension if target_reprs else 0
        cols = []
        for row in piece.representatives.entries:
            y = m.mul_vec(row)
            if tdim:
                below = filtration.step(target_level - 1)
                stacked = target_reprs.representatives.stack(below.basis).transpose()
                coeffs = solve(stacked, y)
                if coeffs is None:  # pragma: no cover - containment already checked
                    raise AssertionError("containment check missed a vector")
                cols.append(coeffs[:tdim])
            else:
                cols.append(())
        rows = tuple(zip(*cols)) if cols and tdim else ()
        out[level] = RationalMatrix(tdim, piece.dimension, tuple(tuple(r) for r in rows))
    return out


@dataclass(frozen=True)
class PrimitivePiece:
    """Kernel of the (a+1)-st induced power map on Gr_{a+n}."""

    level: int
    graded_subspace: Subspace  # in graded_pieces representative coordinates
    representatives: RationalMatrix  # rows in the ambient space


def primitive_subspace(cone: NilpotentCone, index, a: int) -> PrimitivePiece:
    if not 0 <= a <= cone.weight:
        raise ValueError("primitive level a must satisfy 0 <= a <= weight")
    index = index_set(index)
    n_i = cone.n_of(index)
    filtration = weight_filtration(n_i, cone.weight)
    level = cone.weight + a
    if not filtration.low <= level <= filtration.high:
        return PrimitivePiece(
            level, Subspace.zero(0), RationalMatrix(0, cone.dim, ())
        )
    maps = induced_map(n_i.power(a + 1), filtration, -2 * (a + 1))
    piece = next(p for p in graded_pieces(filtration) if p.level == level)
    mat = maps[level]
    ker = kernel(mat)
    reprs = [
        tuple(
            sum((c * x for c, x in zip(coords, col)), Q(0))
            for col in zip(*piece.representatives.entries)
        )
        for coords in ker.basis.entries
    ] if piece.dimension else []
    return PrimitivePiece(
        level, ker, RationalMatrix.from_rows(reprs, cols=cone.dim)
    )


def polarization_form(cone: NilpotentCone, index, a: int) -> RationalMatrix:
    """Gram matrix of Q(u, N_I^a v) on the primitive representatives."""
    prim = primitive_subspace(cone, index, a)
    n_pow = cone.n_of(index_set(index)).power(a)
    rows = []
    for u in prim.representatives.entries:
        row = []
        for v in prim.representatives.entries:
            nv = n_pow.mul_vec(v)
            row.append(sum((x * y for x, y in zip(u, cone.form.mul_vec(nv))), Q(0)))
        rows.append(row)
    return RationalMatrix.from_rows(rows, cols=prim.representatives.rows)


@dataclass(frozen=True)
class RwfpReport:
    """Outcome of the nested-filtration compatibility consequence."""

    index: IndexSet
    index_larger: IndexSet
    premise: bool  # N_{I'} in W_{-1}(ad N_I)
    filtrations_equal: bool
    holds: bool  # premise implies equality
    filtration: WeightFiltration
    filtration_larger: WeightFiltration


def rwfp_consequence_check(cone: NilpotentCone, index, index_larger) -> RwfpReport:
    index = index_set(index)
    index_larger = index_set(index_larger)
    if not set(index) <= set(index_larger):
        raise ValueError("first index set must be contained in the second")
    w_small = adjoint_filtration(cone, index)
    w_large = (
        w_small if index == index_larger else adjoint_filtration(cone, index_larger)
    )
    premise = w_small.contains(cone.n_of(index_larger), -1)
    equal = w_small.filtration == w_large.filtration
    return RwfpReport(
        index, index_larger, premise, equal, (not premise) or equal,
        w_small.filtration, w_large.filtration,
    )

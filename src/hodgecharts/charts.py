"""Monomial boundary charts of a nilpotent cone and their image relations.

Each support set K in the image of I -> K_I contributes the monomial map
t -> (t^c) over the positive integer basis of S_K^perp; the stacked exponent
rows form the assembled chart.  Multiplicative relations among the chart
coordinates are the integer kernel lattice of the transposed exponent matrix,
and distinct strata are separated by monomial vanishing patterns.  Chart
equality is always lattice equality: printed monomial lists are one basis
choice among many.
"""

from __future__ import annotations

from ._record import Record
from .errors import SampleInconsistent, SeparationFailure
from .cones import KIndexMap, RelationData, k_index_map, positive_basis
from .filtrations import IndexSet, NilpotentCone, index_set
from .linalg import _primitive_integer, dot, integer_kernel, vec

FIBER_TOL = 1e-9  # sup norm below which a sampled derivative counts as zero


def monomial_strings(rows, var: str = "t") -> tuple[str, ...]:
    out = []
    for row in rows:
        factors = [
            f"{var}{i + 1}" if e == 1 else f"{var}{i + 1}^{e}"
            for i, e in enumerate(row)
            if e
        ]
        out.append("*".join(factors) if factors else "1")
    return tuple(out)


class MonomialMap(Record):
    """t -> (t^c) over the exponent rows; rows vanish exactly on K."""

    support: IndexSet  # K
    exponents: tuple[tuple[int, ...], ...]
    ambient: int  # number of t-coordinates

    def monomial_strings(self, var: str = "t") -> tuple[str, ...]:
        return monomial_strings(self.exponents, var)


class BinomialRelationSet(Record):
    """HNF basis of the lattice of relations z^{u+} = z^{u-}."""

    vectors: tuple[tuple[int, ...], ...]

    def as_equations(self, var: str = "z") -> tuple[str, ...]:
        pos = monomial_strings([[max(e, 0) for e in u] for u in self.vectors], var)
        neg = monomial_strings([[max(-e, 0) for e in u] for u in self.vectors], var)
        return tuple(f"{p} = {n}" for p, n in zip(pos, neg))


class MonomialAtlas(Record):
    """The assembled chart: one monomial map per K in the image of I -> K_I."""

    k_map: KIndexMap
    charts: tuple[MonomialMap, ...]
    relation_table: dict[IndexSet, RelationData]

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row for chart in self.charts for row in chart.exponents)

    @property
    def size(self) -> int:
        return len(self.exponents)

    def relations(self) -> BinomialRelationSet:
        return binomial_relations(self.exponents)

    def certificate_chart(self) -> tuple[tuple[int, ...], ...]:
        """One canonical monomial per stratum: the integerized cowitness.

        Ordered by descending support size; for the three-generator example
        this reproduces the compact four-monomial chart whose single relation
        is z1*z2*z3 = z4^2.
        """
        rows = []
        for k in sorted(self.k_map.image, key=lambda t: (-len(t), t)):
            data = self.relation_table[k]
            if any(x != 0 for x in data.cowitness):
                rows.append(tuple(_primitive_integer(data.cowitness)))
        return tuple(rows)


def build_atlas(cone: NilpotentCone) -> MonomialAtlas:
    """Assemble the per-K monomial maps from the relation-space pipeline."""
    km = k_index_map(cone)
    table: dict[IndexSet, RelationData] = {}
    charts = []
    for k in km.image:
        s, split = km.splits[k]
        basis = positive_basis(s, split)
        table[k] = RelationData(k, s, split.support, basis, split.witness, split.cowitness)
        charts.append(MonomialMap(k, basis.entries, cone.k))
    return MonomialAtlas(km, tuple(charts), table)


def binomial_relations(rows) -> BinomialRelationSet:
    """All multiplicative relations among the monomials t^{c_1}..t^{c_m}.

    A relation is an integer vector u with sum u_j c_j = 0; the set returned
    is the HNF basis of that kernel lattice.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return BinomialRelationSet(())
    ncols = len(rows)
    constraints = [[rows[j][i] for j in range(ncols)] for i in range(len(rows[0]))]
    return BinomialRelationSet(tuple(tuple(r) for r in integer_kernel(constraints, ncols)))


class SeparationReport(Record):
    """Monomial witnesses showing distinct chart strata have disjoint images."""

    witnesses: dict[tuple[IndexSet, IndexSet], int]  # pair -> atlas row index
    separated: bool


def separation_check(atlas: MonomialAtlas) -> SeparationReport:
    """Find, for every pair K != K', a coordinate vanishing identically on one
    stratum and nowhere on the other.

    A monomial row c (with support K_c^c) vanishes identically on the stratum
    of J iff J is not contained in K_c, and is nowhere zero on it otherwise.
    A missing witness indicates duplicated strata and raises SeparationFailure.
    """
    # All rows of a chart share its support, so the first witnessing row is
    # the first row of the first nonempty chart that witnesses the pair.
    ks = [chart.support for chart in atlas.charts]
    sets = [frozenset(k) for k in ks]
    firsts, at = [], 0  # (support set, index of its first row) per nonempty chart
    for chart, kc in zip(atlas.charts, sets):
        if chart.exponents:
            firsts.append((kc, at))
            at += len(chart.exponents)
    witnesses: dict[tuple[IndexSet, IndexSet], int] = {}
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            k1, k2 = sets[a], sets[b]
            found = next((idx for kc, idx in firsts if (k1 <= kc) != (k2 <= kc)), None)
            if found is None:
                raise SeparationFailure(f"strata {ks[a]} and {ks[b]} are not separated")
            witnesses[(ks[a], ks[b])] = found
    return SeparationReport(witnesses, True)


def fiber_tangency(mmap: MonomialMap, a, t) -> bool:
    """Whether the log vector field with coefficients a is tangent to the
    monomial fibers through t.

    Requires t_j != 0 off the support stratum, where all chart monomials are
    nonvanishing; tangency is then the exact condition a . c = 0 per row.
    """
    a = vec(a)
    if len(a) != mmap.ambient:
        raise ValueError("coefficient vector has wrong length")
    if len(t) != mmap.ambient:
        raise ValueError("point t has wrong length")
    for j in range(mmap.ambient):
        if (j + 1) not in mmap.support and abs(complex(t[j])) == 0.0:
            raise ValueError(f"t_{j + 1} must be nonzero off the stratum")
    return all(dot(a, row) == 0 for row in mmap.exponents)


class DecoupledFiberReport(Record):
    exact_tangent: bool  # a lies in the relation space S_I
    sample_tangent: tuple[bool, ...]  # per-sample derivative vanishing
    tangent: tuple[bool, ...]  # conjunction, per sample


def decoupled_fiber_check(cone: NilpotentCone, index, a, derivatives) -> DecoupledFiberReport:
    """Check the split fiber condition at user-supplied samples.

    The candidate tangent vector has t-part a (exact rationals).  Each entry of
    derivatives is a sampled directional derivative, along that vector, of the
    residual-flag generator: a dim x dim complex array (nested lists or numpy).
    The vector is tangent iff a lies in S_I (exact) and the sampled derivative
    vanishes (numeric, FIBER_TOL).  A sampled derivative with
    a nonzero component inside span{N_i} contradicts the split coordinates, in
    which that component vanishes identically, and raises SampleInconsistent.
    """
    import numpy as np

    from .cones import relation_space

    index = index_set(index)
    a = vec(a)
    exact_ok = relation_space(cone, index).contains_vector(a)
    gens = np.array(
        [[[float(x) for x in row] for row in n.entries] for n in cone.generators]
    )
    span = gens.reshape(cone.k, -1).T  # columns span {N_i} in flattened form
    pinv = np.linalg.pinv(span)
    numeric = []
    for deriv in derivatives:
        flat = np.asarray(deriv, dtype=complex).reshape(-1)
        inside = span @ (pinv @ flat)
        if np.linalg.norm(inside, ord=np.inf) > FIBER_TOL:
            raise SampleInconsistent(
                "sampled derivative has a component along the nilpotent span"
            )
        numeric.append(bool(np.linalg.norm(flat, ord=np.inf) <= FIBER_TOL))
    return DecoupledFiberReport(
        exact_ok, tuple(numeric), tuple(exact_ok and n for n in numeric)
    )

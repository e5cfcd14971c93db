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
from .errors import SeparationFailure
from .cones import KIndexMap, k_index_map, positive_basis
from .filtrations import IndexSet, NilpotentCone
from .linalg import Rational, RationalMatrix, Subspace, _primitive_integer, integer_kernel


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


class Chart(Record):
    """One stratum K: its relation space, Farkas split and monomial map
    t -> (t^c) over the rows c of C_K, which vanish exactly on K."""

    support: IndexSet  # K
    space: Subspace  # S_K
    basis: RationalMatrix  # C_K: the positive integer basis of S_K^perp
    witness: tuple[Rational, ...]  # in S_K, nonnegative, support exactly K
    cowitness: tuple[Rational, ...]  # in S_K^perp, nonnegative, support K^c

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return self.basis.entries


class BinomialRelationSet(Record):
    """HNF basis of the lattice of relations z^{u+} = z^{u-}."""

    vectors: tuple[tuple[int, ...], ...]

    def as_equations(self, var: str = "z") -> tuple[str, ...]:
        pos = monomial_strings([[max(e, 0) for e in u] for u in self.vectors], var)
        neg = monomial_strings([[max(-e, 0) for e in u] for u in self.vectors], var)
        return tuple(f"{p} = {n}" for p, n in zip(pos, neg))


class MonomialAtlas(Record):
    """The assembled chart: one Chart per K, in k_map.image order, which the
    atlas row indices and the separation witnesses follow."""

    k_map: KIndexMap
    charts: tuple[Chart, ...]

    @property
    def relation_table(self) -> dict[IndexSet, Chart]:
        return {chart.support: chart for chart in self.charts}

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row for chart in self.charts for row in chart.exponents)

    def relations(self) -> BinomialRelationSet:
        return binomial_relations(self.exponents)

    def certificate_chart(self) -> tuple[tuple[int, ...], ...]:
        """One canonical monomial per stratum: the integerized cowitness.

        Ordered by descending support size; for the three-generator example
        this reproduces the compact four-monomial chart whose single relation
        is z1*z2*z3 = z4^2.
        """
        rows = []
        for chart in sorted(self.charts, key=lambda c: (-len(c.support), c.support)):
            if any(chart.cowitness):
                rows.append(tuple(_primitive_integer(chart.cowitness)))
        return tuple(rows)


def build_atlas(cone: NilpotentCone) -> MonomialAtlas:
    """Assemble one chart per K from the relation-space pipeline."""
    km = k_index_map(cone)
    charts = []
    for k in km.image:
        s, split = km.splits[k]
        charts.append(Chart(k, s, positive_basis(s, split), split.witness, split.cowitness))
    return MonomialAtlas(km, tuple(charts))


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

"""Graded dimension bookkeeping for one-parameter normal-crossing surface
degenerations, plus the dual-graph computation for nodal curves.

The cohomology of each surface piece is modeled as the span of its
double-curve classes (assumed independent, so h^2 must be at least the number
of curves on the piece) plus an orthogonal remainder that all combinatorial
maps kill.  Restriction maps carry Cech alternating signs in the component
order; the even Gysin maps are the transposes of the dual restriction maps, so
only the restrictions are held.  With this convention the middle-weight square
is a complex exactly when the triple point formula
D^2|_{X_i} + D^2|_{X_j} + #(triple points on D_ij) = 0 holds for every double
curve, and the outer graded dimensions match in dual pairs by construction:
one rank serves both.  Genera and cohomology dimensions must be nonnegative.
Each graded dimension is that of a kernel or a cokernel, counted by one rank,
with no basis built.
"""

from __future__ import annotations

from ._record import Record
from .errors import Disconnected, IncidenceError, NotAComplex
from .linalg import RationalMatrix, image, kernel, rank


class SurfacePiece(Record):
    name: str
    h: tuple[int, int, int, int, int]  # h^0 .. h^4


class DoubleCurve(Record):
    ends: tuple[str, str]
    genus: int
    self_intersections: tuple[int, int]  # in ends[0] and ends[1]


class TriplePoint(Record):
    ends: tuple[str, str, str]


class NCDSurface:
    """A combinatorial normal-crossing surface X = union of smooth pieces."""

    def __init__(
        self,
        components,
        curves,
        triples=(),
        odd_gysin: RationalMatrix | None = None,
        odd_restriction: RationalMatrix | None = None,
    ):
        components = tuple(components)
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise IncidenceError("component names must be unique")
        order = {n: i for i, n in enumerate(names)}

        def normalize_pair(pair):
            a, b = pair
            if a not in order or b not in order:
                raise IncidenceError(f"unknown component in {pair}")
            if a == b:
                raise IncidenceError(f"double curve {pair} must join two pieces")
            return (a, b) if order[a] < order[b] else (b, a)

        norm_curves = []
        for c in curves:
            ends = normalize_pair(c.ends)
            if c.genus < 0:
                raise IncidenceError(f"double curve {ends} has negative genus")
            flip = ends != tuple(c.ends)
            si = c.self_intersections[::-1] if flip else c.self_intersections
            norm_curves.append(DoubleCurve(ends, c.genus, tuple(si)))
        pair_index = {}
        for idx, c in enumerate(norm_curves):
            if c.ends in pair_index:
                raise IncidenceError(f"duplicate double curve {c.ends}")
            pair_index[c.ends] = idx

        norm_triples = []
        for t in triples:
            if not set(t.ends) <= order.keys():
                raise IncidenceError(f"unknown component in triple point {t.ends}")
            ends = tuple(sorted(set(t.ends), key=order.get))
            if len(ends) != 3:
                raise IncidenceError(f"triple point {t.ends} needs three distinct pieces")
            for pair in ((ends[0], ends[1]), (ends[0], ends[2]), (ends[1], ends[2])):
                if pair not in pair_index:
                    raise IncidenceError(f"triple point {ends} misses double curve {pair}")
            norm_triples.append(TriplePoint(ends))

        for comp in components:
            if any(x < 0 for x in comp.h):
                raise IncidenceError(f"negative cohomology dimension on {comp.name}")
            ncurves = sum(1 for c in norm_curves if comp.name in c.ends)
            if comp.h[2] < ncurves:
                raise IncidenceError(
                    f"h^2({comp.name}) = {comp.h[2]} cannot carry {ncurves} curve classes"
                )

        self.components = components
        self.curves = tuple(norm_curves)
        self.triples = tuple(norm_triples)
        self.order = order
        self.pair_index = pair_index
        self.odd_gysin = odd_gysin
        self.odd_restriction = odd_restriction

    def triple_count(self, curve: DoubleCurve) -> int:
        a, b = curve.ends
        return sum(1 for t in self.triples if a in t.ends and b in t.ends)


def triple_point_check(surface: NCDSurface) -> dict[tuple[str, str], bool]:
    """Per-curve integer identity D^2|_i + D^2|_j + #triple points = 0."""
    return {
        c.ends: sum(c.self_intersections) + surface.triple_count(c) == 0
        for c in surface.curves
    }


def _cech_sign(position: int) -> int:
    return -1 if position % 2 else 1


class WeightComplexes(Record):
    """The matrices of the weight spectral complexes.  The even Gysin pair
    H0(X^[3])(-2) -> H2(X^[2])(-1) -> H4(X^[1]) is (r2^T, r1^T)."""

    # even-weight restrictions
    r1: RationalMatrix  # H0(X^[1]) -> H0(X^[2])
    r2: RationalMatrix  # H0(X^[2]) -> H0(X^[3])
    # middle-weight square
    g_mid: RationalMatrix  # H0(X^[2])(-1) -> H2(X^[1])
    r_mid: RationalMatrix  # H2(X^[1]) -> H2(X^[2])
    # odd-weight pair
    g_odd: RationalMatrix  # H1(X^[2])(-1) -> H3(X^[1])
    r_odd: RationalMatrix  # H1(X^[1]) -> H1(X^[2])


def build_weight_complexes(surface: NCDSurface) -> WeightComplexes:
    comps = surface.components
    curves = surface.curves
    triples = surface.triples
    n1, n2, n3 = len(comps), len(curves), len(triples)
    order = surface.order

    r1_rows = []
    for c in curves:
        row = [0] * n1
        row[order[c.ends[0]]] = 1
        row[order[c.ends[1]]] = -1
        r1_rows.append(row)
    r1 = RationalMatrix.from_rows(r1_rows, cols=n1)

    r2_rows = []
    for t in triples:
        row = [0] * n2
        pairs = ((t.ends[0], t.ends[1]), (t.ends[0], t.ends[2]), (t.ends[1], t.ends[2]))
        for pos, pair in enumerate(pairs):
            row[surface.pair_index[pair]] = _cech_sign(pos)
        r2_rows.append(row)
    r2 = RationalMatrix.from_rows(r2_rows, cols=n2)

    # H2(X^[1]) basis: per component, its curve classes then remainder padding;
    # layout maps a component to (offset, curves on it).
    layout: dict[str, tuple[int, tuple[int, ...]]] = {}
    offset = 0
    for comp in comps:
        layout[comp.name] = (offset, tuple(i for i, c in enumerate(curves) if comp.name in c.ends))
        offset += comp.h[2]
    h2_dim = offset

    g_mid_rows = [[0] * n2 for _ in range(h2_dim)]
    for ci, c in enumerate(curves):
        for end, sign in zip(c.ends, (1, -1)):
            off, on_comp = layout[end]
            g_mid_rows[off + on_comp.index(ci)][ci] = sign
    g_mid = RationalMatrix.from_rows(g_mid_rows, cols=n2)

    def curve_product(comp_name: str, ci: int, cj: int) -> int:
        if ci == cj:
            c = curves[ci]
            return c.self_intersections[c.ends.index(comp_name)]
        members = set(curves[ci].ends) | set(curves[cj].ends)
        return sum(1 for t in triples if members <= set(t.ends))

    r_mid_rows = [[0] * h2_dim for _ in range(n2)]
    for target_ci, c in enumerate(curves):
        for end, sign in zip(c.ends, (1, -1)):
            off, on_comp = layout[end]
            for slot, source_ci in enumerate(on_comp):
                r_mid_rows[target_ci][off + slot] = sign * curve_product(end, source_ci, target_ci)
    r_mid = RationalMatrix.from_rows(r_mid_rows, cols=h2_dim)

    h1_x1 = sum(comp.h[1] for comp in comps)
    h1_x2 = sum(2 * c.genus for c in curves)
    h3_x1 = sum(comp.h[3] for comp in comps)
    g_odd = surface.odd_gysin
    if g_odd is None:
        g_odd = RationalMatrix.zeros(h3_x1, h1_x2)
    elif (g_odd.rows, g_odd.cols) != (h3_x1, h1_x2):
        raise IncidenceError("odd Gysin matrix has the wrong shape")
    r_odd = surface.odd_restriction
    if r_odd is None:
        r_odd = RationalMatrix.zeros(h1_x2, h1_x1)
    elif (r_odd.rows, r_odd.cols) != (h1_x2, h1_x1):
        raise IncidenceError("odd restriction matrix has the wrong shape")

    return WeightComplexes(r1, r2, g_mid, r_mid, g_odd, r_odd)


def friedman_check(w: WeightComplexes) -> bool:
    """Whether the middle-weight square composes to zero."""
    return (w.r_mid @ w.g_mid + w.r2.transpose() @ w.r2).is_zero()


def _require_complex(w: WeightComplexes) -> None:
    if not (w.r2 @ w.r1).is_zero():
        raise NotAComplex("restriction complex does not compose to zero")
    if not friedman_check(w):
        raise NotAComplex("middle-weight square does not compose to zero")


def graded_dims(w: WeightComplexes) -> tuple[int, int, int, int, int]:
    """Dimensions of the graded pieces, lowest weight first."""
    _require_complex(w)
    i0 = i4 = w.r2.rows - rank(w.r2)  # coker r2 and ker r2^T
    first = w.g_mid.stack(w.r2)  # H0(X^[2]) -> H2(X^[1]) + H0(X^[3])
    # [R_mid | r2^T] : H2(X^[1]) + H0(X^[3]) -> H2(X^[2]), ranked as its transpose
    second_t = w.r_mid.transpose().stack(w.r2)
    i2 = second_t.rows - rank(second_t) - rank(first)
    i3 = w.g_odd.cols - rank(w.g_odd)
    i1 = w.r_odd.rows - rank(w.r_odd)
    return (i0, i1, i2, i3, i4)


class MonodromyReport(Record):
    even_iso: bool  # ker r2^T -> coker r2
    odd_iso: bool  # ker g_odd -> coker r_odd


def _kernel_to_cokernel(g: RationalMatrix, r: RationalMatrix) -> bool:
    """Whether the induced map ker(g) -> target/im(r) is an isomorphism, with
    g acting on the space r maps to."""
    ker = kernel(g)
    im = image(r)
    # The non-pivot standard vectors complement im(r), and a kernel vector's
    # coordinates in them are its residues modulo im(r).
    cols = im.residues(ker.basis.entries)
    free = im.ambient_dim - im.dim
    rows = tuple(zip(*cols)) if cols else tuple(() for _ in range(free))
    return ker.dim == free and rank(RationalMatrix(free, ker.dim, rows)) == ker.dim


def monodromy_graded_maps(w: WeightComplexes) -> MonodromyReport:
    """Check that the induced maps from top kernels to bottom cokernels are
    isomorphisms, in both the even and the odd chain."""
    _require_complex(w)
    return MonodromyReport(
        _kernel_to_cokernel(w.r2.transpose(), w.r2), _kernel_to_cokernel(w.g_odd, w.r_odd)
    )


def curve_lmhs(vertices, edges) -> tuple[int, int, int]:
    """Graded dimensions (Gr_0, Gr_1, Gr_2) for a nodal curve dual graph.

    vertices: iterable of (name, genus) with genus >= 0; edges: iterable of
    (name, name) pairs (multi-edges and loops allowed).  The graph must be
    connected.
    """
    vertices, edges = list(vertices), list(edges)
    if any(g < 0 for _, g in vertices):
        raise IncidenceError("vertex genera must be nonnegative")
    names = [v[0] for v in vertices]
    if len(set(names)) != len(names):
        raise IncidenceError("vertex names must be unique")
    parent = {n: n for n in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a not in parent or b not in parent:
            raise IncidenceError(f"edge ({a}, {b}) uses an unknown vertex")
        parent[find(a)] = find(b)
    if len({find(n) for n in names}) != 1:
        raise Disconnected("dual graph is not connected")
    b1 = len(edges) - len(names) + 1
    gr1 = 2 * sum(g for _, g in vertices)
    return (b1, gr1, b1)

import random
from fractions import Fraction

import pytest

from hodgecharts.errors import Disconnected, IncidenceError, NotAComplex
from hodgecharts.linalg import RationalMatrix, kernel, rank
from hodgecharts.ncd import (
    DoubleCurve,
    NCDSurface,
    SurfacePiece,
    TriplePoint,
    _kernel_to_cokernel,
    build_weight_complexes,
    curve_lmhs,
    friedman_check,
    graded_dims,
    monodromy_graded_maps,
    triple_point_check,
)

from .oracles import kernel_graded_dims, solve_kernel_to_cokernel


def two_component_surface(genus=2, d2=(-3, 3)):
    return NCDSurface(
        [SurfacePiece("A", (1, 0, 1, 0, 1)), SurfacePiece("B", (1, 0, 1, 0, 1))],
        [DoubleCurve(("A", "B"), genus, d2)],
    )


def tetrahedron_surface(break_one=False):
    names = ["P1", "P2", "P3", "P4"]
    pieces = [SurfacePiece(n, (1, 0, 3, 0, 1)) for n in names]
    curves = [
        DoubleCurve((a, b), 0, (-1, -1))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    if break_one:
        curves[0] = DoubleCurve(curves[0].ends, 0, (0, -1))
    triples = [
        TriplePoint((a, b, c))
        for i, a in enumerate(names)
        for j, b in enumerate(names[i + 1 :], i + 1)
        for c in names[j + 1 :]
    ]
    return NCDSurface(pieces, curves, triples)


def test_triple_point_formula_cases():
    assert triple_point_check(two_component_surface())[("A", "B")]
    surf = NCDSurface(
        [SurfacePiece("A", (1, 0, 1, 0, 1)), SurfacePiece("B", (1, 0, 1, 0, 1))],
        [DoubleCurve(("A", "B"), 0, (-1, 0))],
        [],
    )
    assert not triple_point_check(surf)[("A", "B")]
    # two triple points need total self-intersection -2
    assert all(triple_point_check(tetrahedron_surface()).values())


def test_incidence_validation():
    with pytest.raises(IncidenceError):
        NCDSurface(
            [SurfacePiece("A", (1, 0, 1, 0, 1)), SurfacePiece("B", (1, 0, 1, 0, 1)),
             SurfacePiece("C", (1, 0, 1, 0, 1))],
            [DoubleCurve(("A", "B"), 0, (-1, -1))],
            [TriplePoint(("A", "B", "C"))],  # missing curves A-C, B-C
        )
    with pytest.raises(IncidenceError):
        NCDSurface([SurfacePiece("A", (1, 0, 0, 0, 1))],
                   [DoubleCurve(("A", "A"), 0, (0, 0))])
    with pytest.raises(IncidenceError):
        # h^2 too small for the curve classes
        NCDSurface(
            [SurfacePiece("A", (1, 0, 0, 0, 1)), SurfacePiece("B", (1, 0, 1, 0, 1))],
            [DoubleCurve(("A", "B"), 0, (-1, 1))],
        )


def test_two_component_complexes():
    w = build_weight_complexes(two_component_surface())
    assert friedman_check(w)
    dims = graded_dims(w)
    assert dims[4] == 0 and dims[0] == 0
    assert dims[3] == dims[1] == 4  # 2 * genus on both odd levels
    assert dims[2] == 0
    rep = monodromy_graded_maps(w)
    assert rep.even_iso and rep.odd_iso


def test_tetrahedron_complexes():
    w = build_weight_complexes(tetrahedron_surface())
    assert friedman_check(w)
    assert (w.r2 @ w.r1).is_zero()
    dims = graded_dims(w)
    assert dims == (1, 0, 4, 0, 1)
    rep = monodromy_graded_maps(w)
    assert rep.even_iso and rep.odd_iso


def test_duality_of_outer_dims():
    for surf in (two_component_surface(), tetrahedron_surface()):
        w = build_weight_complexes(surf)
        dims = graded_dims(w)
        assert dims[4] == dims[0] and dims[3] == dims[1]
        # Gr_4 is ker of the Gysin map r2^T, here counted from a kernel basis
        assert dims[4] == kernel(w.r2.transpose()).dim


def test_friedman_negative_control():
    w = build_weight_complexes(tetrahedron_surface(break_one=True))
    assert not friedman_check(w)
    with pytest.raises(NotAComplex):
        graded_dims(w)


def test_triple_point_formula_implies_friedman():
    import random

    rng = random.Random(551)
    for _ in range(15):
        t = rng.randint(0, 3)
        a = rng.randint(-4, 2)
        b = -t - a
        names = ["A", "B", "C"]
        pieces = [SurfacePiece(n, (1, 0, 4, 0, 1)) for n in names]
        curves = [
            DoubleCurve(("A", "B"), rng.randint(0, 2), (a, b)),
            DoubleCurve(("A", "C"), 0, (-t, 0)),
            DoubleCurve(("B", "C"), 0, (0, -t)),
        ]
        triples = [TriplePoint(("A", "B", "C"))] * t
        surf = NCDSurface(pieces, curves, triples)
        if all(triple_point_check(surf).values()):
            assert friedman_check(build_weight_complexes(surf))


def test_empty_double_locus():
    surf = NCDSurface([SurfacePiece("A", (1, 0, 5, 0, 1))], [])
    w = build_weight_complexes(surf)
    dims = graded_dims(w)
    assert dims == (0, 0, 5, 0, 0)


def test_user_supplied_odd_maps():
    # transposed pair keeps the induced map an isomorphism
    surf = two_component_surface(genus=1)
    r_odd = RationalMatrix.zeros(2, 0)
    g_odd = r_odd.transpose()
    w = build_weight_complexes(
        NCDSurface(surf.components, surf.curves, (), g_odd, r_odd)
    )
    assert monodromy_graded_maps(w).odd_iso
    # rank-broken: odd Gysin kills nothing while restriction hits everything
    full = RationalMatrix.from_rows([[1, 0], [0, 1]])
    h1 = NCDSurface(
        [SurfacePiece("A", (1, 2, 2, 0, 1)), SurfacePiece("B", (1, 0, 2, 0, 1))],
        [DoubleCurve(("A", "B"), 1, (-1, 1))],
        (),
        None,
        full,  # restriction surjective -> coker 0 while ker G_odd = 2
    )
    rep = monodromy_graded_maps(build_weight_complexes(h1))
    assert not rep.odd_iso


def test_curve_lmhs_examples():
    assert curve_lmhs([("a", 0), ("b", 0)], [("a", "b")] * 3) == (2, 0, 2)
    assert curve_lmhs([("a", 2)], []) == (0, 4, 0)
    assert curve_lmhs([("a", 1), ("b", 1)], [("a", "b")]) == (0, 4, 0)
    # nodal irreducible curve: loop contributes to both Tate ends
    assert curve_lmhs([("a", 0)], [("a", "a")]) == (1, 0, 1)
    with pytest.raises(Disconnected):
        curve_lmhs([("a", 0), ("b", 0)], [])
    # graded dims sum to twice the arithmetic genus
    gr = curve_lmhs([("a", 1), ("b", 2)], [("a", "b"), ("a", "b")])
    assert sum(gr) == 2 * (1 + 2 + 1)  # p_a = sum g + b_1


@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        ([("a", 0), ("a", 1)], [], IncidenceError, "vertex names must be unique"),
        ([("a", 0)], [("a", "b")], IncidenceError, r"edge \(a, b\) uses an unknown vertex"),
        ([("a", 0), ("b", 0)], [], Disconnected, "dual graph is not connected"),
    ],
    ids=["repeated-name", "unknown-vertex", "disconnected"],
)
def test_curve_lmhs_error_classes(vertices, edges, error, message):
    """A repeated or unknown vertex name is an incidence error, as a repeated
    or unknown component name of an NCDSurface is; only a graph in pieces is
    Disconnected.  Each exits 2."""
    with pytest.raises(error, match=f"^{message}$") as info:
        curve_lmhs(vertices, edges)
    assert type(info.value) is error and info.value.exit_code == 2


def test_curve_lmhs_reads_iterators_once():
    """Vertices and edges given as one-shot iterators give the same graded
    dimensions as lists: each is read once."""
    vertices, edges = [("a", 0), ("b", 1)], [("a", "b")] * 3
    assert curve_lmhs(iter(vertices), (e for e in edges)) == curve_lmhs(vertices, edges)
    assert curve_lmhs(iter(vertices), iter(edges)) == (2, 2, 2)


def _low_rank(rng, rows, cols, rank):
    """A rows x cols rational matrix of rank at most the given one."""
    if rank == 0 or not rows or not cols:
        return RationalMatrix.zeros(rows, cols)
    scalars = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(-3, 2)]
    left = RationalMatrix.from_rows([[rng.choice(scalars) for _ in range(rank)] for _ in range(rows)])
    right = RationalMatrix.from_rows([[rng.choice(scalars) for _ in range(cols)] for _ in range(rank)])
    return left @ right


def test_kernel_to_cokernel_matches_solve_oracle():
    """Reading cokernel coordinates off the RREF basis of im(r) gives the same
    verdict as one solve per kernel vector, for r = 0, rank-deficient and
    full-rank r, and both verdicts occur."""
    rng = random.Random(20261018)
    kinds, verdicts = set(), set()
    for _ in range(150):
        n = rng.randint(1, 7)
        r_cols, g_rows = rng.randint(0, 7), rng.randint(0, 7)
        r = _low_rank(rng, n, r_cols, rng.randint(0, min(n, r_cols)))
        g = _low_rank(rng, g_rows, n, rng.randint(0, min(n, g_rows)))
        kinds.add("zero" if r.is_zero() else "full" if rank(r) == min(n, r_cols) else "deficient")
        verdict = _kernel_to_cokernel(g, r)
        assert verdict is solve_kernel_to_cokernel(g, r)
        verdicts.add(verdict)
    assert kinds == {"zero", "deficient", "full"} and verdicts == {True, False}


def test_negative_genus_is_an_incidence_error():
    with pytest.raises(IncidenceError, match="negative genus"):
        two_component_surface(genus=-1)
    with pytest.raises(IncidenceError, match="nonnegative"):
        curve_lmhs([("a", -3), ("b", 0)], [("a", "b")] * 3)


def _random_surface(rng):
    """Three pieces meeting in three double curves and t triple points, with
    random genera, self-intersections and odd maps of the right shapes; the
    triple point formula holds on some of them and fails on others."""
    t = rng.randint(0, 3)
    a = rng.randint(-4, 2)
    pieces = [
        SurfacePiece(n, (1, rng.randint(0, 2), rng.randint(2, 5), rng.randint(0, 2), 1))
        for n in "ABC"
    ]
    curves = [
        DoubleCurve(("A", "B"), rng.randint(0, 2), (a, rng.choice([-t - a, 1 - t - a]))),
        DoubleCurve(("A", "C"), rng.randint(0, 1), (-t, 0)),
        DoubleCurve(("B", "C"), 0, (0, -t)),
    ]
    h1 = sum(p.h[1] for p in pieces)
    h3 = sum(p.h[3] for p in pieces)
    h1_x2 = sum(2 * c.genus for c in curves)
    g_odd = _low_rank(rng, h3, h1_x2, rng.randint(0, min(h3, h1_x2)))
    r_odd = _low_rank(rng, h1_x2, h1, rng.randint(0, min(h1_x2, h1)))
    return NCDSurface(pieces, curves, [TriplePoint(("A", "B", "C"))] * t, g_odd, r_odd)


def test_graded_dims_match_kernel_oracle():
    """Counting each kernel as columns minus rank gives the dimensions of the
    kernel bases, on the test surfaces and on seeded random ones, and both
    refuse the same non-complexes."""
    rng = random.Random(20261019)
    surfaces = [
        two_component_surface(),
        tetrahedron_surface(),
        tetrahedron_surface(break_one=True),
        NCDSurface([SurfacePiece("A", (1, 0, 5, 0, 1))], []),
    ] + [_random_surface(rng) for _ in range(60)]
    outcomes = set()
    for surf in surfaces:
        w = build_weight_complexes(surf)
        if friedman_check(w):
            assert graded_dims(w) == kernel_graded_dims(w)
            outcomes.add("complex")
        else:
            for dims in (graded_dims, kernel_graded_dims):
                with pytest.raises(NotAComplex):
                    dims(w)
            outcomes.add("not a complex")
    assert outcomes == {"complex", "not a complex"}


def test_graded_dims_build_no_kernel_basis(monkeypatch):
    """Five ranks and no kernel basis: one rank of r2 serves Gr_0 and Gr_4."""
    import hodgecharts.ncd as ncd

    calls = []
    original = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda m: calls.append(m) or original(m))
    monkeypatch.setattr(ncd, "kernel", None)
    assert graded_dims(build_weight_complexes(tetrahedron_surface())) == (1, 0, 4, 0, 1)
    assert len(calls) == 5

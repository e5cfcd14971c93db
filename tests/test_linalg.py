import itertools
import random
from fractions import Fraction

import pytest

from hodgecharts.errors import NotInvariant
from hodgecharts.linalg import (
    RationalMatrix,
    Subspace,
    hnf_rows,
    image,
    integer_kernel,
    kernel,
    lattice_basis,
    rank,
    restrict_map,
    solve,
)

SEED = 20240811


def rand_matrix(rng, rows, cols, span=4):
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]
    )


def test_kernel_zero_map():
    assert kernel(RationalMatrix.zeros(2, 2)) == Subspace.full(2)


def test_kernel_line():
    assert kernel(RationalMatrix.from_rows([[1, 1]])) == Subspace.from_vectors(
        2, [[1, -1]]
    )


def test_kernel_of_flattened_generators_is_zero():
    from hodgecharts.gallery import genus2_cone

    cone = genus2_cone()
    cols = [n.flatten() for n in cone.generators]
    m = RationalMatrix.from_rows(tuple(zip(*cols)), cols=3)
    assert kernel(m).dim == 0  # the three generators are linearly independent


def test_rank_and_image():
    assert rank(RationalMatrix.identity(4)) == 4
    assert image(RationalMatrix.from_rows([[1], [2]])) == Subspace.from_vectors(
        2, [[1, 2]]
    )


def test_solve_roundtrip():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    x = solve(m, [5, 6])
    assert m.mul_vec(x) == (Fraction(5), Fraction(6))
    assert solve(RationalMatrix.from_rows([[1, 1], [1, 1]]), [0, 1]) is None


def test_orthogonal_complement_examples():
    assert Subspace.zero(3).orthogonal_complement() == Subspace.full(3)
    s = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, -1]])
    assert s.orthogonal_complement() == Subspace.from_vectors(3, [[0, 1, 1]])


def test_double_complement_random():
    rng = random.Random(SEED)
    for _ in range(40):
        dim = rng.randint(1, 6)
        nvecs = rng.randint(0, dim)
        s = Subspace.from_vectors(
            dim, [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(nvecs)]
        )
        comp = s.orthogonal_complement()
        assert s.dim + comp.dim == dim
        assert comp.orthogonal_complement() == s


def test_rank_nullity_random():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert kernel(m).dim + rank(m) == m.cols


def test_canonical_form_idempotent():
    rng = random.Random(SEED + 2)
    for _ in range(20):
        m = rand_matrix(rng, 3, 4)
        k = kernel(m)
        assert Subspace.from_vectors(4, k.basis.entries) == k
        im = image(m)
        assert Subspace.from_vectors(3, im.basis.entries) == im


def test_lattice_basis_examples():
    half = Subspace.from_vectors(2, [["1/2", "1/2"]])
    assert lattice_basis(half).entries == ((Fraction(1), Fraction(1)),)
    line = Subspace.from_vectors(3, [[0, 1, 1]])
    assert lattice_basis(line).entries == (
        (Fraction(0), Fraction(1), Fraction(1)),
    )


def test_lattice_basis_membership_and_span():
    rng = random.Random(SEED + 3)
    for _ in range(25):
        dim = rng.randint(1, 5)
        nvecs = rng.randint(1, dim)
        s = Subspace.from_vectors(
            dim,
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                for _ in range(nvecs)
            ],
        )
        basis = lattice_basis(s)
        assert basis.rows == s.dim
        for row in basis.entries:
            assert all(x.denominator == 1 for x in row)
            assert s.contains_vector(row)
        if basis.rows:
            assert Subspace.from_vectors(dim, basis.entries) == s
        # rows are primitive: no common factor
        from math import gcd

        for row in basis.entries:
            g = 0
            for x in row:
                g = gcd(g, int(x))
            assert g in (0, 1)


def test_hnf_canonical():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hnf_rows(rows)
    assert hnf_rows(h) == h
    # pivot positivity and reduction above pivots
    assert all(next(x for x in r if x) > 0 for r in h)


def test_integer_kernel_defining_properties():
    """A.v = 0 on every row, full rank, HNF, and saturation on a small box."""
    rng = random.Random(SEED + 5)
    for _ in range(60):
        ncols = rng.randint(0, 5)
        a = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(0, 4))]
        ker = integer_kernel(a, ncols)
        for v in ker:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        assert len(ker) == ncols - rank(RationalMatrix.from_rows(a, cols=ncols))
        assert not ker or rank(RationalMatrix.from_rows(ker, cols=ncols)) == len(ker)
        assert hnf_rows(ker) == ker
        basis_t = RationalMatrix.from_rows(ker, cols=ncols).transpose()
        for v in itertools.product(range(-2, 3), repeat=ncols):
            if any(v) and all(sum(x * y for x, y in zip(row, v)) == 0 for row in a):
                coords = solve(basis_t, v)
                assert coords is not None
                assert all(c.denominator == 1 for c in coords)


def test_restrict_map():
    m = RationalMatrix.from_rows([[2, 0], [0, 3]])
    s = Subspace.from_vectors(2, [[1, 0]])
    r = restrict_map(m, s, s)
    assert r.entries == ((Fraction(2),),)
    with pytest.raises(NotInvariant):
        restrict_map(
            RationalMatrix.from_rows([[0, 1], [1, 0]]),
            Subspace.from_vectors(2, [[1, 0]]),
            Subspace.from_vectors(2, [[1, 0]]),
        )


def test_restrict_map_on_genus2_filtration():
    from hodgecharts.filtrations import weight_filtration
    from hodgecharts.gallery import genus2_cone

    cone = genus2_cone()
    n1 = cone.generators[0]
    w = weight_filtration(n1, 1)
    r = restrict_map(n1, w.step(2), w.step(0))
    assert r.rows == w.step(0).dim and r.cols == w.step(2).dim

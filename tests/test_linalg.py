import itertools
import random
from fractions import Fraction

import pytest

from hodgecharts.cones import farkas_alternative
from hodgecharts.filtrations import weight_filtration
from hodgecharts.linalg import (
    RationalMatrix,
    Subspace,
    _null_rows,
    _pivot,
    dot,
    hnf_rows,
    image,
    integer_kernel,
    kernel,
    lattice_basis,
    rank,
)

from .oracles import (
    dot_product_matmul,
    filtration_satisfies_defining_properties,
    fraction_farkas_alternative,
    fraction_rref,
    inexact_values,
    random_nilpotent,
    solve,
    stacked_rank_contains,
    two_elimination_kernel,
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


def test_from_rows_rejects_a_wrong_stated_column_count():
    with pytest.raises(ValueError, match="stated 5"):
        RationalMatrix.from_rows([[1, 2, 3]], cols=5)
    with pytest.raises(ValueError):
        Subspace.from_vectors(5, [[1, 2, 3]])
    assert RationalMatrix.from_rows([[1, 2, 3]], cols=3).cols == 3
    assert RationalMatrix.from_rows([], cols=5).cols == 5


def test_sum_and_difference_reject_mismatched_shapes():
    """+ and - refuse operands of different shapes, in either order, as @
    and stack do; equal shapes still add entrywise."""
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    others = [
        RationalMatrix.from_rows([[1]]),
        RationalMatrix.from_rows([[1, 2]]),
        RationalMatrix.from_rows([[1], [2]]),
        RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]),
        RationalMatrix(0, 2, ()),
    ]
    for b in others:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="shape mismatch"):
                x + y
            with pytest.raises(ValueError, match="shape mismatch"):
                x - y
    assert (a + a).entries == ((2, 4), (6, 8))
    assert (a - a).is_zero()
    assert RationalMatrix(0, 3, ()) + RationalMatrix(0, 3, ()) == RationalMatrix(0, 3, ())


def test_power_rejects_negative_exponents():
    n = RationalMatrix.from_rows([[0, 1], [0, 0]])
    for k in (-1, -3):
        with pytest.raises(ValueError, match="negative power"):
            n.power(k)
    assert n.power(0) == RationalMatrix.identity(2)
    assert n.power(1) == n and n.power(2).is_zero()


def _mixed(rng):
    """An int in [-3, 3], or (one time in three) a non-integral Fraction."""
    if rng.random() < 1 / 3:
        return Fraction(rng.choice((-7, -5, -1, 1, 5, 7)), rng.choice((2, 3, 4, 6)))
    return rng.randint(-3, 3)


def _mixed_matrix(rng, rows, cols):
    return RationalMatrix.from_rows([[_mixed(rng) for _ in range(cols)] for _ in range(rows)])


def _mixed_matrices(rng, count):
    """Seeded matrices of every shape up to 8 x 9 that mix ints with
    non-integral Fractions: dense draws (mostly full rank), products through a
    thinner middle (rank deficient) and zero matrices."""
    for trial in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 9)
        if trial % 5 == 4:
            yield RationalMatrix.zeros(rows, cols)
        elif trial % 5 >= 2:
            mid = rng.randint(1, max(1, min(rows, cols) - 1))
            yield _mixed_matrix(rng, rows, mid) @ _mixed_matrix(rng, mid, cols)
        else:
            yield _mixed_matrix(rng, rows, cols)


def _unit_pivot_matrices(rng, count):
    """Integer matrices whose first column starts with -1, or with a non-unit
    that has a 1 or -1 below it, so rref negates the row or swaps the unit
    up."""
    for trial in range(count):
        rows, cols = rng.randint(2, 6), rng.randint(1, 7)
        m = [[rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(cols)] for _ in range(rows)]
        if trial % 2:
            m[0][0] = rng.choice((-3, -2, 2, 3))
            m[rng.randrange(1, rows)][0] = rng.choice((-1, 1))
        else:
            m[0][0] = -1
        yield RationalMatrix.from_rows(m)


def test_rref_matches_fraction_and_sympy_oracles():
    """Elimination with ints where values are integral gives the all-Fraction
    elimination's form and pivots, and sympy's: on mixed matrices, and on
    integer matrices where a unit pivot is -1 or lies below a non-unit."""
    import sympy

    rng = random.Random(SEED + 6)
    kinds = {"full": 0, "deficient": 0, "zero": 0}
    for m in (*_mixed_matrices(rng, 150), *_unit_pivot_matrices(rng, 120)):
        red, pivots = m.rref()
        assert (red, pivots) == fraction_rref(m)
        flat = [sympy.Rational(x.numerator, x.denominator) for x in m.flatten()]
        s_red, s_pivots = sympy.Matrix(m.rows, m.cols, flat).rref()
        assert pivots == s_pivots
        assert list(red.flatten()) == [Fraction(int(x.p), int(x.q)) for x in s_red]
        assert not inexact_values(red)
        r = len(pivots)
        kinds["zero" if r == 0 else "full" if r == min(m.rows, m.cols) else "deficient"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_kernel_is_one_elimination_matching_oracles(monkeypatch):
    """kernel(M) runs one rref, returns a basis already in RREF, and equals the
    two-elimination kernel and sympy's null space in RREF, on mixed matrices
    with zero rows, zero columns, full and deficient rank, and empty shapes."""
    import sympy

    rng = random.Random(SEED + 10)
    matrices = list(_mixed_matrices(rng, 400))
    for trial in range(240):
        rows, cols = rng.randint(1, 7), rng.randint(1, 8)
        matrices.append(_sparse_mixed_matrix(rng, rows, cols, trial % 2))
    matrices += [RationalMatrix(0, 3, ()), RationalMatrix(2, 0, ((), ())), RationalMatrix(0, 0, ())]
    calls = []
    original = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda m: calls.append(m) or original(m))
    kinds = {"full": 0, "deficient": 0, "zero": 0, "zero row": 0, "zero column": 0}
    for m in matrices:
        del calls[:]
        got = kernel(m)
        assert len(calls) == 1
        red, pivots = got.basis.rref()  # an RREF with no zero row is its own RREF
        assert got.ambient_dim == m.cols and red == got.basis and len(pivots) == got.dim
        assert got == two_elimination_kernel(m)
        assert not inexact_values(got)
        flat = [sympy.Rational(x.numerator, x.denominator) for x in m.flatten()]
        null = sympy.Matrix(m.rows, m.cols, flat).nullspace()
        assert len(null) == got.dim
        if null:
            want = sympy.Matrix.hstack(*null).T.rref()[0]
            assert list(got.basis.flatten()) == [Fraction(int(x.p), int(x.q)) for x in want]
        r = m.cols - got.dim
        kinds["zero" if r == 0 else "full" if r == min(m.rows, m.cols) else "deficient"] += 1
        kinds["zero row"] += any(not any(row) for row in m.entries) and r > 0
        kinds["zero column"] += any(not any(c) for c in zip(*m.entries)) and r > 0
    assert len(matrices) >= 600
    assert min(kinds.values()) >= 20, kinds


def test_null_rows_of_weight_filtration_steps_span_the_complement():
    """Read off a canonical step basis with no elimination, the null-space rows
    of each step of a random weight filtration are orthogonal to the step and
    number ambient - dim, so they are a basis of W_l^perp."""
    rng = random.Random(SEED + 11)
    for _ in range(30):
        dim = rng.randint(1, 7)
        w = weight_filtration(random_nilpotent(rng, dim), rng.randint(0, 2))
        for level in w.levels():
            step = w.step(level)
            rows = _null_rows(step.basis, tuple(map(_pivot, step.basis.entries)))
            assert len(rows) == dim - step.dim
            assert all(dot(p, v) == 0 for p in rows for v in step.basis.entries)
            assert rank(RationalMatrix(len(rows), dim, tuple(rows))) == len(rows)


def test_exact_values_are_ints_when_integral():
    """No float anywhere, and every integral value an int, in the outputs of
    rref, @, +, mul_vec, dot, kernel, solve, weight_filtration steps and
    farkas_alternative, on inputs that mix ints with non-integral Fractions."""
    half = RationalMatrix.from_rows([["1/2", "3/2"]])
    assert [type(x) for x in (half + half).flatten()] == [int, int]
    assert [type(x) for x in (half.transpose() @ half.scale(4)).flatten()] == [int] * 4
    assert type(dot(half.row(0), [2, Fraction(2, 3)])) is int
    rng = random.Random(SEED + 7)
    for m in _mixed_matrices(rng, 100):
        v = [_mixed(rng) for _ in range(m.cols)]
        outputs = [
            m.rref()[0], m @ m.transpose(), m + m.scale(Fraction(1, 3)), m.mul_vec(v),
            dot(v, v), kernel(m), solve(m, m.mul_vec(v)),
        ]
        assert not inexact_values(outputs)
    for dim in range(2, 7):
        d = [Fraction(_mixed(rng) or 1) for _ in range(dim)]
        diag, diag_inv = (
            RationalMatrix.from_rows(
                [[x if i == j else 0 for j in range(dim)] for i, x in enumerate(xs)]
            )
            for xs in (d, [1 / x for x in d])
        )
        n = diag @ random_nilpotent(rng, dim).scale(Fraction(2, 3)) @ diag_inv
        w = weight_filtration(n, 1)
        assert filtration_satisfies_defining_properties(n, w)
        assert not inexact_values([w.step(level) for level in w.levels()])
    for _ in range(200):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        a = [[_mixed(rng) for _ in range(ncols)] for _ in range(nrows)]
        b = [_mixed(rng) for _ in range(nrows)]
        got = farkas_alternative(RationalMatrix(nrows, ncols, tuple(map(tuple, a))), b)
        assert not inexact_values([got.solution or got.certificate])
        assert got == fraction_farkas_alternative(a, b, ncols)


def _sparse_mixed_matrix(rng, rows: int, cols: int, axis: int) -> RationalMatrix:
    """_mixed entries, each zero with probability 0.4, and a random set of the
    rows (axis 0) or columns (axis 1) zero throughout."""
    zeroed = {i for i in range(cols if axis else rows) if rng.random() < 0.3}
    entries = [
        [
            0 if (j if axis else i) in zeroed or rng.random() < 0.4 else _mixed(rng)
            for j in range(cols)
        ]
        for i in range(rows)
    ]
    return RationalMatrix.from_rows(entries, cols=cols)


def test_matmul_matches_dot_product_and_sympy():
    """The product that skips zero entries of A and B equals the dot-product
    definition and sympy's product, on shapes down to inner dimension 0 and
    with zero rows in A and zero columns in B; integral entries are ints."""
    import sympy

    def to_sympy(m):
        flat = [sympy.Rational(x.numerator, x.denominator) for x in m.flatten()]
        return sympy.Matrix(m.rows, m.cols, flat)

    rng = random.Random(SEED + 8)
    inner_zero = 0
    for trial in range(200):
        n, inner, p = (rng.randint(0, 6) for _ in range(3))
        if trial % 10 == 0:
            inner = 0
        inner_zero += inner == 0
        a, b = _sparse_mixed_matrix(rng, n, inner, 0), _sparse_mixed_matrix(rng, inner, p, 1)
        got = a @ b
        assert (got.rows, got.cols) == (n, p)
        assert got == dot_product_matmul(a, b)
        want = to_sympy(a) * to_sympy(b)
        assert list(got.flatten()) == [Fraction(int(x.p), int(x.q)) for x in want]
        assert not inexact_values(got)
    assert inner_zero >= 20


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


def test_orthogonal_complement_is_one_kernel(monkeypatch):
    """S^perp equals a fresh kernel of the basis for zero, full and random
    subspaces; it is eliminated once, its own complement is S itself, and
    neither equality nor hashing sees the stored complement."""
    rng = random.Random(SEED + 9)
    spaces = [Subspace.zero(4), Subspace.full(4), Subspace.zero(0)]
    for _ in range(40):
        dim = rng.randint(1, 6)
        vectors = [[_mixed(rng) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        spaces.append(Subspace.from_vectors(dim, vectors))
    calls = []
    original = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda m: calls.append(m) or original(m))
    for s in spaces:
        twin = Subspace(s.ambient_dim, s.basis)
        del calls[:]
        perp = s.orthogonal_complement()
        assert len(calls) == (1 if s.dim else 0)  # one kernel of a nonzero S
        assert perp == kernel(s.basis)
        assert s.dim + perp.dim == s.ambient_dim
        del calls[:]
        assert s.orthogonal_complement() is perp
        assert perp.orthogonal_complement() is s
        assert not calls
        assert s == twin and hash(s) == hash(twin)
        assert perp == twin.orthogonal_complement() and perp.orthogonal_complement() == twin


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


def test_mul_vec_matches_dot_product_definition():
    """M v, summed over the nonzero entries of v only, equals the product
    with v as a column, down to zero columns; integral entries are ints, and a
    vector of the wrong length is refused."""
    rng = random.Random(SEED + 10)
    for trial in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _sparse_mixed_matrix(rng, rows, cols, trial % 2)
        v = _sparse_mixed_matrix(rng, cols, 1, 0)
        got = m.mul_vec(v.col(0))
        assert got == dot_product_matmul(m, v).col(0)
        assert not inexact_values(got)
        with pytest.raises(ValueError):
            m.mul_vec(v.col(0) + (1,))
        if cols:
            with pytest.raises(ValueError):
                m.mul_vec(v.col(0)[1:])


def _read_off_cases(rng, count):
    """Seeded subspaces mixing ints with non-integral Fractions (random spans,
    including repeated and zero vectors, plus the zero, full and Q^0
    subspaces), each with vectors inside it and vectors drawn at random."""
    spaces = [Subspace.zero(0), Subspace.full(0)]
    spaces += [f(n) for n in (1, 4) for f in (Subspace.zero, Subspace.full)]
    for _ in range(count):
        dim = rng.randint(1, 7)
        vectors = [[_mixed(rng) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        if vectors and rng.random() < 0.3:
            vectors.append([2 * x for x in vectors[0]])
        spaces.append(Subspace.from_vectors(dim, vectors))
    for s in spaces:
        n = s.ambient_dim
        inside = [
            tuple(dot([_mixed(rng) for _ in range(s.dim)], s.basis.col(j)) for j in range(n))
            for _ in range(2)
        ]
        outside = [tuple(_mixed(rng) for _ in range(n)) for _ in range(2)]
        yield s, inside + outside


def test_residues_match_stacked_rank_membership():
    """On 300 seeded subspaces and on the zero, full and Q^0 ones, a vector's
    residues are all zero exactly when stacking it under the basis keeps the
    rank, and they are its coordinates in Q^n/S: subtracting them at the
    columns that lead no basis row leaves a vector of S."""
    rng = random.Random(SEED + 11)
    seen = {True: 0, False: 0}
    for s, vectors in _read_off_cases(rng, 300):
        pivots = set(map(_pivot, s.basis.entries))
        free = [j for j in range(s.ambient_dim) if j not in pivots]
        residues = s.residues(vectors)
        assert len(residues) == len(vectors)
        for v, res in zip(vectors, residues):
            member = stacked_rank_contains(s, v)
            seen[member] += 1
            assert s.contains_vector(v) is member
            assert (not any(res)) is member
            assert len(res) == len(free) and not inexact_values(res)
            rest = list(v)
            for j, x in zip(free, res):
                rest[j] -= x
            assert stacked_rank_contains(s, rest)
        with pytest.raises(ValueError):
            s.contains_vector((0,) * (s.ambient_dim + 1))
    assert min(seen.values()) >= 300, seen


def test_read_offs_run_no_elimination(monkeypatch):
    """contains_vector and residues read the RREF basis and never eliminate."""
    from hodgecharts.filtrations import weight_filtration
    from hodgecharts.gallery import genus2_cone

    rng = random.Random(SEED + 13)
    cases = list(_read_off_cases(rng, 40))
    cone = genus2_cone()
    n1 = cone.generators[0]
    w = weight_filtration(n1, 1)
    calls = []
    original = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda m: calls.append(m) or original(m))
    for s, vectors in cases:
        s.residues(vectors)
        for v in vectors:
            s.contains_vector(v)
    for level in w.levels():  # N W_l <= W_{l-2}
        assert all(
            w.step(level - 2).contains_vector(n1.mul_vec(row))
            for row in w.step(level).basis.entries
        )
    assert not calls

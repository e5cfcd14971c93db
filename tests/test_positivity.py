import random
from fractions import Fraction
from operator import mul

import pytest

from hodgecharts.errors import InvalidInput
from hodgecharts.linalg import RationalMatrix
from hodgecharts.positivity import (
    CurvatureTriple,
    curvature_identity_check,
    numerical_dimension,
    sigma_weight1,
    sigma_weight2,
)

from .oracles import (
    inexact_values,
    loop_apply,
    loop_curvature_identity_check,
    loop_sigma_weight1,
    loop_sigma_weight2,
    loop_slice_matrix,
)

SEED = 2207


def rank_one_triple(tstar, wstar, u):
    dim_t, dim_w, dim_u = len(tstar), len(wstar), len(u)
    entries = [
        [[tstar[s] * wstar[i] * u[j] for j in range(dim_u)] for i in range(dim_w)]
        for s in range(dim_t)
    ]
    return CurvatureTriple(dim_t, dim_w, dim_u, entries)


def test_identity_zero_map():
    z = CurvatureTriple(2, 2, 2, [[[0, 0], [0, 0]]] * 2)
    chk = curvature_identity_check(z, [1, 0], [0, 1])
    assert chk.lhs == chk.rhs == 0 and chk.match


def test_identity_rank_one_hand_value():
    tstar, wstar, u = [Fraction(1), Fraction(2)], [Fraction(3), Fraction(-1)], [
        Fraction(1),
        Fraction(0),
        Fraction(2),
    ]
    triple = rank_one_triple(tstar, wstar, u)
    e, xi = [Fraction(1), Fraction(1)], [Fraction(2), Fraction(-3)]
    chk = curvature_identity_check(triple, e, xi)
    t_val = sum(a * b for a, b in zip(tstar, xi))
    w_val = sum(a * b for a, b in zip(wstar, e))
    assert chk.match
    assert chk.rhs == t_val**2 * w_val**2 * sum(x * x for x in u)


def test_identity_random_triples():
    rng = random.Random(SEED)
    for _ in range(100):
        dt, dw, du = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        entries = [
            [[Fraction(rng.randint(-3, 3)) for _ in range(du)] for _ in range(dw)]
            for _ in range(dt)
        ]
        triple = CurvatureTriple(dt, dw, du, entries)
        e = [Fraction(rng.randint(-3, 3)) for _ in range(dw)]
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(dt)]
        assert curvature_identity_check(triple, e, xi).match


@pytest.mark.parametrize("samples", [0, -3])
def test_numerical_dimension_needs_a_sample(samples):
    """With no sample the generic rank would read 0, and n = dim_w - 1."""
    triple = CurvatureTriple(1, 2, 1, [[[1], [0]]])
    with pytest.raises(InvalidInput, match=f"samples must be at least 1, not {samples}"):
        numerical_dimension(triple, samples=samples)
    assert numerical_dimension(triple, samples=1) == (1, 2)


def test_numerical_dimension_cases():
    z = CurvatureTriple(2, 3, 2, [[[0, 0]] * 3] * 2)
    assert numerical_dimension(z) == (0, 2)
    # full-rank slices with dim T <= dim U
    ent = [[[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0]]]
    tri = CurvatureTriple(2, 2, 3, ent)
    rho, n = numerical_dimension(tri)
    assert rho == 2 and n == 3
    # symmetric-square family: A(xi) s = s . xi on 2x2 symmetric matrices
    pairs = [(0, 0), (0, 1), (1, 1)]
    entries = []
    for a, b in pairs:  # xi runs over the symmetric quadrics
        xi_mat = [[Fraction(0)] * 2 for _ in range(2)]
        xi_mat[a][b] += 1
        xi_mat[b][a] += 1
        slices = []
        for i, j in pairs:  # e runs over the symmetric tensors
            s_mat = [[Fraction(0)] * 2 for _ in range(2)]
            s_mat[i][j] += 1
            s_mat[j][i] += 1
            prod = [
                [sum(s_mat[r][k] * xi_mat[k][c] for k in range(2)) for c in range(2)]
                for r in range(2)
            ]
            slices.append([x for row in prod for x in row])
        entries.append(slices)
    sym_triple = CurvatureTriple(3, 3, 4, entries)
    rho, n = numerical_dimension(sym_triple)
    assert rho == 3  # generic symmetric tensor is invertible
    assert n == 3 - 1 + 3


def test_numerical_dimension_monotone_under_restriction():
    rng = random.Random(SEED + 1)
    for _ in range(10):
        ent = [
            [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(2)]
            for _ in range(3)
        ]
        big = CurvatureTriple(3, 2, 3, ent)
        small = CurvatureTriple(2, 2, 3, ent[:2])
        assert numerical_dimension(small)[0] <= numerical_dimension(big)[0]


def test_sigma_weight1():
    eye2 = RationalMatrix.identity(2)
    rep = sigma_weight1(eye2)
    assert rep.injective and rep.rank == 3
    assert not sigma_weight1(RationalMatrix.zeros(2, 2)).injective
    rank1 = RationalMatrix.from_rows([[1, 0], [0, 0]])
    rep1 = sigma_weight1(rank1)
    assert not rep1.injective and rep1.rank == 2


def test_sigma_weight1_iff_nonsingular():
    rng = random.Random(SEED + 2)
    for dim in (2, 3):
        for _ in range(40):
            rows = [
                [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)
            ]
            sym = [
                [rows[i][j] + rows[j][i] for j in range(dim)] for i in range(dim)
            ]
            q = RationalMatrix.from_rows(sym, cols=dim)
            from hodgecharts.linalg import rank as mat_rank

            nonsingular = mat_rank(q) == dim
            assert sigma_weight1(q).injective == nonsingular


def test_sigma_weight2():
    eye2 = RationalMatrix.identity(2)
    inj = CurvatureTriple(
        2, 2, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    )
    assert sigma_weight2(inj, eye2).injective
    zero_q = RationalMatrix.zeros(2, 2)
    rep = sigma_weight2(inj, zero_q)
    assert rep.rank == 0 and not rep.injective
    with pytest.raises(ValueError):
        bad = CurvatureTriple(2, 2, 2, [[[1, 0], [0, 0]]] * 2)
        sigma_weight2(bad, eye2)


def _random_scalar(rng):
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])


def _random_metric(rng, n, kind):
    if kind == "identity":
        return RationalMatrix.identity(n)
    rows = [[_random_scalar(rng) for _ in range(n)] for _ in range(n)]
    if kind == "symmetric":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    elif kind == "positive definite":  # B B^t + I
        rows = [
            [sum(map(mul, r, s)) + (i == j) for j, s in enumerate(rows)] for i, r in enumerate(rows)
        ]
    return RationalMatrix.from_rows(rows, cols=n)


def _det(rows):
    """Laplace expansion along the first row (the matrices here are at most 3 x 3)."""
    if not rows:
        return 1
    minors = (_det([r[:j] + r[j + 1:] for r in rows[1:]]) for j in range(len(rows)))
    return sum((-1) ** j * x * m for j, (x, m) in enumerate(zip(rows[0], minors)))


def _symmetric_positive_definite(m):
    """Sylvester's criterion by determinants: symmetric, with every leading
    principal minor positive."""
    rows = [list(r) for r in m.entries]
    return m.transpose() == m and all(
        _det([r[:k] for r in rows[:k]]) > 0 for k in range(1, m.rows + 1)
    )


def _same_sigma(new, old):
    """Equal rank and verdict, and the same matrix entry for entry.  A loop
    oracle matrix with no columns stores no rows at all, so there the new
    matrix must hold one empty row per row of its shape."""
    assert (new.rank, new.injective) == (old.rank, old.injective)
    assert (new.matrix.rows, new.matrix.cols) == (old.matrix.rows, old.matrix.cols)
    if old.matrix.cols:
        assert new.matrix.entries == old.matrix.entries
    else:
        assert new.matrix.entries == ((),) * new.matrix.rows
    assert not inexact_values(new.matrix)


def test_slice_products_match_loop_oracles():
    """apply, slice_matrix, the curvature identity and both sigma maps agree
    exactly with the index-loop versions, on int and Fraction triples of
    dims 0-3 (dim_t = 0 and dim_u = 0 included) under identity, positive
    definite and random metrics.  A metric is refused exactly when it is not
    symmetric positive definite; the loop then goes on with the identity."""
    rng = random.Random(SEED + 3)
    seen, sigma2_outcomes, metric_outcomes = set(), [], set()
    for n in range(240):
        dt, dw, du = (rng.randint(0, 3) for _ in range(3))
        if n % 8 == 0:
            dt = 0
        elif n % 8 == 1:
            du = 0
        integral = n % 2 == 0
        entries = [
            [[rng.randint(-3, 3) if integral else _random_scalar(rng) for _ in range(du)]
             for _ in range(dw)]
            for _ in range(dt)
        ]
        kind = ("identity", "positive definite", "general")[n % 3]
        metric = _random_metric(rng, du, kind)
        if not _symmetric_positive_definite(metric):
            with pytest.raises(InvalidInput, match="^metric must be (symmetric|positive definite)"):
                CurvatureTriple(dt, dw, du, entries, metric)
            metric_outcomes.add("refused")
            kind, metric = "identity", RationalMatrix.identity(du)
        elif kind == "general":
            metric_outcomes.add("accepted")
        triple = CurvatureTriple(dt, dw, du, entries, metric)
        seen.add((dt == 0, du == 0, kind, integral))
        e = [_random_scalar(rng) for _ in range(dw)]
        xi = [_random_scalar(rng) for _ in range(dt)]
        assert triple.apply(xi, e) == loop_apply(triple, xi, e)
        assert triple.slice_matrix(e) == loop_slice_matrix(triple, e)
        chk = curvature_identity_check(triple, e, xi)
        assert chk == loop_curvature_identity_check(triple, e, xi) and chk.match
        assert not inexact_values([triple.apply(xi, e), triple.slice_matrix(e), chk.lhs, chk.rhs])
        q = _random_metric(rng, dw, "symmetric")
        try:
            old = loop_sigma_weight2(triple, q)
        except ValueError:
            with pytest.raises(ValueError):
                sigma_weight2(triple, q)
            sigma2_outcomes.append("refused")
        else:
            _same_sigma(sigma_weight2(triple, q), old)
            sigma2_outcomes.append(old.injective)
        q1 = _random_metric(rng, rng.randint(0, 3), "symmetric")
        _same_sigma(sigma_weight1(q1), loop_sigma_weight1(q1))
    assert {(t0, u0) for t0, u0, _, _ in seen} == {
        (True, False), (True, True), (False, True), (False, False)
    }
    assert {kind for _, _, kind, _ in seen} == {"identity", "positive definite", "general"}
    assert metric_outcomes == {"refused", "accepted"}
    assert {"refused", True, False} <= set(sigma2_outcomes)


@pytest.mark.parametrize("short_or_long", [[1], [1, 2, 3]], ids=["short", "long"])
def test_wrong_length_vectors_raise(short_or_long):
    """e must have dim_w entries and xi dim_t entries: a short vector is not
    padded with zeros, and a long one is not an IndexError."""
    triple = CurvatureTriple(2, 2, 2, [[[1, 2], [3, 4]], [[0, 1], [1, 0]]])
    for call in (
        lambda: triple.apply([1, 1], short_or_long),
        lambda: triple.apply(short_or_long, [1, 1]),
        lambda: triple.slice_matrix(short_or_long),
        lambda: curvature_identity_check(triple, short_or_long, [1, 1]),
        lambda: curvature_identity_check(triple, [1, 1], short_or_long),
    ):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize(
    "dims, entries",
    [
        ((2, 1, 1), [[[1]]]),
        ((1, 2, 1), [[[1]]]),
        ((1, 1, 2), [[[1]]]),
        ((1, 2, 2), [[[1, 0], [1]]]),
    ],
    ids=["dim-t", "dim-w", "dim-u", "ragged"],
)
def test_entry_shape_faults_raise_one_error(dims, entries):
    with pytest.raises(ValueError, match="entry array has inconsistent shape"):
        CurvatureTriple(*dims, entries)


@pytest.mark.parametrize(
    "metric, message",
    [
        ([[2, 1], [1, "1/3"]], "positive definite: pivot 2 is -1/6"),
        ([[0, 0], [0, 1]], "positive definite: pivot 1 is 0"),
        ([[1, 0], [0, -1]], "positive definite: pivot 2 is -1"),
        ([[1, 1], [0, 1]], "symmetric"),
    ],
    ids=["indefinite", "semidefinite", "negative-pivot", "not-symmetric"],
)
def test_metric_must_be_symmetric_positive_definite(metric, message):
    """|A(xi) e|^2 is a norm only for a positive definite metric; the first
    input gave lhs = rhs = -1 and match true before it was refused."""
    metric = RationalMatrix.from_rows(metric)
    with pytest.raises(InvalidInput, match=f"^metric must be {message}$"):
        CurvatureTriple(1, 1, 2, [[[1, -3]]], metric)
    good = CurvatureTriple(1, 1, 2, [[[1, -3]]], RationalMatrix.from_rows([[2, 1], [1, "2/3"]]))
    assert curvature_identity_check(good, [1], [1]).lhs == 2  # 2 - 6 + 6

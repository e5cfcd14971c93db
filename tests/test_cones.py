import random
from fractions import Fraction

import pytest

from hodgecharts.cones import (
    _phase_one,
    farkas_alternative,
    farkas_split,
    k_index_map,
    positive_basis,
    relation_data,
    relation_space,
)
from hodgecharts.errors import ConeTooLarge, InvalidSplit
from hodgecharts.filtrations import NilpotentCone
from hodgecharts.gallery import (
    equal_pair_cone,
    genus2_cone,
    rank1_cone,
    single_cone,
)
from hodgecharts.linalg import RationalMatrix, Subspace

from .oracles import (
    adjoint_relation_space,
    farkas_branch_infeasible,
    fraction_phase_one,
    split_supports,
    unkeyed_k_index_map,
)

SEED = 4814


def test_relation_space_genus2():
    cone = genus2_cone()
    assert relation_space(cone, ()).dim == 0
    assert relation_space(cone, (1,)) == Subspace.from_vectors(
        3, [[1, 0, 0], [0, 1, -1]]
    )
    assert relation_space(cone, (1, 2)) == Subspace.full(3)


def test_farkas_alternative_examples():
    res = farkas_alternative(RationalMatrix.identity(2), [1, 1])
    assert res.solution == (Fraction(1), Fraction(1))
    res2 = farkas_alternative(RationalMatrix.from_rows([[1, -1]]), [-1])
    assert res2.solution is not None
    a, b = RationalMatrix.from_rows([[1], [-1]]), [1, 1]
    res3 = farkas_alternative(a, b)
    assert res3.certificate is not None
    y = res3.certificate
    assert all(
        sum(a.entries[i][j] * y[i] for i in range(2)) >= 0 for j in range(1)
    )
    assert sum(yi * bi for yi, bi in zip(y, b)) < 0


def _plug_in(a, b, res) -> bool:
    if res.solution is not None:
        x = res.solution
        return all(x_i >= 0 for x_i in x) and list(a.mul_vec(x)) == [
            Fraction(v) for v in b
        ]
    y = res.certificate
    ok = all(
        sum(a.entries[i][j] * y[i] for i in range(a.rows)) >= 0
        for j in range(a.cols)
    )
    return ok and sum(yi * Fraction(bi) for yi, bi in zip(y, b)) < 0


def test_farkas_alternative_against_elimination():
    rng = random.Random(SEED)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
        res = farkas_alternative(a, b)
        assert _plug_in(a, b, res)
        other = "certificate" if res.solution is not None else "solution"
        assert farkas_branch_infeasible(a, b, other)


def _random_lp(rng, kind: str):
    """(A rows, b, n) with rational entries.  "feasible": b = A x0 with x0 >= 0
    and zeros in x0 (degenerate vertices); "ties": every row a positive
    multiple of one of two base rows, b scaled alike or zero, so ratio tests
    tie; otherwise a random b, mostly infeasible."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)

    def q():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    a = [[q() for _ in range(n)] for _ in range(m)]
    if kind == "feasible":
        x0 = [Fraction(rng.choice((0, 0, 1, 2)), rng.choice((1, 2))) for _ in range(n)]
        b = [sum(x * y for x, y in zip(row, x0)) for row in a]
    elif kind == "ties":
        bases = [(a[0], rng.choice((0, 1, 2))), (a[-1], rng.choice((0, 0, 1)))]
        rows = []
        for _ in range(m):
            row, rhs = rng.choice(bases)
            c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            rows.append(([c * x for x in row], c * rhs))
        a, b = [r for r, _ in rows], [rhs for _, rhs in rows]
    else:
        b = [q() for _ in range(m)]
    return a, b, n


def test_phase_one_matches_fraction_oracle():
    """Integer pivoting takes the Fraction tableau's pivot sequence: the same
    value, point and multipliers on feasible, infeasible and tied LPs."""
    rng = random.Random(SEED + 5)
    outcomes = {True: 0, False: 0}
    for trial in range(2400):
        a, b, n = _random_lp(rng, ("feasible", "ties", "random")[trial % 3])
        got = _phase_one([list(r) for r in a], list(b), n)
        assert got == fraction_phase_one([list(r) for r in a], list(b), n)
        outcomes[got[0] == 0] += 1
    assert min(outcomes.values()) > 400


def test_farkas_split_examples():
    sp = farkas_split(Subspace.zero(3))
    assert sp.support == ()
    assert all(x > 0 for x in sp.cowitness)
    sp_full = farkas_split(Subspace.full(4))
    assert sp_full.support == (1, 2, 3, 4)
    sp_line = farkas_split(Subspace.from_vectors(2, [[1, -1]]))
    assert sp_line.support == ()
    assert sp_line.cowitness[0] == sp_line.cowitness[1] > 0
    assert split_supports(Subspace.from_vectors(2, [[1, -1]])) == [()]


def test_farkas_split_unique_support_random():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        dim = rng.randint(1, 5)
        nvecs = rng.randint(0, dim)
        s = Subspace.from_vectors(
            dim,
            [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(nvecs)],
        )
        sp = farkas_split(s)
        # witness properties, exactly
        assert all(x >= 0 for x in sp.witness) and all(x >= 0 for x in sp.cowitness)
        assert tuple(i + 1 for i, x in enumerate(sp.witness) if x > 0) == sp.support
        co = tuple(i + 1 for i, x in enumerate(sp.cowitness) if x > 0)
        assert co == tuple(
            i for i in range(1, dim + 1) if i not in sp.support
        )
        assert s.contains_vector(sp.witness)
        assert s.orthogonal_complement().contains_vector(sp.cowitness)
        assert sum(a * b for a, b in zip(sp.witness, sp.cowitness)) == 0
        # exhaustive uniqueness
        assert split_supports(s) == [sp.support]


def test_positive_basis_examples():
    cone = genus2_cone()
    s1 = relation_space(cone, (1,))
    basis = positive_basis(s1, (1,))
    assert [[int(x) for x in r] for r in basis.entries] == [[0, 1, 1]]
    assert positive_basis(Subspace.full(3), (1, 2, 3)).rows == 0
    b0 = positive_basis(Subspace.zero(3), ())
    assert b0.rows == 3
    assert all(x > 0 for row in b0.entries for x in row)
    assert Subspace.from_vectors(3, b0.entries) == Subspace.full(3)


def test_positive_basis_validates_support():
    with pytest.raises(InvalidSplit):
        positive_basis(Subspace.zero(2), (1,))
    with pytest.raises(InvalidSplit):
        # K = {1,2} but S^perp does not vanish there
        positive_basis(Subspace.from_vectors(2, [[1, 1]]), (1, 2))


def test_k_index_map_genus2():
    km = k_index_map(genus2_cone())
    assert km.table[()] == ()
    for i in (1, 2, 3):
        assert km.table[(i,)] == (i,)
    for pair in ((1, 2), (1, 3), (2, 3), (1, 2, 3)):
        assert km.table[pair] == (1, 2, 3)
    assert km.image == ((), (1,), (2,), (3,), (1, 2, 3))
    assert km.strata[(1, 2, 3)] == ((1, 2, 3), (1, 2), (1, 3), (2, 3))[
        ::-1
    ] or set(km.strata[(1, 2, 3)]) == {(1, 2), (1, 3), (2, 3), (1, 2, 3)}


def test_k_index_map_small_cones():
    km = k_index_map(single_cone())
    assert km.table == {(): (), (1,): (1,)}
    km2 = k_index_map(rank1_cone())
    assert km2.table[(1,)] == (1, 2)
    assert km2.table[()] == ()
    km3 = k_index_map(equal_pair_cone())
    assert km3.table[()] == ()
    assert relation_space(equal_pair_cone(), ()) == Subspace.from_vectors(
        2, [[1, -1]]
    )


def test_k_index_map_cap(monkeypatch):
    import hodgecharts.cones as cones_mod

    monkeypatch.setattr(cones_mod, "MAX_GENERATORS", 2)
    with pytest.raises(ConeTooLarge):
        k_index_map(genus2_cone())


def test_standard_triple_block_cone():
    from hodgecharts.gallery import standard_triple_block_cone

    cone = standard_triple_block_cone()
    assert relation_space(cone, ()).dim == 0
    assert relation_space(cone, (1,)) == Subspace.from_vectors(2, [[1, 0]])
    km = k_index_map(cone)
    assert km.table == {
        (): (),
        (1,): (1,),
        (2,): (2,),
        (1, 2): (1, 2),
    }


def test_k_map_fixed_point_properties():
    from hodgecharts.gallery import standard_triple_block_cone

    for cone in (
        genus2_cone(),
        rank1_cone(),
        single_cone(),
        equal_pair_cone(),
        standard_triple_block_cone(),
    ):
        km = k_index_map(cone)
        for index, support in km.table.items():
            assert set(index) <= set(support)  # I <= K_I
            assert km.table[support] == support  # K_{K_I} = K_I
            assert relation_space(cone, index) == relation_space(cone, support)


def test_nested_index_properties():
    """I <= I' <= K_I forces S_I = S_{I'}; monotonicity along inclusions."""
    from hodgecharts.gallery import standard_triple_block_cone

    for cone in (genus2_cone(), rank1_cone(), standard_triple_block_cone()):
        km = k_index_map(cone)
        spaces = {i: relation_space(cone, i) for i in km.table}
        for index in km.table:
            for larger in km.table:
                if set(index) <= set(larger):
                    assert spaces[larger].contains(spaces[index])
                    if set(larger) <= set(km.table[index]):
                        assert spaces[index] == spaces[larger]


def test_relation_data_bundle():
    data = relation_data(genus2_cone(), (2,))
    assert data.support == (2,)
    assert [[int(x) for x in r] for r in data.basis.entries] == [[1, 0, 1]]
    assert data.space.contains_vector(data.witness)


def _sp_form(g):
    return RationalMatrix.from_rows(
        [[-1 if j == i + g else 1 if i == j + g else 0 for j in range(2 * g)] for i in range(2 * g)]
    )


def _block(g, s, lower=False):
    """[[0, S], [0, 0]], or [[0, 0], [S, 0]] when lower."""
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        for j in range(g):
            if lower:
                rows[g + i][j] = s[i][j]
            else:
                rows[i][g + j] = s[i][j]
    return RationalMatrix.from_rows(rows)


def _random_sym(rng, g, lo=-2, hi=2):
    upper = [[rng.randint(lo, hi) for _ in range(g)] for _ in range(g)]
    return [[upper[min(i, j)][max(i, j)] for j in range(g)] for i in range(g)]


def _random_abelian_cone(rng, g, k):
    """k generators [[0, A A^T], [0, 0]] of sp(2g) (positive semidefinite
    blocks), conjugated by a random isometry."""
    blocks = []
    while len(blocks) < k:
        a = [[rng.randint(-1, 1) for _ in range(2)] for _ in range(g)]
        s = [[sum(x * y for x, y in zip(a[i], a[j])) for j in range(g)] for i in range(g)]
        if any(any(row) for row in s):
            blocks.append(s)
    return _conjugated_sp_cone(rng, g, blocks)


def _conjugated_sp_cone(rng, g, blocks):
    """Generators [[0, S], [0, 0]] of sp(2g), one per block S, conjugated by a
    random isometry [[I, 0], [C, I]] [[I, B], [0, I]] so that no entry pattern
    is special."""
    one = RationalMatrix.identity(2 * g)
    b, c = _random_sym(rng, g, -1, 1), _random_sym(rng, g, -1, 1)
    iso = (one + _block(g, c, lower=True)) @ (one + _block(g, b))
    inv = (one - _block(g, b)) @ (one - _block(g, c, lower=True))
    gens = [iso @ _block(g, s) @ inv for s in blocks]
    return NilpotentCone(2 * g, 1, _sp_form(g), gens)


# Cycle vectors gamma_e in Z^g of the edges of 2-edge-connected graphs (one
# fundamental cycle per coordinate); the graphic cone has one generator with
# block gamma_e gamma_e^T per edge.
GRAPHS = {
    "theta": [(1, 0), (0, 1), (1, 1)],  # three parallel edges
    "theta-chord": [(1, -1), (1, 0), (1, 0), (0, 1)],  # a triangle plus a chord
    "figure-eight": [(1, 0), (1, 0), (0, 1), (0, 1)],  # two 2-cycles on one vertex
    "banana": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],  # four parallel edges
    "k4": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (-1, 0, 1), (0, -1, -1)],
}


def _graphic_cone(rng, gammas):
    """The graphic cone of the cycle vectors, edges in random order, conjugated
    by a random isometry."""
    gammas = list(gammas)
    rng.shuffle(gammas)
    blocks = [[[a * b for b in gam] for a in gam] for gam in gammas]
    return _conjugated_sp_cone(rng, len(gammas[0]), blocks)


def _k3_cone(q_l, lambdas):
    """Weight-2 cone on <e> + L + <f> with Q(e, f) = 1 and Q|_L = diag(q_l):
    N_lambda sends f to lambda and v in L to -Q(lambda, v) e, so N_lambda^2 = 0
    exactly when lambda is isotropic."""
    b = len(q_l)
    n = b + 2
    form = [[0] * n for _ in range(n)]
    form[0][n - 1] = form[n - 1][0] = 1
    for i in range(b):
        form[1 + i][1 + i] = q_l[i]
    gens = []
    for lam in lambdas:
        m = [[0] * n for _ in range(n)]
        for i, x in enumerate(lam):
            m[1 + i][n - 1] = x
            m[0][1 + i] = -q_l[i] * x
        gens.append(RationalMatrix.from_rows(m))
    return NilpotentCone(n, 2, RationalMatrix.from_rows(form), gens)


def _random_k3_cone(rng, b, k):
    """Q|_L = diag(1, -1, ..., -1) and k nonzero lambda in {-1, 0, 1}^b."""
    lambdas = []
    while len(lambdas) < k:
        lam = [rng.randint(-1, 1) for _ in range(b)]
        if any(lam):
            lambdas.append(lam)
    return _k3_cone([1] + [-1] * (b - 1), lambdas)


def _pointed_k3_cone(rng, b, k):
    """Q|_L = -I_b and k distinct nonzero lambda in {0, 1, 2}^b: a pointed
    cone, as a monodromy cone is."""
    lambdas = []
    while len(lambdas) < k:
        lam = [rng.randint(0, 2) for _ in range(b)]
        if any(lam) and lam not in lambdas:
            lambdas.append(lam)
    return _k3_cone([-1] * b, lambdas)


def _oracle_cones():
    from hodgecharts.gallery import (
        standard_triple_block_cone,
        weight2_inert_orbit,
        weight2_jordan3_cone,
        weight2_twoblock_cone,
    )

    yield from (
        genus2_cone(),
        rank1_cone(),
        single_cone(),
        equal_pair_cone(),
        standard_triple_block_cone(),
        weight2_jordan3_cone(),
        weight2_twoblock_cone(),
        weight2_inert_orbit().cone,
    )
    rng = random.Random(SEED + 2)
    for g, k in ((2, 3), (2, 4), (3, 3)):
        yield _random_abelian_cone(rng, g, k)
    for b, k in ((2, 3), (3, 3), (3, 3), (4, 3)):
        yield _random_k3_cone(rng, b, k)


def test_relation_space_matches_adjoint_oracle():
    """The V-side criterion agrees with W_{-1}(ad N_I) on every index set."""
    for cone in _oracle_cones():
        for mask in range(1, 1 << cone.k):
            index = tuple(i + 1 for i in range(cone.k) if mask >> i & 1)
            assert relation_space(cone, index) == adjoint_relation_space(cone, index), (
                cone.dim, cone.weight, index,
            )


def _graphic_cones(rng):
    for gammas in GRAPHS.values():
        yield _graphic_cone(rng, gammas)


def test_k_index_map_matches_unkeyed_path():
    """Keying S_I and its split by W(N_I) changes no table, image, stratum or
    split: every index set recomputed with relation_space and farkas_split."""
    rng = random.Random(SEED + 3)
    for cone in (*_oracle_cones(), *_graphic_cones(rng)):
        km = k_index_map(cone)
        table, image, strata, splits = unkeyed_k_index_map(cone)
        assert list(km.table.items()) == list(table.items())
        assert km.image == image
        assert km.strata == strata
        assert km.splits == {k: splits[k] for k in image}


def _polarized_type_cones():
    """Generated cones of polarized type: graphic cones, abelian sp(2g) cones
    with positive semidefinite blocks and pointed K3-type cones."""
    rng = random.Random(SEED + 4)
    yield from _graphic_cones(rng)
    for g, k in ((2, 3), (2, 4), (3, 3), (3, 4), (3, 5)):
        yield _random_abelian_cone(rng, g, k)
    for b, k in ((2, 3), (3, 3), (3, 4), (4, 3), (4, 4)):
        yield _pointed_k3_cone(rng, b, k)


def test_k_map_closure_laws_on_polarized_cones():
    """I -> K_I is extensive, idempotent and monotone on polarized-type cones.
    Measured, not proven, and false on some indefinite cones that the CLI
    accepts, so no library code relies on it."""
    for cone in _polarized_type_cones():
        table = k_index_map(cone).table
        for index, support in table.items():
            assert set(index) <= set(support)
            assert table[support] == support
        for index, support in table.items():
            for larger, larger_support in table.items():
                if set(index) <= set(larger):
                    assert set(support) <= set(larger_support), (index, larger)

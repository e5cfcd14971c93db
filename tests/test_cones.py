import random
from fractions import Fraction

import pytest

from hodgecharts.cones import (
    _relation_space_of,
    farkas_alternative,
    farkas_split,
    k_index_map,
    positive_basis,
    relation_space,
)
from hodgecharts.errors import ConeTooLarge, InvalidSplit
from hodgecharts.filtrations import NilpotentCone, adjoint_filtration, weight_filtration
from hodgecharts.gallery import (
    equal_pair_cone,
    genus2_cone,
    rank1_cone,
    single_cone,
)
from hodgecharts.linalg import (
    RationalMatrix,
    Subspace,
    _primitive_integer,
    kernel,
    lattice_basis,
)

from .oracles import (
    adjoint_relation_space,
    all_levels_relation_space,
    farkas_branch_infeasible,
    fraction_farkas_alternative,
    inexact_values,
    matroid_closure_k_map,
    per_lp_farkas_split,
    solve_first_dependency,
    solve_positive_basis,
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
    """farkas_alternative's integer pivoting takes the Fraction tableau's
    pivot sequence: the same point, or the certificate from the same
    multipliers, on feasible, infeasible and tied LPs."""
    rng = random.Random(SEED + 5)
    outcomes = {True: 0, False: 0}
    for trial in range(2400):
        a, b, n = _random_lp(rng, ("feasible", "ties", "random")[trial % 3])
        got = farkas_alternative(RationalMatrix(len(a), n, tuple(map(tuple, a))), b)
        assert got == fraction_farkas_alternative([list(r) for r in a], list(b), n)
        outcomes[got.solution is not None] += 1
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


def test_farkas_split_matches_per_lp_path():
    """One integer tableau per split, with each coordinate's row e_i added to
    the scaled rows of S^perp, gives the support, witness and cowitness of
    one farkas_alternative per coordinate: the same tableau, so the same
    pivots.  Random spans, half with non-integral entries, mostly split all
    or nothing; the kernels of random lattices with a positive row split
    properly.  Both often give S^perp a basis whose denominators scale the
    e_i row too."""
    rng = random.Random(SEED + 9)
    spaces = [s for s, _ in _positive_lattice_splits(rng, 150)]
    for trial in range(300):
        dim = rng.randint(1, 6)
        spanning = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)) if trial % 2 else 1)
             for _ in range(dim)]
            for _ in range(rng.randint(0, dim))
        ]
        spaces.append(Subspace.from_vectors(dim, spanning))
    scaled = proper = 0
    for s in spaces:
        split = farkas_split(s)
        assert split == per_lp_farkas_split(s)
        scaled += any(type(x) is Fraction for x in s.orthogonal_complement().basis.flatten())
        proper += 0 < len(split.support) < s.ambient_dim
    assert scaled > 120 and proper > 90, (scaled, proper)


def test_positive_basis_examples():
    cone = genus2_cone()
    s1 = relation_space(cone, (1,))
    split = farkas_split(s1)
    assert split.support == (1,)
    basis = positive_basis(s1, split)
    assert [[int(x) for x in r] for r in basis.entries] == [[0, 1, 1]]
    full = Subspace.full(3)
    assert positive_basis(full, farkas_split(full)).rows == 0
    zero = Subspace.zero(3)
    b0 = positive_basis(zero, farkas_split(zero))
    assert b0.rows == 3
    assert all(x > 0 for row in b0.entries for x in row)
    assert Subspace.from_vectors(3, b0.entries) == Subspace.full(3)


def _positive_lattice_splits(rng, count):
    """(S, split) for S = L^perp, with L a random integer lattice on a nonempty
    set C of coordinates that holds a vector positive on C: the split's
    support is the complement of C, on which S^perp vanishes."""
    out = []
    for _ in range(count):
        k = rng.randint(1, 6)
        c = [i for i in range(k) if rng.random() < 0.7] or [rng.randrange(k)]
        rows = [
            [rng.randint(-3, 3) if i in c else 0 for i in range(k)]
            for _ in range(rng.randint(0, len(c) - 1))
        ]
        rows.append([rng.randint(1, 3) if i in c else 0 for i in range(k)])
        s = kernel(RationalMatrix.from_rows(rows, cols=k))
        split = farkas_split(s)
        assert split.support == tuple(i + 1 for i in range(k) if i not in c)
        out.append((s, split))
    return out


def test_positive_basis_matches_solve_oracle():
    """The certificate depends on the first HNF row of S^perp, so the
    positive basis that replaces that row equals the one that replaces the
    row found by solve, on every split of the oracle cones whose S^perp
    vanishes on the support (the others are refused), and on random lattices
    with a positive certificate."""
    pairs = [
        pair for cone in _oracle_cones() for pair in k_index_map(cone).splits.values()
    ]
    pairs += _positive_lattice_splits(random.Random(SEED + 5), 200)
    dropped = refused = 0
    for s, split in pairs:
        try:
            basis = positive_basis(s, split)
        except InvalidSplit:
            refused += 1
            continue
        h = lattice_basis(s.orthogonal_complement())
        if h.rows:
            assert solve_first_dependency(h, _primitive_integer(split.cowitness)) == 0
        assert basis == solve_positive_basis(s, split)
        dropped += basis.rows > 1
    assert dropped >= 50 and refused < len(pairs) // 10, (dropped, refused)


def test_positive_basis_validates_support():
    # K = {1,2} but S^perp does not vanish there
    s = Subspace.from_vectors(2, [[1, 1]])
    split = farkas_split(s)
    assert split.support == (1, 2)
    with pytest.raises(InvalidSplit, match=r"^stratum K=\(1, 2\): N_1 is not in W_-1"):
        positive_basis(s, split)


def test_k_index_map_genus2():
    km = k_index_map(genus2_cone())
    assert km.table[()] == ()
    for i in (1, 2, 3):
        assert km.table[(i,)] == (i,)
    for pair in ((1, 2), (1, 3), (2, 3), (1, 2, 3)):
        assert km.table[pair] == (1, 2, 3)
    assert km.image == ((), (1,), (2,), (3,), (1, 2, 3))
    stratum = {index for index, support in km.table.items() if support == (1, 2, 3)}
    assert stratum == {(1, 2), (1, 3), (2, 3), (1, 2, 3)}


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
    """relation_table finds a stratum's chart by K; its exponent rows are the
    rows of its positive basis, held once."""
    from hodgecharts.charts import build_atlas

    atlas = build_atlas(genus2_cone())
    data = atlas.relation_table[(2,)]
    assert data in atlas.charts and data.support == (2,)
    assert data.exponents is data.basis.entries
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


def _psd_blocks(rng, g, k):
    """k nonzero positive semidefinite blocks A A^T, with A a g x 2 matrix."""
    blocks = []
    while len(blocks) < k:
        a = [[rng.randint(-1, 1) for _ in range(2)] for _ in range(g)]
        s = [[sum(x * y for x, y in zip(a[i], a[j])) for j in range(g)] for i in range(g)]
        if any(any(row) for row in s):
            blocks.append(s)
    return blocks


def _random_abelian_cone(rng, g, k):
    """k generators [[0, A A^T], [0, 0]] of sp(2g) (positive semidefinite
    blocks), conjugated by a random isometry."""
    return _conjugated_sp_cone(rng, g, _psd_blocks(rng, g, k))


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


def _random_graph_gammas(rng, vertices, edges):
    """Cycle vectors gamma_e of a random connected bridgeless multigraph
    without loops: the columns of a basis of its cycle space, the kernel of
    the incidence matrix.  A disconnected graph, or a bridge (gamma_e = 0),
    is drawn again."""
    while True:
        ends = [rng.sample(range(vertices), 2) for _ in range(edges)]
        incidence = [[(u == v) - (w == v) for u, w in ends] for v in range(vertices)]
        cycles = kernel(RationalMatrix.from_rows(incidence)).basis.entries
        gammas = list(zip(*cycles))
        if len(cycles) == edges - vertices + 1 and all(map(any, gammas)):
            return gammas


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


def _gallery_cones():
    from hodgecharts.gallery import (
        standard_triple_block_cone,
        weight2_inert_orbit,
        weight2_jordan3_cone,
        weight2_twoblock_cone,
    )

    return (
        genus2_cone(),
        rank1_cone(),
        single_cone(),
        equal_pair_cone(),
        standard_triple_block_cone(),
        weight2_jordan3_cone(),
        weight2_twoblock_cone(),
        weight2_inert_orbit().cone,
    )


def _oracle_cones():
    yield from _gallery_cones()
    rng = random.Random(SEED + 2)
    for g, k in ((2, 3), (2, 4), (3, 3)):
        yield _random_abelian_cone(rng, g, k)
    for b, k in ((2, 3), (3, 3), (3, 3), (4, 3)):
        yield _random_k3_cone(rng, b, k)


def _weight3_cone():
    """Weight-3 cone on Q^4 + Q^2.  N e_i = e_(i+1) on Q^4 preserves
    Q(e_1, e_4) = -1, Q(e_2, e_3) = 1, and N^3 != 0 = N^4, so W(N) has three
    levels below the center; M e_5 = e_6 preserves Q(e_5, e_6) = -1.  The
    generators N, N^3 + M and M - 2N are conjugated by two transvections
    x -> x + Q(v, x) v, of matrix I + v v^T Q and inverse I - v v^T Q, which
    are isometries of Q."""
    form = RationalMatrix.from_rows([
        [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0], [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0],
    ])
    n = RationalMatrix.from_rows([[int(i == j + 1 and i < 4) for j in range(6)] for i in range(6)])
    m = RationalMatrix.from_rows([[int((i, j) == (5, 4)) for j in range(6)] for i in range(6)])
    one = RationalMatrix.identity(6)
    iso, inv = one, one
    for v in ([1, 0, 1, 0, 1, 0], [0, 1, -1, 1, 0, 2]):
        vv = RationalMatrix.from_rows([[a * b for b in v] for a in v]) @ form
        iso, inv = iso @ (one + vv), (one - vv) @ inv
    assert iso @ inv == one and iso.transpose() @ form @ iso == form
    gens = [n, n.power(3) + m, m - n.scale(2)]
    return NilpotentCone(6, 3, form, [iso @ g @ inv for g in gens])


def _non_orbit_k3_cone():
    """An indefinite K3-type draw whose interior points N_1 + N_2 + N_3 and
    2 N_1 + N_2 + N_3 have different weight filtrations: W is constant on
    the interior of a nilpotent orbit's cone (Cattani-Kaplan), so this cone
    is none."""
    rng = random.Random(SEED + 8)
    while True:
        cone = _random_k3_cone(rng, 4, 3)
        inner = cone.n_of((1, 2, 3))
        if weight_filtration(inner, 2) != weight_filtration(inner + cone.generators[0], 2):
            return cone


def test_relation_space_matches_adjoint_oracle():
    """S_I from the levels at and above the center of W(N_I) equals S_I from
    every level, and W_{-1}(ad N_I) built on the isometry algebra, on every
    index set of the oracle cones, a weight-3 cone with three levels below
    the center, and an indefinite K3-type cone that is no nilpotent orbit."""
    below = set()
    for cone in (*_oracle_cones(), _weight3_cone(), _non_orbit_k3_cone()):
        for mask in range(1, 1 << cone.k):
            index = tuple(i + 1 for i in range(cone.k) if mask >> i & 1)
            w = weight_filtration(cone.n_of(index), cone.weight)
            s = _relation_space_of(cone, w)
            assert s == all_levels_relation_space(cone, w), (cone.dim, cone.weight, index)
            assert s == relation_space(cone, index) == adjoint_relation_space(cone, index), (
                cone.dim, cone.weight, index,
            )
            below.add(w.center - w.low)
    assert below == {0, 1, 2, 3}


def test_relation_space_of_eliminates_once(monkeypatch):
    """Given W(N_I), S_I takes one rref, the kernel of its conditions: each
    W_l^perp is read off the canonical step basis."""
    calls = []
    original = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda m: calls.append(m) or original(m))
    for cone in _oracle_cones():
        for mask in range(1, 1 << cone.k):
            index = tuple(i + 1 for i in range(cone.k) if mask >> i & 1)
            w = weight_filtration(cone.n_of(index), cone.weight)
            del calls[:]
            s = _relation_space_of(cone, w)
            assert len(calls) == 1
            assert s == relation_space(cone, index)


def test_index_sets_reject_entries_that_are_not_ints():
    """A float, string or bool entry is an error, never truncated or parsed."""
    cone = genus2_cone()
    for bad in (1.7, 1.0, "2", True):
        with pytest.raises(ValueError, match="must be ints"):
            relation_space(cone, [bad])
        with pytest.raises(ValueError, match="must be ints"):
            adjoint_filtration(cone, [1, bad])
    assert relation_space(cone, [2, 1, 2]) == relation_space(cone, (1, 2))


def _graphic_cones(rng):
    for gammas in GRAPHS.values():
        yield _graphic_cone(rng, gammas)


def test_k_index_map_matches_unkeyed_path():
    """Keying S_I and its split by W(N_I), and W(N_I) by the matrix N_I,
    changes no table, image or split: every index set recomputed with
    relation_space and farkas_split.  Some cones repeat a matrix N_I, so the
    memo on N_I is exercised."""
    rng = random.Random(SEED + 3)
    repeated = 0
    for cone in (*_oracle_cones(), *_graphic_cones(rng)):
        km = k_index_map(cone)
        table, image, splits = unkeyed_k_index_map(cone)
        assert list(km.table.items()) == list(table.items())
        assert km.image == image
        assert km.splits == {k: splits[k] for k in image}
        nonempty = [index for index in table if index]
        repeated += len({cone.n_of(index) for index in nonempty}) < len(nonempty)
    assert repeated


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


def test_k_index_map_is_the_matroid_closure():
    """On graphic cones and on sp(2g) cones with positive semidefinite
    blocks, K_I is the closure of I in the matroid of the generators' images:
    gamma_e for the edge e of a graph, the row space of S_i for the block S_i.
    A generator N = [[0, S], [0, 0]] has W(N) = (im N <= ker N <= V), fixed by
    im S, and for semidefinite blocks im sum S_i = sum im S_i, so S_I and K_I
    depend on I only through that span; the equality with the closure is
    observed here, not proved.  K3-type cones lie outside the statement.
    Conjugating by an isometry changes no image's matroid."""
    rng = random.Random(SEED + 7)
    cases = []
    for vertices, edges in ((3, 5), (5, 8), (7, 10), (9, 12)):
        gammas = _random_graph_gammas(rng, vertices, edges)
        blocks = [[[a * b for b in gam] for a in gam] for gam in gammas]
        cases.append((_conjugated_sp_cone(rng, len(gammas[0]), blocks), [[g] for g in gammas]))
    for g, k in ((3, 6), (4, 6)):
        blocks = _psd_blocks(rng, g, k)
        cases.append((_conjugated_sp_cone(rng, g, blocks), blocks))
    for cone, images in cases:
        km = k_index_map(cone)
        table, image = matroid_closure_k_map(images, cone.dim // 2)
        assert list(km.table.items()) == list(table.items())
        assert km.image == image


def _atlas_summary(cone):
    from hodgecharts.charts import build_atlas

    atlas = build_atlas(cone)
    km = atlas.k_map
    held = [(c.space, c.basis, c.witness, c.cowitness) for c in atlas.charts]
    assert not inexact_values(held)
    return (
        list(km.table.items()), km.image, [c.exponents for c in atlas.charts],
        atlas.relations(), atlas.certificate_chart(),
    )


def test_atlas_unchanged_by_non_integral_rescaling_and_conjugation():
    """W(cN) = W(N) and W(g N g^-1) = g W(N) leave every S_I, and so the whole
    atlas, unchanged: scaling the generators by 2/3, or conjugating them by the
    non-unimodular isometry diag(D, D^-1) of sp(2g), drives non-integral
    values through the atlas path and must give the same table, image,
    chart exponents, relations and certificate chart."""
    rng = random.Random(SEED + 6)
    abelian = (_random_abelian_cone(rng, g, k) for g, k in ((2, 3), (3, 3), (3, 4)))
    for cone in (*_graphic_cones(rng), *abelian):
        d = [Fraction(2), Fraction(1, 3), Fraction(5, 2)][: cone.dim // 2]
        iso, iso_inv = (
            RationalMatrix.from_rows(
                [[x if i == j else 0 for j in range(cone.dim)] for i, x in enumerate(diag)]
            )
            for diag in (d + [1 / x for x in d], [1 / x for x in d] + d)
        )
        scaled = [n.scale(Fraction(2, 3)) for n in cone.generators]
        conjugated = [iso @ n @ iso_inv for n in cone.generators]
        assert (iso.transpose() @ cone.form @ iso) == cone.form
        expected = _atlas_summary(cone)
        for gens in (scaled, conjugated):
            assert any(type(x) is Fraction for n in gens for x in n.flatten())
            other = NilpotentCone(cone.dim, cone.weight, cone.form, gens)
            assert _atlas_summary(other) == expected

import random
from fractions import Fraction

import pytest

from hodgecharts.errors import NotFiltrationCompatible, NotNilpotent
from hodgecharts.filtrations import (
    NilpotentCone,
    adjoint_filtration,
    graded_pieces,
    induced_map,
    polarization_form,
    primitive_subspace,
    rwfp_consequence_check,
    weight_filtration,
)
from hodgecharts.gallery import genus2_cone, rank1_cone, symplectic_form_4
from hodgecharts.linalg import RationalMatrix, Subspace, rank, solve

from .oracles import (
    filtration_satisfies_defining_properties,
    intersection_weight_filtration,
    random_nilpotent,
)
from .test_cones import _conjugated_sp_cone, _k3_cone

SEED = 771


def test_zero_matrix_filtration():
    w = weight_filtration(RationalMatrix.zeros(3, 3), 1)
    assert w.step(0).dim == 0
    assert w.step(1) == Subspace.full(3)


def test_zero_dimensional_space_filtration():
    w = weight_filtration(RationalMatrix(0, 0, ()), 3)
    assert (w.low, w.high) == (3, 3)
    assert w.step(3) == Subspace.full(0) == w.step(2)
    assert w.graded_dim(3) == 0


def _partitions(n: int, largest: int):
    """Partitions of n into parts of size at most largest, parts decreasing."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _conjugated_jordan(rng, blocks):
    """Nilpotent Jordan matrix with the given block sizes, conjugated by a
    random diagonal matrix times elementary ones, with non-integer rational
    entries."""
    dim = sum(blocks)
    starts = {sum(blocks[:b]) for b in range(len(blocks))}
    jordan = RationalMatrix.from_rows(
        [[int(j == i + 1 and j not in starts) for j in range(dim)] for i in range(dim)]
    )
    scalars = [Fraction(1, 2), Fraction(-2, 3), Fraction(1), Fraction(-3, 2), Fraction(2)]
    rows = [[rng.choice(scalars) if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice(scalars)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    g = RationalMatrix.from_rows(rows)
    g_inv = RationalMatrix.from_rows(
        tuple(zip(*(solve(g, RationalMatrix.identity(dim).col(j)) for j in range(dim))))
    )
    return g @ jordan @ g_inv


def _adjoint_matrices():
    """ad N_I on the 21-dimensional sp(6) and the 15-dimensional o(1, 4, 1),
    as adjoint_filtration filters them."""
    rng = random.Random(SEED + 3)
    sp6 = _conjugated_sp_cone(
        rng, 3, [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, 1, 0], [1, 1, 0], [0, 0, 0]]]
    )
    k3 = _k3_cone([-1] * 4, [[1, 0, 2, 0], [0, 1, 1, 2]])
    for cone in (sp6, k3):
        ctx = cone.lie_algebra()
        for index in ((1,), (2,), (1, 2)):
            yield ctx.ad_matrix(cone.n_of(index))


def test_weight_filtration_matches_intersection_oracle():
    """The one-elimination-per-power filtration equals the closed form built
    from kernels, images and intersections, step by step."""
    rng = random.Random(SEED + 4)
    cases = [random_nilpotent(rng, rng.randint(1, 8)) for _ in range(120)]
    for dim in range(1, 9):
        for d in range(1, dim + 1):  # every nilpotency index up to dim
            for blocks in _partitions(dim - d, d):
                cases.extend(_conjugated_jordan(rng, (d,) + blocks) for _ in range(9 - dim))
    cases.extend(_adjoint_matrices())
    assert len(cases) >= 300
    for n in cases:
        center = rng.randint(-2, 2)
        got, want = weight_filtration(n, center), intersection_weight_filtration(n, center)
        assert got == want
        assert (got.low, got.high) == (want.low, want.high)
        for level in range(want.low - 1, want.high + 2):
            assert got.step(level) == want.step(level)


def test_not_nilpotent_rejected():
    with pytest.raises(NotNilpotent):
        weight_filtration(RationalMatrix.identity(2), 0)


def test_jordan_block_2():
    n = RationalMatrix.from_rows([[0, 1], [0, 0]])
    w = weight_filtration(n, 0)
    assert w.step(-1) == Subspace.from_vectors(2, [[1, 0]])
    assert w.step(0) == w.step(-1)
    assert w.step(1) == Subspace.full(2)
    assert filtration_satisfies_defining_properties(n, w)


def test_genus2_single_generator_filtration():
    cone = genus2_cone()
    w = weight_filtration(cone.generators[0], 1)
    assert [w.graded_dim(l) for l in (0, 1, 2)] == [1, 2, 1]
    # one-dimensional jump at the vanishing-cycle line and its dual
    assert w.step(0) == Subspace.from_vectors(4, [[1, 0, 0, 0]])
    assert filtration_satisfies_defining_properties(cone.generators[0], w)


def test_genus2_full_cone_hodge_tate():
    cone = genus2_cone()
    w = weight_filtration(cone.n_of((1, 2, 3)), 1)
    assert [w.graded_dim(l) for l in (0, 1, 2)] == [2, 0, 2]


def test_weight_filtration_characterization_random():
    rng = random.Random(SEED)
    for _ in range(30):
        dim = rng.randint(2, 6)
        n = random_nilpotent(rng, dim)
        center = rng.randint(-1, 2)
        w = weight_filtration(n, center)
        assert filtration_satisfies_defining_properties(n, w)


def test_weight_filtration_uniqueness_perturbation():
    rng = random.Random(SEED + 1)
    checked = 0
    for _ in range(10):
        dim = rng.randint(3, 5)
        n = random_nilpotent(rng, dim)
        w = weight_filtration(n, 0)
        for level in range(w.low, w.high):
            cur, above = w.step(level), w.step(level + 1)
            if above.dim > cur.dim:
                extra = next(
                    r for r in above.basis.entries if not cur.contains_vector(r)
                )
                perturbed = _replace_step(w, level, cur.sum(
                    Subspace.from_vectors(dim, [extra])
                ))
                assert not filtration_satisfies_defining_properties(n, perturbed)
                checked += 1
            below = w.step(level - 1)
            if cur.dim > below.dim + 0:
                # drop one graded representative
                keep = [
                    r
                    for r in cur.basis.entries
                    if below.contains_vector(r)
                ]
                others = [
                    r for r in cur.basis.entries if not below.contains_vector(r)
                ]
                if others:
                    smaller = Subspace.from_vectors(dim, keep + others[1:]).sum(below)
                    if smaller.dim < cur.dim:
                        perturbed = _replace_step(w, level, smaller)
                        assert not filtration_satisfies_defining_properties(
                            n, perturbed
                        )
                        checked += 1
    assert checked > 10


def _replace_step(w, level, subspace):
    steps = {l: (subspace if l == level else w.step(l)) for l in range(w.low - 1, w.high + 1)}
    steps[w.high] = Subspace.full(w.ambient_dim)

    class Fake:
        pass

    fake = Fake()
    fake.center = w.center
    fake.ambient_dim = w.ambient_dim
    fake.low = min(l for l, s in steps.items() if s.dim > 0)
    fake.high = w.high
    fake.step = lambda l: (
        Subspace.zero(w.ambient_dim)
        if l < fake.low
        else (Subspace.full(w.ambient_dim) if l >= fake.high else steps[l])
    )
    return fake


def test_adjoint_kernel_in_w0():
    cone = genus2_cone()
    adj = adjoint_filtration(cone, (1,))
    ctx = adj.context
    n1 = cone.generators[0]
    # every centralizer element lies in W_0(ad N)
    ad = ctx.ad_matrix(n1)
    from hodgecharts.linalg import kernel

    for coords in kernel(ad).basis.entries:
        assert adj.filtration.step(0).contains_vector(coords)


def test_adjoint_block_intersection():
    """W_{-1}(ad N_1) meets the upper-block isometries in S = [[s,t],[t,0]]."""
    cone = genus2_cone()
    adj = adjoint_filtration(cone, (1,))

    def block(s):
        return RationalMatrix.from_rows(
            [
                [0, 0, s[0][0], s[0][1]],
                [0, 0, s[1][0], s[1][1]],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ]
        )

    assert adj.contains(block([[1, 0], [0, 0]]), -1)  # the generator itself
    assert adj.contains(block([[0, 1], [1, 0]]), -1)
    assert not adj.contains(block([[0, 0], [0, 1]]), -1)
    assert not adj.contains(block([[1, 1], [1, 1]]), -1)


def test_adjoint_membership_difference():
    cone = genus2_cone()
    adj = adjoint_filtration(cone, (1,))
    n3_minus = cone.generators[2] - cone.generators[1] - cone.generators[0]
    assert adj.contains(n3_minus, -1)


def test_graded_pieces_dimensions():
    cone = genus2_cone()
    w = weight_filtration(cone.n_of((1, 2, 3)), 1)
    pieces = graded_pieces(w)
    assert [p.dimension for p in pieces] == [2, 0, 2]
    assert sum(p.dimension for p in pieces) == 4
    w0 = weight_filtration(RationalMatrix.zeros(3, 3), 2)
    assert [p.dimension for p in graded_pieces(w0)] == [3]


def test_induced_map_identity_and_errors():
    cone = genus2_cone()
    n1 = cone.generators[0]
    w = weight_filtration(n1, 1)
    ident = induced_map(RationalMatrix.identity(4), w, 0)
    for level, mat in ident.items():
        d = w.graded_dim(level)
        assert mat == RationalMatrix.identity(d) if d else mat.rows == 0
    with pytest.raises(NotFiltrationCompatible):
        induced_map(RationalMatrix.from_rows(
            [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]
        ), w, 0)


def test_induced_map_hard_lefschetz_surjectivity():
    cone = genus2_cone()
    n = cone.n_of((1, 2, 3))
    w = weight_filtration(n, 1)
    maps = induced_map(n, w, -2)
    top = maps[2]  # Gr_2 -> Gr_0
    assert rank(top) == w.graded_dim(0)


def test_primitive_subspace_examples():
    cone = genus2_cone()
    p = primitive_subspace(cone, (1, 2, 3), 1)
    assert p.graded_subspace.dim == 2
    # trivial graded piece gives the zero primitive space
    p0 = primitive_subspace(cone, (1, 2, 3), 0)
    assert p0.graded_subspace.dim == 0
    cone0 = NilpotentCone(
        3,
        2,
        RationalMatrix.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]]),
        [RationalMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
    )
    middle = primitive_subspace(cone0, (1,), 0)
    assert middle.level == 2
    assert middle.graded_subspace.dim == 0  # N maps Gr_2 isomorphically down


def test_polarization_form_examples():
    cone = genus2_cone()
    g = polarization_form(cone, (1, 2, 3), 1)
    assert g.entries == (
        (Fraction(2), Fraction(1)),
        (Fraction(1), Fraction(2)),
    )
    assert g.transpose() == g
    # a = 0 restricts the form to the primitive part of the middle graded
    g0 = polarization_form(cone, (1,), 0)
    assert g0.rows == 2 and g0.transpose() == g0.scale(-1)  # alternating on Gr_1


def test_polarization_with_cancelling_generators():
    s1 = genus2_cone().generators[0]
    cone = NilpotentCone(4, 1, symplectic_form_4(), [s1, s1.scale(-1)])
    g = polarization_form(cone, (1, 2), 1)
    assert g.rows == 0  # N_I = 0 has no weight-3 graded piece


def test_primitive_subspace_of_vanishing_sum():
    s1 = genus2_cone().generators[0]
    cone = NilpotentCone(4, 1, symplectic_form_4(), [s1, s1.scale(-1)])
    prim = primitive_subspace(cone, (1, 2), 0)  # N_I = 0, a = 0
    assert prim.graded_subspace.dim == 4  # the whole ambient space survives


def test_polarization_representative_invariance():
    cone = genus2_cone()
    prim = primitive_subspace(cone, (1, 2, 3), 1)
    n = cone.n_of((1, 2, 3))
    w = weight_filtration(n, 1)
    below = w.step(1)
    shift = below.basis.entries[0]
    base = polarization_form(cone, (1, 2, 3), 1)
    n_pow = n.power(1)
    for i, u in enumerate(prim.representatives.entries):
        shifted = tuple(a + b for a, b in zip(u, shift))
        for v in prim.representatives.entries:
            lhs = sum(
                (x * y for x, y in zip(shifted, cone.form.mul_vec(n_pow.mul_vec(v)))),
                Fraction(0),
            )
            assert lhs == sum(
                (x * y for x, y in zip(u, cone.form.mul_vec(n_pow.mul_vec(v)))),
                Fraction(0),
            )


def test_bracket_filtration_property():
    """[W_a, W_b] <= W_{a+b} on sampled pairs of the adjoint filtration."""
    cone = genus2_cone()
    adj = adjoint_filtration(cone, (1,))
    ctx = adj.context
    rng = random.Random(SEED + 2)
    levels = list(adj.filtration.levels())
    for _ in range(10):
        a, b = rng.choice(levels), rng.choice(levels)
        wa, wb = adj.filtration.step(a), adj.filtration.step(b)
        for _ in range(3):
            ca = [Fraction(rng.randint(-2, 2)) for _ in range(wa.dim)]
            cb = [Fraction(rng.randint(-2, 2)) for _ in range(wb.dim)]
            xa = ctx.from_coords(
                wa.basis.transpose().mul_vec(ca)
            )
            xb = ctx.from_coords(
                wb.basis.transpose().mul_vec(cb)
            )
            bracket = xa @ xb - xb @ xa
            coords = ctx.to_coords(bracket)
            assert coords is not None
            assert adj.filtration.step(a + b).contains_vector(coords)


def test_rwfp_cases():
    cone = genus2_cone()
    same = rwfp_consequence_check(cone, (1,), (1,))
    assert same.premise is True and same.filtrations_equal and same.holds
    mixed = rwfp_consequence_check(cone, (1,), (1, 2, 3))
    assert mixed.premise is False and not mixed.filtrations_equal and mixed.holds
    r1 = rank1_cone()
    prop = rwfp_consequence_check(r1, (1,), (1, 2))
    assert prop.premise and prop.filtrations_equal and prop.holds

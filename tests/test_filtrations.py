import itertools
import random
from fractions import Fraction

import pytest

from hodgecharts.errors import NotFiltrationCompatible, NotNilpotent
from hodgecharts.filtrations import (
    NilpotentCone,
    adjoint_filtration,
    induced_map,
    polarization_form,
    primitive_subspace,
    rwfp_consequence_check,
    weight_filtration,
)
from hodgecharts import gallery
from hodgecharts.gallery import genus2_cone, rank1_cone, symplectic_form_4
from hodgecharts.linalg import RationalMatrix, Subspace, rank

from .oracles import (
    ad_weight_filtration,
    filtration_satisfies_defining_properties,
    greedy_graded_pieces,
    intersection_weight_filtration,
    lie_context,
    loop_polarization_form,
    random_nilpotent,
    solve,
    solve_induced_map,
    stacked_rank_contains,
    subspace_sum,
)
from .test_cones import _conjugated_sp_cone, _k3_cone, _oracle_cones

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
    as the adjoint oracle filters them."""
    rng = random.Random(SEED + 3)
    sp6 = _conjugated_sp_cone(
        rng, 3, [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, 1, 0], [1, 1, 0], [0, 0, 0]]]
    )
    k3 = _k3_cone([-1] * 4, [[1, 0, 2, 0], [0, 1, 1, 2]])
    for cone in (sp6, k3):
        ctx = lie_context(cone.form)
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


_SP4 = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]

# (weight, form, generators, message) of cones that NilpotentCone refuses.
# Q^T = sign Q with sign = (-1)^weight, so N^T Q + Q N = 0 reads
# (QN)^T = -sign QN; the refused generator of each of the first two has
# (QN)^T = sign QN instead, so either sign alone would accept it.
REFUSED_CONES = [
    (
        2, [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
        [[[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 1, 0], [0, 0, -1], [0, 0, 0]]],
        "generator 2 does not preserve the form",
    ),
    (
        1, _SP4, [[[0, 0, 0, 1], [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]],
        "generator 1 does not preserve the form",
    ),
    (
        1, _SP4,
        [[[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
         [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]],
        "generators 1 and 2 do not commute",
    ),
]


@pytest.mark.parametrize("weight, form, generators, message", REFUSED_CONES)
def test_cone_refuses_generators_off_the_form_or_not_commuting(weight, form, generators, message):
    """A generator outside the isometry algebra of a symmetric (even weight)
    or alternating (odd weight) form is refused, and so is a pair of
    generators that do not commute; each passes the other checks."""
    q = RationalMatrix.from_rows(form)
    gens = [RationalMatrix.from_rows(g) for g in generators]
    sign = (-1) ** weight
    for n in gens:
        qn = q @ n
        assert qn.transpose() in (qn.scale(sign), qn.scale(-sign))
    with pytest.raises(ValueError, match=f"^{message}$"):
        NilpotentCone(len(form), weight, q, gens)


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
                perturbed = _replace_step(w, level, subspace_sum(
                    cur, Subspace.from_vectors(dim, [extra])
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
                    smaller = subspace_sum(Subspace.from_vectors(dim, keep + others[1:]), below)
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
    w, ctx = ad_weight_filtration(cone, (1,))
    n1 = cone.generators[0]
    # every centralizer element lies in W_0(ad N)
    ad = ctx.ad_matrix(n1)
    from hodgecharts.linalg import kernel

    for coords in kernel(ad).basis.entries:
        assert w.step(0).contains_vector(coords)


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
    dims = [len(w.graded_lifts(level)[0]) for level in w.levels()]
    assert dims == [2, 0, 2] == [w.graded_dim(level) for level in w.levels()]
    w0 = weight_filtration(RationalMatrix.zeros(3, 3), 2)
    assert [len(w0.graded_lifts(level)[0]) for level in w0.levels()] == [3]


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


GALLERY_CONES = (
    gallery.genus2_cone(),
    gallery.single_cone(),
    gallery.rank1_cone(),
    gallery.equal_pair_cone(),
    gallery.standard_triple_block_cone(),
    gallery.weight2_jordan3_cone(),
    gallery.weight2_twoblock_cone(),
    gallery.weight2_inert_orbit().cone,
)


def test_polarization_form_matches_double_loop():
    cases = 0
    for cone in GALLERY_CONES:
        for r in range(1, cone.k + 1):
            for index in itertools.combinations(range(1, cone.k + 1), r):
                for a in range(cone.weight + 1):
                    assert polarization_form(cone, index, a) == loop_polarization_form(
                        cone, index, a
                    )
                    cases += 1
    assert cases == 43


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
    w, ctx = ad_weight_filtration(cone, (1,))
    rng = random.Random(SEED + 2)
    levels = list(w.levels())
    for _ in range(10):
        a, b = rng.choice(levels), rng.choice(levels)
        wa, wb = w.step(a), w.step(b)
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
            assert w.step(a + b).contains_vector(coords)


def test_rwfp_cases():
    cone = genus2_cone()
    same = rwfp_consequence_check(cone, (1,), (1,))
    assert same.premise is True and same.filtrations_equal and same.holds
    mixed = rwfp_consequence_check(cone, (1,), (1, 2, 3))
    assert mixed.premise is False and not mixed.filtrations_equal and mixed.holds
    r1 = rank1_cone()
    prop = rwfp_consequence_check(r1, (1,), (1, 2))
    assert prop.premise and prop.filtrations_equal and prop.holds


def test_adjoint_membership_matches_ad_oracle():
    """X in W_l(ad N_I), read on V, and both parts of the RWFP check agree
    with W(ad N_I) built on the isometry algebra.  Per cone, a random I and a
    random I' containing it, strictly unless k = 1; membership at every level
    from low - 1 to high + 1, on a random isometry and on the oracle's own
    step bases."""
    rng = random.Random(SEED + 5)
    checks, strict = 0, set()
    for cone in _oracle_cones():
        order = rng.sample(range(1, cone.k + 1), cone.k)
        cut = rng.randint(1, max(1, cone.k - 1))
        small = tuple(sorted(order[:cut]))
        large = tuple(sorted(order[: rng.randint(min(cut + 1, cone.k), cone.k)]))
        ad = {index: ad_weight_filtration(cone, index) for index in dict.fromkeys((small, large))}
        for index, (w, ctx) in ad.items():
            adj = adjoint_filtration(cone, index)
            xs = [ctx.from_coords([rng.randint(-2, 2) for _ in range(ctx.dim)])]
            for level in range(w.low, w.high):  # the random X stands in for W_high = g
                xs.append(ctx.from_coords(rng.choice(w.step(level).basis.entries)))
            for x in xs:
                coords = ctx.to_coords(x)
                for level in range(w.low - 1, w.high + 2):
                    assert adj.contains(x, level) == w.step(level).contains_vector(coords)
                    checks += 1
        for pair in dict.fromkeys(((small, small), (small, large), (large, large))):
            report = rwfp_consequence_check(cone, *pair)
            (w_small, ctx), (w_large, _) = ad[pair[0]], ad[pair[1]]
            premise = w_small.step(-1).contains_vector(ctx.to_coords(cone.n_of(pair[1])))
            assert report.premise == premise
            assert report.filtrations_equal == (w_small == w_large)
            if pair[0] != pair[1]:
                strict.add((premise, report.filtrations_equal))
    assert checks > 800 and {(True, True), (False, False)} <= strict


def _gallery_filtrations():
    """(W(N_I), maps) for every nonempty index set of the oracle cones, with
    maps a list of (M, shift): N_I and N_I^2 lower W by 2 and 4, so N_I also
    maps W_l into W_{l+1}, and the identity and each generator, which
    commutes with N_I, preserve it."""
    for cone in _oracle_cones():
        ident = RationalMatrix.identity(cone.dim)
        for mask in range(1, 1 << cone.k):
            index = tuple(i + 1 for i in range(cone.k) if mask >> i & 1)
            n = cone.n_of(index)
            maps = [(n, -2), (n @ n, -4), (n, 1), (ident, 0)]
            maps += [(g, 0) for g in cone.generators]
            yield weight_filtration(n, cone.weight), maps


def _random_filtrations(rng, count):
    """(W(N), maps) for seeded nilpotents: unimodular conjugates, Jordan
    matrices conjugated with non-integral entries, and unimodular conjugates
    scaled by 2/3 and conjugated by a non-integral diagonal.  The maps are N
    (shifts -2 and 1), N^2 and a polynomial in N with a constant term
    (shift 0)."""
    for trial in range(count):
        dim = rng.randint(1, 7)
        if trial % 3 == 0:
            n = random_nilpotent(rng, dim)
        elif trial % 3 == 1:
            blocks = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            n = _conjugated_jordan(rng, blocks)
        else:
            nums, dens = (-5, -1, 1, 3, 7), (1, 2, 3)
            d = [Fraction(rng.choice(nums), rng.choice(dens)) for _ in range(dim)]
            diag, diag_inv = (
                RationalMatrix.from_rows(
                    [[x if i == j else 0 for j in range(dim)] for i, x in enumerate(xs)]
                )
                for xs in (d, [1 / x for x in d])
            )
            n = diag @ random_nilpotent(rng, dim).scale(Fraction(2, 3)) @ diag_inv
        dim = n.rows
        poly = RationalMatrix.identity(dim).scale(Fraction(1, 2)) + n.scale(3) - (n @ n)
        maps = [(n, -2), (n @ n, -4), (n, 1), (poly, 0)]
        yield weight_filtration(n, rng.randint(-2, 2)), maps


def _coordinates(lifts, below, vectors):
    """Coordinates of each vector on the lifts modulo W_{l-1}, by one solve
    against the lifts stacked over W_{l-1}'s basis."""
    dim = below.ambient_dim
    stacked = RationalMatrix(len(lifts), dim, tuple(lifts)).stack(below.basis).transpose()
    return [solve(stacked, v)[: len(lifts)] for v in vectors]


def test_graded_read_off_matches_greedy_and_solve_oracles():
    """On every index set of the oracle cones and 60 seeded filtrations:
    the lifts of Gr_l lie in W_l, are independent modulo W_{l-1} and number
    graded_dim(l); every induced matrix A satisfies M r_j - sum_i A_ij t_i in
    W_{t-1}; and A equals the solve-based matrix on the greedy
    representatives after the change of basis between the two sets, and
    outright where the sets coincide.  A map that does not respect W is
    refused by both."""
    rng = random.Random(SEED + 6)
    cases = [*_gallery_filtrations(), *_random_filtrations(rng, 60)]
    changed = same = refused = 0
    for w, maps in cases:
        dim = w.ambient_dim
        greedy = dict(greedy_graded_pieces(w))
        assert list(greedy) == list(w.levels())
        change, coincide = {}, set()
        for level in w.levels():
            lifts = w.graded_lifts(level)[0]
            reps = RationalMatrix(len(lifts), dim, tuple(lifts))
            below = w.step(level - 1)
            assert len(lifts) == w.graded_dim(level) == greedy[level].rows
            assert all(w.step(level).contains_vector(r) for r in lifts)
            assert rank(reps.stack(below.basis)) == below.dim + len(lifts)
            # column j: the greedy representative g_j on the lifts
            cols = _coordinates(lifts, below, greedy[level].entries)
            change[level] = RationalMatrix(
                len(lifts), len(lifts), tuple(zip(*cols)) if cols else ()
            )
            if reps == greedy[level]:
                coincide.add(level)
            else:
                changed += 1
        for m, shift in maps:
            got, want = induced_map(m, w, shift), solve_induced_map(m, w, shift)
            assert list(got) == list(want) == list(w.levels())
            for level, a in got.items():
                target = level + shift
                lifts = w.graded_lifts(level)[0]
                t_lifts = w.graded_lifts(target)[0]
                assert (a.rows, a.cols) == (len(t_lifts), len(lifts))
                for j, r in enumerate(lifts):
                    y = m.mul_vec(r)
                    rest = tuple(
                        y_c - sum(a.entries[i][j] * t[c] for i, t in enumerate(t_lifts))
                        for c, y_c in enumerate(y)
                    )
                    assert stacked_rank_contains(w.step(target - 1), rest)
                b = want[level]
                if w.low <= target <= w.high:
                    # Both matrices describe one map: P_t B = A P_a.
                    assert change[target] @ b == a @ change[level]
                    if level in coincide and target in coincide:
                        assert (a.rows, a.cols, a.flatten()) == (b.rows, b.cols, b.flatten())
                        same += 1
                else:
                    assert a.rows == b.rows == 0
        # N W_l <= W_{l-3} and W_l <= W_{l-1} fail unless some graded pieces
        # vanish.
        n, ident = maps[0][0], RationalMatrix.identity(dim)
        for m, shift in ((n, -3), (ident, -1)):
            compatible = all(
                stacked_rank_contains(w.step(l + shift), m.mul_vec(v))
                for l in w.levels()
                for v in w.step(l).basis.entries
            )
            if not compatible:
                refused += 1
                with pytest.raises(NotFiltrationCompatible):
                    induced_map(m, w, shift)
                with pytest.raises(NotFiltrationCompatible):
                    solve_induced_map(m, w, shift)
            else:
                assert list(induced_map(m, w, shift)) == list(w.levels())
    assert len(cases) >= 130 and changed and same > 500 and refused > 100, (
        len(cases), changed, same, refused,
    )


def test_graded_read_off_runs_no_elimination(monkeypatch):
    """graded_lifts and induced_map read the step bases and never
    eliminate; the primitive subspace and its polarization take W (three
    eliminations on genus2_cone) plus one kernel."""
    cases = list(_gallery_filtrations())
    cone = genus2_cone()
    calls = []
    original = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda m: calls.append(m) or original(m))
    for w, maps in cases:
        for level in w.levels():
            w.graded_lifts(level)
        for m, shift in maps:
            induced_map(m, w, shift)
    assert not calls
    for fn in (primitive_subspace, polarization_form):
        del calls[:]
        fn(cone, (1, 2, 3), 1)
        assert len(calls) <= 4, (fn.__name__, len(calls))


def test_adjoint_contains_matches_per_vector_check():
    """AdjointFiltration.contains, which shares induced_map's compatibility
    read-off, agrees with checking X v in W_{j+l} vector by vector by a
    stacked rank, on the RWFP cases, for every generator and every N_I."""
    checks = 0
    for cone, index in ((genus2_cone(), (1,)), (genus2_cone(), (1, 2, 3)), (rank1_cone(), (1,))):
        adj = adjoint_filtration(cone, index)
        w = adj.filtration
        xs = [cone.n_of(i) for i in ((1,), (1, 2), (1, 2, 3), (2,), (3,)) if max(i) <= cone.k]
        xs += [cone.generators[-1] - cone.generators[0]]
        for x in xs:
            for level in range(w.low - w.high - 1, 2):
                want = all(
                    stacked_rank_contains(w.step(j + level), x.mul_vec(v))
                    for j in w.levels()
                    for v in w.step(j).basis.entries
                )
                assert adj.contains(x, level) == want
                checks += 1
    assert checks > 50

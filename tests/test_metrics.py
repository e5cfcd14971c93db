import itertools
import json
import math
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hodgecharts import gallery
from hodgecharts.errors import InvalidInput, NotPolarized, NumericDomainError, PoorFit
from hodgecharts.filtrations import weight_filtration
from hodgecharts.gallery import (
    genus2_orbit,
    genus2_period_matrix,
    sp4_form,
    twisted_weight1_orbit,
    weight2_inert_orbit,
    weight2_jordan3_orbit,
    weight2_twoblock_orbit,
)
from hodgecharts.metrics import (
    EXPANSION_TAUS,
    FlagPoint,
    OrbitSpec,
    _coefficient_kernel,
    _exp_nilpotent,
    _graded_frames,
    _graded_log_det,
    _hermitian_log_det,
    _independent_columns,
    _np_matrix,
    augmented_log_det,
    augmented_weights,
    curvature_limit_check,
    expansion_fit,
    log_coord,
    log_det_lambda,
    mixed_second_derivative,
)
from hodgecharts.residue import residue_integral
from hodgecharts.serialize import orbit_from_json

from . import oracles
from .oracles import (
    QRNestedFrame,
    flag_at,
    hodge_decomposition,
    quadrature_residue_integral,
    svd_intersect_spans,
    weil_augmented_log_det,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_hodge_pieces_genus2_point():
    orbit = genus2_orbit()
    t = (1e-3, 1e-3, 1e-3)
    pieces = hodge_decomposition(flag_at(orbit, t, 0.0), orbit.form)
    assert {k: v.shape[1] for k, v in pieces.items()} == {(1, 0): 2, (0, 1): 2}


def test_hodge_pieces_sp4_point():
    q = np.array([[float(x) for x in row] for row in sp4_form().entries])
    h10 = np.array([[1, 0], [0, 1], [0, 1j], [1j, 0]], dtype=complex)
    pieces = hodge_decomposition(FlagPoint(1, {1: h10}), q)
    assert pieces[(1, 0)].shape[1] == 2
    # a frame with a repeated column spans the same F^1
    again = hodge_decomposition(FlagPoint(1, {1: np.hstack([h10, h10[:, :1]])}), q)
    assert {pq: b.shape[1] for pq, b in again.items()} == {(1, 0): 2, (0, 1): 2}


def test_hodge_pairing_not_hermitian_names_its_deviation():
    """A symmetric form on a weight-1 point: i Q(u, conj v) is anti-Hermitian."""
    h10 = np.array([[1, 0], [0, 1], [0, 1j], [1j, 0]], dtype=complex)
    match = r"not Hermitian: deviation 1\.41 > tolerance 1\.41e-08$"
    with pytest.raises(NotPolarized, match=match):
        hodge_decomposition(FlagPoint(1, {1: h10}), np.eye(4))


def test_hodge_pairing_not_positive_names_its_smallest_eigenvalue():
    q = np.array([[float(x) for x in row] for row in sp4_form().entries])
    h10 = np.array([[1, 0], [0, 1], [0, 1j], [1j, 0]], dtype=complex)
    match = r"H\^1,0 pairing is not positive definite: smallest eigenvalue -1 <= tolerance 1e-08$"
    with pytest.raises(NotPolarized, match=match):
        hodge_decomposition(FlagPoint(1, {1: h10}), -q)


def test_hodge_pieces_not_direct_names_the_smallest_singular_value():
    """F^1 = span (1, i eps): H^{1,0} and H^{0,1} = conj F^1 meet at angle
    about eps sqrt 2, the smallest singular value of the stacked bases."""
    h10 = np.array([[1], [1e-9j]], dtype=complex)
    form = np.array([[0.0, 1.0], [-1.0, 0.0]])
    match = r"not in direct sum: smallest singular value 1\.41e-09 < tolerance 1e-08$"
    with pytest.raises(NotPolarized, match=match):
        hodge_decomposition(FlagPoint(1, {1: h10}), form)


def test_log_det_not_positive_names_its_smallest_eigenvalue():
    match = r"^the Gram is not positive definite: smallest eigenvalue -2 <= 0$"
    with pytest.raises(NotPolarized, match=match):
        _hermitian_log_det(np.diag([1.0, -2.0]), "the Gram")


def test_hodge_pieces_degenerate_rejected():
    orbit = genus2_orbit()
    with pytest.raises(NotPolarized):
        hodge_decomposition(flag_at(orbit, (1.0, 1.0, 1.0), 0.0), orbit.form)


def test_missing_flag_level_is_named():
    """The inert orbit's flag gives F^2 only, so its Hodge pieces need the
    missing F^1: a ValueError that names the level, as for a malformed flag.
    At weight 2 the augmented determinant reads F^2 alone: it is
    log_det_lambda, log 2 at every point."""
    orbit = weight2_inert_orbit()
    with pytest.raises(ValueError, match="flag level 1"):
        hodge_decomposition(orbit.f0, orbit.form)
    for t in ((0.5,), (1e-3j,), (1e-12,)):
        assert augmented_log_det(orbit, t, 0.0) == log_det_lambda(orbit, t, 0.0)
        assert abs(log_det_lambda(orbit, t, 0.0) - math.log(2)) < 1e-12


def test_log_det_against_period_matrix():
    orbit = genus2_orbit()
    for t in [(1e-3, 1e-3, 1e-3), (1e-2, 3e-3, 5e-4), (1e-4, 1e-5, 1e-3)]:
        omega = genus2_period_matrix(t)
        expected = math.log(np.linalg.det(2 * np.imag(omega)))
        assert abs(log_det_lambda(orbit, t, 0.0) - expected) < 1e-9


def test_log_det_symmetry_and_monodromy_invariance():
    orbit = genus2_orbit()
    t = (1e-3, 1e-3, 1e-3)
    # symmetric permutation of a symmetric point leaves the value fixed
    v12 = log_det_lambda(orbit, (1e-3, 1e-4, 1e-3), 0.0)
    v21 = log_det_lambda(orbit, (1e-4, 1e-3, 1e-3), 0.0)
    assert abs(v12 - v21) < 1e-9  # S1 <-> S2 swap symmetry of the family
    # full monodromy substitution: transported frame under exp(N_j)
    from scipy.linalg import expm

    frame = orbit.group_element(t, 0.0) @ orbit.f0.level(1)
    moved = expm(np.array([[float(x) for x in r] for r in orbit.cone.generators[0].entries])) @ frame
    gram = lambda fr: (1j) * (fr.T @ orbit.form @ fr.conj())
    base = np.linalg.slogdet(gram(frame))[1]
    shifted = np.linalg.slogdet(gram(moved))[1]
    assert abs(base - shifted) < 1e-9


def test_gram_positive_definite_in_domain():
    orbit = genus2_orbit()
    for t in [(1e-2, 1e-2, 1e-2), (1e-3, 1e-5, 1e-4)]:
        frame = orbit.group_element(t, 0.0) @ orbit.f0.level(1)
        gram = (1j) * (frame.T @ orbit.form @ frame.conj())
        herm = 0.5 * (gram + gram.conj().T)
        assert np.linalg.eigvalsh(herm).min() > 0


def test_augmented_weights_and_agreement():
    assert augmented_weights(1) == [(0, 1)]
    assert augmented_weights(2) == [(0, 1)]
    assert augmented_weights(3) == [(0, 2), (1, 1)]
    orbit = genus2_orbit()
    t = (1e-3, 2e-3, 5e-4)
    assert abs(
        augmented_log_det(orbit, t, 0.0) - log_det_lambda(orbit, t, 0.0)
    ) < 1e-10
    b = weight2_twoblock_orbit()
    assert abs(
        augmented_log_det(b, (1e-4,), 0.0) - log_det_lambda(b, (1e-4,), 0.0)
    ) < 1e-10


def weight3_orbit() -> OrbitSpec:
    """A polarized weight-3 Hodge structure on C^4 with h = (1, 1, 1, 1) and
    the antidiagonal Q, moved by N = E_21 + E_43: F^3 = <e0 - i e3>,
    F^2 = F^3 + <e1 - i e2> and F^1 = F^2 + <e1 + i e2>."""
    from hodgecharts.filtrations import NilpotentCone
    from hodgecharts.linalg import RationalMatrix

    e = np.eye(4, dtype=complex)
    u30 = (e[:, 0] - 1j * e[:, 3]).reshape(4, 1)
    u21 = (e[:, 1] - 1j * e[:, 2]).reshape(4, 1)
    n = RationalMatrix.from_rows(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    )
    qm = RationalMatrix.from_rows(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    )
    flag = FlagPoint(
        3, {3: u30, 2: np.hstack([u30, u21]), 1: np.hstack([u30, u21, u21.conj()])}
    )
    return OrbitSpec(NilpotentCone(4, 3, qm, [n]), flag)


def test_augmented_weight3_synthetic():
    """Weight-3 flag with unit metric blocks: weights (2, 1) count the levels."""
    orbit = weight3_orbit()
    q = orbit.form
    u30 = orbit.f0.level(3)
    u21 = orbit.f0.level(2)[:, 1:]
    # check the two lines have i^{p-q} Q(u, conj u) > 0
    for u, p, qq in ((u30, 3, 0), (u21, 2, 1)):
        val = ((1j) ** (p - qq) * (u.T @ q @ u.conj()))[0, 0]
        assert val.real > 0 and abs(val.imag) < 1e-12
    t = (1e-3,)
    total = augmented_log_det(orbit, t, 0.0)
    # hand value: 2 * logdet Gr^3 + 1 * logdet Gr^2 of the transported frames
    g = orbit.group_element(t, 0.0)
    weil_free = lambda fr, pq: ((1j) ** pq * (fr.T @ q @ fr.conj()))
    f3 = g @ u30
    f2 = g @ np.hstack([u30, u21])
    # full Hodge-metric Grams via the decomposition at the moved point
    pieces = hodge_decomposition(flag_at(orbit, t, 0.0), q)
    assert {k: v.shape[1] for k, v in pieces.items()} == {
        (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1
    }
    # agreement with the direct weighted sum computed independently
    basis = np.hstack([pieces[k] for k in [(3, 0), (2, 1), (1, 2), (0, 3)]])
    w = np.diag([1j ** (3 - 0), 1j ** (2 - 1), 1j ** (1 - 2), 1j ** (0 - 3)])
    weil = basis @ w @ np.linalg.inv(basis)
    def gram_ld(fr):
        m = (weil @ fr).T @ q @ fr.conj()
        return float(np.linalg.slogdet(0.5 * (m + m.conj().T))[1])
    expected = 2 * gram_ld(f3) + 1 * (gram_ld(f2) - gram_ld(f3))
    assert abs(total - expected) < 1e-9


def conifold_orbit(sign: int = 1) -> OrbitSpec:
    """The horizontal weight-3 orbit of conifold type: C^4 with
    weight3_orbit's antidiagonal Q, N = sign E_30 (e0 -> sign e3, so N^2 = 0),
    F^3 = <e1 + i e2>, F^2 = F^3 + <e0> and F^1 = F^2 + <e3>.  The h^{3,0}
    line lies in Gr_3^W, so log_det_lambda is log 2 at every point, while
    the line e0 of F^2 pairs with N e0 = sign e3: for sign = -1 that pairing
    has the wrong sign."""
    from hodgecharts.filtrations import NilpotentCone
    from hodgecharts.linalg import RationalMatrix

    e = np.eye(4, dtype=complex)
    f3 = (e[:, 1] + 1j * e[:, 2]).reshape(4, 1)
    f2 = np.hstack([f3, e[:, :1]])
    n = RationalMatrix.from_rows([[0, 0, 0, 0]] * 3 + [[sign, 0, 0, 0]])
    qm = RationalMatrix.from_rows(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    )
    flag = FlagPoint(3, {3: f3, 2: f2, 1: np.hstack([f2, e[:, 3:]])})
    return OrbitSpec(NilpotentCone(4, 3, qm, [n]), flag)


def sym_power_orbit(n: int, sign: int) -> OrbitSpec:
    """Sym^n of the weight-1 line: C^2 with Q(x, y) = 1 and F^1 = <v>,
    v = y - i x, moved by N = sign x d/dy.  On the monomials x^a y^(n-a),
    Q_n(x^a y^(n-a), x^(n-a) y^a) = (-1)^(n-a) / C(n, a), so that
    Q_n(u^n, w^n) = Q(u, w)^n, and N x^a y^(n-a) = sign (n-a) x^(a+1) y^(n-a-1);
    F^p is spanned by the v^a conj(v)^(n-a) with a >= p.  Along the orbit
    F^1 = <y - (i + sign z) x>: polarized for every t when sign = -1, and for
    sign = +1 only while Im z < 1, that is |t| > exp(-2 pi)."""
    from hodgecharts.filtrations import NilpotentCone
    from hodgecharts.linalg import RationalMatrix

    form = [[0] * (n + 1) for _ in range(n + 1)]
    gen = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        form[a][n - a] = Fraction((-1) ** (n - a), math.comb(n, a))
        if a < n:
            gen[a + 1][a] = sign * (n - a)
    v = np.array([1, -1j])  # coefficients of x^0 y and x^1 in y - i x
    cols = []
    for a in range(n, -1, -1):
        col = np.ones(1, dtype=complex)
        for factor in [v] * a + [v.conj()] * (n - a):
            col = np.convolve(col, factor)
        cols.append(col)
    flag = FlagPoint(n, {p: np.column_stack(cols[: n - p + 1]) for p in range(1, n + 1)})
    cone = NilpotentCone(
        n + 1, n, RationalMatrix.from_rows(form), [RationalMatrix.from_rows(gen)]
    )
    return OrbitSpec(cone, flag)


def _seeded_points(rng, count, lowest):
    """count one-variable points t with |t| log-uniform in [lowest, 0.5]."""
    radii = 10.0 ** rng.uniform(math.log10(lowest), math.log10(0.5), size=count)
    return [(r * np.exp(2j * np.pi * rng.uniform()),) for r in radii]


def test_augmented_matches_weil_oracle_on_weight3_and_conifold():
    """The flag's own pairings against the Weil operator of the Hodge
    decomposition, to 1e-12 relative, at seeded t down to 1e-8 and at the
    criteria's points."""
    rng = np.random.default_rng(29)
    for orbit in (weight3_orbit(), conifold_orbit()):
        points = _seeded_points(rng, 20, 1e-8) + [(0.9,), (1e-12,), (1e-100j,)]
        for t in points:
            want = weil_augmented_log_det(orbit, t, 0.0)
            got = augmented_log_det(orbit, t, 0.0)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (t, got, want)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_augmented_matches_weil_oracle_on_symmetric_powers(n):
    """Sym^n of the weight-1 line with N = -x d/dy, at seeded t down to
    1e-20.  From weight 5 on a level has a piece at r - p = 2: B_3 on F^3
    has signs (+, -, +), so it has one negative eigenvalue."""
    orbit = sym_power_orbit(n, -1)
    orbit.check_horizontal()
    rng = np.random.default_rng(n)
    for t in _seeded_points(rng, 20, 1e-20):
        want = weil_augmented_log_det(orbit, t, 0.0)
        got = augmented_log_det(orbit, t, 0.0)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (t, got, want)
    if n == 5:
        frame = orbit.group_element((1e-3,), 0.0) @ orbit.f0.level(3)
        gram = (1j) ** (2 * 3 - n) * (frame.T @ orbit.form @ frame.conj())
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert int(np.sum(eigs < 0)) == 1 and int(np.sum(eigs > 0)) == 2


def _negated_form_genus2_orbit() -> OrbitSpec:
    from hodgecharts.filtrations import NilpotentCone

    cone = gallery.genus2_cone()
    negated = NilpotentCone(cone.dim, cone.weight, cone.form.scale(-1), cone.generators)
    return OrbitSpec(negated, genus2_orbit().f0)


@pytest.mark.parametrize(
    "make, t, message, oracle_message",
    [
        (
            _negated_form_genus2_orbit,
            (1e-3, 1e-3, 1e-3),
            r"F\^1 pairing is not positive",
            r"H\^1,0",
        ),
        (genus2_orbit, (1.0, 1.0, 1.0), r"F\^1 pairing is not positive", "not in direct sum"),
        (
            partial(conifold_orbit, -1),
            (1e-3,),
            r"^F\^2 pairing has 2 negative eigenvalues, not 1$",
            r"H\^2,1 pairing is not positive",
        ),
        (partial(sym_power_orbit, 5, 1), (1e-6,), r"^F\^5 pairing is not positive", r"H\^5,0"),
    ],
    ids=["negated-form", "genus2-at-1", "conifold-minus-N", "sym5-plus-x-dy"],
)
def test_augmented_refusals_name_their_level(make, t, message, oracle_message):
    """Each refusal is NotPolarized, from the flag's pairings and from the
    Weil-operator oracle alike; the flag's pairings name the level."""
    orbit = make()
    orbit.check_horizontal()
    with pytest.raises(NotPolarized, match=message):
        augmented_log_det(orbit, t, 0.0)
    with pytest.raises(NotPolarized, match=oracle_message):
        weil_augmented_log_det(orbit, t, 0.0)


def test_augmented_accepts_a_point_near_the_boundary():
    """F^1 = <(1, 1e-9 i)> is polarized, with i Q(v, conj v) = 2e-9, though
    its Hodge pieces meet at an angle below ALGEBRAIC_TOL: log_det_lambda
    and the augmented determinant both read log 2e-9."""
    from hodgecharts.filtrations import NilpotentCone
    from hodgecharts.linalg import RationalMatrix

    form = RationalMatrix.from_rows([[0, 1], [-1, 0]])
    cone = NilpotentCone(2, 1, form, [RationalMatrix.from_rows([[0, 1], [0, 0]])])
    flag = FlagPoint(1, {1: np.array([[1], [1e-9j]])})
    orbit = OrbitSpec(cone, flag)
    with pytest.raises(NotPolarized, match="not in direct sum"):
        hodge_decomposition(flag, orbit.form)
    got = augmented_log_det(orbit, (1.0,), 0.0)
    assert got == log_det_lambda(orbit, (1.0,), 0.0)
    assert abs(got - math.log(2e-9)) < 1e-12


def test_log_det_counts_negative_eigenvalues():
    """With negatives > 0 the log-determinant is of |det|, and the count of
    negative eigenvalues must be that number, with none 0."""
    assert _hermitian_log_det(np.diag([1.0, -2.0]), "B", 1) == math.log(2)
    with pytest.raises(NotPolarized, match=r"^B has 0 negative eigenvalues, not 1$"):
        _hermitian_log_det(np.diag([1.0, 2.0]), "B", 1)
    with pytest.raises(NotPolarized, match=r"^B has an eigenvalue 0$"):
        _hermitian_log_det(np.diag([0.0, -2.0]), "B", 1)


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def _svd_oracle_pair(monkeypatch, compute):
    """compute() with the library's span intersection, then with the SVD
    oracle's; an error counts as its type."""

    def run():
        try:
            return compute()
        except (NotPolarized, ValueError) as exc:
            return type(exc)

    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_intersect_spans", svd_intersect_spans)
        want = run()
    return got, want


def test_hodge_pieces_match_svd_oracle_on_gallery_orbits(monkeypatch):
    """The pieces from the one column-pivoting cut have the projectors of the
    SVD kernel with QR, and augmented_log_det the value of the Weil-operator
    oracle on them, at seeded (t, w)."""
    rng = np.random.default_rng(20261019)
    compared = 0
    for make in (
        genus2_orbit,
        twisted_weight1_orbit,
        weight2_jordan3_orbit,
        weight2_twoblock_orbit,
        weight2_inert_orbit,
    ):
        orbit = make()
        for _ in range(5):
            radii = 10.0 ** rng.uniform(-4, -1, size=orbit.cone.k)
            t = tuple(radii * np.exp(2j * np.pi * rng.uniform(size=orbit.cone.k)))
            w = complex(*rng.normal(scale=0.1, size=2))
            flag = flag_at(orbit, t, w)
            got, want = _svd_oracle_pair(
                monkeypatch, lambda: hodge_decomposition(flag, orbit.form)
            )
            got_value = augmented_log_det(orbit, t, w)
            if isinstance(want, type):
                assert got is want
                # the inert orbit gives no F^1; at weight 2 only F^2 is read
                assert got_value == log_det_lambda(orbit, t, w)
                continue
            assert got.keys() == want.keys()
            for pq, basis in got.items():
                assert basis.shape == want[pq].shape
                assert np.abs(_projector(basis) - _projector(want[pq])).max() <= 1e-9
            want_value = weil_augmented_log_det(orbit, t, w)
            assert abs(got_value - want_value) <= 1e-12 * max(1.0, abs(want_value))
            compared += 1
    assert compared == 20  # the inert orbit gives no F^1, so the decomposition refuses it


def _random_flag_cones():
    """The gallery cones the random-flag tests draw from."""
    return (
        gallery.genus2_cone(),
        gallery.rank1_cone(),
        gallery.standard_triple_block_cone(),
        gallery.weight2_jordan3_cone(),
        gallery.weight2_twoblock_cone(),
        gallery.weight2_inert_orbit().cone,
    )


def test_span_intersections_match_svd_oracle_on_random_flags():
    """The random top flags of the graded-frame test, met with their own
    conjugates and with the weight steps they were drawn from.  QR turns the
    oracle's kernel images into a basis only for independent columns, so
    only such frames are compared."""
    rng = np.random.default_rng(20261020)
    cones = _random_flag_cones()
    dims = []
    for trial in range(120):
        cone = cones[trial % len(cones)]
        index = (int(rng.integers(1, cone.k + 1)),)
        frame = _random_twisted_orbit(rng, cone, index).f0.level(cone.weight)
        filtration = weight_filtration(cone.n_of(index), cone.weight)
        others = [frame.conj()] + [
            _np_matrix(filtration.step(level).basis).T.astype(complex)
            for level in filtration.levels()
        ]
        for other in others:
            if any(np.linalg.matrix_rank(m) < m.shape[1] for m in (frame, other)):
                continue
            got = oracles._intersect_spans(frame, other)
            want = svd_intersect_spans(frame, other)
            assert got.shape == want.shape
            assert np.abs(_projector(got) - _projector(want)).max() <= 1e-9
            dims.append(got.shape[1])
    assert len(dims) > 500 and set(dims) == set(range(6)), (len(dims), set(dims))


def test_mixed_second_derivative_examples():
    assert abs(mixed_second_derivative(lambda w: abs(w) ** 2, 0.3 + 0.2j) - 1) < 1e-8
    assert abs(mixed_second_derivative(lambda w: (w * w).real, 0.1 + 0.5j)) < 1e-8
    got = mixed_second_derivative(lambda w: math.log(1 + abs(w) ** 2), 0.0)
    assert abs(got - 1) < 1e-6


def test_expansion_fit_cases():
    fits = {}
    for name, orbit in (
        ("c", weight2_jordan3_orbit()),
        ("b", weight2_twoblock_orbit()),
        ("a", weight2_inert_orbit()),
    ):
        fits[name] = expansion_fit(orbit, lambda tau: (tau,), 0.0)
    assert fits["c"].power == 2
    assert fits["b"].power == 1
    assert fits["a"].power == 0
    for f in fits.values():
        assert f.residual < 1e-2
    # amplitudes match the closed forms 2/(2 pi)^2, 4/(2 pi), and 2
    assert abs(fits["c"].amplitude - 2 / (2 * math.pi) ** 2) < 1e-6
    assert abs(fits["b"].amplitude - 4 / (2 * math.pi)) < 1e-6
    assert abs(fits["a"].amplitude - 2) < 1e-9


@pytest.mark.parametrize(
    "taus",
    [
        (1e-5,) * 3,
        (1e-5, 1e-6),
        (1e-5, 1e-6, 1e-5),
        (1e-5, 1.0000000000000003e-5, 1.0000000000000008e-5),
    ],
    ids=["repeated", "two", "two-distinct", "equal-rates"],
)
@pytest.mark.parametrize("as_generator", [False, True], ids=["tuple", "generator"])
def test_expansion_fit_refuses_fewer_than_three_distinct_taus(taus, as_generator):
    """A + B/L has two parameters, so on two points every order fits exactly.
    Distinct taus whose rates -log|t_1| round equal are one point of the fit."""
    if as_generator:
        taus = (tau for tau in taus)
    with pytest.raises(ValueError, match="3 distinct"):
        expansion_fit(weight2_jordan3_orbit(), lambda tau: (tau,), 0.0, taus)


def test_expansion_fit_reads_a_generator_of_taus_once():
    orbit = weight2_jordan3_orbit()
    want = expansion_fit(orbit, lambda tau: (tau,), 0.0)
    got = expansion_fit(orbit, lambda tau: (tau,), 0.0, (tau for tau in EXPANSION_TAUS))
    assert got == want


def test_expansion_fit_poor_fit():
    """With t_2 = t_3 = 1/2 held fixed and taus far from 0, no growth order
    fits the genus-2 orbit: the best residual is 0.0557 > FIT_TOL."""
    with pytest.raises(PoorFit, match=r"best growth fit has residual \S+ > threshold 0\.01$"):
        expansion_fit(genus2_orbit(), lambda tau: (tau, 0.5, 0.5), 0.0, (0.9, 0.7, 0.5))


def _generator_free_orbit():
    """weight2_jordan3_orbit's flag on its form with no generator."""
    from hodgecharts.filtrations import NilpotentCone

    orbit = weight2_jordan3_orbit()
    return OrbitSpec(NilpotentCone(3, 2, orbit.cone.form, []), orbit.f0)


@pytest.mark.parametrize(
    "make, ray, taus, message",
    [
        (_generator_free_orbit, lambda tau: (), EXPANSION_TAUS, "the cone needs a generator"),
        (weight2_jordan3_orbit, lambda tau: (tau,), (0.5, 2.0, 3.0), r"taus must lie in \(0, 1"),
        (weight2_jordan3_orbit, lambda tau: (tau,), (1e-4, 0.0, 1e-6), r"taus must lie in \(0, 1"),
        (weight2_jordan3_orbit, lambda tau: (1e5 * tau,), EXPANSION_TAUS, r"0 < \|t_j\| < 1"),
        (weight2_jordan3_orbit, lambda tau: (-tau / tau,), EXPANSION_TAUS, r"0 < \|t_j\| < 1"),
        (weight2_jordan3_orbit, lambda tau: (tau, tau), EXPANSION_TAUS, "k = 1 coordinates, not 2"),
        (weight2_jordan3_orbit, lambda tau: (), EXPANSION_TAUS, "k = 1 coordinates, not 0"),
    ],
    ids=[
        "no-generator", "taus-above-1", "tau-zero", "ray-off-the-disc", "ray-on-the-circle",
        "ray-too-long", "ray-empty",
    ],
)
@pytest.mark.parametrize("as_generator", [False, True], ids=["tuple", "generator"])
def test_expansion_fit_refuses_inputs_off_its_domain(make, ray, taus, message, as_generator):
    """Where the CLI exits 2, a library call got an IndexError (no generator,
    an empty point), a bare ValueError (a long point) or a fit through the
    logarithms of points off the punctured disc; now each is InvalidInput."""
    if as_generator:
        taus = (tau for tau in taus)
    with pytest.raises(InvalidInput, match=message):
        expansion_fit(make(), ray, 0.0, taus)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda orbit, t: orbit.group_element(t, 0.0),
        lambda orbit, t: log_det_lambda(orbit, t, 0.0),
        lambda orbit, t: augmented_log_det(orbit, t, 0.0),
        lambda orbit, t: curvature_limit_check(orbit, (1,), 0.0, [t]),
    ],
    ids=["group_element", "log_det_lambda", "augmented_log_det", "curvature_limit_check"],
)
@pytest.mark.parametrize("t", [(1e-3, 1e-3), (1e-3,) * 4], ids=["short", "long"])
def test_a_point_needs_one_coordinate_per_generator(evaluate, t):
    with pytest.raises(InvalidInput, match=f"k = 3 coordinates, not {len(t)}"):
        evaluate(genus2_orbit(), t)


def test_flag_and_orbit_refuse_mismatched_shapes():
    """Each mismatch raised a bare numpy ValueError, or none, where the CLI exits 2."""
    orbit = weight2_jordan3_orbit()  # dim 3, weight 2, flag levels 2 and 1
    f2, f1 = orbit.f0.level(2), orbit.f0.level(1)
    with pytest.raises(InvalidInput, match="equal row counts"):
        FlagPoint(2, {2: f2, 1: f1[:2]})
    with pytest.raises(InvalidInput, match="top level 2"):
        OrbitSpec(orbit.cone, FlagPoint(2, {1: f1}))
    with pytest.raises(InvalidInput, match="3 rows"):
        OrbitSpec(orbit.cone, FlagPoint(2, {2: f2[:2], 1: f1[:2]}))
    with pytest.raises(InvalidInput, match="3 x 3"):
        OrbitSpec(orbit.cone, orbit.f0, np.zeros((2, 2)))


def test_curvature_limit_twisted_fixture():
    orbit = twisted_weight1_orbit(eps=0.1)
    ts = [(10.0 ** -k,) for k in range(2, 7)]
    rep = curvature_limit_check(orbit, (1,), 0.0, ts)
    assert abs(rep.boundary + 0.25) < 1e-6
    assert rep.decreasing
    assert rep.final_error < 1e-2
    # the analytic error is eps^2 / (2 Im z)
    for (t,), err in zip(ts, rep.errors):
        y = -math.log(t) / (2 * math.pi)
        assert abs(err - 0.01 / (2 * y)) < 1e-6


def test_curvature_limit_reads_a_generator_of_points_once():
    orbit = twisted_weight1_orbit(eps=0.1)
    ts = [(10.0 ** -k,) for k in range(2, 5)]
    want = curvature_limit_check(orbit, (1,), 0.0, ts)
    got = curvature_limit_check(orbit, (1,), 0.0, (t for t in ts))
    assert got == want
    assert len(got.points) == len(got.interior) == 3


@pytest.mark.parametrize("as_generator", [False, True], ids=["tuple", "generator"])
def test_curvature_limit_refuses_an_empty_sequence(as_generator):
    ts = (t for t in ()) if as_generator else ()
    with pytest.raises(ValueError, match="at least one point"):
        curvature_limit_check(twisted_weight1_orbit(), (1,), 0.0, ts)


def test_curvature_limit_refuses_a_zero_coordinate():
    """l(0) is -inf: the check refuses the point before any evaluation."""
    with pytest.raises(InvalidInput, match="no t_j = 0"):
        curvature_limit_check(twisted_weight1_orbit(), (1,), 0.0, [(1e-2,), (0.0,)])


def _fixture_with_second_generator():
    """The limit fixture's orbit with a second generator, the block matrix of
    S = E_22 beside the fixture's S = E_11.  On Gr of W(N_1) the boundary
    structure is the elliptic modulus tau = i + l(t_2) + w, so the boundary
    curvature at w = 0 is -1/(4 (Im tau)^2)."""
    data = json.loads((FIXTURES / "orbit_twisted_weight1.json").read_text())
    e22 = [["0"] * 4 for _ in range(4)]
    e22[1][3] = "1"
    data["orbit"]["cone"]["generators"].append(e22)
    return orbit_from_json(data["orbit"])


@pytest.mark.parametrize("t2", [0.5, 1e-3])
def test_curvature_limit_boundary_at_the_outer_coordinates(t2):
    """With index [1] and t_2 held fixed, the boundary value is read at the
    outer point t_2, not at t_2 = 1 (where it was -1/4 whatever t_2 was),
    and the interior values approach it."""
    orbit = _fixture_with_second_generator()
    im_tau = (1j + log_coord(t2)).imag
    ts = [(10.0**-k, t2) for k in (2, 10, 100, 300)]
    rep = curvature_limit_check(orbit, (1,), 0.0, ts)
    assert abs(rep.boundary + 1 / (4 * im_tau**2)) < 1e-8
    assert rep.decreasing and rep.final_error < 2e-3 < rep.errors[0]


def test_curvature_limit_boundary_with_seeded_twists_at_proper_index_sets():
    """Seeded twists of _nilpotent_twists(genus2_cone) on the genus-2 flag, at
    every proper index set I with the coordinates outside I fixed at seeded
    values: the interior errors decrease as t_I -> 0, to below a tenth of the
    first.  Read at the outer coordinates 1 instead, the boundary value is
    off by more than ten times the first error wherever |I| = 1."""
    cone = gallery.genus2_cone()
    f0 = genus2_orbit().f0
    twists = _nilpotent_twists(cone)
    rng = np.random.default_rng(20261022)
    for _ in range(3):
        orbit = OrbitSpec(cone, f0, (rng.normal(size=twists.shape[0]) @ twists).reshape(4, 4))
        w0 = complex(*rng.normal(scale=0.1, size=2))
        for r in range(1, cone.k):
            for index in itertools.combinations(range(1, cone.k + 1), r):
                outer = {j: rng.uniform(0.05, 0.5) for j in range(1, cone.k + 1) if j not in index}
                ts = [
                    tuple(outer.get(j, 10.0**-e) for j in range(1, cone.k + 1))
                    for e in (4, 16, 64, 256)
                ]
                rep = curvature_limit_check(orbit, index, w0, ts)
                assert rep.decreasing, index
                assert rep.final_error < rep.errors[0] / 10, index
                if r == 1:
                    frames = _graded_frames(orbit, index)
                    at_one = partial(_graded_log_det, orbit, frames, (1,) * cone.k)
                    off = abs(mixed_second_derivative(at_one, w0) - rep.boundary)
                    assert off > 10 * rep.errors[0], index


def _limit_frame(orbit, w):
    """zeta(w) F0^n: the frame whose graded pieces are taken at w."""
    return orbit.zeta(w) @ orbit.f0.level(orbit.weight)


def _frame_pair(orbit, index, w_base):
    """The graded frames, and the pivoted-QR oracle's frozen at w_base after
    checking that column pivoting takes QR's pivot set on every level there;
    the frames are None when both refuse the orbit because F^n meets a weight
    level below the center."""
    oracle = QRNestedFrame(orbit, index, w_base)
    frame = _limit_frame(orbit, w_base)
    for level, c in oracle.constraints.items():
        m = c @ frame if c.shape[0] else np.zeros((0, frame.shape[1]))
        assert set(_independent_columns(m)[0]) == set(oracle.pivot_table[level])
    try:
        frames = _graded_frames(orbit, index)
    except NotPolarized:
        with pytest.raises(NotPolarized, match="below the center"):
            oracle.log_det(w_base)
        return None, oracle
    return frames, oracle


def _untwisted_kernels(orbit, index):
    """Per level of W(N_I): C_l, and its pivots and coefficient kernel on the
    untwisted frame F0^n, solved as the graded frames solve them."""
    filtration = weight_filtration(orbit.cone.n_of(index), orbit.cone.weight)
    frame = orbit.f0.level(orbit.weight)
    kernels = {}
    for level in filtration.levels():
        c = _np_matrix(filtration.step(level).orthogonal_complement().basis)
        pivots = _independent_columns(c @ frame)[0]
        kernels[level] = c, pivots, _coefficient_kernel(c @ frame, pivots)
    return kernels


def _graded_columns(orbit, index, frames, oracle):
    """The columns of the untwisted kernel basis that each K_l takes, and the
    oracle's graded columns."""
    kernels = _untwisted_kernels(orbit, index)
    new = {}
    for level, coefficients, _ in frames:
        basis = kernels[level][2]
        new[level] = [
            next(j for j in range(basis.shape[1]) if np.array_equal(basis[:, j], col))
            for col in coefficients.T
        ]
    old = {level: list(chosen) for level, chosen in oracle.column_choice.items() if chosen}
    return new, old


def _log_det_or_error(log_det, w):
    try:
        return log_det(w)
    except NotPolarized as exc:
        return str(exc)


def _fixture_and_gallery_cases():
    for name in ("orbit_twisted_weight1.json", "orbit_weight2_caseC_expansion.json"):
        data = json.loads((FIXTURES / name).read_text())
        w0 = complex(*data.get("w0", data.get("w", [0.0, 0.0])))
        yield name, orbit_from_json(data["orbit"]), w0
    for name in (
        "genus2_orbit",
        "twisted_weight1_orbit",
        "weight2_jordan3_orbit",
        "weight2_twoblock_orbit",
        "weight2_inert_orbit",
    ):
        yield name, getattr(gallery, name)(), 0.0


@pytest.mark.parametrize(
    "orbit, w0", [pytest.param(o, w, id=n) for n, o, w in _fixture_and_gallery_cases()]
)
def test_graded_frames_match_pivoted_qr_on_fixtures_and_gallery(orbit, w0):
    """Same pivots, graded columns and log-determinants as the pivoted QR and
    greedy singular-value loop, which re-solve the kernel at every w from
    pivots frozen at a base point: for every index set and two base points."""
    k = orbit.cone.k
    for r in range(1, k + 1):
        for index in itertools.combinations(range(1, k + 1), r):
            for w_base in (w0, w0 + 0.1 + 0.05j):
                frames, oracle = _frame_pair(orbit, index, w_base)
                assert frames is not None
                new, old = _graded_columns(orbit, index, frames, oracle)
                assert new == old
                log_det = partial(_graded_log_det, orbit, frames, (1,) * orbit.cone.k)
                for w in (w_base, w_base + 0.05, w_base - 0.1j):
                    assert _log_det_or_error(log_det, w) == _log_det_or_error(oracle.log_det, w)


def _complement_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """Rows spanning the covectors that vanish on the span of rows."""
    if not rows.shape[0]:
        return np.eye(dim)
    _, svals, vh = np.linalg.svd(rows)
    return vh[int(np.sum(svals > 1e-10)) :]


def _nilpotent_twists(cone):
    """Row-major vec(xi) of the generators' centralizer elements that lower a
    complete flag V refining the weight filtration W of the whole cone: V runs
    up each W_l by the vectors of its echelon basis outside the span so far.
    Such xi are strictly triangular in a basis adapted to V, so this is a
    linear space of nilpotent matrices.  It holds every N_i and every xi with
    xi W_l <= W_{l-1}, and where a graded piece of W repeats a block (as on
    the two-block cone) also xi that act on it as a nonzero nilpotent."""
    eye = np.eye(cone.dim)
    lowering = weight_filtration(cone.n_of(range(1, cone.k + 1)), cone.weight)
    # On row-major vec(xi): xi N - N xi for each generator, and c xi v for
    # each new flag vector v and c vanishing on the flag below it.
    conditions = [np.kron(eye, n.T) - np.kron(n, eye) for n in map(_np_matrix, cone.generators)]
    flag = np.zeros((0, cone.dim))
    for level in lowering.levels():
        for v in _np_matrix(lowering.step(level).basis):
            if np.linalg.matrix_rank(np.vstack([flag, v]), tol=1e-10) > flag.shape[0]:
                conditions.append(np.kron(_complement_rows(flag, cone.dim), v))
                flag = np.vstack([flag, v])
    _, svals, vh = np.linalg.svd(np.vstack(conditions))
    return vh[int(np.sum(svals > 1e-10)) :]


def _random_twisted_orbit(rng, cone, index):
    """F^n spanned by random vectors of random steps W_l(N_I), l >= the weight,
    mixed by a random matrix, so that products C_l F^n can lose rank; the
    twist exp(w xi) has xi a random element of _nilpotent_twists(cone).  Twists
    that lower W(N_I) instead would act trivially on its graded pieces, where
    the boundary pairings Q(N^q u, conj v) live, and make every boundary
    curvature 0 (Q(W_a, W_b) = 0 for a + b < 2n)."""
    filtration = weight_filtration(cone.n_of(index), cone.weight)
    steps = [
        _np_matrix(filtration.step(level).basis)
        for level in filtration.levels()
        if level >= cone.weight
    ]
    d = int(rng.integers(1, cone.dim))
    cols = []
    for _ in range(d):
        step = steps[rng.integers(len(steps))]
        cols.append((rng.normal(size=step.shape[0]) + 1j * rng.normal(size=step.shape[0])) @ step)
    mix = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    twists = _nilpotent_twists(cone)
    xi = (rng.normal(size=twists.shape[0]) @ twists).reshape(cone.dim, cone.dim)
    f0 = FlagPoint(cone.weight, {cone.weight: np.column_stack(cols) @ mix})
    return OrbitSpec(cone, f0, xi)


def test_graded_frames_match_pivoted_qr_on_random_flags():
    """Pivot sets, on every level, agree with the oracle's at w = 0 and at a
    random base point w0.  On the graded columns of the oracle frozen at
    w = 0, the log-determinants are equal: at w = 0, where both solve the
    kernel on the untwisted frame, and at w0 and w0 + 0.05 with the oracle's
    kernel solved at 0, as K_l is.  That this kernel is the one re-solved at w
    is test_graded_coefficients_do_not_depend_on_the_twist.  Where a level has
    several complements to choose from, column pivoting may take another one
    than the old first-come loop; the two frames then differ by a holomorphic
    change of basis, so the boundary curvature agrees with the oracle's
    re-solved at every w, not the log-determinant."""
    rng = np.random.default_rng(20261019)
    cones = _random_flag_cones()
    seen = {"no rows": 0, "rank-deficient": 0, "same columns": 0, "other columns, curved": 0}
    for trial in range(120):
        cone = cones[trial % len(cones)]
        size = int(rng.integers(1, cone.k + 1))
        index = tuple(sorted(int(i) for i in rng.choice(range(1, cone.k + 1), size, replace=False)))
        orbit = _random_twisted_orbit(rng, cone, index)
        w0 = complex(*rng.normal(scale=0.1, size=2))
        frames, oracle = _frame_pair(orbit, index, w0)
        frame = _limit_frame(orbit, w0)
        for c in oracle.constraints.values():
            if c.shape[0] == 0:
                seen["no rows"] += 1
            elif np.linalg.matrix_rank(c @ frame) < min(c.shape[0], frame.shape[1]):
                seen["rank-deficient"] += 1
        if frames is None:
            continue
        _, untwisted = _frame_pair(orbit, index, 0.0)
        new, old = _graded_columns(orbit, index, frames, untwisted)
        assert {lv: len(c) for lv, c in new.items()} == {lv: len(c) for lv, c in old.items()}
        log_det = partial(_graded_log_det, orbit, frames, (1,) * orbit.cone.k)
        if new == old:
            seen["same columns"] += 1
            assert log_det(0.0) == untwisted.log_det(0.0)
            for w in (w0, w0 + 0.05):
                assert log_det(w) == untwisted.log_det(w, kernel_at=0.0)
        else:
            want = mixed_second_derivative(oracle.log_det, w0)
            got = mixed_second_derivative(log_det, w0)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            seen["other columns, curved"] += abs(want) > 1e-3
    assert min(seen.values()) > 0, seen


def test_graded_coefficients_do_not_depend_on_the_twist():
    """zeta(w) commutes with N_I, so it preserves every W_l(N_I): at seeded w
    on random twisted orbits, the kernel of C_l zeta(w) F0^n solved with the
    pivots of the untwisted frame is the untwisted kernel to 1e-12, and each
    K_l is made of columns of that kernel.  The comparison has content only
    where the twist moves C_l F0^n: on the two-block cone, whose twists act
    on Gr^W as nonzero nilpotents, it does by more than 1e-8."""
    rng = np.random.default_rng(20261021)
    cones = _random_flag_cones()
    compared = moved = 0
    for trial in range(60):
        cone = cones[trial % len(cones)]
        size = int(rng.integers(1, cone.k + 1))
        index = tuple(sorted(int(i) for i in rng.choice(range(1, cone.k + 1), size, replace=False)))
        orbit = _random_twisted_orbit(rng, cone, index)
        kernels = _untwisted_kernels(orbit, index)
        try:
            frames = _graded_frames(orbit, index)
        except NotPolarized:
            frames = []
        for level, coefficients, _ in frames:
            basis = kernels[level][2]
            assert all(any(np.array_equal(col, b) for b in basis.T) for col in coefficients.T)
        for w in rng.normal(scale=0.5, size=(3, 2)) @ np.array([1, 1j]):
            frame = _limit_frame(orbit, w)
            for c, pivots, basis in kernels.values():
                drift = np.abs(_coefficient_kernel(c @ frame, pivots) - basis)
                assert drift.max(initial=0.0) <= 1e-12
                if basis.size > 0 and c.shape[0] > 0:
                    compared += 1
                    move = np.abs(c @ (frame - orbit.f0.level(orbit.weight)))
                    moved += move.max() > 1e-8
    assert compared > 200 and moved > 10, (compared, moved)


def test_graded_frames_never_evaluate_the_twist(monkeypatch):
    """K_l is solved once, on the untwisted frame F0^n: building the graded
    frames of the twisted fixture and of seeded random twisted orbits
    evaluates no zeta(w)."""
    orbits = [(twisted_weight1_orbit(), (1,))]
    rng = np.random.default_rng(20261031)
    for cone in _random_flag_cones():
        index = tuple(range(1, cone.k + 1))
        orbits.append((_random_twisted_orbit(rng, cone, index), index))

    def no_twist(self, w):
        raise AssertionError(f"zeta evaluated at w = {w}")

    monkeypatch.setattr(OrbitSpec, "zeta", no_twist)
    built = 0
    for orbit, index in orbits:
        try:
            _graded_frames(orbit, index)
        except NotPolarized:
            continue
        built += 1
    assert built >= 3, built


def test_curvature_limit_trivial_twist():
    orbit = genus2_orbit()
    rep = curvature_limit_check(
        orbit, (1, 2, 3), 0.0, [(1e-3, 1e-3, 1e-3), (1e-4, 1e-4, 1e-4)]
    )
    assert abs(rep.boundary) < 1e-8
    assert all(abs(v) < 1e-8 for v in rep.interior)


def test_curvature_limit_weight2_single_variable():
    """Without twist parameters the boundary charge log A(0, w) is constant."""
    orbit = weight2_jordan3_orbit()
    rep = curvature_limit_check(orbit, (1,), 0.0, [(1e-3,), (1e-5,)])
    assert abs(rep.boundary) < 1e-8
    assert all(abs(v) < 1e-6 for v in rep.interior)


def test_shipped_orbits_are_horizontal():
    for orbit in (
        genus2_orbit(),
        twisted_weight1_orbit(),
        weight2_jordan3_orbit(),
        weight2_twoblock_orbit(),
        weight2_inert_orbit(),
    ):
        orbit.check_horizontal()


def test_twist_is_its_generator():
    """zeta(w) = exp(w xi), and no generator xi means no twist: zeta(w) is
    then the identity for every w."""
    assert genus2_orbit().xi is None
    assert np.array_equal(genus2_orbit().zeta(0.3 + 0.1j), np.eye(4))
    orbit = twisted_weight1_orbit(eps=0.2)  # xi^2 = 0, so exp(w xi) = 1 + w xi
    assert np.allclose(orbit.zeta(2.0), np.eye(4) + 2.0 * orbit.xi)


def _random_nilpotent(rng, d):
    """A random complex conjugate of a strictly upper triangular d x d matrix."""
    upper = np.triu(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 1)
    s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return s @ upper @ np.linalg.inv(s)


def test_exp_nilpotent_matches_scipy_expm():
    """The finite series against scipy's Pade expm on seeded nilpotent
    matrices of dim 2 to 6, to 1e-12 relative to the largest entry."""
    from scipy.linalg import expm

    rng = np.random.default_rng(20261030)
    for _ in range(60):
        z = _random_nilpotent(rng, int(rng.integers(2, 7)))
        want = expm(z)
        assert np.abs(_exp_nilpotent(z) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("t", [0.5, 1e-3, 1e-12, 1e-100])
def test_group_element_on_a_jordan_block_is_exact(t):
    """On the expansion fixture's 3 x 3 Jordan block, exp(l(t) N) with
    l(t) = iy has the exact entries 1, iy and -y^2/2."""
    data = json.loads((FIXTURES / "orbit_weight2_caseC_expansion.json").read_text())
    orbit = orbit_from_json(data["orbit"])
    y = log_coord(t).imag
    want = np.array([[1, 1j * y, -y * y / 2], [0, 1, 1j * y], [0, 0, 1]])
    assert np.array_equal(orbit.group_element((t,), 0.0), want)


@pytest.mark.parametrize(
    "xi",
    [np.eye(4), np.diag([0.0, 1.0, 0.0, 1.0])],
    ids=["identity", "diag-0101"],
)
def test_twist_must_be_nilpotent(xi):
    """Both commute with N = E_02 but are not nilpotent, so exp(w xi) is no
    finite series: OrbitSpec refuses them naming the twist."""
    orbit = twisted_weight1_orbit()
    with pytest.raises(ValueError, match="twist generator is not nilpotent"):
        OrbitSpec(orbit.cone, orbit.f0, xi)


def test_twist_series_refuses_a_hidden_semisimple_part():
    """xi = 1000 E_02 + diag(0, 3, 0, 3) commutes with N = E_02, and its two
    parts annihilate each other, so xi^4 = diag(0, 81, 0, 81): 8.1e-11 times
    max(1, |xi|)^4 = 1000^4, inside the nilpotency test.  The eigenvalues 3
    make exp(w xi) no finite series; at w = 0 the series is still exact, but
    from the first stencil point w = 0.1 of the curvature check on, the
    omitted term is named."""
    orbit = twisted_weight1_orbit()
    xi = np.diag([0.0, 3.0, 0.0, 3.0])
    xi[0, 2] = 1000.0
    twisted = OrbitSpec(orbit.cone, orbit.f0, xi)
    assert np.array_equal(twisted.zeta(0.0), np.eye(4))
    with pytest.raises(
        NumericDomainError,
        match=r"^twist exp\(w xi\) at w = \(0\.1\+0j\) is not its finite series: the omitted"
        r" term \(w xi\)\^4/4! is 3\.34e-06 times the sum$",
    ):
        curvature_limit_check(twisted, (1,), 0.0, [(1e-3,)])


def test_nilpotent_twist_check_scales_with_the_twist():
    """xi^dim is compared with max(1, |xi|)^dim: on a cone without generators,
    seeded dense nilpotent twists of norm up to 1e6, whose computed xi^dim is
    far from 0 in absolute terms, are accepted, and so is their series at w
    up to 3 + i, whose omitted term is rounding; a nilpotent plus 1e-3 times
    the identity is refused at every scale."""
    from hodgecharts.filtrations import NilpotentCone

    orbit = twisted_weight1_orbit()
    cone = NilpotentCone(4, 1, orbit.cone.form, [])
    rng = np.random.default_rng(20261101)
    for scale in (1.0, 1e3, 1e6):
        for _ in range(10):
            xi = scale * _random_nilpotent(rng, 4)
            twisted = OrbitSpec(cone, orbit.f0, xi)
            for w in (0.1, 1.0, 3 + 1j):
                twisted.zeta(w)
            with pytest.raises(ValueError, match="not nilpotent"):
                OrbitSpec(cone, orbit.f0, xi + 1e-3 * np.abs(xi).max() * np.eye(4))


def test_twist_at_zero_matches_untwisted():
    from hodgecharts.gallery import single_cone
    from hodgecharts.metrics import FlagPoint, OrbitSpec

    twisted = twisted_weight1_orbit(eps=0.2)
    untwisted = OrbitSpec(single_cone(), FlagPoint(1, {1: twisted.f0.level(1)}))
    t = (1e-3,)
    assert abs(
        log_det_lambda(twisted, t, 0.0) - log_det_lambda(untwisted, t, 0.0)
    ) < 1e-12


def test_curvature_form_nonnegative_along_directions():
    """The Chern form -dd^c log h is nonnegative on sampled directions."""
    orbit = twisted_weight1_orbit(eps=0.3)
    for t in [(1e-2,), (1e-3,)]:
        val = mixed_second_derivative(
            lambda w: log_det_lambda(orbit, t, w), 0.1 + 0.05j
        )
        assert -val >= -1e-8


def test_residue_integral_cases():
    for k in (2, 3, 4, 5):
        t = 10.0 ** -k
        got = residue_integral({(0, 0): 1.0}, t)
        assert abs(got - 2 * math.pi * math.log(1 / t)) < 1e-6 * math.log(1 / t)
    bounded = [residue_integral({(1, 0): 1.0}, 10.0 ** -k) for k in (2, 3, 4, 5)]
    assert max(bounded) < math.pi + 1e-6
    assert abs(bounded[-1] - math.pi) < 1e-6
    ratio = residue_integral({(0, 0): 2.0}, 1e-3) / residue_integral(
        {(0, 0): 1.0}, 1e-3
    )
    assert abs(ratio - 4.0) < 1e-12


def test_residue_integral_overflow_names_t():
    """|g|^2 beyond the float range raises NumericDomainError naming t, also
    where abs() of a coefficient would raise OverflowError."""
    with pytest.raises(NumericDomainError, match=r"t = 0\.01 "):
        residue_integral({(0, 0): 1e308}, 0.01)
    with pytest.raises(NumericDomainError, match=r"t = 0\.5 "):
        residue_integral({(2, 0): complex(1.7e308, 1.7e308)}, 0.5)
    with pytest.raises(NumericDomainError, match=r"t = 1e-05 "):
        residue_integral({(0, 0): 1.0, (0, 1): 1e200}, 1e-5)


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-100000, 0)])
def test_residue_integral_rejects_negative_exponents(key):
    """g is a polynomial: x^-1 is not one of its terms."""
    with pytest.raises(ValueError, match="nonnegative"):
        residue_integral({key: 1.0}, 0.01)


def test_residue_integral_matches_the_quadrature():
    """The closed form against the earlier quadrature on seeded polynomials of
    degree at most 20, where the quadrature is good to about 1e-14."""
    rng = np.random.default_rng(25)
    for _ in range(30):
        coefficients = {
            (int(i), int(j)): complex(*rng.normal(size=2))
            for i, j in rng.integers(0, 21, size=(rng.integers(1, 6), 2))
        }
        t = 10 ** rng.uniform(-4, -0.05) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        want = quadrature_residue_integral(coefficients, t)
        assert residue_integral(coefficients, t) == pytest.approx(want, rel=1e-12, abs=0)


def test_residue_integral_matches_mpmath():
    """x^5 y^2 + x^2 y^5 at t = 0.6i against a 2-D mpmath quadrature."""
    import mpmath

    t = 0.6j

    def g_squared(s, theta):
        x = mpmath.exp(s + 1j * theta)
        y = t / x
        return abs(x**5 * y**2 + x**2 * y**5) ** 2

    want = float(mpmath.quad(g_squared, [math.log(0.6), 0], [0, 2 * mpmath.pi]))
    got = residue_integral({(5, 2): 1.0, (2, 5): 1.0}, t)
    assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "coefficients, t, want",
    [
        ({(200, 0): 1.0}, 0.5, 2 * math.pi * (1 - 2.0**-400) / 400),
        ({(1000, 0): 1.0}, 0.01, 2 * math.pi / 2000),
        ({(1000, 0): 1.0, (0, 1000): 1.0, (500, 499): 1 + 2j}, 0.01, 2 * math.pi / 1000),
    ],
    ids=["x200", "x1000", "degree-1000-mixed"],
)
def test_residue_integral_high_degree(coefficients, t, want):
    """High degrees the input accepts get their elementary values, and
    swapping x^i y^j for x^j y^i leaves the value unchanged."""
    got = residue_integral(coefficients, t)
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert residue_integral({(j, i): c for (i, j), c in coefficients.items()}, t) == got


def test_residue_slope_normalization():
    ts = [10.0 ** -k for k in range(2, 6)]
    vals = [residue_integral({(0, 0): 1.0}, t) for t in ts]
    logs = [math.log(1 / t) for t in ts]
    slope = np.polyfit(logs, vals, 1)[0]
    assert abs(slope / (2 * math.pi) - 1.0) < 0.02

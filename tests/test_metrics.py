import math

import numpy as np
import pytest

from hodgecharts.errors import NotPolarized, PoorFit
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
    augmented_log_det,
    augmented_weights,
    curvature_limit_check,
    expansion_fit,
    hodge_decomposition,
    log_det_lambda,
    mixed_second_derivative,
    residue_integral,
)


def test_hodge_pieces_genus2_point():
    orbit = genus2_orbit()
    t = (1e-3, 1e-3, 1e-3)
    pieces = hodge_decomposition(orbit.flag_at(t, 0.0), orbit.form)
    assert {k: v.shape[1] for k, v in pieces.items()} == {(1, 0): 2, (0, 1): 2}


def test_hodge_pieces_sp4_point():
    q = np.array([[float(x) for x in row] for row in sp4_form().entries])
    h10 = np.array([[1, 0], [0, 1], [0, 1j], [1j, 0]], dtype=complex)
    pieces = hodge_decomposition(FlagPoint(1, {1: h10}), q)
    assert pieces[(1, 0)].shape[1] == 2


def test_hodge_pieces_degenerate_rejected():
    orbit = genus2_orbit()
    with pytest.raises(NotPolarized):
        hodge_decomposition(orbit.flag_at((1.0, 1.0, 1.0), 0.0), orbit.form)


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


def test_augmented_weight3_synthetic():
    """Weight-3 flag with unit metric blocks: weights (2, 1) count the levels."""
    # Build a polarized weight-3 Hodge structure on C^4 with h = (1,1,1,1).
    q = np.zeros((4, 4))
    q[0, 3], q[1, 2], q[2, 1], q[3, 0] = 1, -1, 1, -1
    e = np.eye(4, dtype=complex)
    u30 = (e[:, 0] - 1j * e[:, 3]).reshape(4, 1)
    u21 = (e[:, 1] - 1j * e[:, 2]).reshape(4, 1)
    # check the two lines have i^{p-q} Q(u, conj u) > 0
    for u, p, qq in ((u30, 3, 0), (u21, 2, 1)):
        val = ((1j) ** (p - qq) * (u.T @ q @ u.conj()))[0, 0]
        assert val.real > 0 and abs(val.imag) < 1e-12
    from hodgecharts.filtrations import NilpotentCone
    from hodgecharts.linalg import RationalMatrix
    from hodgecharts.metrics import OrbitSpec

    n = RationalMatrix.from_rows(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    )
    qm = RationalMatrix.from_rows(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    )
    cone = NilpotentCone(4, 3, qm, [n])
    flag = FlagPoint(
        3, {3: u30, 2: np.hstack([u30, u21]), 1: np.hstack([u30, u21, u21.conj()])}
    )
    orbit = OrbitSpec(cone, flag)
    t = (1e-3,)
    total = augmented_log_det(orbit, t, 0.0)
    # hand value: 2 * logdet Gr^3 + 1 * logdet Gr^2 of the transported frames
    g = orbit.group_element(t, 0.0)
    weil_free = lambda fr, pq: ((1j) ** pq * (fr.T @ q @ fr.conj()))
    f3 = g @ u30
    f2 = g @ np.hstack([u30, u21])
    # full Hodge-metric Grams via the decomposition at the moved point
    pieces = hodge_decomposition(orbit.flag_at(t, 0.0), q)
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
    orbit = weight2_jordan3_orbit()
    with pytest.raises(PoorFit):
        expansion_fit(
            orbit, lambda tau: (tau,), 0.0, residual_threshold=1e-18
        )


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


def test_residue_slope_normalization():
    ts = [10.0 ** -k for k in range(2, 6)]
    vals = [residue_integral({(0, 0): 1.0}, t) for t in ts]
    logs = [math.log(1 / t) for t in ts]
    slope = np.polyfit(logs, vals, 1)[0]
    assert abs(slope / (2 * math.pi) - 1.0) < 0.02

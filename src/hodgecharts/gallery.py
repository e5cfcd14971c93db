"""Standard example objects used across the test-suite, fixtures, and docs.

The weight-1 examples live on Q^4 with the symplectic form in the block shape
Q = [[0, -I], [I, 0]] and generators N = [[0, S], [0, 0]] with S symmetric;
transported flags then have period matrices that move additively in the
coordinates l(t_j).
"""

from __future__ import annotations

import numpy as np

from .filtrations import NilpotentCone
from .linalg import RationalMatrix
from .metrics import FlagPoint, OrbitSpec


def _sym_block(s) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [
            [0, 0, s[0][0], s[0][1]],
            [0, 0, s[1][0], s[1][1]],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )


def symplectic_form_4() -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )


GENUS2_S = ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 1], [1, 1]])


def genus2_cone() -> NilpotentCone:
    """Three commuting logarithms of the maximally degenerate genus-2 family."""
    return NilpotentCone(
        4, 1, symplectic_form_4(), [_sym_block(s) for s in GENUS2_S]
    )


def single_cone() -> NilpotentCone:
    return NilpotentCone(4, 1, symplectic_form_4(), [_sym_block(GENUS2_S[0])])


def rank1_cone() -> NilpotentCone:
    """Two proportional generators N, 2N."""
    s = GENUS2_S[0]
    doubled = [[2 * x for x in row] for row in s]
    return NilpotentCone(
        4, 1, symplectic_form_4(), [_sym_block(s), _sym_block(doubled)]
    )


def equal_pair_cone() -> NilpotentCone:
    s = GENUS2_S[0]
    return NilpotentCone(4, 1, symplectic_form_4(), [_sym_block(s), _sym_block(s)])


def genus2_period_matrix(t) -> np.ndarray:
    """Period matrix sum l(t_j) S_j of the genus-2 orbit through Omega_0 = 0."""
    from .metrics import log_coord

    s_mats = [np.array(s, dtype=float) for s in GENUS2_S]
    return sum(log_coord(tj) * s for tj, s in zip(t, s_mats, strict=True))


def genus2_orbit() -> OrbitSpec:
    """Weight-1 orbit with F0 the span of the columns of [[0], [I]]."""
    f1 = np.vstack([np.zeros((2, 2)), np.eye(2)]).astype(complex)
    return OrbitSpec(genus2_cone(), FlagPoint(1, {1: f1}))


def twisted_weight1_orbit(eps: float = 0.1) -> OrbitSpec:
    """One-variable weight-1 orbit with a w-twist coupling into the t-block.

    Period matrix [[z, eps*w], [eps*w, i + w]]: the graded boundary structure
    is an elliptic modulus i + w on the middle piece, so the boundary mixed
    second derivative at w = 0 is -1/4, approached at rate eps^2/(2 Im z).
    """
    cone = single_cone()
    omega0 = np.array([[0, 0], [0, 1j]])
    f1 = np.vstack([omega0, np.eye(2)]).astype(complex)
    t_mat = np.array([[0.0, eps], [eps, 1.0]])
    xi = np.zeros((4, 4), dtype=complex)
    xi[:2, 2:] = t_mat
    return OrbitSpec(cone, FlagPoint(1, {1: f1}), xi)


# ---------------------------------------------------------------------------
# Weight-2 expansion fixtures (one-dimensional top piece each).


def weight2_form_3() -> RationalMatrix:
    return RationalMatrix.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]])


def weight2_jordan3_cone() -> NilpotentCone:
    """Single Jordan-block degeneration on Q^3 (growth order 2)."""
    n = RationalMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    return NilpotentCone(3, 2, weight2_form_3(), [n])


def weight2_jordan3_orbit() -> OrbitSpec:
    f2 = np.array([[0.0], [0.0], [1.0]], dtype=complex)
    f1 = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return OrbitSpec(weight2_jordan3_cone(), FlagPoint(2, {2: f2, 1: f1}))


def weight2_form_4() -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    )


def weight2_twoblock_cone() -> NilpotentCone:
    """Two-block square-zero degeneration on Q^4 (growth order 1)."""
    n = RationalMatrix.from_rows(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    )
    return NilpotentCone(4, 2, weight2_form_4(), [n])


def weight2_twoblock_orbit() -> OrbitSpec:
    f2 = np.array([[1.0], [0.0], [1j], [0.0]])
    f1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1j, 0.0, -1j], [0.0, 1j, 0.0]])
    return OrbitSpec(weight2_twoblock_cone(), FlagPoint(2, {2: f2, 1: f1}))


def weight2_inert_orbit() -> OrbitSpec:
    """Growth-order-0 control: the generator acts away from the top piece."""
    q3 = [[float(x) for x in row] for row in weight2_form_3().entries]
    q6 = RationalMatrix.from_rows(
        [
            [int(q3[i % 3][j % 3]) if (i < 3) == (j < 3) else 0 for j in range(6)]
            for i in range(6)
        ]
    )
    n = RationalMatrix.from_rows(
        [
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0],
        ]
    )
    cone = NilpotentCone(6, 2, q6, [n])
    sigma = np.array([-0.5, 1j, 1.0, 0.0, 0.0, 0.0], dtype=complex).reshape(6, 1)
    return OrbitSpec(cone, FlagPoint(2, {2: sigma}))


def sp4_form() -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    )


def standard_triple_block_cone() -> NilpotentCone:
    """Cone generated by the two commuting lowering elements -E_14 and -E_23
    of the rank-two symplectic setup (used for monotonicity properties on
    triple-built cones)."""
    n1 = RationalMatrix.from_rows([[0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    n2 = RationalMatrix.from_rows([[0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    return NilpotentCone(4, 1, sp4_form(), [n1, n2])

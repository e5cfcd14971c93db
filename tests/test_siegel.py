import numpy as np
import pytest

from hodgecharts.errors import NotInDomain, PZero
from hodgecharts.siegel import (
    ConeSpec,
    boundedness_probe,
    build_setup,
    orbit_point,
    solve_maximal,
    solve_minimal,
)


def sigma_hat():
    return ConeSpec([1, 0], [0, 1], [0, 0])


def test_setup_brackets_exact():
    setup = build_setup()  # all identities asserted inside
    for n, y in zip(setup.n_hat, setup.y):
        assert (y @ n - n @ y) == n.scale(-2)
    n1, n2 = setup.n_hat
    assert (n1 @ n2 - n2 @ n1).is_zero()
    assert (n1.transpose() @ setup.form + setup.form @ n1).is_zero()


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec([1], [1], [2])  # r^2 > pq
    with pytest.raises(ValueError):
        ConeSpec([-1], [1], [0])
    cone = ConeSpec([0.5, 0.5], [0.5, 0.5], [0.5, -0.5])
    assert cone.normalized()
    assert cone.boundary_generators() == (True, True)
    assert ConeSpec([1], [1], [0]).boundary_generators() == (False,)


def test_orbit_point_examples():
    pt = orbit_point(sigma_hat(), [1, 1])
    expected = np.column_stack(
        [
            np.array([0, -1j, 1, 0]),
            np.array([-1j, 0, 0, 1]),
        ]
    )
    assert np.abs(pt - expected).max() < 1e-12
    # scaling y scales the solvable data linearly
    r1, p1, q1 = sigma_hat().sums([2, 2])
    assert (r1, p1, q1) == (0.0, 2.0, 2.0)
    mixed = ConeSpec([0.5, 0.5], [0.5, 0.5], [0.5, -0.5])
    pt2 = orbit_point(mixed, [2, 1])
    assert abs(pt2[0, 0] - (-0.5j)) < 1e-12  # r(y) = 0.5 off-diagonal present


def test_solve_minimal():
    sol = solve_minimal(sigma_hat(), [1, 1])
    assert sol.a == sol.d == sol.beta == 0.0
    assert np.abs(sol.point() - orbit_point(sigma_hat(), [1, 1])).max() < 1e-10
    big = solve_minimal(sigma_hat(), [100.0, 1.0])
    assert abs(np.exp(2 * (big.a - big.d)) - 1 / 100.0) < 1e-12
    one = ConeSpec([1], [1], [0])
    for t_val in (1.0, 10.0, 1e4):
        s = solve_minimal(one, [t_val])
        assert abs(np.exp(2 * (s.a - s.d)) - 1.0) < 1e-12
    with pytest.raises(PZero):
        solve_minimal(ConeSpec([0], [1], [0]), [1.0])
    with pytest.raises(NotInDomain):
        solve_minimal(ConeSpec([1], [1], [1]), [3.0])


def test_solve_maximal():
    cl3 = ConeSpec([0, 1], [1, 0], [0, 0])
    sol = solve_maximal(cl3, [100.0, 1.0])
    assert abs(float(sol.b[0] @ sol.b[0]) ** 2 - 100.0) < 1e-9
    unit = solve_maximal(cl3, [1.0, 1.0])
    assert abs(float(unit.b[0] @ unit.b[0]) - 1.0) < 1e-12
    assert abs(np.linalg.det(unit.b) - 1.0) < 1e-12
    mixed = ConeSpec([0.5, 0.5], [0.5, 0.5], [0.5, -0.5])
    y = [2.0, 3.0]
    s = solve_maximal(mixed, y)
    r, p, q = mixed.sums(y)
    gram = np.exp(2 * s.a) * (s.b @ s.b.T)
    assert np.abs(gram - np.array([[q, r], [r, p]])).max() < 1e-12
    assert np.abs(s.point() - orbit_point(mixed, y)).max() < 1e-10
    with pytest.raises(NotInDomain):
        solve_maximal(ConeSpec([1], [1], [1]), [2.0])


def test_probe_verdicts():
    rep = boundedness_probe(sigma_hat(), lambda t: (t, 1.0), "minimal")
    assert rep.verdict == "escapes-every-Siegel-set"
    assert abs(rep.slopes["exp_2(a-d)"] + 1.0) < 0.05
    cl3 = ConeSpec([0, 1], [1, 0], [0, 0])
    rep3 = boundedness_probe(cl3, lambda t: (t, 1.0), "maximal")
    assert rep3.verdict == "escapes-every-Siegel-set"
    assert abs(rep3.slopes["norm_B1_4"] - 1.0) < 0.05
    one = ConeSpec([1], [1], [0])
    assert boundedness_probe(one, lambda t: (t,), "minimal").verdict == "contained"
    assert boundedness_probe(one, lambda t: (t,), "maximal").verdict == "contained"


def test_probe_stable_under_grid_refinement():
    grids = [
        tuple(10.0 ** k for k in range(1, 7)),
        tuple(10.0 ** (0.5 * k) for k in range(2, 14)),
    ]
    verdicts = {
        boundedness_probe(sigma_hat(), lambda t: (t, 1.0), "minimal", g).verdict
        for g in grids
    }
    assert verdicts == {"escapes-every-Siegel-set"}
    one = ConeSpec([1], [1], [0])
    verdicts2 = {
        boundedness_probe(one, lambda t: (t,), "minimal", g).verdict for g in grids
    }
    assert verdicts2 == {"contained"}


@pytest.mark.parametrize(
    "grid",
    [(10.0,), (10.0, 10.0, 10.0), (), (1e10, 1.0000000000000002e10)],
    ids=["one", "repeated", "empty", "equal-logarithms"],
)
@pytest.mark.parametrize("as_generator", [False, True], ids=["tuple", "generator"])
def test_probe_refuses_a_grid_with_one_distinct_value(grid, as_generator):
    """A log-log slope through one point is not a fit: it is refused before
    any sample is taken, not decided by a rank-deficient polyfit.  Distinct
    grid values whose logarithms round equal are one point of the fit."""
    if as_generator:
        grid = (t for t in grid)
    with pytest.raises(ValueError, match="2 distinct"):
        boundedness_probe(sigma_hat(), lambda t: (t, 1.0), "minimal", grid)


def test_probe_refuses_a_nonpositive_grid_value():
    with pytest.raises(ValueError, match="positive"):
        boundedness_probe(sigma_hat(), lambda t: (t, 1.0), "minimal", (0.0, 10.0))


def test_probe_reads_a_generator_grid_once():
    grid = tuple(10.0 ** k for k in range(1, 7))
    want = boundedness_probe(sigma_hat(), lambda t: (t, 1.0), "minimal", grid)
    got = boundedness_probe(sigma_hat(), lambda t: (t, 1.0), "minimal", (t for t in grid))
    assert got == want

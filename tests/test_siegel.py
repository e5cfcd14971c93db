import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hodgecharts import _slope
from hodgecharts.errors import NotInDomain, PZero
from hodgecharts.siegel import (
    ConeSpec,
    boundedness_probe,
    solve_maximal,
    solve_minimal,
)

from .oracles import numpy_boundedness_probe, orbit_point, solution_point


def sigma_hat():
    return ConeSpec([1, 0], [0, 1], [0, 0])


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec([1], [1], [2])  # r^2 > pq
    with pytest.raises(ValueError):
        ConeSpec([-1], [1], [0])
    with pytest.raises(ValueError):
        ConeSpec([1, 0], [1], [0])  # unequal lengths
    assert ConeSpec([0.5, 0.5], [0.5, 0.5], [0.5, -0.5]).size == 2


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
    assert np.abs(solution_point(sol) - orbit_point(sigma_hat(), [1, 1])).max() < 1e-10
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
    (b11, b12), _ = solve_maximal(cl3, [100.0, 1.0]).b
    assert abs((b11 * b11 + b12 * b12) ** 2 - 100.0) < 1e-9
    (u11, u12), (u21, u22) = solve_maximal(cl3, [1.0, 1.0]).b
    assert u12 == 0.0  # lower triangular
    assert abs(u11 * u11 + u12 * u12 - 1.0) < 1e-12
    assert abs(u11 * u22 - u12 * u21 - 1.0) < 1e-12
    mixed = ConeSpec([0.5, 0.5], [0.5, 0.5], [0.5, -0.5])
    y = [2.0, 3.0]
    s = solve_maximal(mixed, y)
    r, p, q = mixed.sums(y)
    b = np.array(s.b)
    gram = np.exp(2 * s.a) * (b @ b.T)
    assert np.abs(gram - np.array([[q, r], [r, p]])).max() < 1e-12
    assert np.abs(solution_point(s) - orbit_point(mixed, y)).max() < 1e-10
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


def _fraction_slope(xs, ys) -> float:
    """The least-squares slope by the centered formula in exact fractions,
    rounded once."""
    fx, fy = list(map(Fraction, xs)), list(map(Fraction, ys))
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    num = sum((x - mx) * (y - my) for x, y in zip(fx, fy))
    return float(num / sum((x - mx) ** 2 for x in fx))


def _point_sets(count: int):
    """Seeded point sets: 2 to 8 distinct abscissae in +-700, ordinates on a
    line of slope in +-0.99 plus noise of size 1 down to 1e-16, so that both
    coordinates stay logarithms of floats."""
    rng = random.Random(16)
    for _ in range(count):
        n = rng.randint(2, 8)
        xs = [rng.uniform(-700.0, 700.0) for _ in range(n)]
        slope, noise = rng.uniform(-0.99, 0.99), 10.0 ** -rng.randint(0, 16)
        yield xs, [slope * x + noise * rng.uniform(-1.0, 1.0) for x in xs]


def test_slope_is_the_exact_least_squares_slope_rounded_once():
    for xs, ys in _point_sets(400):
        got = _slope(xs, ys)
        assert got == _fraction_slope(xs, ys), (xs, ys)
        # np.polyfit rounds in its own way, off the exact slope by ~1e-13.
        want = float(np.polyfit(xs, ys, 1)[0])
        assert abs(got - want) <= 1e-12 * abs(want), (xs, ys)


def test_slope_on_default_grid_logarithms():
    xs = [math.log(10.0**k) for k in range(1, 7)]
    assert _slope(xs, xs) == 1.0
    assert _slope(xs, [-x for x in xs]) == -1.0
    assert _slope(xs, [5e-324] * len(xs)) == 0.0


def _seeded_probes(count: int):
    """Seeded cones of 1 to 3 generators, each on the boundary (r^2 = pq,
    possibly with p or q zero) or inside (r^2 < pq), with monomial families
    c_j T^{e_j}, c_j in [0.1, 10] and e_j in [0, 3]."""
    rng = random.Random(23)
    for _ in range(count):
        p, q, r = [], [], []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice((0.0, rng.uniform(-1.5, 1.5))), rng.uniform(0.1, 1.5)
            if rng.random() < 0.5:
                a, b = b, a
            p.append(a * a)
            q.append(b * b)
            r.append(a * b * rng.choice((1.0, rng.uniform(-0.99, 0.99))))
        terms = [(rng.uniform(0.1, 10.0), rng.choice((0, 1, 2, rng.uniform(0.0, 3.0)))) for _ in p]

        def family(t, terms=terms):
            return tuple(c * t**e for c, e in terms)

        yield ConeSpec(p, q, r), family, rng.choice(("minimal", "maximal"))


def test_probe_matches_the_numpy_oracle():
    """Where the probe decides, the numpy probe decides alike: the monitored
    values agree to 4 units in the last place (np.exp and math.exp may differ
    in the last bit) and the slopes to polyfit's rounding."""
    verdicts = []
    for cone, family, parabolic in _seeded_probes(300):
        try:
            got = boundedness_probe(cone, family, parabolic)
        except (NotInDomain, PZero):  # a degenerate cone; the oracle checks no domain
            continue
        want = numpy_boundedness_probe(cone, family, parabolic)
        assert got.verdict == want.verdict
        assert got.grid == want.grid and got.monitored.keys() == want.monitored.keys()
        for key, values in got.monitored.items():
            for v, w in zip(values, want.monitored[key], strict=True):
                assert abs(v - w) <= 4 * math.ulp(w), (key, v, w)
            assert math.isclose(got.slopes[key], want.slopes[key], rel_tol=1e-9, abs_tol=1e-12)
        verdicts.append((parabolic, got.verdict))
    assert len(verdicts) >= 200 and len(set(verdicts)) == 4

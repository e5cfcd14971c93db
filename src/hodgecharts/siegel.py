"""Siegel-domain escape probes for two-variable boundary-degenerate orbits on
the rank-two symplectic group.

A cone is given by its boundary data (p_j, q_j, r_j), one triple per
generator, with r_j^2 <= p_j q_j (equality is the boundary-nilpotent normal
form).  Along a family y(T) the orbit point is placed in the horospherical
decomposition of the minimal or the maximal parabolic by solving the explicit
solvable-parameter systems in plain floats.  A family escapes every Siegel
domain of a parabolic when one of the monitored solvable parameters is
unbounded in the wrong direction along the family; this is decided by a
log-log slope fit over the sampled grid.
"""

from __future__ import annotations

from math import exp, inf, log, sqrt

from . import _slope
from ._record import Record
from .errors import InvalidInput, NotInDomain, PZero

SLOPE_THRESHOLD = 0.5
DEFAULT_GRID = tuple(10.0**k for k in range(1, 7))
CONE_TOL = 1e-12  # slack in r^2 <= pq


class ConeSpec:
    """Cone data (p_j, q_j, r_j), one triple per generator.

    Generators must lie in the closed positivity cone r_j^2 <= p_j q_j with
    p_j, q_j >= 0; equality is the boundary-nilpotent normal form, while
    interior directions (such as the one-variable cone p = q = (1), r = (0))
    have strict inequality.
    """

    def __init__(self, p, q, r):
        p, q, r = tuple(map(float, p)), tuple(map(float, q)), tuple(map(float, r))
        if not len(p) == len(q) == len(r):
            raise InvalidInput("p, q, r must have equal lengths")
        for j, (pj, qj, rj) in enumerate(zip(p, q, r)):
            if pj < 0 or qj < 0:
                raise InvalidInput(f"p_{j + 1}, q_{j + 1} must be nonnegative")
            if rj * rj > pj * qj + CONE_TOL:
                raise InvalidInput(f"r_{j + 1}^2 <= p_{j + 1} q_{j + 1} fails")
        self.p, self.q, self.r = p, q, r
        self.size = len(p)

    def sums(self, y) -> tuple[float, float, float]:
        y = tuple(map(float, y))
        if len(y) != self.size:
            raise InvalidInput("parameter vector has wrong length")
        return (
            sum(rj * yj for rj, yj in zip(self.r, y)),
            sum(pj * yj for pj, yj in zip(self.p, y)),
            sum(qj * yj for qj, yj in zip(self.q, y)),
        )


class SiegelSolution(Record):
    """Solvable parameters placing the orbit point in a horospherical slice."""

    parabolic: str  # "minimal" | "maximal"
    a: float
    d: float | None = None
    beta: float | None = None
    # Maximal parabolic only: the rows (B1, B2) of the 2 x 2 lower-triangular
    # B, as a tuple of two float row tuples.
    b: tuple[tuple[float, float], tuple[float, float]] | None = None


def solve_minimal(cone: ConeSpec, y) -> SiegelSolution:
    """Solve r = beta e^{2d}, p = e^{2d}, q = e^{2a} + beta^2 e^{2d}."""
    r, p, q = cone.sums(y)
    if p <= 0:
        raise PZero("p(y) must be positive for the minimal parabolic")
    e2d = p
    beta = r / p
    e2a = q - r * r / p
    if e2a <= 0:
        raise NotInDomain("q(y) p(y) - r(y)^2 must be positive")
    return SiegelSolution("minimal", a=0.5 * log(e2a), d=0.5 * log(e2d), beta=beta)


def solve_maximal(cone: ConeSpec, y) -> SiegelSolution:
    """Solve the Gram system q = e^{2a} B1.B1, r = e^{2a} B1.B2, p = e^{2a} B2.B2.

    B is normalized lower-triangular with positive diagonal and det B = 1
    (solutions are unique up to a left rotation).
    """
    r, p, q = cone.sums(y)
    disc = p * q - r * r
    if disc <= 0 or p <= 0:
        raise NotInDomain("p(y) q(y) - r(y)^2 must be positive")
    e2a = sqrt(disc)
    # Cholesky of the Gram matrix [[q, r], [r, p]] / e^{2a}, rows and columns
    # ordered (B1, B2), so that B is lower triangular.
    l11 = sqrt(q / e2a)
    l21 = r / e2a / l11
    # Exactly e^{2a} / q, but a difference that rounding can push below 0
    # when r(y)^2 is within rounding of p(y) q(y).
    square = p / e2a - l21 * l21
    if square < 0:
        raise NotInDomain("p(y) q(y) - r(y)^2 is lost to rounding")
    l22 = sqrt(square)
    return SiegelSolution("maximal", a=0.5 * log(e2a), b=((l11, 0.0), (l21, l22)))


class ProbeReport(Record):
    verdict: str  # "escapes-every-Siegel-set" | "contained"
    parabolic: str
    monitored: dict[str, tuple[float, ...]]
    slopes: dict[str, float]
    grid: tuple[float, ...]


def _loglog_slope(xs, vals) -> float:
    if not all(0 < v < inf for v in vals):
        raise NotInDomain("monitored parameters must stay positive and finite")
    return _slope(xs, [log(v) for v in vals])


def boundedness_probe(
    cone: ConeSpec,
    family,
    parabolic: str,
    grid=DEFAULT_GRID,
) -> ProbeReport:
    """Decide whether the family escapes every Siegel domain of the parabolic.

    family maps the grid parameter T to the positive tuple y(T).  For the
    minimal parabolic the monitored quantities e^{2(a-d)} and e^{2d} must stay
    bounded below; for the maximal parabolic the row norms of B must stay
    bounded above.  A fitted log-log slope beyond the threshold in the bad
    direction gives the escape verdict; the grid needs positive values with
    at least 2 distinct logarithms.
    """
    if parabolic not in ("minimal", "maximal"):
        raise InvalidInput(f"parabolic must be 'minimal' or 'maximal', not {parabolic!r}")
    grid = tuple(grid)
    if not all(t > 0 for t in grid):
        raise InvalidInput("grid values must be positive")
    xs = [log(t) for t in grid]
    if len(set(xs)) < 2:
        raise InvalidInput("a slope fit needs grid values with at least 2 distinct logarithms")
    monitored: dict[str, list[float]] = {}
    for t_val in grid:
        y = family(t_val)
        try:
            if parabolic == "minimal":
                sol = solve_minimal(cone, y)
                vals = {"exp_2(a-d)": exp(2 * (sol.a - sol.d)), "exp_2d": exp(2 * sol.d)}
            else:
                (b11, b12), (b21, b22) = solve_maximal(cone, y).b
                # Fourth powers are the scale-invariant ratios q/p and p/q.
                vals = {
                    "norm_B1_4": (b11 * b11 + b12 * b12) ** 2,
                    "norm_B2_4": (b21 * b21 + b22 * b22) ** 2,
                }
        except OverflowError as exc:
            raise NotInDomain("monitored parameters must stay positive and finite") from exc
        for k, v in vals.items():
            monitored.setdefault(k, []).append(v)
    slopes = {k: _loglog_slope(xs, v) for k, v in monitored.items()}
    if parabolic == "minimal":
        escapes = any(s < -SLOPE_THRESHOLD for s in slopes.values())
    else:
        escapes = any(s > SLOPE_THRESHOLD for s in slopes.values())
    return ProbeReport(
        "escapes-every-Siegel-set" if escapes else "contained",
        parabolic,
        {k: tuple(v) for k, v in monitored.items()},
        slopes,
        tuple(float(t) for t in grid),
    )

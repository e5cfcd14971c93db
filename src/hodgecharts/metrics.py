"""Floating-point Hodge metrics along twisted nilpotent orbits.

Evaluates the Hodge metric on the top Hodge piece and on the augmented Hodge
bundle, both as log-determinants of the pairings i^(2p-n) Q(u, conj v) on the
transported flag frames; fits logarithmic growth orders along boundary rays;
and compares finite-difference curvature against the graded boundary value:
the graded frames of F^n along the exact weight filtration, solved once on the
untwisted limit flag, since each factor of the boundary frame keeps the steps.
Everything runs in double precision; each tolerance is a module constant,
noted with what it governs.  Both exponentials of an orbit are of nilpotent
matrices, so each is its finite series, and limit mode never loads scipy;
only expansion_fit imports scipy's expm, where it is called.  The residue
pairing lives in the numpy-free module residue.
"""

from __future__ import annotations

from math import factorial, floor, log, pi

import numpy as np

from ._record import Record
from .errors import InvalidInput, NotPolarized, NumericDomainError, PoorFit
from .filtrations import NilpotentCone, index_set, weight_filtration
from .linalg import RationalMatrix
from .residue import residue_integral as _residue_integral

ALGEBRAIC_TOL = 1e-8  # horizontality: N_j F^p <= F^{p-1}, relative to max(1, |N_j F^p|)
FIT_TOL = 1e-2  # expansion-fit residual; fits are limited by log-log convergence
SVD_TOL = 1e-10  # rank and span membership, relative to max(1, the scale tested)
# The three twist checks: the absolute sup norm of [xi, N_i]; that of xi^dim
# relative to max(1, |xi|)^dim (xi nilpotent); and, at each w, that of the
# first term (w xi)^dim / dim! the finite series of exp(w xi) omits, relative
# to the series' sum.
COMMUTE_TOL = 1e-10
DECREASE_SLACK = 1e-12  # absolute rounding slack of curvature_limit_check's `decreasing`
FD_STEP = 5e-2  # coarse step of the finite-difference Laplacian
EXPANSION_TAUS = tuple(10.0 ** -k for k in range(4, 13))

TWO_PI_I = 2j * pi


def _np_matrix(m: RationalMatrix) -> np.ndarray:
    rows = [[float(x) for x in row] for row in m.entries]
    return np.array(rows, dtype=float).reshape(m.rows, m.cols)


def _exp_nilpotent(z: np.ndarray) -> np.ndarray:
    """exp(z) of a nilpotent z as its finite series: the sum of z^k / k! for
    k < dim, exact since z^dim = 0."""
    term = total = np.eye(z.shape[0], dtype=complex)
    for k in range(1, z.shape[0]):
        term = term @ z / k
        total = total + term
    return total


def _finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NumericDomainError(f"{what} leaves the float range")
    return m


def log_coord(t: complex) -> complex:
    """Inverse of t = exp(2 pi i z) on the principal branch."""
    return np.log(complex(t)) / TWO_PI_I


def _outside_span(span: np.ndarray, vectors: np.ndarray, tol: float) -> bool:
    """Whether the columns of vectors leave the column span of span, by more
    than tol relative to max(1, |vectors|)."""
    resid = vectors - span @ np.linalg.lstsq(span, vectors, rcond=None)[0]
    return np.linalg.norm(resid) > tol * max(1.0, np.linalg.norm(vectors))


class FlagPoint:
    """Partial flag F^n <= ... <= F^1 of column spans (F^0 is everything)."""

    def __init__(self, weight: int, levels: dict[int, np.ndarray]):
        self.weight = weight
        self.levels = {p: np.asarray(m, dtype=complex) for p, m in levels.items()}
        ps = sorted(self.levels, reverse=True)
        for p in ps:
            if not 1 <= p <= weight:
                raise InvalidInput(f"flag level {p} lies outside 1..{weight}")
            with np.errstate(over="ignore"):  # _finite names an overflow
                _finite(np.linalg.norm(self.levels[p]) ** 2, f"the squared norm of F^{p}")
        for a, b in zip(ps, ps[1:]):
            if _outside_span(self.levels[b], self.levels[a], SVD_TOL):
                raise InvalidInput(f"F^{a} is not contained in F^{b}")

    def level(self, p: int) -> np.ndarray:
        if p in self.levels:
            return self.levels[p]
        dim = next(iter(self.levels.values())).shape[0]
        if p <= 0:
            return np.eye(dim, dtype=complex)
        raise InvalidInput(f"flag level {p} not provided")


class OrbitSpec:
    """Twisted nilpotent orbit exp(sum l(t_i) N_i) . zeta(w) . F0.

    The boundary twist zeta(w) = exp(w xi) has a nilpotent xi that commutes
    with every generator; no xi means no twist.
    """

    def __init__(self, cone: NilpotentCone, f0: FlagPoint, xi: np.ndarray | None = None):
        self.cone = cone
        self.f0 = f0
        self.xi = xi
        self.form = _np_matrix(cone.form)
        self.gens = [_np_matrix(n) for n in cone.generators]
        if xi is not None:
            xi = np.asarray(xi, dtype=complex)
            for i, n in enumerate(self.gens):
                comm = xi @ n - n @ xi
                if np.linalg.norm(comm, ord=np.inf) > COMMUTE_TOL:
                    raise InvalidInput(f"twist does not commute with generator {i + 1}")
            # |xi^d| against max(1, |xi|)^d, as |(xi / max(1, |xi|))^d|: no overflow
            d = xi.shape[0]
            scale = max(1.0, np.linalg.norm(xi, ord=np.inf))
            power = np.linalg.norm(np.linalg.matrix_power(xi / scale, d), ord=np.inf)
            if not power <= COMMUTE_TOL:
                raise InvalidInput(
                    f"twist generator is not nilpotent: |xi^{d}| / max(1, |xi|)^{d} = {power:.3g}"
                )
            # What of that exceeds its rounding, at most 4 d^2 eps times
            # |xi / scale|^d taken entrywise, is a semisimple part that a large
            # nilpotent one hides; zeta(w) refuses the w where it matters.
            bound = np.linalg.norm(np.linalg.matrix_power(np.abs(xi) / scale, d), ord=np.inf)
            excess = max(0.0, power - 4 * d * d * np.finfo(float).eps * bound)
            self._omitted = scale, excess / factorial(d)

    def zeta(self, w) -> np.ndarray:
        """zeta(w) = exp(w xi); the identity when there is no xi.

        The series of exp(w xi) omits (w xi)^dim / dim! and what follows; that
        term, without the rounding of xi^dim, must be below COMMUTE_TOL times
        the sum, or NumericDomainError names w."""
        if self.xi is None:
            return np.eye(self.form.shape[0], dtype=complex)
        what = f"twist exp(w xi) at w = {w}"
        scale, omitted = self._omitted
        with np.errstate(over="ignore", invalid="ignore"):  # _finite names an overflow
            zeta = _finite(_exp_nilpotent(complex(w) * self.xi), what)
            if omitted:
                d = zeta.shape[0]
                omitted *= np.float64(abs(w) * scale) ** d / np.linalg.norm(zeta, ord=np.inf)
        if not omitted <= COMMUTE_TOL:
            raise NumericDomainError(
                f"{what} is not its finite series: the omitted term (w xi)^{d}/{d}!"
                f" is {omitted:.3g} times the sum"
            )
        return zeta

    @property
    def weight(self) -> int:
        return self.cone.weight

    def group_element(self, t, w) -> np.ndarray:
        """exp(z) zeta(w) with z = sum l(t_i) N_i, nilpotent because the N_i
        commute and each is."""
        z = sum((log_coord(ti) * n for ti, n in zip(t, self.gens, strict=True)), 0 * self.form)
        return _exp_nilpotent(z) @ self.zeta(w)

    def check_horizontal(self) -> None:
        """Verify N_j . F0^p <= F0^{p-1} on every pair of provided flag levels."""
        for p in sorted(self.f0.levels, reverse=True):
            if p - 1 > 0 and (p - 1) not in self.f0.levels:
                continue  # the target level was not supplied; nothing to check
            for j, n in enumerate(self.gens):
                if _outside_span(self.f0.level(p - 1), n @ self.f0.level(p), ALGEBRAIC_TOL):
                    raise InvalidInput(f"generator {j + 1} moves F^{p} outside F^{p - 1}")


def _hermitian_log_det(gram: np.ndarray, what: str, negatives: int = 0) -> float:
    """log|det| of the Hermitian part of gram, which must have exactly
    `negatives` negative eigenvalues and none 0 (by default, be positive
    definite); 0 on an empty frame."""
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    if not negatives and eigs.size and eigs.min() <= 0:
        raise NotPolarized(
            f"{what} is not positive definite: smallest eigenvalue {eigs.min():.3g} <= 0"
        )
    found = int(np.sum(eigs < 0))
    if found != negatives:
        raise NotPolarized(f"{what} has {found} negative eigenvalues, not {negatives}")
    if not eigs.all():
        raise NotPolarized(f"{what} has an eigenvalue 0")
    return float(np.sum(np.log(np.abs(eigs))))


def _pairing_log_det(orbit: OrbitSpec, g: np.ndarray, t, p: int, what: str) -> float:
    """log|det B_p| on the transported frame g F0^p, B_p = i^(2p - n) Q(u, conj v).

    The pieces H^{r,n-r} of F^p are B_p-orthogonal, and B_p is (-1)^(r-p)
    times the Hodge metric on each (Hodge-Riemann), so B_p has
    sum_{r > p, r - p odd} dim F^r/F^{r+1} negative eigenvalues, counted from
    the frame columns, and |det B_p| is the Hodge-metric determinant of F^p.
    """
    n = orbit.weight

    def dim(r: int) -> int:
        return orbit.f0.level(r).shape[1] if r <= n else 0

    negatives = sum(dim(r) - dim(r + 1) for r in range(p + 1, n + 1, 2))
    frame = g @ orbit.f0.level(p)
    gram = (1j) ** (2 * p - n) * (frame.T @ orbit.form @ frame.conj())
    return _hermitian_log_det(_finite(gram, f"{what} at t = {t}"), what, negatives)


def log_det_lambda(orbit: OrbitSpec, t, w) -> float:
    """log det of the Hodge-metric Gram matrix of the transported F^n frame."""
    g = orbit.group_element(t, w)
    return _pairing_log_det(orbit, g, t, orbit.weight, "top Hodge pairing")


def augmented_weights(n: int) -> list[tuple[int, int]]:
    """Pairs (p, n_p) entering the augmented determinant, n_p = floor((n-p+1)/2)."""
    return [(p, floor((n - p + 1) / 2)) for p in range(0, floor((n - 1) / 2) + 1)]


def augmented_log_det(orbit: OrbitSpec, t, w) -> float:
    """log det of the augmented Hodge bundle: sum_p n_p (L(n-p) - L(n-p+1)),
    with (p, n_p) from augmented_weights, L(q) the log|det B_q| of
    _pairing_log_det and L(q) = 0 for q > n.

    The graded piece F^q/F^{q+1} carries the quotient Hodge metric, whose
    determinant is exp(L(q) - L(q+1)), as the Hodge pieces are orthogonal.
    Only the levels F^n .. F^{n - floor((n-1)/2)} are read, so for n <= 2
    this is log_det_lambda, on F^n alone.
    """
    n = orbit.weight
    g = orbit.group_element(t, w)
    weights = augmented_weights(n)
    logs = {n - p: _pairing_log_det(orbit, g, t, n - p, f"F^{n - p} pairing") for p, _ in weights}
    return sum(n_p * (logs[n - p] - logs.get(n - p + 1, 0.0)) for p, n_p in weights)


class ExpansionFit(Record):
    """Fitted leading growth h ~ A (log|t|^{-1})^m along a boundary ray."""

    power: int
    amplitude: float
    residual: float


def expansion_fit(orbit: OrbitSpec, ray, w, taus=EXPANSION_TAUS) -> ExpansionFit:
    """Select the integer growth order of log h against log log|t|^{-1}.

    ray maps tau in (0,1) to the t-tuple; the boundary-approach rate is read
    from the first coordinate.  Each candidate power m in 0..2n is fitted with
    an A + B/L correction and the smallest max-deviation wins.  Two
    parameters per order fit any two points exactly, so the rates of at least
    3 taus must be distinct.
    """
    ts = [ray(tau) for tau in taus]
    ls = [-log(abs(t[0])) for t in ts]
    if len(set(ls)) < 3:
        raise InvalidInput("an expansion fit needs taus with at least 3 distinct rates")
    _top_frame(orbit)
    # scipy's expm, not group_element's exact series: the benchmark digests
    # the fit's residual bit for bit, and the series moves that rounding noise
    # (1.776e-15 to 1.332e-15 on the shipped fixture).  This goes when the
    # benchmark reads the residual against FIT_TOL, or when the fit goes.
    from scipy.linalg import expm

    zeta = orbit.zeta(w)

    def top_log_det(t) -> float:
        z = sum((log_coord(ti) * n for ti, n in zip(t, orbit.gens, strict=True)), 0 * orbit.form)
        return _pairing_log_det(orbit, expm(z) @ zeta, t, orbit.weight, "top Hodge pairing")

    ys = np.array([top_log_det(t) for t in ts])
    ls = np.array(ls)
    design = np.column_stack([np.ones_like(ls), 1.0 / ls])
    best: tuple[float, int, float] | None = None
    for m in range(0, 2 * orbit.weight + 1):
        target = ys - m * np.log(ls)
        coef = np.linalg.lstsq(design, target, rcond=None)[0]
        resid = float(np.max(np.abs(target - design @ coef)))
        if best is None or resid < best[0]:
            best = (resid, m, float(np.exp(coef[0])))
    resid, m, amp = best
    if resid > FIT_TOL:
        raise PoorFit(f"best growth fit has residual {resid:.3g} > threshold {FIT_TOL:.3g}")
    return ExpansionFit(m, amp, resid)


def residue_integral(coefficients: dict[tuple[int, int], complex], t: complex) -> float:
    """residue.residue_integral under the name that perfbench's workload
    imports from this module and its tracer counts here; it goes when both
    move to residue."""
    return _residue_integral(coefficients, t)


def _second_derivative(f, x0: float, h: float) -> float:
    return (
        -f(x0 + 2 * h) + 16 * f(x0 + h) - 30 * f(x0) + 16 * f(x0 - h) - f(x0 - 2 * h)
    ) / (12 * h * h)


def mixed_second_derivative(f, w0: complex) -> float:
    """d/dw d/dwbar of a real-valued f via (1/4)(d^2/dx^2 + d^2/dy^2).

    Five-point stencils per real axis, Richardson-extrapolated over two step
    sizes.
    """
    w0 = complex(w0)

    def laplacian(h: float) -> float:
        fx = _second_derivative(lambda x: f(complex(x, w0.imag)), w0.real, h)
        fy = _second_derivative(lambda y: f(complex(w0.real, y)), w0.imag, h)
        return fx + fy

    coarse = laplacian(FD_STEP)
    fine = laplacian(FD_STEP / 2)
    return 0.25 * (16 * fine - coarse) / 15


def _independent_columns(m: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy column pivoting: columns of m taken in turn by the largest
    residual off the span of those already taken, while that residual exceeds
    SVD_TOL * max(1, largest column norm).  Returns the taken columns in order
    and an orthonormal basis of their span."""
    resid = m.astype(complex)
    norms = np.linalg.norm(resid, axis=0)
    cutoff = SVD_TOL * max(1.0, norms.max(initial=0.0))
    taken: list[int] = []
    ortho = np.zeros((m.shape[0], min(m.shape)), dtype=complex)
    while len(taken) < min(m.shape) and norms.max() > cutoff:
        j = int(np.argmax(norms))
        ortho[:, len(taken)] = q = resid[:, j] / norms[j]
        resid -= np.outer(q, q.conj() @ resid)
        norms = np.linalg.norm(resid, axis=0)
        taken.append(j)
    return taken, ortho[:, : len(taken)]


def _coefficient_kernel(m: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Basis of ker m that is the identity at the columns outside pivots, with
    the pivot rows filled by one least-squares solve."""
    free = [j for j in range(m.shape[1]) if j not in pivots]
    basis = np.zeros((m.shape[1], len(free)), dtype=complex)
    basis[free, range(len(free))] = 1.0
    if pivots and free:
        basis[pivots] = np.linalg.lstsq(m[:, pivots], -m[:, free], rcond=None)[0]
    return basis


def _top_frame(orbit: OrbitSpec) -> np.ndarray:
    """F0^n, whose columns must be independent: a dependent column would put
    its kernel vector into every weight level, and every pairing on it would
    degenerate.  NotPolarized names the dependent columns."""
    frame = orbit.f0.level(orbit.weight)
    taken = _independent_columns(frame)[0]
    if len(taken) < frame.shape[1]:
        dependent = ", ".join(str(j + 1) for j in range(frame.shape[1]) if j not in taken)
        raise NotPolarized(
            f"F^{orbit.weight} has dependent columns: rank {len(taken)} of {frame.shape[1]},"
            f" column(s) {dependent} in the span of the others"
        )
    return frame


def _graded_frames(orbit: OrbitSpec, index) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Graded frames of the limit flag along W = W(N_I): (l, K_l, N_I^(l - n))
    for each level l that contributes, with F0^n K_l lifting a basis of
    (F^n cap W_l) / (F^n cap W_{l-1}).

    The coefficients of F^n cap W_l solve C_l x = 0, with C_l the exact
    complement of W_l; each level keeps the columns of that kernel basis that
    extend the kernel of the level below.  The boundary factor g =
    exp(sum_{j not in I} l(t_j) N_j) zeta(w) commutes with every N_i, so it
    preserves each W_l, and the x with g F0^n x in W_l do not depend on g:
    K_l is solved once, on the untwisted frame, and g F0^n K_l is holomorphic in w.
    Their basis-change factors are then pluriharmonic and drop out of mixed
    second derivatives of the block log-determinants.
    """
    n_i = orbit.cone.n_of(index_set(index))
    filtration = weight_filtration(n_i, orbit.cone.weight)
    n_float = _np_matrix(n_i).astype(complex)
    frame = _top_frame(orbit)
    span = np.zeros((frame.shape[1], 0), dtype=complex)
    frames = []
    for level in filtration.levels():
        m = _np_matrix(filtration.step(level).orthogonal_complement().basis) @ frame
        basis = _coefficient_kernel(m, _independent_columns(m)[0])
        chosen, new = _independent_columns(basis - span @ (span.conj().T @ basis))
        span = np.column_stack([span, new])
        if not chosen:
            continue
        if level < orbit.weight:
            raise NotPolarized("top Hodge piece meets a weight level below the center")
        power = np.linalg.matrix_power(n_float, level - orbit.weight)
        frames.append((level, basis[:, sorted(chosen)], power))
    return frames


def _graded_log_det(orbit: OrbitSpec, frames, t_rest, w: complex) -> float:
    """Sum over the graded frames R_l = (g F0^n) K_l of
    log|det Q(N^q R_l, conj R_l)|, with g = group_element(t_rest, w)."""
    frame = orbit.group_element(t_rest, w) @ orbit.f0.level(orbit.weight)
    total = 0.0
    for level, coefficients, power in frames:
        reps = frame @ coefficients
        block = (power @ reps).T @ orbit.form @ reps.conj()
        det = np.linalg.det(block)
        if abs(det) <= 0.0:
            raise NotPolarized(f"degenerate graded pairing at level {level}")
        total += float(np.log(abs(det)))
    return total


class CurvatureReport(Record):
    """Interior curvature values against the graded boundary value."""

    points: tuple[tuple[float, ...], ...]  # |t| per step
    interior: tuple[float, ...]
    boundary: float
    errors: tuple[float, ...]
    decreasing: bool
    final_error: float


def curvature_limit_check(orbit: OrbitSpec, index, w0: complex, t_sequence) -> CurvatureReport:
    """Compare d_w d_wbar log h along t_I -> 0 with the boundary graded value.

    t_sequence is read once and must hold a point, and no t_j = 0.  The
    boundary is taken at the last point's t_j outside I, with t_i = 1 (l = 0)
    for i in I; a sequence that moves those t_j approaches no one boundary."""
    t_sequence = tuple(t_sequence)
    if not t_sequence or not all(all(t) for t in t_sequence):
        raise InvalidInput("a curvature limit check needs at least one point t, and no t_j = 0")
    frames = _graded_frames(orbit, index)
    members = index_set(index)
    t_rest = tuple(1 if j in members else tj for j, tj in enumerate(t_sequence[-1], 1))
    boundary = mixed_second_derivative(lambda w: _graded_log_det(orbit, frames, t_rest, w), w0)
    interior = [
        mixed_second_derivative(lambda w: log_det_lambda(orbit, t, w), w0) for t in t_sequence
    ]
    errors = [abs(v - boundary) for v in interior]
    decreasing = all(b < a + DECREASE_SLACK for a, b in zip(errors, errors[1:]))
    return CurvatureReport(
        tuple(tuple(abs(ti) for ti in t) for t in t_sequence),
        tuple(interior),
        boundary,
        tuple(errors),
        decreasing,
        errors[-1],
    )

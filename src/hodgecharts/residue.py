"""The residue pairing on the local curve xy = t, in closed form.

Pure Python floats: residue mode of the CLI loads this module alone of the
metric engine, and neither numpy nor scipy.
"""

from __future__ import annotations

from math import isfinite, log, pi

from .errors import InvalidInput, NumericDomainError


def residue_integral(coefficients: dict[tuple[int, int], complex], t: complex) -> float:
    """Positive area integral of the residue 1-form pairing on the local curve
    xy = t inside the unit bidisc: the integral of |g(x, t/x)|^2 over
    x = exp(s + i theta), s in [log|t|, 0], theta in [0, 2pi).

    In closed form: the term c x^i y^j is c t^j e^{m(s + i theta)} with
    m = i - j, distinct m are orthogonal in theta, and the s-integral is
    elementary.  So the value is 2 pi sum_m |b_m|^2 J_|m|, with b_m the sum of
    c t^min(i,j) over the terms of that m, J_0 = log(1/|t|) and
    J_n = (1 - |t|^{2n})/(2n); the g = 1 value is exactly 2 pi log(1/|t|).
    Every factor but the coefficients is at most 1, so only they can leave
    the float range, which raises NumericDomainError naming t.  InvalidInput
    refuses a g that is no polynomial, and a t off 0 < |t| < 1 or with 1/t inf.
    """
    t_in, t = t, complex(t)
    if not 0 < abs(t) < 1 or not isfinite(1 / abs(t)):
        raise InvalidInput(f"t must satisfy 0 < |t| < 1 with 1/t finite, not {t_in!r}")
    if any(min(ij) < 0 for ij in coefficients):
        raise InvalidInput("exponents of g must be nonnegative")
    b: dict[int, complex] = {}
    for (i, j), c in coefficients.items():
        b[i - j] = b.get(i - j, 0) + c * t ** min(i, j)
    r = abs(t)
    # |b|^2 as b conj(b): abs() and ** raise OverflowError where this reads inf.
    total = 2 * pi * sum(
        (v * v.conjugate()).real * ((1 - r ** (2 * abs(m))) / (2 * abs(m)) if m else log(1 / r))
        for m, v in b.items()
    )
    if not isfinite(total):
        raise NumericDomainError(f"the residue integral at t = {t_in!r} leaves the float range")
    return total

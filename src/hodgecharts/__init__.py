"""Exact weight-filtration / monomial-chart machinery for degenerating period
maps, with a floating-point Hodge-metric engine and appendix verifiers.

Each public name is imported from its defining submodule, such as
``hodgecharts.charts.build_atlas``; the README's "Library layout" table lists
them.  Importing the package itself loads no submodule, and neither numpy nor
scipy.  It holds the one helper that both the Siegel probe and residue mode
run, neither of which may load the other's modules.
"""

__version__ = "0.1.0"


def _slope(xs, ys) -> float:
    """The least-squares slope of the points (xs[i], ys[i]), computed exactly
    and rounded once.  Every float is an integer over a power of two, so over
    the largest such denominator both sums are ints, and int true division
    rounds correctly; the common scale cancels in the quotient."""
    ratios = [v.as_integer_ratio() for v in (*xs, *ys)]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    us, vs = ints[: len(xs)], ints[len(xs) :]
    n, su, sv = len(us), sum(us), sum(vs)
    suv, suu = sum(u * v for u, v in zip(us, vs)), sum(u * u for u in us)
    return (n * suv - su * sv) / (n * suu - su * su)

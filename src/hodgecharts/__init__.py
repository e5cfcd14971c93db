"""Exact weight-filtration / monomial-chart machinery for degenerating period
maps, with a floating-point Hodge-metric engine and appendix verifiers.

Each public name is imported from its defining submodule, such as
``hodgecharts.charts.build_atlas``; the README's "Library layout" table lists
them.  Importing the package itself loads no submodule, and neither numpy nor
scipy.
"""

__version__ = "0.1.0"

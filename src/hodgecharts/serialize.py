"""JSON schemas for every object crossing the CLI boundary.

Rationals travel as strings "p/q" (or "p" when the denominator is 1); integer
JSON literals are accepted on input.  Complex scalars travel as [re, im]
pairs.  Matrices are arrays of row arrays.

Every JSON value is converted by one private reader per kind (_int_, _rational_,
_float_, _complex_, _array_ and _object_from_json, the last with an object's keys),
raising SchemaError on anything else; the CLI uses them too.  They stay private,
so a tracer of the public functions records one span per object, not per entry.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf, isfinite
from sys import float_info

from .errors import ConeTooLarge, NotInDomain, SchemaError
from .linalg import Rational, RationalMatrix, _exact


def rational_to_json(x: Rational) -> str:
    return str(x)


def matrix_to_json(m: RationalMatrix) -> list[list[str]]:
    return [[rational_to_json(x) for x in row] for row in m.entries]


# ASCII digits only: \d and int() also take other scripts' digits and "1_000".
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# The documented bound on residue-mode exponents.  The closed-form integral is
# exact at any degree, so the cap sizes nothing; it only bounds the input.
MAX_RESIDUE_EXPONENT = 1000
# The summed h^1, h^2, h^3 of the components and 2 * genus of the double
# curves size the matrices of the weight complexes; with all four at 200 an
# lmhs run takes well under a second.
MAX_LMHS_DIM = 200
# positivity in ndim mode takes one rank per sample.
MAX_NDIM_SAMPLES = 1000


def _rational_from_json(x, what: str) -> Rational:
    """An integer JSON literal, or a string "p/q" or "p"; an int when it is
    integral.  The grammar is checked first: Fraction would also expand
    "1e300000" exactly."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        if not _RATIONAL_RE.fullmatch(x):
            raise SchemaError(f"{what}: bad rational literal {x!r}")
        try:
            return int(x) if "/" not in x else _exact(Fraction(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{what}: bad rational literal {x!r}") from exc
    raise SchemaError(f"{what} must be a rational, not {x!r}")


def matrix_from_json(data, what: str = "matrix") -> RationalMatrix:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise SchemaError(f"{what} must be an array of row arrays")
    try:
        return RationalMatrix.from_rows(
            [[_rational_from_json(x, what) for x in row] for row in data]
        )
    except ValueError as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc


def _int_from_json(x, what: str) -> int:
    """An integer JSON literal, or a string holding one (surrounding
    whitespace allowed)."""
    if (
        isinstance(x, bool)
        or not isinstance(x, (int, str))
        or (isinstance(x, str) and not _INTEGER_RE.fullmatch(x.strip()))
    ):
        raise SchemaError(f"{what} must be an integer, not {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise SchemaError(f"{what} must be an integer, not {x!r}") from exc


def _float_from_json(x, what: str) -> float:
    """A finite int or float JSON literal (not a bool, not a string)."""
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= float_info.max:
        return float(x)
    raise SchemaError(f"{what} must be a finite number, not {x!r}")


def _complex_from_json(x, what: str) -> complex:
    """A finite number, or an [re, im] pair of finite numbers."""
    if not isinstance(x, list):
        return complex(_float_from_json(x, what))
    if len(x) != 2:
        raise SchemaError(f"{what} must be a number or an [re, im] pair, not {x!r}")
    return complex(_float_from_json(x[0], what), _float_from_json(x[1], what))


def _array_from_json(data, what: str, read, length: int | None = None) -> tuple:
    """A JSON array (of the given length, if one is given), each entry read by
    read(entry, what).  Tuples pass too, so that defaults can be constants."""
    if not isinstance(data, (list, tuple)):
        raise SchemaError(f"{what} must be an array, not {data!r}")
    if length is not None and len(data) != length:
        raise SchemaError(f"{what} must have {length} entries, not {len(data)}")
    return tuple(read(x, what) for x in data)


def _name_from_json(x, what: str) -> str:
    """Names are compared as strings; any JSON value is accepted."""
    return str(x)


def _object_from_json(data, what: str, required: tuple, optional: tuple = ()) -> None:
    """A JSON object holding every required key and no key outside the two."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be an object")
    for key in required:
        if key not in data:
            raise SchemaError(f"{what} is missing field {key!r}")
    for key in data:
        if key not in required and key not in optional:
            raise SchemaError(f"{what} has unknown field {key!r}")


def cone_from_json(data) -> "NilpotentCone":
    from .filtrations import NilpotentCone

    _object_from_json(data, "cone", ("dim", "weight", "form", "generators"), ("symmetry",))
    dim = _int_from_json(data["dim"], "dim")
    weight = _int_from_json(data["weight"], "weight")
    form = matrix_from_json(data["form"], "form")
    gens = _array_from_json(data["generators"], "generators", matrix_from_json)
    symmetry = data.get("symmetry")
    expected = "symmetric" if weight % 2 == 0 else "alternating"
    if symmetry is not None and symmetry != expected:
        raise SchemaError(
            f"symmetry flag {symmetry!r} contradicts weight {weight} (expected {expected!r})"
        )
    return NilpotentCone(dim, weight, form, gens)


def surface_from_json(data) -> "NCDSurface":
    from .ncd import DoubleCurve, NCDSurface, SurfacePiece, TriplePoint

    optional = ("kind", "triple_points", "odd_gysin", "odd_restriction")
    _object_from_json(data, "surface", ("components", "double_curves"), optional)

    def piece(c, what: str) -> SurfacePiece:
        _object_from_json(c, "component", ("name", "h"))
        return SurfacePiece(str(c["name"]), _array_from_json(c["h"], "h", _int_from_json, 5))

    def curve(c, what: str) -> DoubleCurve:
        _object_from_json(c, "double curve", ("components", "genus", "self_intersections"))
        return DoubleCurve(
            _array_from_json(c["components"], "curve components", _name_from_json, 2),
            _int_from_json(c["genus"], "genus"),
            _array_from_json(c["self_intersections"], "self_intersections", _int_from_json, 2),
        )

    comps = _array_from_json(data["components"], "components", piece)
    curves = _array_from_json(data["double_curves"], "double_curves", curve)
    triples = _array_from_json(
        data.get("triple_points", ()),
        "triple_points",
        lambda t, what: TriplePoint(_array_from_json(t, "triple point", _name_from_json)),
    )
    sizes = {
        "summed h^1 of the components": sum(c.h[1] for c in comps),
        "summed h^2 of the components": sum(c.h[2] for c in comps),
        "summed h^3 of the components": sum(c.h[3] for c in comps),
        "summed 2 * genus of the double curves": sum(2 * c.genus for c in curves),
    }
    for what, size in sizes.items():
        if size > MAX_LMHS_DIM:
            raise ConeTooLarge(f"{what} is {size}, above the size cap {MAX_LMHS_DIM}")
    odd_g = data.get("odd_gysin")
    odd_r = data.get("odd_restriction")
    return NCDSurface(
        comps,
        curves,
        triples,
        matrix_from_json(odd_g, "odd_gysin") if odd_g is not None else None,
        matrix_from_json(odd_r, "odd_restriction") if odd_r is not None else None,
    )


def dual_graph_from_json(data):
    _object_from_json(data, "dual graph", ("vertices", "edges"), ("kind",))

    def vertex(v, what: str) -> tuple[str, int]:
        _object_from_json(v, "vertex", ("name", "genus"))
        return str(v["name"]), _int_from_json(v["genus"], "genus")

    vertices = _array_from_json(data["vertices"], "vertices", vertex)
    edges = _array_from_json(
        data["edges"], "edges", lambda e, what: _array_from_json(e, "edge", _name_from_json, 2)
    )
    return vertices, edges


def complex_matrix_from_json(data, what: str = "matrix") -> "np.ndarray":
    import numpy as np

    if not isinstance(data, list) or not data:
        raise SchemaError(f"{what} must be a nonempty array of row arrays")
    rows = [_array_from_json(row, what, _complex_from_json) for row in data]
    if not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise SchemaError(f"{what} rows must be nonempty and of equal length")
    return np.array(rows)


def orbit_from_json(data) -> "OrbitSpec":
    from .metrics import FlagPoint, OrbitSpec

    _object_from_json(data, "orbit", ("cone", "flag"), ("twist",))
    cone = cone_from_json(data["cone"])
    flag_data = data["flag"]
    if not isinstance(flag_data, dict) or not flag_data:
        raise SchemaError("orbit needs a flag object keyed by level")
    levels = {}
    for key, mat in flag_data.items():
        p = _int_from_json(key, "flag level key")
        if p in levels:
            raise SchemaError(f"flag level key {key!r} repeats level {p}")
        levels[p] = complex_matrix_from_json(mat, f"flag level {key}")
    if cone.weight not in levels:
        raise SchemaError(f"flag needs its top level {cone.weight}")
    if any(m.shape[0] != cone.dim for m in levels.values()):
        raise SchemaError(f"flag levels must have {cone.dim} rows")
    twist = data.get("twist", {})
    kind = twist.get("kind", "none") if isinstance(twist, dict) else "none"
    if kind == "none":
        _object_from_json(twist, "twist", (), ("kind",))
        xi = None
    elif kind == "exp_linear":
        _object_from_json(twist, "twist", ("kind", "generator"))
        xi = complex_matrix_from_json(twist["generator"], "twist generator")
        if xi.shape != (cone.dim, cone.dim):
            raise SchemaError(f"twist generator must be {cone.dim} x {cone.dim}")
    else:
        raise SchemaError(f"unknown twist kind {kind!r}")
    orbit = OrbitSpec(cone, FlagPoint(cone.weight, levels), xi)
    orbit.check_horizontal()
    return orbit


def _monomial_map(terms, what: str):
    """The map x -> (c * x^p for each (c, p) in terms).  It raises NotInDomain
    at an x where a component leaves the float range."""

    def at(x: float) -> tuple[float, ...]:
        try:
            y = tuple(c * x**p for c, p in terms)
        except OverflowError:
            y = (inf,)
        if not all(map(isfinite, y)):
            raise NotInDomain(f"{what} leaves the float range at {x!r}")
        return y

    return at


def residue_coefficients_from_json(data) -> dict[tuple[int, int], complex]:
    """Residue-mode polynomial g(x, y): an object mapping "i,j" (i, j >= 0) to
    the complex coefficient of x^i y^j."""
    if not isinstance(data, dict):
        raise SchemaError('coefficients must be an object keyed by "i,j"')
    coeffs = {}
    for key, val in data.items():
        i, j = _array_from_json(key.split(","), f"coefficient key {key!r}", _int_from_json, 2)
        if min(i, j) < 0:
            raise SchemaError(f"coefficient key {key!r}: g is a polynomial, so exponents are >= 0")
        if max(i, j) > MAX_RESIDUE_EXPONENT:
            raise ConeTooLarge(
                f"coefficient key {key!r} exceeds the exponent cap {MAX_RESIDUE_EXPONENT}"
            )
        if (i, j) in coeffs:
            raise SchemaError(f"coefficient key {key!r} repeats the exponent pair {i},{j}")
        coeffs[(i, j)] = _complex_from_json(val, f"coefficient {key!r}")
    return coeffs


def ray_from_json(data, k: int):
    """Expansion-mode boundary ray: k objects {scale, power} (default 1 each,
    power > 0), returned as the map tau -> (scale_j * tau^power_j)_j."""

    def term(c, what: str) -> tuple[float, float]:
        _object_from_json(c, f"{what} term", (), ("scale", "power"))
        power = _float_from_json(c.get("power", 1.0), "ray power")
        if power <= 0:
            raise SchemaError(f"ray power must be positive, not {power!r}")
        return _float_from_json(c.get("scale", 1.0), "ray scale"), power

    return _monomial_map(_array_from_json(data, "ray", term, k), "ray")


def siegel_cone_from_json(data) -> "ConeSpec":
    from .siegel import ConeSpec

    _object_from_json(data, "cone", ("p", "q", "r"))
    p, q, r = (_array_from_json(data[key], key, _float_from_json) for key in "pqr")
    return ConeSpec(p, q, r)


_NUMBER = r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+"
_FAMILY_RE = re.compile(r"^y\s*=\s*\((?P<body>[^)]*)\)$")
_TERM_RE = re.compile(
    rf"^(?:(?P<coef>{_NUMBER})\s*\*\s*)?T(?:\^(?P<pow>{_NUMBER}))?$|^(?P<const>{_NUMBER})$"
)


def parse_family(text):
    """Parse family strings like "y=(T,1)" or "y=(2*T^2, 3)" into T -> y(T).

    Coefficients and powers are unsigned decimal literals.
    """
    if not isinstance(text, str):
        raise SchemaError(f"family must be a string, not {text!r}")
    m = _FAMILY_RE.match(text.strip())
    if not m:
        raise SchemaError(f"cannot parse family {text!r}")
    terms = []
    for part in m.group("body").split(","):
        tm = _TERM_RE.match(part.strip())
        if not tm:
            raise SchemaError(f"cannot parse family component {part.strip()!r}")
        const, coef, power = (tm.group(g) for g in ("const", "coef", "pow"))
        literals = (const, "0") if const is not None else (coef or "1", power or "1")
        terms.append(tuple(_float_from_json(float(x), "family literal") for x in literals))
    return _monomial_map(terms, f"family {text!r}")


def triple_from_json(data) -> "CurvatureTriple":
    from .positivity import CurvatureTriple

    _object_from_json(data, "triple", ("dim_t", "dim_w", "dim_u", "entries"), ("metric",))
    dims = [_int_from_json(data[key], key) for key in ("dim_t", "dim_w", "dim_u")]
    slices = data["entries"]
    if not isinstance(slices, list) or not all(isinstance(sl, list) for sl in slices):
        raise SchemaError("entries must be a dim_t x dim_w x dim_u array")
    entries = [[_array_from_json(row, "entries", _rational_from_json) for row in sl] for sl in slices]
    metric = data.get("metric")
    metric = matrix_from_json(metric, "metric") if metric is not None else None
    return CurvatureTriple(*dims, entries, metric)

"""JSON schemas for every object crossing the CLI boundary.

Rationals travel as strings "p/q" (or "p" when the denominator is 1); integer
JSON literals are accepted on input.  Complex scalars travel as [re, im]
pairs.  Matrices are arrays of row arrays.

Every JSON value is converted by one private reader per kind (_int_, _rational_,
_float_, _complex_ and _array_from_json), which raises SchemaError on anything
else; the CLI reads its own fields with them too.  They stay private, so a
tracer of the public functions records one span per object, not per entry.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf, isfinite
from sys import float_info

from .errors import ConeTooLarge, HodgeChartsError, NotInDomain, SchemaError
from .filtrations import NilpotentCone
from .linalg import RationalMatrix
from .ncd import DoubleCurve, NCDSurface, SurfacePiece, TriplePoint
from .positivity import CurvatureTriple


def rational_to_json(x: Fraction) -> str:
    return str(x)


def matrix_to_json(m: RationalMatrix) -> list[list[str]]:
    return [[rational_to_json(x) for x in row] for row in m.entries]


def int_matrix_to_json(rows) -> list[list[int]]:
    return [[int(x) for x in row] for row in rows]


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")
# Residue mode sizes its quadrature by the largest exponent (4 deg + 8 angles).
MAX_RESIDUE_EXPONENT = 1000
# The summed h^1, h^2, h^3 of the components and 2 * genus of the double
# curves size the matrices of the weight complexes; with all four at 200 an
# lmhs run takes about 5 s, and its cost grows faster than n^3.
MAX_LMHS_DIM = 200


def _rational_from_json(x, what: str) -> Fraction:
    """An integer JSON literal, or a string "p/q" or "p".  The grammar is
    checked first: Fraction would also expand "1e300000" exactly."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_RE.fullmatch(x):
            raise SchemaError(f"{what}: bad rational literal {x!r}")
        try:
            return Fraction(x)
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
    """An integer JSON literal, or a string holding one."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
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


def cone_from_json(data) -> NilpotentCone:
    if not isinstance(data, dict):
        raise SchemaError("cone must be an object")
    try:
        dim = _int_from_json(data["dim"], "dim")
        weight = _int_from_json(data["weight"], "weight")
        form = matrix_from_json(data["form"], "form")
        gens = _array_from_json(data["generators"], "generators", matrix_from_json)
    except KeyError as exc:
        raise SchemaError(f"cone is missing field {exc}") from exc
    symmetry = data.get("symmetry")
    expected = "symmetric" if weight % 2 == 0 else "alternating"
    if symmetry is not None and symmetry != expected:
        raise SchemaError(
            f"symmetry flag {symmetry!r} contradicts weight {weight} (expected {expected!r})"
        )
    try:
        return NilpotentCone(dim, weight, form, gens)
    except (ValueError, HodgeChartsError) as exc:
        raise SchemaError(str(exc)) from exc


def cone_to_json(cone: NilpotentCone) -> dict:
    return {
        "dim": cone.dim,
        "weight": cone.weight,
        "symmetry": "symmetric" if cone.weight % 2 == 0 else "alternating",
        "form": matrix_to_json(cone.form),
        "generators": [matrix_to_json(n) for n in cone.generators],
    }


def surface_from_json(data) -> NCDSurface:
    if not isinstance(data, dict):
        raise SchemaError("surface must be an object")
    try:
        comps = [
            SurfacePiece(str(c["name"]), _array_from_json(c["h"], "h", _int_from_json, 5))
            for c in data["components"]
        ]
        curves = [
            DoubleCurve(
                _array_from_json(c["components"], "curve components", _name_from_json, 2),
                _int_from_json(c["genus"], "genus"),
                _array_from_json(c["self_intersections"], "self_intersections", _int_from_json, 2),
            )
            for c in data["double_curves"]
        ]
        triples = [
            TriplePoint(_array_from_json(t, "triple point", _name_from_json))
            for t in data.get("triple_points", [])
        ]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad surface data: {exc}") from exc
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
    if not isinstance(data, dict):
        raise SchemaError("dual graph must be an object")
    try:
        vertices = [(str(v["name"]), _int_from_json(v["genus"], "genus")) for v in data["vertices"]]
        edges = [_array_from_json(e, "edge", _name_from_json, 2) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad dual graph: {exc}") from exc
    return vertices, edges


def complex_matrix_from_json(data, what: str = "matrix") -> "np.ndarray":
    import numpy as np

    if not isinstance(data, list) or not data:
        raise SchemaError(f"{what} must be a nonempty array of row arrays")
    rows = [_array_from_json(row, what, _complex_from_json) for row in data]
    if not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise SchemaError(f"{what} rows must be nonempty and of equal length")
    return np.array(rows)


def complex_to_json(x: complex) -> list[float]:
    x = complex(x)
    return [x.real, x.imag]


def orbit_from_json(data) -> "OrbitSpec":
    from .metrics import FlagPoint, OrbitSpec, Twist

    if not isinstance(data, dict):
        raise SchemaError("orbit must be an object")
    cone = cone_from_json(data.get("cone"))
    flag_data = data.get("flag")
    if not isinstance(flag_data, dict) or not flag_data:
        raise SchemaError("orbit needs a flag object keyed by level")
    levels = {
        _int_from_json(key, "flag level key"): complex_matrix_from_json(mat, f"flag level {key}")
        for key, mat in flag_data.items()
    }
    if cone.weight not in levels:
        raise SchemaError(f"flag needs its top level {cone.weight}")
    if any(m.shape[0] != cone.dim for m in levels.values()):
        raise SchemaError(f"flag levels must have {cone.dim} rows")
    twist_data = data.get("twist", {"kind": "none"})
    if not isinstance(twist_data, dict):
        raise SchemaError("twist must be an object")
    kind = twist_data.get("kind", "none")
    if kind == "none":
        twist = Twist("none")
    elif kind == "exp_linear":
        generator = complex_matrix_from_json(twist_data.get("generator"), "twist generator")
        if generator.shape != (cone.dim, cone.dim):
            raise SchemaError(f"twist generator must be {cone.dim} x {cone.dim}")
        twist = Twist("exp_linear", generator)
    else:
        raise SchemaError(f"unknown twist kind {kind!r}")
    try:
        return OrbitSpec(cone, FlagPoint(cone.weight, levels), twist)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


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
    """Residue-mode polynomial g(x, y): an object mapping "i,j" to the complex
    coefficient of x^i y^j."""
    if not isinstance(data, dict):
        raise SchemaError('coefficients must be an object keyed by "i,j"')
    coeffs = {}
    for key, val in data.items():
        i, j = _array_from_json(key.split(","), f"coefficient key {key!r}", _int_from_json, 2)
        if max(i, j) > MAX_RESIDUE_EXPONENT:
            raise ConeTooLarge(
                f"coefficient key {key!r} exceeds the exponent cap {MAX_RESIDUE_EXPONENT}"
            )
        coeffs[(i, j)] = _complex_from_json(val, f"coefficient {key!r}")
    return coeffs


def ray_from_json(data, k: int):
    """Expansion-mode boundary ray: k objects {scale, power} (default 1 each,
    power > 0), returned as the map tau -> (scale_j * tau^power_j)_j."""

    def term(c, what: str) -> tuple[float, float]:
        if not isinstance(c, dict):
            raise SchemaError(f"{what} must be an array of {{scale, power}} objects")
        power = _float_from_json(c.get("power", 1.0), "ray power")
        if power <= 0:
            raise SchemaError(f"ray power must be positive, not {power!r}")
        return _float_from_json(c.get("scale", 1.0), "ray scale"), power

    return _monomial_map(_array_from_json(data, "ray", term, k), "ray")


def siegel_cone_from_json(data) -> "ConeSpec":
    from .siegel import ConeSpec

    if not isinstance(data, dict):
        raise SchemaError("cone must be an object with p, q, r arrays")
    try:
        p, q, r = (_array_from_json(data[key], key, _float_from_json) for key in "pqr")
    except KeyError as exc:
        raise SchemaError(f"cone is missing field {exc}") from exc
    try:
        return ConeSpec(p, q, r)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


_NUMBER = r"\d+(?:\.\d*)?|\.\d+"
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


def triple_from_json(data) -> CurvatureTriple:
    if not isinstance(data, dict):
        raise SchemaError("triple must be an object")
    try:
        dims = [_int_from_json(data[key], key) for key in ("dim_t", "dim_w", "dim_u")]
        slices = data["entries"]
    except KeyError as exc:
        raise SchemaError(f"triple is missing field {exc}") from exc
    if not isinstance(slices, list) or not all(isinstance(sl, list) for sl in slices):
        raise SchemaError("entries must be a dim_t x dim_w x dim_u array")
    entries = [[_array_from_json(row, "entries", _rational_from_json) for row in sl] for sl in slices]
    metric = data.get("metric")
    try:
        return CurvatureTriple(*dims, entries, matrix_from_json(metric, "metric") if metric else None)
    except ValueError as exc:
        raise SchemaError(f"bad curvature triple: {exc}") from exc

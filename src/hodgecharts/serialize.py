"""JSON schemas for every object crossing the CLI boundary.

Rationals travel as strings "p/q" (or "p" when the denominator is 1); integer
JSON literals are accepted on input.  Complex scalars travel as [re, im]
pairs.  Matrices are arrays of row arrays.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HodgeChartsError, SchemaError
from .filtrations import NilpotentCone
from .linalg import RationalMatrix
from .ncd import DoubleCurve, NCDSurface, SurfacePiece, TriplePoint


def rational_to_json(x: Fraction) -> str:
    return str(x)


def matrix_to_json(m: RationalMatrix) -> list[list[str]]:
    return [[rational_to_json(x) for x in row] for row in m.entries]


def int_matrix_to_json(rows) -> list[list[int]]:
    return [[int(x) for x in row] for row in rows]


def _rational_from_json(x) -> Fraction:
    if isinstance(x, bool):
        raise SchemaError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {x!r}") from exc
    raise SchemaError(f"not a rational: {x!r}")


def matrix_from_json(data, what: str = "matrix") -> RationalMatrix:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise SchemaError(f"{what} must be an array of row arrays")
    try:
        return RationalMatrix.from_rows(
            [[_rational_from_json(x) for x in row] for row in data]
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


def cone_from_json(data) -> NilpotentCone:
    if not isinstance(data, dict):
        raise SchemaError("cone must be an object")
    try:
        dim = _int_from_json(data["dim"], "dim")
        weight = _int_from_json(data["weight"], "weight")
        form = matrix_from_json(data["form"], "form")
        gen_data = data["generators"]
    except KeyError as exc:
        raise SchemaError(f"cone is missing field {exc}") from exc
    if not isinstance(gen_data, list):
        raise SchemaError("generators must be an array of matrices")
    gens = [matrix_from_json(g, "generator") for g in gen_data]
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
            SurfacePiece(str(c["name"]), tuple(int(x) for x in c["h"]))
            for c in data["components"]
        ]
        curves = [
            DoubleCurve(
                tuple(str(x) for x in c["components"]),
                int(c["genus"]),
                tuple(int(x) for x in c["self_intersections"]),
            )
            for c in data["double_curves"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad surface data: {exc}") from exc
    for c in comps:
        if len(c.h) != 5:
            raise SchemaError(f"component {c.name} needs five cohomology dimensions")
    triples = [
        TriplePoint(tuple(str(x) for x in t)) for t in data.get("triple_points", [])
    ]
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
    try:
        vertices = [(str(v["name"]), int(v["genus"])) for v in data["vertices"]]
        edges = [(str(a), str(b)) for a, b in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad dual graph: {exc}") from exc
    return vertices, edges


def _complex_from_json(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, list) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    raise SchemaError(f"not a complex scalar: {x!r}")


def complex_matrix_from_json(data, what: str = "matrix") -> "np.ndarray":
    import numpy as np

    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise SchemaError(f"{what} must be an array of row arrays")
    try:
        return np.array([[_complex_from_json(x) for x in row] for row in data])
    except SchemaError:
        raise
    except Exception as exc:  # ragged arrays etc.
        raise SchemaError(f"bad {what}: {exc}") from exc


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
    levels = {}
    for key, mat in flag_data.items():
        try:
            levels[int(key)] = complex_matrix_from_json(mat, f"flag level {key}")
        except ValueError as exc:
            raise SchemaError(f"bad flag level key {key!r}") from exc
    twist_data = data.get("twist", {"kind": "none"})
    kind = twist_data.get("kind", "none")
    if kind == "none":
        twist = Twist("none")
    elif kind == "exp_linear":
        twist = Twist(
            "exp_linear",
            complex_matrix_from_json(twist_data.get("generator"), "twist generator"),
        )
    else:
        raise SchemaError(f"unknown twist kind {kind!r}")
    try:
        return OrbitSpec(cone, FlagPoint(cone.weight, levels), twist)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def siegel_cone_from_json(data) -> "ConeSpec":
    from .siegel import ConeSpec

    if not isinstance(data, dict):
        raise SchemaError("cone must be an object with p, q, r arrays")
    try:
        return ConeSpec(data["p"], data["q"], data["r"])
    except KeyError as exc:
        raise SchemaError(f"cone is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc

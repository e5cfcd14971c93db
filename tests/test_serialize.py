import numpy as np
import pytest

from hodgecharts.errors import InvalidInput, NotNilpotent, SchemaError
from hodgecharts.gallery import genus2_cone, twisted_weight1_orbit, weight2_jordan3_orbit
from hodgecharts.serialize import (
    _int_from_json,
    complex_matrix_from_json,
    cone_from_json,
    matrix_from_json,
    matrix_to_json,
    orbit_from_json,
    siegel_cone_from_json,
    surface_from_json,
)

from .oracles import complex_to_json, cone_to_json


def test_cone_roundtrip():
    cone = genus2_cone()
    data = cone_to_json(cone)
    back = cone_from_json(data)
    assert back.form == cone.form
    assert back.generators == cone.generators
    assert back.weight == cone.weight and back.dim == cone.dim
    assert data["symmetry"] == "alternating"


def test_matrix_rational_literals():
    m = matrix_from_json([[1, "1/2"], ["-3", 0]])
    assert matrix_to_json(m) == [["1", "1/2"], ["-3", "0"]]
    with pytest.raises(SchemaError):
        matrix_from_json([[True]])
    with pytest.raises(SchemaError):
        matrix_from_json([["1/0"]])
    with pytest.raises(SchemaError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(SchemaError):
        matrix_from_json("nope")


def test_integers_are_ascii_decimal():
    """An integer string has ASCII digits, an optional sign and surrounding
    whitespace (so residue keys like "0, 1" split into integers)."""
    for text, value in (("7", 7), (" 7", 7), ("+7 ", 7), ("-12", -12), ("\t0\n", 0)):
        assert _int_from_json(text, "n") == value
    assert [_int_from_json(x, "key") for x in "0, 1".split(",")] == [0, 1]
    for bad in ("\u0662", "\uff11", "1_000", "1 0", "", " ", "+", "0x1", "1.0", True, 1.0):
        with pytest.raises(SchemaError):
            _int_from_json(bad, "n")


def test_cone_schema_errors():
    good = cone_to_json(genus2_cone())
    with pytest.raises(SchemaError):
        cone_from_json({**good, "symmetry": "symmetric"})
    missing = dict(good)
    del missing["generators"]
    with pytest.raises(SchemaError):
        cone_from_json(missing)
    bad_gen = dict(good)
    bad_gen["generators"] = [good["form"]]  # not nilpotent: the library's own refusal
    with pytest.raises(NotNilpotent):
        cone_from_json(bad_gen)
    with pytest.raises(SchemaError):
        cone_from_json([1, 2, 3])


def test_complex_matrices():
    m = complex_matrix_from_json([[[1.0, 2.0], 3]])
    assert m[0, 0] == 1 + 2j and m[0, 1] == 3 + 0j
    assert complex_to_json(1 - 4j) == [1.0, -4.0]
    with pytest.raises(SchemaError):
        complex_matrix_from_json([[[1.0]]])
    with pytest.raises(SchemaError):
        complex_matrix_from_json([["text"]])


def test_orbit_roundtrip_evaluates():
    orbit = twisted_weight1_orbit(eps=0.1)

    def cmat(m):
        return [[complex_to_json(x) for x in row] for row in np.asarray(m)]

    data = {
        "cone": cone_to_json(orbit.cone),
        "flag": {"1": cmat(orbit.f0.level(1))},
        "twist": {"kind": "exp_linear", "generator": cmat(orbit.xi)},
    }
    back = orbit_from_json(data)
    from hodgecharts.metrics import log_det_lambda

    t = (1e-3,)
    assert abs(
        log_det_lambda(back, t, 0.1j) - log_det_lambda(orbit, t, 0.1j)
    ) < 1e-12


def test_orbit_schema_errors():
    orbit = twisted_weight1_orbit()

    def cmat(m):
        return [[complex_to_json(x) for x in row] for row in np.asarray(m)]

    base = {
        "cone": cone_to_json(orbit.cone),
        "flag": {"1": cmat(orbit.f0.level(1))},
    }
    with pytest.raises(SchemaError):
        orbit_from_json({**base, "flag": {}})
    with pytest.raises(SchemaError):
        orbit_from_json({**base, "flag": {"x": [[[0, 0]]]}})
    with pytest.raises(SchemaError):
        orbit_from_json({**base, "twist": {"kind": "mystery"}})
    # a twist that does not commute with the generators is refused by OrbitSpec
    bad = np.zeros((4, 4))
    bad[2, 0] = 1.0
    with pytest.raises(InvalidInput, match="^twist does not commute with generator 1$"):
        orbit_from_json(
            {**base, "twist": {"kind": "exp_linear", "generator": cmat(bad)}}
        )


def test_orbit_flag_must_be_horizontal():
    """F^1 = span(e1, e3) holds F^2 = span(e3), but N e3 = e2 leaves it."""
    orbit = weight2_jordan3_orbit()

    def cmat(m):
        return [[complex_to_json(x) for x in row] for row in np.asarray(m)]

    data = {
        "cone": cone_to_json(orbit.cone),
        "flag": {"2": cmat(orbit.f0.level(2)), "1": cmat(orbit.f0.level(1))},
        "twist": {"kind": "none"},
    }
    assert orbit_from_json(data).xi is None
    data["flag"]["1"] = cmat(np.eye(3)[:, [0, 2]])
    with pytest.raises(InvalidInput, match=r"^generator 1 moves F\^2 outside F\^1$"):
        orbit_from_json(data)


def test_surface_schema_errors():
    with pytest.raises(SchemaError):
        surface_from_json({"components": [{"name": "A", "h": [1, 0, 1]}],
                           "double_curves": []})
    with pytest.raises(SchemaError):
        surface_from_json({"components": [{"name": "A"}], "double_curves": []})


def test_siegel_cone_schema():
    cone = siegel_cone_from_json({"p": [1, 0], "q": [0, 1], "r": [0, 0]})
    assert cone.size == 2
    with pytest.raises(SchemaError):
        siegel_cone_from_json({"p": [1], "q": [1]})
    with pytest.raises(InvalidInput, match=r"^r_1\^2 <= p_1 q_1 fails$"):
        siegel_cone_from_json({"p": [1], "q": [1], "r": [5]})
    with pytest.raises(SchemaError):
        siegel_cone_from_json("nope")

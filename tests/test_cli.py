import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hodgecharts.cli import main, parse_family
from hodgecharts.linalg import RationalMatrix
from hodgecharts.positivity import CurvatureTriple, curvature_identity_check

from .test_filtrations import REFUSED_CONES
from .test_siegel import _fraction_slope

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_charts_genus2(tmp_path):
    code, report = run_cli(
        ["charts", "--input", str(FIXTURES / "genus2_cone.json")], tmp_path
    )
    assert code == 0
    body = report["report"]
    assert body["certificate_chart"]["equations"] == ["z1*z2*z3 = z4^2"]
    assert body["separation"]["separated"] is True
    assert body["atlas"]["size"] == 6
    table = {tuple(e["I"]): tuple(e["K"]) for e in body["relation_table"]}
    assert table[()] == () and table[(1, 2)] == (1, 2, 3)
    assert report["library_version"]
    assert len(report["input_sha256"]) == 64


def test_charts_single_cone(tmp_path):
    code, report = run_cli(
        ["charts", "--input", str(FIXTURES / "single_cone.json")], tmp_path
    )
    assert code == 0
    charts = report["report"]["atlas"]["charts"]
    assert {tuple(c["K"]): len(c["exponents"]) for c in charts} == {(): 1, (1,): 0}


def test_charts_zero_generators(tmp_path):
    """A cone without generators is valid input: the one index set I = [] and
    an atlas of size 0."""
    cone = tmp_path / "zero.json"
    cone.write_text(json.dumps(_fixture_with("genus2_cone.json", generators=[])))
    code, report = run_cli(["charts", "--input", str(cone)], tmp_path)
    assert code == 0
    body = report["report"]
    assert [(e["I"], e["K"]) for e in body["relation_table"]] == [([], [])]
    assert body["atlas"]["size"] == 0 and body["atlas"]["monomials"] == []
    assert body["binomial_relations"]["vectors"] == []


def test_charts_deterministic(tmp_path):
    _, first = run_cli(
        ["charts", "--input", str(FIXTURES / "genus2_cone.json")], tmp_path, "a.json"
    )
    _, second = run_cli(
        ["charts", "--input", str(FIXTURES / "genus2_cone.json")], tmp_path, "b.json"
    )
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize(
    "subcommand, fixture, flag, value",
    [
        ("charts", "genus2_cone.json", "--jobs", "4"),
        ("charts", "genus2_cone.json", "--tol", "0.5"),
        ("lmhs", "ncd_tetrahedron.json", "--csv", "f.csv"),
        ("curvature", "residue_constant.json", "--tol", "0.5"),
        ("curvature", "orbit_weight2_caseC_expansion.json", "--tol", "0.5"),
        ("curvature", "orbit_weight2_caseC_expansion.json", "--csv", "f.csv"),
        ("siegel", "siegel_cl2.json", "--cone", str(FIXTURES / "siegel_cl2.json")),
        ("siegel", "siegel_cl2.json", "--family", "y=(1,T)"),
        ("siegel", "siegel_cl2.json", "--parabolic", "maximal"),
        ("positivity", "positivity_sigma1.json", "--mode", "sigma1"),
    ],
    ids=[
        "charts-jobs",
        "charts-tol",
        "lmhs-csv",
        "residue-tol",
        "expansion-tol",
        "expansion-csv",
        "siegel-cone",
        "siegel-family",
        "siegel-parabolic",
        "positivity-mode",
    ],
)
def test_rejected_flag(tmp_path, capsys, subcommand, fixture, flag, value):
    """A flag that the subcommand (or its input's mode) does not read exits 2.
    Every value a report depends on comes from the input file or --seed, so
    no flag repeats an input field."""
    if flag == "--csv":
        value = str(tmp_path / value)
    out = tmp_path / "out.json"
    argv = [subcommand, "--input", str(FIXTURES / fixture), flag, value, "--output", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects flags a subcommand does not register
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "f.csv").exists()


def test_lmhs_surface_and_curve(tmp_path):
    code, report = run_cli(
        ["lmhs", "--input", str(FIXTURES / "ncd_tetrahedron.json")], tmp_path
    )
    assert code == 0
    assert report["report"]["graded_dims"] == [1, 0, 4, 0, 1]
    code2, report2 = run_cli(
        ["lmhs", "--input", str(FIXTURES / "theta_graph.json")], tmp_path
    )
    assert code2 == 0 and report2["report"]["graded_dims"] == [2, 0, 2]


def test_curvature_limit_with_csv(tmp_path):
    csv = tmp_path / "curve.csv"
    out = tmp_path / "out.json"
    code = main(
        [
            "curvature",
            "--input",
            str(FIXTURES / "orbit_twisted_weight1.json"),
            "--output",
            str(out),
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["decreasing"] is True
    assert report["final_error"] < 1e-2
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t1_abs,value,boundary_value,error"
    assert len(lines) == 6


def test_curvature_expansion(tmp_path):
    code, report = run_cli(
        ["curvature", "--input", str(FIXTURES / "orbit_weight2_caseC_expansion.json")],
        tmp_path,
    )
    assert code == 0
    assert report["report"]["power"] == 2


def test_curvature_residue(tmp_path):
    code, report = run_cli(
        ["curvature", "--input", str(FIXTURES / "residue_constant.json")], tmp_path
    )
    assert code == 0
    assert abs(report["report"]["normalized_slope"] - 1) < 0.02


def test_residue_slope_is_the_exact_slope_of_its_points(tmp_path):
    """Two t whose logarithms differ in the last bit: the slope is the exact
    least-squares slope of the reported points, with nothing on stderr.
    np.polyfit warned that the fit was poorly conditioned and read pi, where
    the points' slope is 8."""
    path = tmp_path / "close_t.json"
    data = {"mode": "residue", "coefficients": {"0,0": 1}, "t_values": [0.5, 0.5000000000000001]}
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgecharts.cli", "curvature", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    body = json.loads(proc.stdout)["report"]
    logs = [math.log(1 / t) for t in body["t_values"]]
    assert body["slope"] == _fraction_slope(logs, body["integrals"]) == 8.0


def test_siegel_fixtures(tmp_path):
    expected = {
        "siegel_cl2.json": "escapes-every-Siegel-set",
        "siegel_cl3.json": "escapes-every-Siegel-set",
        "siegel_one_variable.json": "contained",
    }
    for name, verdict in expected.items():
        code, report = run_cli(["siegel", "--input", str(FIXTURES / name)], tmp_path)
        assert code == 0
        assert report["report"]["verdict"] == verdict


def test_parse_family():
    fam = parse_family("y=(T,1)")
    assert fam(10.0) == (10.0, 1.0)
    fam2 = parse_family("y=(2*T^2, 3)")
    assert fam2(2.0) == (8.0, 3.0)
    with pytest.raises(Exception):
        parse_family("nope")


def test_positivity_modes(tmp_path):
    code, report = run_cli(
        ["positivity", "--input", str(FIXTURES / "positivity_sigma1.json")], tmp_path
    )
    assert code == 0 and report["report"]["injective"] is True
    code2, report2 = run_cli(
        ["positivity", "--input", str(FIXTURES / "positivity_ndim.json")], tmp_path
    )
    assert code2 == 0
    assert report2["report"]["rho"] == 2
    assert report2["report"]["numerical_dimension"] == 3


@pytest.mark.parametrize("metric", [None, [[2, 1], [1, "2/3"]]], ids=["no-metric", "metric"])
def test_positivity_identity_mode_reports_the_library_check(tmp_path, metric):
    e, xi = ["1/2", 3], [2, "-5/3"]
    data = _identity_input(e=e, xi=xi)
    if metric is not None:
        data["triple"]["metric"] = metric
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(data))
    code, report = run_cli(["positivity", "--input", str(path)], tmp_path)
    assert code == 0
    triple = data["triple"]
    chk = curvature_identity_check(
        CurvatureTriple(
            triple["dim_t"],
            triple["dim_w"],
            triple["dim_u"],
            triple["entries"],
            None if metric is None else RationalMatrix.from_rows(metric),
        ),
        e,
        xi,
    )
    assert report["report"] == {
        "mode": "identity", "lhs": str(chk.lhs), "rhs": str(chk.rhs), "match": chk.match
    }


def _sigma2_input(entries, quadric):
    return {
        "mode": "sigma2",
        "quadric": quadric,
        "triple": {"dim_t": len(entries), "dim_w": 2, "dim_u": 2, "entries": entries},
    }


_SIGMA2_ENTRIES = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]  # A injective: T -> Hom(W, U)


def test_positivity_sigma2_matches_library(tmp_path):
    from hodgecharts.positivity import sigma_weight2
    from hodgecharts.serialize import matrix_from_json, triple_from_json

    data = _sigma2_input(_SIGMA2_ENTRIES, [[2, 1], [1, 0]])
    path = tmp_path / "sigma2.json"
    path.write_text(json.dumps(data))
    code, report = run_cli(["positivity", "--input", str(path)], tmp_path)
    assert code == 0
    want = sigma_weight2(triple_from_json(data["triple"]), matrix_from_json(data["quadric"]))
    assert report["report"] == {"mode": "sigma2", "rank": want.rank, "injective": want.injective}
    assert want.injective and want.rank == 2


@pytest.mark.parametrize(
    "data, message",
    [
        (_sigma2_input([[[1, 0], [0, 0]], [[1, 0], [0, 0]]], [[1, 0], [0, 1]]), "injective"),
        (_sigma2_input(_SIGMA2_ENTRIES, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "symmetric on W"),
    ],
    ids=["a-not-injective", "quadric-wrong-size"],
)
def test_positivity_sigma2_refusals(tmp_path, capsys, data, message):
    bad = tmp_path / "sigma2.json"
    bad.write_text(json.dumps(data))
    assert main(["positivity", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err


def test_exit_code_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["charts", "--input", str(bad)]) == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text("{}")
    assert main(["charts", "--input", str(missing_field)]) == 2
    noncommuting = tmp_path / "noncommuting.json"
    noncommuting.write_text(
        json.dumps(
            {
                "dim": 2,
                "weight": 0,
                "form": [["1", "0"], ["0", "-1"]],
                "generators": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
            }
        )
    )
    assert main(["charts", "--input", str(noncommuting)]) == 2


@pytest.mark.parametrize("weight, form, generators, message", REFUSED_CONES)
def test_exit_code_refused_cone(tmp_path, capsys, weight, form, generators, message):
    """A generator that does not preserve the form, for an even and an odd
    weight, and a pair that does not commute each exit 2, naming it."""
    bad = tmp_path / "refused.json"
    bad.write_text(json.dumps({
        "dim": len(form),
        "weight": weight,
        "form": [[str(x) for x in row] for row in form],
        "generators": [[[str(x) for x in row] for row in g] for g in generators],
    }))
    assert main(["charts", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("dim", "x"), ("dim", [4]), ("weight", "one"), ("weight", 1.5), ("generators", 5),
        ("dim", "\u0664"), ("dim", "0_4"), ("weight", "\u0661"), ("weight", "\uff11"),
    ],
)
def test_exit_code_schema_bad_cone_field(tmp_path, capsys, field, value):
    data = json.loads((FIXTURES / "genus2_cone.json").read_text())
    data[field] = value
    bad = tmp_path / "bad_field.json"
    bad.write_text(json.dumps(data))
    assert main(["charts", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _fixture_with(name, **fields):
    return {**json.loads((FIXTURES / name).read_text()), **fields}


def _orbit_fixture_with(name, **fields):
    data = _fixture_with(name)
    data["orbit"].update(fields)
    return data


def _identity_input(**fields):
    """The ndim fixture's triple (dim_t = dim_w = 2) in identity mode, which
    has no samples."""
    triple = _fixture_with("positivity_ndim.json")["triple"]
    return {"mode": "identity", "triple": triple, **fields}


def _identity_input_with_metric(metric):
    """The identity input with e = xi = (1, 0) and the triple's metric set."""
    data = _identity_input(e=[1, 0], xi=[1, 0])
    data["triple"]["metric"] = metric
    return data


_EXPANSION_WITHOUT_GENERATORS = _fixture_with("orbit_weight2_caseC_expansion.json")
_EXPANSION_WITHOUT_GENERATORS["orbit"]["cone"]["generators"] = []

_CURVE_NEGATIVE_GENUS = _fixture_with(
    "theta_graph.json", vertices=[{"name": "a", "genus": -3}, {"name": "b", "genus": 0}]
)
_SURFACE_NEGATIVE_GENUS = _fixture_with("ncd_two_components.json")
_SURFACE_NEGATIVE_GENUS["double_curves"][0]["genus"] = -1

# F^1 = span(e1, e3) holds F^2 = span(e3), but N e3 = e2 leaves it.
_EXPANSION_NOT_HORIZONTAL = _fixture_with("orbit_weight2_caseC_expansion.json")
_EXPANSION_NOT_HORIZONTAL["orbit"]["flag"]["1"] = [
    [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
]

# The cone's p, q, r beside the family, not under "cone".
_SIEGEL_CONE_AT_TOP_LEVEL = _fixture_with("siegel_cl2.json")
_SIEGEL_CONE_AT_TOP_LEVEL.update(_SIEGEL_CONE_AT_TOP_LEVEL.pop("cone"))

# Flag level 1 under the keys "1" and " 1", which read as the same level.
_FLAG_LEVEL_KEY_REPEATED = _fixture_with("orbit_twisted_weight1.json")
_FLAG_LEVEL_KEY_REPEATED["orbit"]["flag"][" 1"] = _FLAG_LEVEL_KEY_REPEATED["orbit"]["flag"]["1"]


# The identity commutes with N = E_02 but is not nilpotent.
_TWIST_NOT_NILPOTENT = _orbit_fixture_with(
    "orbit_twisted_weight1.json",
    twist={
        "kind": "exp_linear",
        "generator": [[[float(i == j), 0.0] for j in range(4)] for i in range(4)],
    },
)


# The weight-2 orbit without its top flag level F^2.
_FLAG_WITHOUT_TOP_LEVEL = _fixture_with("orbit_weight2_caseC_expansion.json")
del _FLAG_WITHOUT_TOP_LEVEL["orbit"]["flag"]["2"]

# The weight-1 orbit's F^1 with three of its four rows.
_FLAG_LEVEL_SHORT = _fixture_with("orbit_twisted_weight1.json")
_FLAG_LEVEL_SHORT["orbit"]["flag"]["1"] = _FLAG_LEVEL_SHORT["orbit"]["flag"]["1"][:3]

# F^1 = span(e3, e2), and F^2 = span(e1) leaves it.
_FLAG_TOP_LEVEL_OUTSIDE = _fixture_with("orbit_weight2_caseC_expansion.json")
_FLAG_TOP_LEVEL_OUTSIDE["orbit"]["flag"]["2"] = [[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]]


def _triple_input(**fields):
    """The ndim fixture with fields set in its triple."""
    data = _fixture_with("positivity_ndim.json")
    data["triple"].update(fields)
    return data


def _weight1_orbit_with_flag_level(level):
    """The weight-1 orbit with one more flag level, spanned by the second
    column i e2 + e4 of its F^1, which N kills: F^2 would be horizontal, and
    F^0 would miss F^1."""
    data = _fixture_with("orbit_twisted_weight1.json")
    data["orbit"]["flag"][level] = [row[1:] for row in data["orbit"]["flag"]["1"]]
    return data


@pytest.mark.parametrize(
    "subcommand, data",
    [
        ("curvature", _fixture_with("residue_constant.json", t_values=[2.0])),
        ("curvature", _fixture_with("residue_constant.json", t_values=["x"])),
        ("curvature", _fixture_with("residue_constant.json", coefficients={"0,0": "x"})),
        ("curvature", _fixture_with("residue_constant.json", coefficients=[1])),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", w0="x")),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", index=[5])),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", t_sequence=[["x"]])),
        ("curvature", _fixture_with("orbit_weight2_caseC_expansion.json", ray=[1])),
        ("siegel", [1, 2]),
        ("siegel", _fixture_with("siegel_cl2.json", family="y=(T)")),
        ("siegel", _fixture_with("siegel_cl2.json", grid=["x"])),
        ("positivity", _fixture_with("positivity_ndim.json", samples="x")),
        ("positivity", _fixture_with("positivity_sigma1.json", quadric=[["1", "2"]])),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", t_sequence=[[0.01, 0.02]])),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", t_sequence=[[0.0]])),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", t_sequence=[[math.nan]])),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", index=[1.5])),
        ("curvature", _orbit_fixture_with("orbit_twisted_weight1.json", twist=[1])),
        ("curvature", _fixture_with("orbit_weight2_caseC_expansion.json", taus=[2.0, 3.0])),
        ("curvature", _fixture_with("orbit_weight2_caseC_expansion.json", ray=[{"scale": 0.0}])),
        ("curvature", _fixture_with("residue_constant.json", t_values=[10**400])),
        ("curvature", _EXPANSION_WITHOUT_GENERATORS),
        ("siegel", _fixture_with("siegel_cl2.json", family=5)),
        ("siegel", _fixture_with("siegel_cl2.json", family="y=(1.2.3*T,1)")),
        ("lmhs", _fixture_with("ncd_tetrahedron.json", triple_points=5)),
        ("lmhs", _fixture_with("ncd_tetrahedron.json", triple_points=[1])),
        ("positivity", _fixture_with("positivity_ndim.json", samples=1.5)),
        ("positivity", _fixture_with("positivity_ndim.json", samples=0)),
        ("positivity", _identity_input(e="x", xi=[1, 1])),
        ("positivity", _identity_input(e=[1, 1], xi=[1, 1, 1])),
        ("positivity", _identity_input()),
        ("positivity", _identity_input_with_metric(0)),
        ("positivity", _identity_input_with_metric(False)),
        ("positivity", _identity_input_with_metric("")),
        ("positivity", _identity_input_with_metric([])),
        ("curvature", _fixture_with("residue_constant.json", coefficients={"\u0660,0": [1, 0]})),
        ("siegel", _fixture_with("siegel_cl2.json", family="y=(\u0662*T,1)")),
        ("positivity", _fixture_with("positivity_ndim.json", samples="2_0")),
        ("positivity", _fixture_with("positivity_ndim.json", samples="\u0662")),
        ("lmhs", _CURVE_NEGATIVE_GENUS),
        ("lmhs", _SURFACE_NEGATIVE_GENUS),
        ("siegel", _fixture_with("siegel_cl2.json", grid=[10.0])),
        ("siegel", _fixture_with("siegel_cl2.json", grid=[10.0, 10.0, 10.0])),
        ("curvature", _fixture_with("residue_constant.json", t_values=[0.01, 0.01])),
        ("curvature", _fixture_with("residue_constant.json", t_values=[0.01, -0.01])),
        ("curvature", _fixture_with("residue_constant.json", t_values=[])),
        ("curvature", _fixture_with("orbit_weight2_caseC_expansion.json", taus=[1e-5] * 3)),
        ("curvature", _fixture_with("orbit_weight2_caseC_expansion.json", taus=[1e-5, 1e-6])),
        ("siegel", _fixture_with("siegel_cl2.json", grid=[1e10, 1.0000000000000002e10])),
        (
            "curvature",
            _fixture_with("residue_constant.json", t_values=[1e-300, 1.0000000000000002e-300]),
        ),
        (
            "curvature",
            _fixture_with(
                "orbit_weight2_caseC_expansion.json",
                taus=[1e-5, 1.0000000000000003e-5, 1.0000000000000008e-5],
            ),
        ),
        ("curvature", _fixture_with("residue_constant.json", coefficients={"-1,0": 1})),
        ("curvature", _fixture_with("residue_constant.json", coefficients={"-100000,0": 1})),
        ("curvature", _EXPANSION_NOT_HORIZONTAL),
        ("lmhs", _fixture_with("ncd_tetrahedron.json", kind="curvee")),
        ("lmhs", _fixture_with("ncd_tetrahedron.json", kind=5)),
        ("siegel", _SIEGEL_CONE_AT_TOP_LEVEL),
        ("curvature", _weight1_orbit_with_flag_level("2")),
        ("curvature", _weight1_orbit_with_flag_level("0")),
        ("curvature", _fixture_with("residue_constant.json", coefficients={"0,0": 1, "0, 0": 5})),
        ("curvature", _FLAG_LEVEL_KEY_REPEATED),
        ("curvature", _TWIST_NOT_NILPOTENT),
        ("curvature", _fixture_with("orbit_twisted_weight1.json", mode="limits")),
        ("positivity", _fixture_with("positivity_ndim.json", mode="rank")),
        ("siegel", _fixture_with("siegel_cl2.json", parabolic="middle")),
        ("curvature", _FLAG_WITHOUT_TOP_LEVEL),
        ("curvature", _FLAG_LEVEL_SHORT),
        (
            "curvature",
            _orbit_fixture_with(
                "orbit_twisted_weight1.json",
                twist={"kind": "exp_linear", "generator": [[[0.0, 0.0]] * 3] * 3},
            ),
        ),
        ("curvature", _fixture_with("orbit_weight2_caseC_expansion.json", ray=[{"power": 0.0}])),
        ("curvature", _fixture_with("orbit_weight2_caseC_expansion.json", ray=[{"power": -1.0}])),
        ("positivity", _triple_input(entries=[1, 0])),
        ("positivity", _triple_input(dim_u=3)),
        ("curvature", _FLAG_TOP_LEVEL_OUTSIDE),
    ],
    ids=[
        "residue-t-outside-disc",
        "residue-t-not-a-number",
        "residue-coefficient-not-a-number",
        "residue-coefficients-list",
        "limit-w0-not-a-pair",
        "limit-index-out-of-range",
        "limit-t-not-a-number",
        "expansion-ray-not-objects",
        "siegel-list",
        "siegel-family-length",
        "siegel-grid-not-a-number",
        "ndim-samples-not-an-integer",
        "sigma1-quadric-not-symmetric",
        "limit-t-point-length",
        "limit-t-zero",
        "limit-t-nan",
        "limit-index-not-an-integer",
        "limit-twist-not-an-object",
        "expansion-taus-outside-unit-interval",
        "expansion-ray-scale-zero",
        "residue-t-beyond-float-range",
        "expansion-cone-without-generators",
        "siegel-family-not-a-string",
        "siegel-family-bad-literal",
        "lmhs-triple-points-not-an-array",
        "lmhs-triple-point-not-an-array",
        "ndim-samples-fractional",
        "ndim-samples-zero",
        "identity-e-not-an-array",
        "identity-xi-length",
        "identity-e-xi-missing",
        "identity-metric-zero",
        "identity-metric-false",
        "identity-metric-empty-string",
        "identity-metric-empty-array",
        "residue-key-arabic-indic-digit",
        "siegel-family-arabic-indic-digit",
        "ndim-samples-underscore",
        "ndim-samples-arabic-indic-digit",
        "lmhs-curve-negative-genus",
        "lmhs-surface-negative-genus",
        "siegel-grid-one-point",
        "siegel-grid-one-distinct-value",
        "residue-t-one-distinct-value",
        "residue-t-one-distinct-modulus",
        "residue-t-empty",
        "expansion-taus-one-distinct-value",
        "expansion-taus-two-values",
        "siegel-grid-equal-logarithms",
        "residue-t-equal-logarithms",
        "expansion-taus-equal-rates",
        "residue-key-negative-exponent",
        "residue-key-large-negative-exponent",
        "expansion-flag-not-horizontal",
        "lmhs-kind-misspelled",
        "lmhs-kind-not-a-string",
        "siegel-cone-at-top-level",
        "flag-level-above-weight",
        "flag-level-zero",
        "residue-key-repeats-an-exponent-pair",
        "flag-level-key-repeats-a-level",
        "limit-twist-not-nilpotent",
        "curvature-mode-unknown",
        "positivity-mode-unknown",
        "siegel-parabolic-unknown",
        "flag-without-top-level",
        "flag-level-row-count",
        "limit-twist-generator-shape",
        "expansion-ray-power-zero",
        "expansion-ray-power-negative",
        "triple-entries-not-three-level",
        "triple-shape-inconsistent",
        "flag-top-level-outside-next",
    ],
)
def test_exit_code_schema_bad_float_input(tmp_path, capsys, subcommand, data):
    bad = tmp_path / "bad_input.json"
    bad.write_text(json.dumps(data))
    assert main([subcommand, "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    # Each input is refused for its value, not for a key its object lacks.
    assert "unknown field" not in err


def _limit_with_second_generator(t_sequence):
    """The limit fixture with a second generator (the block matrix of S = E_22
    beside the fixture's S = E_11), index [1] and the given points."""
    data = _fixture_with("orbit_twisted_weight1.json", t_sequence=t_sequence)
    e22 = [["0"] * 4 for _ in range(4)]
    e22[1][3] = "1"
    data["orbit"]["cone"]["generators"].append(e22)
    return data


# r_1 = (1, -3) under the indefinite metric [[2, 1], [1, 1/3]]: |r_1|^2 = -1.
_INDEFINITE_METRIC = {
    "mode": "identity",
    "triple": {
        "dim_t": 1, "dim_w": 1, "dim_u": 2, "entries": [[[1, -3]]],
        "metric": [["2", "1"], ["1", "1/3"]],
    },
    "e": [1],
    "xi": [1],
}


@pytest.mark.parametrize(
    "subcommand, data, error",
    [
        (
            "curvature",
            _fixture_with("orbit_twisted_weight1.json", index=[5], t_sequence=[[0.01]]),
            "index 5 out of range 1..1",
        ),
        (
            "curvature",
            _fixture_with("orbit_twisted_weight1.json", index=[0], t_sequence=[[0.01]]),
            "index 0 out of range 1..1",
        ),
        (
            "siegel",
            _fixture_with("siegel_cl2.json", parabolic="middle"),
            "parabolic must be 'minimal' or 'maximal', not 'middle'",
        ),
        (
            "siegel",
            _fixture_with("siegel_cl2.json", parabolic=["minimal"]),
            "parabolic must be 'minimal' or 'maximal', not ['minimal']",
        ),
        (
            "curvature",
            _fixture_with("residue_constant.json", t_values=[0.5, 2.0]),
            "t must satisfy 0 < |t| < 1 with 1/t finite, not 2.0",
        ),
        (
            "curvature",
            _fixture_with("residue_constant.json", t_values=[0.5, 5e-324]),
            "t must satisfy 0 < |t| < 1 with 1/t finite, not 5e-324",
        ),
        (
            "positivity",
            _INDEFINITE_METRIC,
            "metric must be positive definite: pivot 2 is -1/6",
        ),
        (
            "curvature",
            _limit_with_second_generator([[0.01, 0.5], [0.001, 0.25]]),
            "t_sequence moves t_2, a coordinate outside index [1]",
        ),
    ],
    ids=[
        "limit-index-above-range",
        "limit-index-zero",
        "siegel-parabolic-unknown",
        "siegel-parabolic-not-a-string",
        "residue-t-outside-disc",
        "residue-t-reciprocal-overflows",
        "identity-metric-indefinite",
        "limit-outer-coordinate-moves",
    ],
)
def test_refusals_name_the_refused_value(tmp_path, capsys, subcommand, data, error):
    """Each refusal is one error line, exit 2, naming the value it refuses;
    all but the last are made by the library, and the CLI only maps them.
    The last is the CLI's, and it reads coordinates outside index before the
    library reads index: the index rows hold one point, which moves nothing."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main([subcommand, "--input", str(bad), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_limit_with_fixed_outer_coordinate_reads_its_boundary(tmp_path):
    """index [1] with t_2 = 0.5 at every point: the boundary is the elliptic
    modulus i + l(0.5) of Gr W(N_1), whose curvature is -1/(4 (Im tau)^2)."""
    data = _limit_with_second_generator([[10.0**-k, 0.5] for k in range(2, 7)])
    (tmp_path / "in.json").write_text(json.dumps(data))
    code, report = run_cli(["curvature", "--input", str(tmp_path / "in.json")], tmp_path)
    assert code == 0
    im_tau = 1 + math.log(2) / (2 * math.pi)
    assert abs(report["report"]["boundary_value"] + 1 / (4 * im_tau**2)) < 1e-8
    assert report["report"]["decreasing"]


def _flag_scaled(name, factor):
    """The fixture with every flag entry multiplied by factor."""
    data = _fixture_with(name)
    flag = data["orbit"]["flag"]
    for level, rows in flag.items():
        flag[level] = [[[factor * x for x in entry] for entry in row] for row in rows]
    return data


@pytest.mark.parametrize(
    "name, factor, level",
    [("orbit_twisted_weight1.json", 1e200, 1), ("orbit_weight2_caseC_expansion.json", 1e300, 2)],
    ids=["limit", "expansion"],
)
def test_flag_beyond_the_float_range_exits_4_on_one_line(tmp_path, name, factor, level):
    """A flag level whose squared norm overflows is named, exit 4, with no
    numpy warning; before, the overflowed rank cutoff read it as dependent."""
    bad = tmp_path / "flag.json"
    bad.write_text(json.dumps(_flag_scaled(name, factor)))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hodgecharts.cli", "curvature", "--input", str(bad)]
        + ["--output", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4 and not out.exists()
    assert proc.stderr == f"error: the squared norm of F^{level} leaves the float range\n"


def _fixture_with_key(name, path, key, value=1):
    """The fixture as JSON text, with key set to value in the object at path."""
    data = _fixture_with(name)
    obj = data
    for step in path:
        obj = obj[step]
    obj[key] = value
    return json.dumps(data)


@pytest.mark.parametrize(
    "subcommand, text, error",
    [
        (
            "curvature",
            '{"mode": "residue", "coeficients": {"1,0": [1, 0]}, "t_value": [0.5, 0.25]}',
            "curvature input has unknown field 'coeficients'",
        ),
        (
            "curvature",
            '{"mode": "residue", "coefficients": {"0,0": [1, 0], "0,0": [5, 0]}}',
            "an input object repeats the key '0,0'",
        ),
        (
            "positivity",
            '{"mode": "ndim", "triple": {"dim_t": 1, "dim_w": 1, "dim_u": 1, "entries": [[[1]]]},'
            ' "sample": 5}',
            "positivity input has unknown field 'sample'",
        ),
        (
            "curvature",
            _fixture_with_key("orbit_twisted_weight1.json", ("orbit", "twist"), "generater"),
            "twist has unknown field 'generater'",
        ),
        (
            "curvature",
            _fixture_with_key("orbit_weight2_caseC_expansion.json", ("ray", 0), "scal"),
            "ray term has unknown field 'scal'",
        ),
        (
            "positivity",
            _fixture_with_key("positivity_ndim.json", ("triple",), "metrc", [[1, 0], [0, 1]]),
            "triple has unknown field 'metrc'",
        ),
        (
            "lmhs",
            _fixture_with_key("ncd_two_components.json", ("double_curves", 0), "genu"),
            "double curve has unknown field 'genu'",
        ),
        (
            "curvature",
            _fixture_with_key(
                "orbit_weight2_caseC_expansion.json",
                ("orbit", "twist"),
                "generator",
                [[[0, 0]] * 3] * 3,
            ),
            "twist has unknown field 'generator'",
        ),
    ],
    ids=[
        "residue-keys-misspelt",
        "residue-coefficient-key-repeated",
        "ndim-samples-misspelt",
        "twist-key-misspelt",
        "ray-term-key-misspelt",
        "triple-key-misspelt",
        "double-curve-key-misspelt",
        "generator-under-twist-kind-none",
    ],
)
def test_exit_code_schema_unknown_or_repeated_key(tmp_path, capsys, subcommand, text, error):
    """A key that no reader of its object declares, or a key written twice in
    one object, is one error line naming the key: before, the first kind was
    ignored and the second lost all but its last value, each with exit 0."""
    bad = tmp_path / "bad_key.json"
    bad.write_text(text)
    out = tmp_path / "out.json"
    assert main([subcommand, "--input", str(bad), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_charts_cone_not_strictly_convex_names_the_stratum(tmp_path, capsys):
    data = _fixture_with("single_cone.json")
    n = data["generators"][0]
    data["generators"] = [n, [[x if x == "0" else f"-{x}" for x in row] for row in n]]
    bad = tmp_path / "opposite.json"
    bad.write_text(json.dumps(data))
    assert main(["charts", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: stratum K=(1, 2): N_1 is not in W_-1(ad N_K), so S_K^perp does not vanish on K\n"
    )


@pytest.mark.parametrize(
    "raw",
    [b"[" + b"1" * 5000 + b"]", b"\xff\xfe{", b"[" * 100000],
    ids=["integer-beyond-digit-limit", "not-utf8", "nested-too-deep"],
)
def test_exit_code_schema_unreadable_json(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert main(["charts", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "literal",
    ["-1e3000000", "1.5", "\u0663/\u0664", "\u0663", "1_000", "1/2_0"],
    ids=["exponent", "decimal", "arabic-indic-fraction", "arabic-indic-integer",
         "underscore", "underscore-denominator"],
)
def test_exit_code_schema_bad_rational_literal(tmp_path, capsys, literal):
    """Only "p/q" and "p" with ASCII digits are rationals: an exponent is
    rejected before Fraction would expand it exactly, and other scripts'
    digits and underscores, which int() and Fraction accept, are rejected."""
    data = _fixture_with("genus2_cone.json")
    data["generators"][0][0][0] = literal
    bad = tmp_path / "bad_rational.json"
    bad.write_text(json.dumps(data))
    assert main(["charts", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"bad rational literal {literal!r}" in err


def test_exit_code_size_cap(tmp_path, monkeypatch):
    import hodgecharts.cones as cones_mod

    monkeypatch.setattr(cones_mod, "MAX_GENERATORS", 2)
    assert main(["charts", "--input", str(FIXTURES / "genus2_cone.json")]) == 3


def test_exit_code_residue_exponent_cap(tmp_path, capsys):
    """Residue-mode exponents are capped at the documented input bound."""
    data = _fixture_with("residue_constant.json", coefficients={"2000000,0": 1.0})
    bad = tmp_path / "residue_degree.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(["curvature", "--input", str(bad), "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:") and not out.exists()


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("field", ["genus", "h2"])
def test_exit_code_lmhs_size_cap(tmp_path, field):
    """Declared cohomology dimensions and genera size the lmhs matrices, so
    their sums are capped.  The CLI runs as a child under a timeout and a
    1 GiB address-space limit, so a regression fails fast."""
    data = _fixture_with("ncd_two_components.json")
    if field == "genus":
        data["double_curves"][0]["genus"] = 620721
    else:
        data["components"][0]["h"][2] = 10**30
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hodgecharts.cli", "lmhs", "--input", str(bad), "--output", out],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and not out.exists()


@pytest.mark.parametrize("samples, code", [(10**9, 3), (1000, 0)], ids=["above-cap", "at-cap"])
def test_exit_code_ndim_samples_cap(tmp_path, samples, code):
    """ndim mode takes one rank per sample, so the sample count is capped.
    The CLI runs as a child under a timeout, so a regression fails fast."""
    data = _fixture_with("positivity_ndim.json", samples=samples)
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hodgecharts.cli", "positivity", "--input", str(path), "--output", out],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code
    if code:
        assert proc.stderr.startswith("error:") and not out.exists()
    else:
        assert json.loads(out.read_text())["report"]["numerical_dimension"] == 3


def test_exit_code_numeric(tmp_path):
    data = json.loads((FIXTURES / "orbit_twisted_weight1.json").read_text())
    data["t_sequence"] = [[1.0]]  # boundary of the disc: not polarized
    bad = tmp_path / "numeric.json"
    bad.write_text(json.dumps(data))
    assert main(["curvature", "--input", str(bad)]) == 4


def _top_level_with_repeated_column(name, level):
    """The orbit fixture with the first column of its flag level repeated as
    a last column."""
    data = _fixture_with(name)
    flag = data["orbit"]["flag"]
    flag[level] = [row + [row[0]] for row in flag[level]]
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        (
            _top_level_with_repeated_column("orbit_twisted_weight1.json", "1"),
            "F^1 has dependent columns: rank 2 of 3, column(s) 3 in the span of the others",
        ),
        (
            _top_level_with_repeated_column("orbit_weight2_caseC_expansion.json", "2"),
            "F^2 has dependent columns: rank 1 of 2, column(s) 2 in the span of the others",
        ),
    ],
    ids=["limit", "expansion"],
)
def test_dependent_top_flag_columns_are_named(tmp_path, capsys, data, message):
    """A repeated column of F^n is named as the cause, on one error line with
    exit 4, in limit mode (not "meets a weight level below the center") and
    in expansion mode (not "not positive definite")."""
    bad = tmp_path / "dependent.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(["curvature", "--input", str(bad), "--output", str(out)]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, data",
    [
        ("siegel", _fixture_with("siegel_cl2.json", family="y=(T^400,1)")),
        ("siegel", _fixture_with("siegel_cl3.json", cone={"p": [0, 5e-324], "q": [1, 0], "r": [0, 0]})),
        # p(y) = 5e-324 puts e^{2(a-d)} = q/p beyond the float range.
        (
            "siegel",
            _fixture_with("siegel_cl2.json", cone={"p": [0, 5e-324], "q": [1, 0], "r": [0, 0]}),
        ),
        # r^2 = pq in decimals: at T = 100, pq - r^2 rounds to 3.6e-12 > 0, but
        # the Cholesky factor's last square rounds below 0.
        (
            "siegel",
            {
                "cone": {"p": [0.4], "q": [4.9], "r": [1.4]},
                "family": "y=(T)",
                "parabolic": "maximal",
                "grid": [100, 1000],
            },
        ),
    ],
    ids=[
        "siegel-family-overflows",
        "siegel-monitored-overflows",
        "siegel-minimal-monitored-overflows",
        "siegel-discriminant-lost-to-rounding",
    ],
)
def test_exit_code_numeric_float_range(tmp_path, capsys, subcommand, data):
    bad = tmp_path / "numeric.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main([subcommand, "--input", str(bad), "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error:") and not out.exists()


def test_residue_overflow_exits_4_on_one_line(tmp_path):
    """|g|^2 beyond the float range: one error line naming t, exit 4, and no
    numpy warning on stderr."""
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps({"mode": "residue", "coefficients": {"0,0": 1e308}}))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hodgecharts.cli", "curvature", "--input", str(bad)]
        + ["--output", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4 and not out.exists()
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "t = 0.01" in lines[0]
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def _twist_overflow():
    """A nilpotent twist entry of 1e300, which commutes with N, at w0 = 1e10:
    w xi leaves the float range."""
    data = _fixture_with("orbit_twisted_weight1.json", w0=[1e10, 0.0])
    data["orbit"]["twist"]["generator"][1][3] = [1e300, 0.0]
    return data


def _twist_hidden_semisimple_part():
    """1000 E_02 + diag(0, 3, 0, 3) passes the nilpotency test (its xi^4 is
    8.1e-11 times 1000^4) but has the eigenvalue 3, so exp(w xi) is no finite
    series."""
    data = _fixture_with("orbit_twisted_weight1.json")
    xi = [[0.0] * 4 for _ in range(4)]
    xi[0][2], xi[1][1], xi[3][3] = 1000.0, 3.0, 3.0
    data["orbit"]["twist"]["generator"] = [[[x, 0.0] for x in row] for row in xi]
    return data


@pytest.mark.parametrize(
    "make, message",
    [
        (_twist_overflow, "leaves the float range"),
        (_twist_hidden_semisimple_part, "is not its finite series"),
    ],
    ids=["overflow", "hidden-semisimple-part"],
)
def test_twist_exits_4_on_one_line(tmp_path, make, message):
    """One error line naming w, exit 4, and no numpy warning on stderr."""
    bad = tmp_path / "twist.json"
    bad.write_text(json.dumps(make()))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hodgecharts.cli", "curvature", "--input", str(bad)]
        + ["--output", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4 and not out.exists()
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: twist exp(w xi) at w = ")
    assert message in lines[0]
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_residue_slope_overflow_exits_4_on_one_line(tmp_path):
    """Both integrals are finite (about 6e306 and 1.3e307), but the exact slope
    2 pi 1e308 of the two points is beyond the float range: one error line
    naming the slope, exit 4, and no traceback."""
    bad = tmp_path / "overflow.json"
    bad.write_text(
        json.dumps({"mode": "residue", "coefficients": {"0,0": 1e154}, "t_values": [0.99, 0.98]})
    )
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hodgecharts.cli", "curvature", "--input", str(bad)]
        + ["--output", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4 and not out.exists()
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "slope" in lines[0]
    assert "Traceback" not in proc.stderr


def test_poor_fit_error_names_the_tol(tmp_path, capsys):
    """An expansion fit beyond FIT_TOL exits 4 on one line naming residual and
    threshold.  The genus-2 orbit with t_2 = t_3 = 1/2 held fixed (tau^1e-300
    rounds to 1) and taus far from 0 fits no growth order."""
    half = {"scale": 0.5, "power": 1e-300}
    data = {
        "mode": "expansion",
        "orbit": {
            "cone": _fixture_with("genus2_cone.json"),
            "flag": {"1": [[0, 0], [0, 0], [1, 0], [0, 1]]},
        },
        "ray": [{}, half, half],
        "taus": [0.9, 0.7, 0.5],
    }
    bad = tmp_path / "poor_fit.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(["curvature", "--input", str(bad), "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: best growth fit has residual \S+ > threshold 0\.01\n", err)
    assert not out.exists()


def test_exit_code_non_finite_report(tmp_path, monkeypatch, capsys):
    """A NaN or an infinity in a report is a numeric failure, not invalid JSON."""
    import hodgecharts.cli as cli

    monkeypatch.setitem(cli._RUNNERS, "charts", lambda data, args: ({"x": math.inf}, [], []))
    out = tmp_path / "out.json"
    assert main(["charts", "--input", str(FIXTURES / "genus2_cone.json"), "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error:") and not out.exists()


def test_console_entry_point(tmp_path):
    out = tmp_path / "o.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hodgecharts.cli",
            "siegel",
            "--input",
            str(FIXTURES / "siegel_cl3.json"),
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["report"]["verdict"] == "escapes-every-Siegel-set"


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    """Every command of the README's CLI block runs, from the repository root,
    with exit 0; its CSV goes under tmp_path."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("hodgecharts ")]
    assert len(commands) >= 5
    monkeypatch.chdir(ROOT)
    for _, *argv in commands:
        if "--csv" in argv:
            at = argv.index("--csv") + 1
            argv[at] = str(tmp_path / Path(argv[at]).name)
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""


# The README's JSON examples, in order, and the subcommand each is an input of.
README_EXAMPLE_SUBCOMMANDS = [
    "charts", "lmhs", "lmhs", "curvature", "curvature", "siegel", "positivity"
]


def test_readme_json_examples_run(tmp_path, capsys):
    """Every JSON example of the README is a complete input that runs with
    exit 0: none holds a key its objects do not declare."""
    readme = (ROOT / "README.md").read_text()
    examples = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
    assert len(examples) == len(README_EXAMPLE_SUBCOMMANDS)
    for subcommand, text in zip(README_EXAMPLE_SUBCOMMANDS, examples):
        example = tmp_path / "example.json"
        example.write_text(text)
        args = [subcommand, "--input", str(example), "--output", str(tmp_path / "out.json")]
        assert main(args) == 0, text
        assert capsys.readouterr().err == ""


# The inline inputs of the CI workflow: subcommand and expected exit code.
CI_INPUTS = {
    "residue_degree_1000.json": ("curvature", 0),
    "residue_close_t.json": ("curvature", 0),
    "malformed.json": ("positivity", 2),
    "many_samples.json": ("positivity", 3),
    "one_point.json": ("siegel", 2),
    "tiny_p.json": ("siegel", 4),
    "residue_overflow.json": ("curvature", 4),
    "negative_exponent.json": ("curvature", 2),
    "opposite_cone.json": ("charts", 2),
    "not_horizontal.json": ("curvature", 2),
    "falsy_metric.json": ("positivity", 2),
    "misspelt_key.json": ("curvature", 2),
    "repeated_key.json": ("curvature", 2),
    "indefinite_metric.json": ("positivity", 2),
    "no_generator.json": ("curvature", 2),
}
# The CI inputs whose refusal is their key, and the error naming it.
CI_KEY_ERRORS = {
    "misspelt_key.json": "error: curvature input has unknown field 'coeficients'\n",
    "repeated_key.json": "error: an input object repeats the key '0,0'\n",
}


def test_ci_inline_inputs_exit_as_expected(tmp_path, capsys):
    """Each JSON input the CI workflow writes inline exits with the code CI
    expects, with one error line; only the two written to test it fail on a key."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    written = re.findall(r"echo '(.*)' > (\S+\.json)$", workflow, re.M)
    inputs = {name: text for text, name in written}
    assert inputs.keys() == CI_INPUTS.keys()
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
        subcommand, code = CI_INPUTS[name]
        args = [subcommand, "--input", str(tmp_path / name), "--output", str(tmp_path / "out.json")]
        assert main(args) == code, name
        err = capsys.readouterr().err
        if name in CI_KEY_ERRORS:
            assert err == CI_KEY_ERRORS[name]
        elif code:
            assert re.fullmatch(r"error: [^\n]*\n", err), name
            assert not re.search("unknown field|missing field|repeats the key", err), name
        else:
            assert err == ""


def test_generated_benchmark_cones_pass_the_cone_reader():
    """The cones perfbench's charts workloads generate (one round each, and
    the warm-up cone) hold only the keys a cone declares.  The 16 fixtures
    are read in test_fixture_digests, which requires exit 0 for each."""
    from hodgecharts.serialize import cone_from_json

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in (workloads.charts_wide(), workloads.charts_deep()):
        cones = [make(random.Random(0)) for make in workload.mix] + [workload.warm_up_input]
        for data in cones:
            assert cone_from_json(data).k == len(data["generators"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "sink, unbuffered",
    [("full", False), ("full", True), ("closed-pipe", False)],
    ids=["dev-full", "dev-full-unbuffered", "closed-pipe"],
)
@pytest.mark.parametrize(
    "subcommand, fixture", [("siegel", "siegel_cl2.json"), ("charts", "genus2_cone.json")]
)
def test_failed_stdout_write_exits_2(subcommand, fixture, sink, unbuffered):
    """A report that stdout cannot take (ENOSPC on /dev/full, EPIPE on a pipe
    whose reader is gone) is one error line and exit 2, like an unwritable
    --output.  Buffered, the short siegel report fails only when flushed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "full":
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        reader, stdout = os.pipe()
        os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hodgecharts.cli", subcommand, "--input", str(FIXTURES / fixture)],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(stdout)
    errno = 28 if sink == "full" else 32
    assert proc.returncode == 2, proc.stderr
    assert re.fullmatch(rf"error: cannot write output: \[Errno {errno}\] [^\n]*\n", proc.stderr)

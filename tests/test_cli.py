import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from hodgecharts.cli import main, parse_family

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
        ("curvature", "orbit_weight2_caseC_expansion.json", "--csv", "f.csv"),
    ],
    ids=["charts-jobs", "charts-tol", "lmhs-csv", "residue-tol", "expansion-csv"],
)
def test_rejected_flag(tmp_path, capsys, subcommand, fixture, flag, value):
    """A flag that the subcommand (or its input's mode) does not read exits 2."""
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


def test_siegel_flag_overrides(tmp_path):
    code, report = run_cli(
        [
            "siegel",
            "--input",
            str(FIXTURES / "siegel_cl2.json"),
            "--family",
            "y=(1,T)",
            "--parabolic",
            "minimal",
        ],
        tmp_path,
    )
    assert code == 0
    assert report["report"]["verdict"] == "contained"  # reversed family stays inside


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


@pytest.mark.parametrize(
    "field, value",
    [("dim", "x"), ("dim", [4]), ("weight", "one"), ("weight", 1.5), ("generators", 5)],
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
    """The ndim fixture's triple (dim_t = dim_w = 2) in identity mode."""
    return _fixture_with("positivity_ndim.json", mode="identity", **fields)


_EXPANSION_WITHOUT_GENERATORS = _fixture_with("orbit_weight2_caseC_expansion.json")
_EXPANSION_WITHOUT_GENERATORS["orbit"]["cone"]["generators"] = []


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
    ],
)
def test_exit_code_schema_bad_float_input(tmp_path, capsys, subcommand, data):
    bad = tmp_path / "bad_input.json"
    bad.write_text(json.dumps(data))
    assert main([subcommand, "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


@pytest.mark.parametrize("literal", ["-1e3000000", "1.5"], ids=["exponent", "decimal"])
def test_exit_code_schema_bad_rational_literal(tmp_path, capsys, literal):
    """Only "p/q" and "p" are rationals: an exponent is rejected before
    Fraction would expand it exactly."""
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
    """The largest exponent sizes the residue quadrature, so it is capped."""
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


def test_exit_code_numeric(tmp_path):
    data = json.loads((FIXTURES / "orbit_twisted_weight1.json").read_text())
    data["t_sequence"] = [[1.0]]  # boundary of the disc: not polarized
    bad = tmp_path / "numeric.json"
    bad.write_text(json.dumps(data))
    assert main(["curvature", "--input", str(bad)]) == 4


@pytest.mark.parametrize(
    "subcommand, data",
    [
        ("siegel", _fixture_with("siegel_cl2.json", family="y=(T^400,1)")),
        ("siegel", _fixture_with("siegel_cl3.json", cone={"p": [0, 5e-324], "q": [1, 0], "r": [0, 0]})),
    ],
    ids=["siegel-family-overflows", "siegel-monitored-overflows"],
)
def test_exit_code_numeric_float_range(tmp_path, capsys, subcommand, data):
    bad = tmp_path / "numeric.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main([subcommand, "--input", str(bad), "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error:") and not out.exists()


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

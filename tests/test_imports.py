"""Import hygiene: each subcommand loads only the hodgecharts modules it runs,
the exact subcommands, the Siegel probe and residue mode load neither numpy
nor scipy, limit mode loads numpy but no scipy (its exponentials are finite
series), only expansion mode loads scipy, no exact subcommand loads
dataclasses or inspect, only charts loads the filtration code, and importing
the package loads no submodule and binds no public name but ``__version__``:
each public name has one import path, its defining submodule.

The checks run in a fresh interpreter, because the test process has numpy
and the submodules loaded already and would hide an eager import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# Modules that only some subcommands run.
RUNNER_MODULES = ("charts", "cones", "ncd", "positivity", "metrics", "residue", "siegel", "gallery")


def unused(*libraries, runs=()):
    return libraries + tuple(f"hodgecharts.{m}" for m in RUNNER_MODULES if m not in runs)


@pytest.mark.parametrize(
    "subcommand, fixture, absent",
    [
        ("charts", "genus2_cone.json", unused("numpy", "scipy", runs=("charts", "cones"))),
        ("lmhs", "ncd_tetrahedron.json", unused("numpy", "scipy", runs=("ncd",))),
        ("positivity", "positivity_sigma1.json", unused("numpy", "scipy", runs=("positivity",))),
        ("siegel", "siegel_cl2.json", unused("numpy", "scipy", runs=("siegel",))),
        ("curvature", "residue_constant.json", unused("numpy", "scipy", runs=("residue",))),
        ("curvature", "orbit_twisted_weight1.json", unused("scipy", runs=("metrics", "residue"))),
        *(
            ("siegel", fixture, unused("numpy", "scipy", runs=("siegel",)))
            for fixture in (
                "siegel_cl2_swapped.json",
                "siegel_cl3.json",
                "siegel_cl3_swapped.json",
                "siegel_one_variable.json",
            )
        ),
        # The records need neither dataclasses nor inspect, and only a cone
        # needs the filtration code.
        ("charts", "genus2_cone.json", ("dataclasses", "inspect")),
        *(
            (subcommand, fixture, ("dataclasses", "inspect", "hodgecharts.filtrations"))
            for subcommand, fixture in (
                ("lmhs", "ncd_tetrahedron.json"),
                ("positivity", "positivity_sigma1.json"),
                ("siegel", "siegel_cl2.json"),
                ("siegel", "siegel_cl2_swapped.json"),
                ("siegel", "siegel_cl3.json"),
                ("siegel", "siegel_cl3_swapped.json"),
                ("siegel", "siegel_one_variable.json"),
            )
        ),
        # Expansion mode may load scipy: expansion_fit keeps scipy's expm, whose
        # rounding the benchmark's digest of the fit residual records.
        ("curvature", "orbit_weight2_caseC_expansion.json", unused(runs=("metrics", "residue"))),
    ],
)
def test_subcommand_loads_no_unused_float_library(subcommand, fixture, absent):
    code = f"""
import os, sys
import hodgecharts.cli as cli
args = [{subcommand!r}, "--input", {str(ROOT / "fixtures" / fixture)!r}, "--output", os.devnull]
assert cli.main(args) == 0
print(sorted(m for m in {absent!r} if m in sys.modules))
"""
    assert run_fresh(code) == "[]"


def test_package_import_loads_and_binds_nothing_else():
    code = """
import sys
import hodgecharts
loaded = [m for m in sys.modules if m.startswith("hodgecharts.") or m in ("numpy", "scipy")]
public = [n for n in vars(hodgecharts) if not n.startswith("_")]
print(sorted(loaded), sorted(public), hodgecharts.__version__)
"""
    assert run_fresh(code) == "[] [] 0.1.0"


def test_siegel_module_loads_no_linear_algebra():
    """The probe runs in plain floats: its module loads neither numpy nor the
    exact linear algebra."""
    code = """
import sys
import hodgecharts.siegel
print(sorted(m for m in ("numpy", "hodgecharts.linalg") if m in sys.modules))
"""
    assert run_fresh(code) == "[]"

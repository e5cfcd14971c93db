"""Import hygiene: each subcommand loads only the hodgecharts modules it runs,
the exact subcommands and the Siegel probe load neither numpy nor scipy, only
the curvature modes that exponentiate load scipy, no exact subcommand loads
dataclasses or inspect, only charts loads the filtration code, and the
package's lazy namespace resolves every public name.

The subcommand checks run in a fresh interpreter, because the test process has
numpy loaded already and would hide an eager import.
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
RUNNER_MODULES = ("charts", "cones", "ncd", "positivity", "metrics", "siegel", "gallery")


def unused(*libraries, runs=()):
    return libraries + tuple(f"hodgecharts.{m}" for m in RUNNER_MODULES if m not in runs)


@pytest.mark.parametrize(
    "subcommand, fixture, absent",
    [
        ("charts", "genus2_cone.json", unused("numpy", "scipy", runs=("charts", "cones"))),
        ("lmhs", "ncd_tetrahedron.json", unused("numpy", "scipy", runs=("ncd",))),
        ("positivity", "positivity_sigma1.json", unused("numpy", "scipy", runs=("positivity",))),
        ("siegel", "siegel_cl2.json", unused("numpy", "scipy", runs=("siegel",))),
        ("curvature", "residue_constant.json", unused("scipy", runs=("metrics",))),
        ("curvature", "orbit_twisted_weight1.json", unused(runs=("metrics",))),
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


def test_public_names_resolve():
    code = """
import hodgecharts
unresolved = [n for n in hodgecharts.__all__ if not hasattr(hodgecharts, n)]
namespace = {}
exec("from hodgecharts import *", namespace)
unbound = [n for n in hodgecharts.__all__ if namespace.get(n) is not getattr(hodgecharts, n)]
print(unresolved, unbound, hasattr(hodgecharts, "no_such_name"), hodgecharts.__version__)
"""
    assert run_fresh(code) == "[] [] False 0.1.0"


def test_package_names_follow_submodule_rebinding(monkeypatch):
    import hodgecharts
    import hodgecharts.linalg as linalg

    replacement = object()
    monkeypatch.setattr(linalg, "kernel", replacement)
    assert hodgecharts.kernel is replacement
    monkeypatch.undo()
    assert hodgecharts.kernel is linalg.kernel


def test_siegel_module_loads_no_linear_algebra():
    """The probe runs in plain floats: its module loads neither numpy nor the
    exact linear algebra."""
    code = """
import sys
import hodgecharts.siegel
print(sorted(m for m in ("numpy", "hodgecharts.linalg") if m in sys.modules))
"""
    assert run_fresh(code) == "[]"

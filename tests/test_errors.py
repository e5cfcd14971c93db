"""The library refuses an argument with errors.InvalidInput, which carries exit
code 2 and is also a ValueError; cli.main is the one place that turns it into
an exit code."""

import ast
from pathlib import Path

import pytest

from hodgecharts.errors import HodgeChartsError, InvalidInput
from hodgecharts.siegel import ConeSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "hodgecharts"


def _raised_names(tree: ast.AST):
    """The name of each raised class: `raise X(...)` and `raise X` alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_no_module_raises_a_bare_value_error():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _raised_names(ast.parse(path.read_text()))
        if name == "ValueError"
    ]
    assert found == []


def test_the_guard_sees_both_raise_forms():
    tree = ast.parse("def f():\n    raise ValueError('x')\n\ndef g():\n    raise ValueError\n")
    assert [name for _, name in _raised_names(tree)] == ["ValueError", "ValueError"]


def test_invalid_input_is_a_value_error_with_exit_code_2():
    assert issubclass(InvalidInput, HodgeChartsError) and issubclass(InvalidInput, ValueError)
    assert InvalidInput.exit_code == 2
    with pytest.raises(ValueError, match=r"^p_1, q_1 must be nonnegative$"):
        ConeSpec([-1], [1], [0])

"""The CLI's exit-code contract under mutated input: every shipped fixture with
one value replaced by an arbitrary JSON value exits 0, 2, 3 or 4, lets no
exception escape, and gives byte-identical output on a second run.

tests/test_cli_fuzz.py runs this module as a script in a child process with a
bounded address space; it exits 0 when every example passes.  The
fixture-to-subcommand table is the benchmark's (perfbench/workloads.py), as in
tests/test_fixture_digests.py.  Examples are derandomized from the name and
body of the example function, so it runs the same inputs every time.
"""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hodgecharts.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

FIXTURES = {
    name: json.loads((ROOT / "fixtures" / name).read_text()) for name in sorted(workloads.FIXTURES)
}

# Small integers reach the in-range branches; huge ones test that every
# declared size (cohomology dimensions, genera, sample counts) is capped.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-100, 100),
    st.integers(-10**18, 10**18),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(),
    st.text(max_size=6),
    st.just([]),
    st.just({}),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def value_paths(value, path=()):
    """Every path (a tuple of keys and indices) to a value inside a document."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from value_paths(child, path + (key,))


def replaced(document, path, value):
    if not path:
        return value
    out = copy.deepcopy(document)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def run(subcommand, input_path, output_path):
    """(exit code, stdout, stderr, report bytes) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([subcommand, "--input", str(input_path), "--output", str(output_path)])
    report = output_path.read_bytes() if output_path.exists() else None
    output_path.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), report


@settings(
    derandomize=True,
    deadline=None,
    max_examples=250,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_fixture_keeps_exit_code_contract(data):
    name = data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")
    document = FIXTURES[name]
    path = data.draw(st.sampled_from(list(value_paths(document))), label="path")
    mutated = replaced(document, path, data.draw(VALUES, label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        input_path, output_path = Path(tmp) / "input.json", Path(tmp) / "report.json"
        input_path.write_text(json.dumps(mutated))
        first = run(workloads.FIXTURES[name], input_path, output_path)
        second = run(workloads.FIXTURES[name], input_path, output_path)
    code, _, err, report = first
    assert code in (0, 2, 3, 4)
    assert (report is not None) == (code == 0)
    if code:
        assert err.startswith("error:") and "Traceback" not in err
    assert first == second


if __name__ == "__main__":
    test_mutated_fixture_keeps_exit_code_contract()

"""Every shipped fixture's CLI report matches the digest recorded with the
benchmark (perfbench/cli_digests.json), so reports stay byte-identical from one
change to the next.  The subcommand table and the digest function are the
benchmark's own (perfbench/workloads.py)."""

import json
import sys
from pathlib import Path

import pytest

from hodgecharts.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

RECORDED = json.loads(workloads.DIGESTS_FILE.read_text())


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "fixtures").glob("*.json")))
def test_fixture_report_matches_recorded_digest(tmp_path, name):
    out = tmp_path / "report.json"
    args = [workloads.FIXTURES[name], "--input", str(ROOT / "fixtures" / name)]
    assert main(args + ["--output", str(out)]) == 0
    assert workloads.cli_report_digest(json.loads(out.read_text())) == RECORDED[name]

"""The mutated-fixture fuzz examples of tests/cli_fuzz_examples.py, run in one
child process under a 1 GiB address-space limit, so that a declared size that
escapes every cap fails the test with MemoryError instead of exhausting the
machine's memory."""

import os
import subprocess
import sys
from pathlib import Path

from .test_cli import _limit_address_space

ROOT = Path(__file__).resolve().parent.parent


def test_mutated_fixture_keeps_exit_code_contract():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tests" / "cli_fuzz_examples.py")],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""A cold ``analyze``/``check``/``lint`` process loads only what it runs.

Each test starts a fresh interpreter, notes the modules the interpreter
itself loaded, then imports ``repro.cli`` (and runs one subcommand through
``runpy``, exactly as ``python -m repro.cli`` would) and lists which of the
guarded modules the toolchain pulled in.  The guarded set is the serve,
batch, pool and simulator stack plus what they import (an event loop, TLS,
process pools) and numpy, none of which a one-file analysis executes.  The
serve, batch and simulate tests cover that the deferred paths still work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

GUARDED = (
    "numpy",
    "asyncio",
    "ssl",
    "multiprocessing",
    "concurrent.futures",
    "repro.pipeline.serve",
    "repro.pipeline.pool",
    "repro.pipeline.batch",
    "repro.semantics.simulator",
)

CHILD = """
import json, runpy, sys
before = set(sys.modules)
argv, guarded = json.loads(sys.argv[1]), json.loads(sys.argv[2])
import repro.cli
status = None
if argv:
    sys.argv = ["vhdl-ifa", *argv]
    try:
        runpy.run_module("repro.cli", run_name="__main__")
    except SystemExit as done:
        status = done.code
loaded = [name for name in guarded if name in sys.modules and name not in before]
print(json.dumps({"status": status, "loaded": loaded}), file=sys.stderr)
"""


def _run_child(argv):
    """``(stdout, exit status of the subcommand, guarded modules loaded)``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv), json.dumps(GUARDED)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stderr.strip().splitlines()[-1])
    return done.stdout, report["status"], report["loaded"]


def test_importing_the_cli_loads_no_guarded_module():
    assert _run_child([])[2] == []


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["check", "--secret", "a"], ["lint"]],
    ids=["analyze", "check", "lint"],
)
def test_cold_subcommand_loads_no_guarded_module(tmp_path, argv):
    design = tmp_path / "design.vhd"
    design.write_text(workloads.producer_consumer_program(), encoding="utf-8")
    stdout, status, loaded = _run_child([*argv, "--json", str(design)])
    assert status == 0
    assert json.loads(stdout)["command"] == argv[0]
    assert loaded == []

"""The quick examples under ``examples/`` must keep running end to end.

Each is run as its own interpreter, exactly as its docstring says
(``python examples/<name>.py``), with ``src`` on the import path.  The
slower examples (ML training, policy sweeps) are not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"


@pytest.mark.parametrize(
    "name",
    ["quickstart", "autocache", "custom_policy", "dfsio_throughput", "fault_tolerance"],
)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

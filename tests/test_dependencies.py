"""The package runs on the standard library alone (no runtime dependencies)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "repro.cli",
    "repro.gpusim.gpu",
    "repro.serve.state",
    "repro.core.snake",
)


def test_entry_points_do_not_import_numpy():
    """A fresh interpreter that imports the CLI, the simulator, the serve
    state machine and the Snake learner never loads numpy."""
    script = (
        "import sys\n"
        + "".join("import %s\n" % name for name in ENTRY_POINTS)
        + "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

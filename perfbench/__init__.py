"""perfbench: the repository's benchmark.

It drives the simulator (``repro.gpusim`` with the Snake learner in
``repro.core``) and the online service core (``repro.serve.state``)
through their public APIs, checks every output against committed
digests, and reports end-to-end and per-layer metrics.  Entry points:

* ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
  measures one workload in one process (see ``BENCHMARK.json``);
* ``python -m perfbench run|compare|digests`` runs every workload, compares
  two result files, or recomputes the committed digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The checkout this package sits in.
ROOT = Path(__file__).resolve().parent.parent
#: The benchmark's definition: command, workloads, metrics and bounds.
SPEC = ROOT / "BENCHMARK.json"


def run_seconds() -> float:
    """How long one run measures, as ``BENCHMARK.json`` sets it."""
    return float(json.loads(SPEC.read_text())["run_seconds"])


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere.

    Exits with status 2 when the checkout has no ``src/repro``: there is
    nothing to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro under %s; nothing to measure" % ROOT, file=sys.stderr)
        sys.exit(2)
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))

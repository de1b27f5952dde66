"""Measure one workload: the command named in BENCHMARK.json.

    python3 perfbench/run.py --workload quickstart-snake --seed 1 --seconds 10 --trace 0

Prints each metric as ``name value unit``, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 when an output was wrong and 2 when the checkout
holds no ``src/repro`` to measure.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Run as a script: make the ``perfbench`` package importable from the
    # checkout root instead of this directory.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    from perfbench.measure import main

    sys.exit(main())

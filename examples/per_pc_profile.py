#!/usr/bin/env python
"""Per-PC prefetch profile: find exactly which loads Snake covers.

For each static load PC of a benchmark, prints the access count, hit rate
and how much of it the prefetcher covered (and covered *in time*).  Useful
when a workload underperforms — the uncovered PCs are the ones the Tail
table failed to learn (e.g. histo's data-dependent bin reads).

Run with::

    python examples/per_pc_profile.py             # histo under Snake
    python examples/per_pc_profile.py lps mta     # any app/mechanism
"""

import sys

from repro.obs.runner import traced_run
from repro.workloads import BENCHMARKS


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "histo"
    mechanism = sys.argv[2] if len(sys.argv) > 2 else "snake"
    if app not in BENCHMARKS:
        raise SystemExit("unknown app %r; choose from %s" % (app, BENCHMARKS))

    print("per-PC profile: app=%s mechanism=%s" % (app, mechanism))
    result = traced_run(app, mechanism, scale=1.0, seed=7, chrome=False)
    rows = result.pc_metrics.pcs_by_accesses()
    for row in rows:
        print("  pc=%-8s n=%6d hit=%5.1f%% covered=%5.1f%% timely=%5.1f%%" % (
            hex(row.pc), row.accesses, 100 * row.hit_rate,
            100 * row.coverage, 100 * row.timely / max(row.accesses, 1),
        ))
    total = sum(r.accesses for r in rows)
    covered = sum(r.covered for r in rows)
    print("overall coverage: %.1f%% of %d demand loads"
          % (100 * covered / total if total else 0.0, total))


if __name__ == "__main__":
    main()

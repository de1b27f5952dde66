"""Cycle-accounting rules (SL3xx).

The cycle-accurate model has exactly one place where simulated time moves:
the SM's event loop (``__init__`` initialises the clock, ``step_event``
advances it, ``reset`` rewinds it).  A stray ``self.now += n`` in a cache or
prefetcher would silently skew every latency in the run, so SL301 pins
clock writes to the designated advance methods.

SL302 guards the statistics the figures are built from: ``SimStats`` /
``PrefetchStats`` are plain dataclasses, so a typo'd counter name
(``stats.l1_hit`` for ``stats.l1_hits``) would *create* a fresh attribute
at runtime instead of failing — a counter the conservation auditor
(``SimStats.verify``) never sees.  Every stats write must target a
declared field.

SL303 protects the skip-ahead performance model (docs/PERFORMANCE.md):
memory-side components are functional — they take a timestamp and return
one (next-free-time resources) — and only the event core in
``repro/gpusim/sm.py`` / ``gpu.py`` may crank a clock cycle-by-cycle.  A
``self.now += 1`` creeping into a cache or DRAM model would reintroduce
per-cycle polling and silently destroy the event core's wall-clock wins,
so the rule forbids additive clock advancement outside the core outright.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from .engine import RepoContext, Rule
from .findings import Finding

#: the only methods allowed to move a component clock
ADVANCE_METHODS = ("__init__", "step_event", "reset")

#: attribute names that *are* component clocks in this codebase
_CLOCK_ATTRS = ("now", "cycle")

#: the only modules allowed to crank a clock with ``+=`` — the event core
EVENT_CORE_MODULES = ("gpusim/sm.py", "gpusim/gpu.py")


class CycleAdvanceRule(Rule):
    """SL301: simulated time advances only inside designated methods."""

    id = "SL301"
    title = "clock written outside a designated advance method"
    packages = ("repro.gpusim", "repro.core", "repro.prefetch")

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        findings: List[Finding] = []
        for func, targets in _attribute_writes(tree):
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _CLOCK_ATTRS
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and (func is None or func.name not in ADVANCE_METHODS)
                ):
                    where = func.name if func is not None else "module scope"
                    findings.append(self.finding(
                        path, target,
                        "self.%s written in %s; the clock may only move in "
                        "%s" % (target.attr, where, "/".join(ADVANCE_METHODS)),
                    ))
        return findings


class CycleCrankRule(Rule):
    """SL303: clocks may not be cranked with ``+=`` outside the event core
    — components report horizons (next-free timestamps) instead of ticking
    (docs/PERFORMANCE.md's horizon contract)."""

    id = "SL303"
    title = "clock cranked with += outside the event core"
    packages = ("repro.gpusim", "repro.core", "repro.prefetch")

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        if path.endswith(EVENT_CORE_MODULES):
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr in _CLOCK_ATTRS
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
            ):
                findings.append(self.finding(
                    path, node.target,
                    "self.%s += … outside the event core; model time as "
                    "next-free horizons, never per-cycle ticks (the skip-"
                    "ahead loop would silently degrade to polling)"
                    % node.target.attr,
                ))
        return findings


class StatsFieldRule(Rule):
    """SL302: stats writes must target declared SimStats/PrefetchStats
    fields (``verify()`` only audits declared counters)."""

    id = "SL302"
    title = "write to an undeclared stats counter"

    def __init__(self, context: RepoContext) -> None:
        self._sim = context.stats_fields
        self._prefetch = context.prefetch_stats_fields

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        if not self._sim or path.endswith("gpusim/stats.py"):
            # No schema harvested (fixture tree), or the defining module
            # itself — its internals are covered by tests + verify().
            return []
        # repro.serve's ``stats`` attribute is a ServerStats (the serving
        # shell's tallies), not a SimStats; the stats-name heuristic
        # cannot tell them apart.
        if "/serve/" in path.replace("\\", "/"):
            return []
        findings: List[Finding] = []
        for func, targets in _attribute_writes(tree):
            stats_locals = _stats_locals(func) if func is not None else {}
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                owner = target.value
                # <...>.stats.prefetch.X  /  <...>.stats.X
                if isinstance(owner, ast.Attribute) and owner.attr == "prefetch" \
                        and isinstance(owner.value, ast.Attribute) \
                        and owner.value.attr == "stats":
                    if target.attr not in self._prefetch:
                        findings.append(self._unknown(
                            path, target, "PrefetchStats", self._prefetch
                        ))
                elif isinstance(owner, ast.Attribute) and owner.attr == "stats":
                    if target.attr not in self._sim:
                        findings.append(self._unknown(
                            path, target, "SimStats", self._sim
                        ))
                elif isinstance(owner, ast.Name) and owner.id in stats_locals:
                    declared = (
                        self._sim
                        if stats_locals[owner.id] == "SimStats"
                        else self._prefetch
                    )
                    if target.attr not in declared:
                        findings.append(self._unknown(
                            path, target, stats_locals[owner.id], declared
                        ))
        return findings

    def _unknown(
        self, path: str, target: ast.Attribute, cls: str, declared: Set[str]
    ) -> Finding:
        return self.finding(
            path, target,
            "%s has no declared counter %r — verify() will never audit it "
            "(declared: %s)" % (cls, target.attr, ", ".join(sorted(declared))),
        )


def _attribute_writes(tree: ast.Module):
    """Yield (enclosing function or None, [store targets]) for every
    assignment / augmented assignment in the module."""
    def walk(node: ast.AST, func) -> Iterable:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child)
            else:
                if isinstance(child, ast.Assign):
                    yield func, child.targets
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    yield func, [child.target]
                yield from walk(child, func)

    return walk(tree, None)


def _stats_locals(func: ast.AST) -> Dict[str, str]:
    """Names bound to ``SimStats()`` / ``PrefetchStats()`` in a function —
    lets the rule follow ``total = SimStats(); total.l1_hitz = 1``."""
    out: Dict[str, str] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("SimStats", "PrefetchStats")
        ):
            out[node.targets[0].id] = node.value.func.id
    return out

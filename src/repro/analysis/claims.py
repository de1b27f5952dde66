"""Automated verification of the paper's claims.

Each :class:`Claim` encodes one falsifiable statement from the paper's
abstract/evaluation as a predicate over the reproduced results; running
:func:`check_claims` re-simulates what is needed and reports, claim by
claim, whether the *shape* holds (the reproduction target — absolute
numbers differ on a scaled substrate, see EXPERIMENTS.md).

CLI: ``snake-repro claims``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List

from . import experiments


@dataclass(frozen=True)
class Claim:
    """One falsifiable statement from the paper."""

    source: str  # where the paper makes it
    statement: str
    check: Callable[[dict], bool]
    measure: Callable[[dict], str]


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    holds: bool
    measured: str

    def __str__(self) -> str:
        verdict = "PASS     " if self.holds else "DEVIATION"
        return "%s %-10s %s\n          measured: %s" % (
            verdict, self.claim.source, self.claim.statement, self.measured
        )


def _context(scale: float, seed: int) -> dict:
    """Everything the claim predicates read, computed once."""
    return {
        "fig6": experiments.figure6(scale=scale, seed=seed),
        "fig11": experiments.figure11(scale=scale, seed=seed),
        "fig16": experiments.figure16(scale=scale, seed=seed),
        "fig17": experiments.figure17(scale=scale, seed=seed),
        "fig18": experiments.figure18(scale=scale, seed=seed),
        "fig19": experiments.figure19(scale=scale, seed=seed),
        "fig25": experiments.figure25(scale=scale, seed=seed),
        "table3": experiments.table3(),
    }


def _pct(x: float) -> str:
    return "%.1f%%" % (100 * x)


CLAIMS: List[Claim] = [
    Claim(
        "abstract",
        "Snake achieves high coverage of demand requests (paper: ~80%)",
        lambda c: c["fig16"]["snake"]["mean"] > 0.5,
        lambda c: "mean coverage " + _pct(c["fig16"]["snake"]["mean"]),
    ),
    Claim(
        "abstract",
        "Snake prefetches accurately and timely (paper: ~75%)",
        lambda c: c["fig17"]["snake"]["mean"] > 0.35,
        lambda c: "mean timely accuracy " + _pct(c["fig17"]["snake"]["mean"]),
    ),
    Claim(
        "abstract",
        "Snake improves GPU performance (paper: +17% average)",
        lambda c: c["fig18"]["snake"]["mean"] > 1.05,
        lambda c: "mean IPC x%.2f" % c["fig18"]["snake"]["mean"],
    ),
    Claim(
        "abstract",
        "Snake reduces energy consumption (paper: -17%)",
        lambda c: c["fig19"]["snake"]["mean"] < 1.0,
        lambda c: "mean energy x%.2f" % c["fig19"]["snake"]["mean"],
    ),
    Claim(
        "fig6",
        "The Ideal chain prefetcher out-covers MTA (paper: +25%)",
        lambda c: c["fig6"]["ideal"]["mean"] > c["fig6"]["mta"]["mean"] + 0.10,
        lambda c: "ideal %s vs MTA %s" % (
            _pct(c["fig6"]["ideal"]["mean"]), _pct(c["fig6"]["mta"]["mean"])),
    ),
    Claim(
        "fig6",
        "The Ideal chain prefetcher out-covers CTA-aware (paper: +70%)",
        lambda c: c["fig6"]["ideal"]["mean"] > c["fig6"]["cta"]["mean"] + 0.30,
        lambda c: "ideal %s vs CTA %s" % (
            _pct(c["fig6"]["ideal"]["mean"]), _pct(c["fig6"]["cta"]["mean"])),
    ),
    Claim(
        "fig11",
        "Chains of strides cover more accesses than MTA's fixed strides "
        "(paper: ~70% vs ~55%)",
        lambda c: c["fig11"]["chains"]["mean"] > c["fig11"]["mta"]["mean"],
        lambda c: "chains %s vs MTA %s" % (
            _pct(c["fig11"]["chains"]["mean"]), _pct(c["fig11"]["mta"]["mean"])),
    ),
    Claim(
        "fig16",
        "Snake out-covers the best prior mechanism, MTA (paper: +15%)",
        lambda c: c["fig16"]["snake"]["mean"] > c["fig16"]["mta"]["mean"] + 0.05,
        lambda c: "snake %s vs MTA %s" % (
            _pct(c["fig16"]["snake"]["mean"]), _pct(c["fig16"]["mta"]["mean"])),
    ),
    Claim(
        "fig17",
        "Snake is far more accurate than CTA-aware (paper: +55%)",
        lambda c: c["fig17"]["snake"]["mean"] > c["fig17"]["cta"]["mean"] + 0.20,
        lambda c: "snake %s vs CTA %s" % (
            _pct(c["fig17"]["snake"]["mean"]), _pct(c["fig17"]["cta"]["mean"])),
    ),
    Claim(
        "fig18",
        "LIB sees one of the largest speedups (paper: the largest)",
        lambda c: c["fig18"]["snake"]["lib"]
        >= sorted(
            v for k, v in c["fig18"]["snake"].items() if k != "mean"
        )[-3],
        lambda c: "LIB x%.2f (max x%.2f)" % (
            c["fig18"]["snake"]["lib"],
            max(v for k, v in c["fig18"]["snake"].items() if k != "mean")),
    ),
    Claim(
        "fig18",
        "The aggressive spatial prefetcher (Tree) trails Snake",
        lambda c: c["fig18"]["snake"]["mean"] > c["fig18"]["tree"]["mean"],
        lambda c: "snake x%.2f vs tree x%.2f" % (
            c["fig18"]["snake"]["mean"], c["fig18"]["tree"]["mean"]),
    ),
    Claim(
        "fig16",
        "nw shows low coverage despite regular patterns (low repetition)",
        lambda c: c["fig16"]["snake"]["nw"] < c["fig16"]["snake"]["mean"],
        lambda c: "nw %s vs mean %s" % (
            _pct(c["fig16"]["snake"]["nw"]), _pct(c["fig16"]["snake"]["mean"])),
    ),
    Claim(
        "fig25",
        "Snake's hit rate lands within 5% of Isolated-Snake's",
        lambda c: abs(
            c["fig25"]["snake"]["mean"] - c["fig25"]["isolated-snake"]["mean"]
        ) < 0.05,
        lambda c: "snake %s vs isolated %s" % (
            _pct(c["fig25"]["snake"]["mean"]),
            _pct(c["fig25"]["isolated-snake"]["mean"])),
    ),
    Claim(
        "fig25",
        "Snake raises the baseline L1 hit rate substantially "
        "(paper: 45% -> 79%)",
        lambda c: c["fig25"]["snake"]["mean"]
        > c["fig25"]["baseline"]["mean"] + 0.08,
        lambda c: "baseline %s -> snake %s" % (
            _pct(c["fig25"]["baseline"]["mean"]),
            _pct(c["fig25"]["snake"]["mean"])),
    ),
    Claim(
        "table3",
        "Head table costs 448 bytes, Tail table 320 bytes per SM",
        lambda c: c["table3"]["head"]["total_bytes"] == 448
        and c["table3"]["tail"]["total_bytes"] == 320,
        lambda c: "head %dB, tail %dB" % (
            c["table3"]["head"]["total_bytes"],
            c["table3"]["tail"]["total_bytes"]),
    ),
]


def check_claims(scale: float = 0.5, seed: int = 1) -> List[ClaimResult]:
    """Evaluate every encoded claim; returns the verdicts in order."""
    context = _context(scale, seed)
    return [
        ClaimResult(claim=claim, holds=claim.check(context),
                    measured=claim.measure(context))
        for claim in CLAIMS
    ]


def render_claims(results: List[ClaimResult]) -> str:
    held = sum(1 for r in results if r.holds)
    lines = [str(r) for r in results]
    lines.append("")
    lines.append("%d/%d claims hold on the scaled substrate" % (held, len(results)))
    return "\n".join(lines)

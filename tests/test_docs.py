"""Documentation drift checks (the same gate CI's docs job runs)."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_architecture_mentions_every_module():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_docs import missing_modules
    finally:
        sys.path.pop(0)
    assert missing_modules(REPO_ROOT) == []


def test_static_analysis_names_every_rule_family():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_docs import missing_rule_family_docs
    finally:
        sys.path.pop(0)
    assert missing_rule_family_docs(REPO_ROOT) == []


def test_docs_cover_the_cli_surface():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_docs import missing_cli_docs
    finally:
        sys.path.pop(0)
    assert missing_cli_docs(REPO_ROOT) == []


def test_observability_docs_show_every_hot_bucket():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_docs import missing_hot_bucket_docs
    finally:
        sys.path.pop(0)
    assert missing_hot_bucket_docs(REPO_ROOT) == []


def test_robustness_docs_cover_every_fault_site_and_invariant():
    from repro.gpusim.faults import SITES

    text = (REPO_ROOT / "docs" / "ROBUSTNESS.md").read_text()
    for site in SITES:
        assert site in text, "ROBUSTNESS.md misses fault site %s" % site
    for invariant in (
        "mshr_balance", "icnt_priority", "snake_table",
        "l2_conservation", "dram_conservation", "stats_monotonic",
    ):
        assert invariant in text, "ROBUSTNESS.md misses invariant %s" % invariant
    assert "invariant:<name>" in text


def test_observability_docs_exist_and_cover_the_cli():
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    for needle in ("trace", "profile", "Sink", "chrome://tracing"):
        assert needle in text


def test_metrics_glossary_covers_every_counter():
    import dataclasses

    from repro.gpusim.stats import PrefetchStats, SimStats

    text = (REPO_ROOT / "docs" / "METRICS.md").read_text()
    for cls in (SimStats, PrefetchStats):
        for field in dataclasses.fields(cls):
            assert field.name in text, "METRICS.md misses %s.%s" % (
                cls.__name__, field.name,
            )

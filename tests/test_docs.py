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


def test_module_index_names_only_existing_modules(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_docs import stale_module_entries
    finally:
        sys.path.pop(0)
    assert stale_module_entries(REPO_ROOT) == []

    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(
        "## Module index\n\n"
        "`repro/` — `cli.py` (front end).\n\n"
        "`repro/obs/` — `events.py`, `gone.py` (deleted).\n\n"
        "## Later\n\n`repro/obs/` — `elsewhere.py` is not the index.\n"
    )
    (tmp_path / "src" / "repro" / "obs").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text("")
    (tmp_path / "src" / "repro" / "obs" / "events.py").write_text("")
    assert stale_module_entries(tmp_path) == ["repro/obs/gone.py"]


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

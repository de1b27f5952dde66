#!/usr/bin/env python
"""Docs drift checks.

* Every module under src/repro must be mentioned in docs/ARCHITECTURE.md
  (the "Module index" section exists for this), and every ``.py`` file
  that section names in a paragraph opening with ``repro/<pkg>/`` must exist
  under src/repro/<pkg>/ — a deleted module must not leave its entry.
* Every ``snake-repro`` subcommand and its robustness-surface flags must
  be mentioned somewhere under docs/ — a new CLI entry point without an
  operating manual fails the gate.
* Every simlint rule id (``repro.lint.registry.catalog()``) must be
  documented in docs/STATIC_ANALYSIS.md with a bad/good example — a rule
  that fails builds without an explanation is not enforceable.

Run from the repository root::

    python tools/check_docs.py

Exit status 0 when complete, 1 with the missing items otherwise.
CI runs this after the test suite; `tests/test_docs.py` runs it as part
of tier-1 so drift is caught locally too.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# snake-repro subcommands and the flags whose behaviour only docs can
# explain.  Extend this table when the CLI grows a new surface.
CLI_SURFACE = {
    "trace": (),
    "profile": (),
    "sweep": ("--checkpoint", "--resume", "--retry-failed", "--sanitize",
              "--lease", "--drain-timeout"),
    "chaos": ("--sites", "--delay-cycles", "--runner", "--runner-jobs"),
    "lint": ("--rule", "--baseline", "--json", "--update-baseline",
             "--sarif", "--changed"),
    "serve": ("--loadgen", "--chaos", "--queue-depth", "--deadline",
              "--frame-timeout", "--idle-timeout", "--snapshot-every",
              "--fsync", "--max-sessions", "--chaos-seed", "--no-kill"),
}


def missing_modules(repo_root: Path) -> "list[str]":
    doc = (repo_root / "docs" / "ARCHITECTURE.md").read_text()
    missing = []
    for path in sorted((repo_root / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py" or "egg-info" in str(path):
            continue
        if path.name not in doc:
            missing.append(str(path.relative_to(repo_root)))
    return missing


def stale_module_entries(repo_root: Path) -> "list[str]":
    doc = (repo_root / "docs" / "ARCHITECTURE.md").read_text()
    index = doc.split("## Module index", 1)[-1].split("\n## ", 1)[0]
    stale = []
    for paragraph in index.split("\n\n"):
        match = re.match(r"`(repro/(?:\w+/)*)`", paragraph)
        if match is None:
            continue
        package = repo_root / "src" / match.group(1)
        for name in re.findall(r"`(\w+\.py)`", paragraph):
            if not (package / name).exists():
                stale.append("%s%s" % (match.group(1), name))
    return stale


def missing_cli_docs(repo_root: Path) -> "list[str]":
    docs = "\n".join(
        path.read_text() for path in sorted((repo_root / "docs").glob("*.md"))
    )
    missing = []
    for command, flags in sorted(CLI_SURFACE.items()):
        if "snake-repro %s" % command not in docs:
            missing.append("snake-repro %s" % command)
        for flag in flags:
            if flag not in docs:
                missing.append("%s (of snake-repro %s)" % (flag, command))
    return missing


def missing_rule_docs(repo_root: Path) -> "list[str]":
    sys.path.insert(0, str(repo_root / "src"))
    try:
        from repro.lint.registry import catalog
    finally:
        sys.path.pop(0)
    doc_path = repo_root / "docs" / "STATIC_ANALYSIS.md"
    doc = doc_path.read_text() if doc_path.exists() else ""
    missing = []
    for rule_id, _title, _scope in catalog():
        if "### %s" % rule_id not in doc:
            missing.append("%s (no '### %s' section)" % (rule_id, rule_id))
            continue
        section = doc.split("### %s" % rule_id, 1)[1].split("\n### ", 1)[0]
        if "Bad" not in section or "Good" not in section:
            missing.append("%s (section lacks a Bad/Good example)" % rule_id)
    return missing


def missing_rule_family_docs(repo_root: Path) -> "list[str]":
    """Every rule *family* prefix (SL1xx, SL6xx, ...) present in the
    catalog must be named in docs/STATIC_ANALYSIS.md — families are how
    the doc organises "Adding a rule", so an undocumented family means
    the catalog grew a dimension the manual does not know about."""
    sys.path.insert(0, str(repo_root / "src"))
    try:
        from repro.lint.registry import catalog
    finally:
        sys.path.pop(0)
    doc_path = repo_root / "docs" / "STATIC_ANALYSIS.md"
    doc = doc_path.read_text() if doc_path.exists() else ""
    families = sorted({
        rule_id[:3] + "xx" for rule_id, _title, _scope in catalog()
    })
    return [family for family in families if family not in doc]


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    status = 0
    missing = missing_modules(repo_root)
    if missing:
        print("modules not mentioned in docs/ARCHITECTURE.md:")
        for name in missing:
            print("  " + name)
        status = 1
    else:
        print("docs/ARCHITECTURE.md mentions every src/repro module")
    stale = stale_module_entries(repo_root)
    if stale:
        print("docs/ARCHITECTURE.md's Module index names missing modules:")
        for name in stale:
            print("  src/" + name)
        status = 1
    else:
        print("every module docs/ARCHITECTURE.md's Module index names exists")
    missing = missing_cli_docs(repo_root)
    if missing:
        print("CLI surface not mentioned anywhere under docs/:")
        for name in missing:
            print("  " + name)
        status = 1
    else:
        print("docs/ cover every snake-repro subcommand and tracked flag")
    missing = missing_rule_docs(repo_root)
    if missing:
        print("simlint rules not documented in docs/STATIC_ANALYSIS.md:")
        for name in missing:
            print("  " + name)
        status = 1
    else:
        print("docs/STATIC_ANALYSIS.md documents every simlint rule")
    missing = missing_rule_family_docs(repo_root)
    if missing:
        print("simlint rule families not named in docs/STATIC_ANALYSIS.md:")
        for name in missing:
            print("  " + name)
        status = 1
    else:
        print("docs/STATIC_ANALYSIS.md names every simlint rule family")
    return status


if __name__ == "__main__":
    sys.exit(main())

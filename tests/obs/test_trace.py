"""End-to-end telemetry runs: traced_run and the trace/profile CLI.

The acceptance bar: ``repro trace <app>`` emits a valid Chrome-trace JSON
and per-PC metrics for at least three workloads.
"""

import json

import pytest

from repro.cli import main
from repro.obs.runner import traced_run


@pytest.mark.parametrize("app", ["lps", "histo", "srad"])
def test_traced_run_produces_metrics_and_chrome_trace(app, tmp_path):
    result = traced_run(app, mechanism="snake", scale=0.3, seed=5)

    # Per-PC metrics exist and reconcile with the aggregate stats.
    assert result.pc_metrics.per_pc
    assert result.pc_metrics.per_warp
    total_accesses = sum(
        p.accesses for p in result.pc_metrics.per_pc.values()
    )
    assert total_accesses == result.stats.total_l1_accesses
    total_covered = sum(p.covered for p in result.pc_metrics.per_pc.values())
    assert total_covered == result.stats.prefetch.demand_covered

    # The time series saw L1 traffic.
    assert result.sampler.total("l1_hit") + result.sampler.total("l1_miss") > 0

    # Chrome trace is valid JSON with named, pid-tagged events.
    path = tmp_path / (app + ".trace.json")
    result.chrome.export(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert events
    assert all("name" in e and "ph" in e and "pid" in e for e in events)
    assert {e["ph"] for e in events} >= {"M", "C"}


def test_trace_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "lps.trace.json"
    code = main(["trace", "lps", "--scale", "0.3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    printed = capsys.readouterr().out
    assert "per-PC metrics" in printed
    assert "chrome trace written" in printed


def test_profile_cli_end_to_end(capsys):
    code = main(["profile", "histo", "--scale", "0.3", "--top", "5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "per-PC metrics" in printed
    assert "per-warp metrics" in printed


def test_trace_cli_unknown_app_fails_cleanly(capsys):
    code = main(["trace", "no-such-app", "--scale", "0.3"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_profile_cli_rejects_negative_top(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["profile", "histo", "--scale", "0.3", "--top=-1"])
    assert exit_info.value.code == 2
    assert "--top" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "profile"])
@pytest.mark.parametrize("scale", ["0", "-1", "nan"])
def test_obs_cli_rejects_a_scale_that_is_not_positive(command, scale, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "lps", "--scale=" + scale])
    assert exit_info.value.code == 2
    assert "scale must be finite and > 0" in capsys.readouterr().err


def test_traced_run_without_chrome_sink():
    result = traced_run("lps", mechanism="none", scale=0.3, chrome=False)
    assert result.chrome is None
    assert result.pc_metrics.per_pc

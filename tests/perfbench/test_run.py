"""The benchmark command end to end: metric coverage, correctness checks,
and the comparison rules."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.compare import compare, compare_pairs, verdict
from perfbench.measure import percentile

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable] + args, cwd=cwd, capture_output=True, text=True,
        timeout=timeout, check=False,
    )


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")


def test_smoke_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "results.json"
    proc = _run(["-m", "perfbench", "run", "--smoke", "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert (tmp_path / "results.md").is_file()
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = set()
    for run in payload["runs"]:
        result = run["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared[run["trace"]]
        seen.add((run["workload"], run["trace"]))
        if run["trace"]:
            assert (tmp_path / ("results.%s.trace.json" % run["workload"])).is_file()
    assert seen == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}


def _copy_benchmark(tmp_path, with_src=True):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "*.trace.json"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_src:
        os.symlink(ROOT / "src", tmp_path / "src")
    return tmp_path


def test_tampered_digest_fails_the_run(tmp_path):
    root = _copy_benchmark(tmp_path)
    digests_path = root / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text())
    digests["smoke"]["quickstart-none"] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    proc = _run(
        ["perfbench/run.py", "--workload", "quickstart-none", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=root,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "digest" in proc.stderr


def test_run_refuses_a_checkout_without_sources(tmp_path):
    root = _copy_benchmark(tmp_path, with_src=False)
    proc = _run(
        ["perfbench/run.py", "--workload", "quickstart-snake", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, timeout=60,
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


STEADY = [100, 101, 99, 100, 100]


@pytest.mark.parametrize("base, new, better, expected", [
    (STEADY, [120, 121, 119, 120, 120], "higher", "improved"),
    (STEADY, [80, 81, 79, 80, 80], "higher", "regressed"),
    (STEADY, [102, 101, 103, 102, 102], "higher", "unchanged"),
    (STEADY, [80, 81, 79, 80, 80], "lower", "improved"),
    ([50, 150, 100, 60, 140], STEADY, "higher", "unresolved"),
    # Wide spread, but every new run beats every base run.
    ([50, 70, 60, 55, 65], [100, 140, 120, 110, 130], "higher", "improved"),
    # Too few runs on a side for quartiles to mean anything.
    ([100], [150], "higher", "unresolved"),
    (STEADY, [150, 150, 150, 150], "higher", "unresolved"),
])
def test_verdict(base, new, better, expected):
    assert verdict(base, new, better, bound=0.1) == expected


SPEC_ONE = {
    "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
}


def _results(path, values, failed=0, crashed=0):
    runs = [
        {"workload": "w", "seed": 1, "trace": 0, "exit": 0, "result": {
            "correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {"ops_per_s": {"value": v, "unit": "1/s"}},
        }}
        for v in values
    ]
    runs += [
        {"workload": "w", "seed": 1, "trace": 0, "exit": 1, "result": None}
        for _ in range(crashed)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_reports_a_row_per_workload_and_metric(tmp_path):
    base = _results(tmp_path / "base.json", STEADY)
    new = _results(tmp_path / "new.json", [70, 71, 69, 70, 70])
    rows, worse = compare(base, new, SPEC_ONE)
    assert worse and len(rows) == 2 and rows[1].split()[-1] == "regressed"


def test_compare_refuses_a_gain_with_more_failures(tmp_path):
    base = _results(tmp_path / "base.json", STEADY)
    new = _results(tmp_path / "new.json", [150] * 5, failed=1)
    rows, worse = compare(base, new, SPEC_ONE)
    assert worse and rows[-1].split()[-1] == "failing"
    # A run that printed no result is a failure too, and gives no value.
    new = _results(tmp_path / "new.json", [150] * 5, crashed=1)
    rows, worse = compare(base, new, SPEC_ONE)
    assert worse and rows[-1].split()[-1] == "failing"
    assert "(5)" in rows[-1]


def test_pairs_flag_a_gain_only_at_nine_wins_in_ten(tmp_path):
    for i in range(10):
        _results(tmp_path / ("base-%02d.json" % i), [100 + i % 3])
        _results(tmp_path / ("new-%02d.json" % i), [110 if i else 90])
    rows = compare_pairs(tmp_path, SPEC_ONE)
    assert rows[1].split()[-2:] == ["9/10", "yes"]
    _results(tmp_path / "new-01.json", [], crashed=1)
    rows = compare_pairs(tmp_path, SPEC_ONE)
    assert rows[1].split()[-2:] == ["8/10", "no"]
    _results(tmp_path / "new-01.json", [110], failed=1)
    rows = compare_pairs(tmp_path, SPEC_ONE)
    assert rows[1].split()[-2:] == ["9/10", "no"]


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile([7.0], 99) == 7.0

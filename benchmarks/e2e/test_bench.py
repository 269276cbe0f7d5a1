"""Self-test of the e2e benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Outside the tier-1 ``testpaths``: the quick run spawns real ``savat``
invocations (about a minute on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench
import compare
import tracing


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "run.json"
    assert bench.main(["run", "--quick", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_quick_run_reports_every_metric_with_its_unit(quick):
    spec = bench.load_spec()
    assert set(quick["workloads"]) == {workload["name"] for workload in spec["workloads"]}
    for entry in quick["workloads"].values():
        for metric in spec["end_to_end"]:
            summary = entry["metrics"][metric["name"]]
            assert summary["unit"] == metric["unit"]
            assert {"median", "q1", "q3", "min", "max", "n"} <= set(summary)
        assert entry["metrics"]["failure_fraction"]["median"] == 0
        for metric in spec["per_layer"]:
            assert entry["traced"]["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert entry["digest"] and entry["traced"]["absent"] == []


def test_quick_run_spans_nest_and_add_up_to_wall_time(quick):
    for name, entry in quick["workloads"].items():
        traced = entry["traced"]
        assert traced["nesting_ok"], name
        assert traced["sum_error"] <= bench.SUM_TOLERANCE, name
        for layer in ("machines.calibrate", "core.executor", "cli"):
            assert traced["metrics"][f"{layer}.calls"]["value"] >= 1, (name, layer)
    warm = quick["workloads"]["fig9_warm"]["traced"]["metrics"]
    assert warm["core.result_cache.hit_ratio"]["value"] == 1.0
    assert warm["uarch.prime.calls"]["value"] == 0
    assert quick["workloads"]["distance_study"]["traced"]["metrics"]["pool.busy_s"]["value"] > 0


def test_measure_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), "measure", "--workload", "fig9_warm",
         "--seed", str(bench.PINNED_SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = bench.load_spec()
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in spec["end_to_end"]
    }


def test_measure_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "measure", "--workload", "fig9_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_wrapper_targets_resolve(layer):
    for module_name, attribute in tracing.LAYERS[layer]:
        assert tracing.resolve(module_name, attribute) is not None, attribute


def test_self_time_subtracts_children_and_detects_overlap():
    spans = [
        ["cli", 1.0, 9.0, -1, None],
        ["core.executor", 2.0, 6.0, 0, None],
        ["uarch.prime", 3.0, 4.0, 1, None],
        ["core.result_cache.load", 7.0, 8.0, 0, True],
    ]
    result = tracing.analyze({42: spans}, main_pid=42, wall_s=10.0, workers=1)
    metrics = result["metrics"]
    assert metrics["cli.self_s"] == 3.0
    assert metrics["core.executor.self_s"] == 3.0
    assert metrics["uarch.prime.self_s"] == 1.0
    assert metrics["untraced_s"] == 2.0
    assert metrics["core.result_cache.hit_ratio"] == 1.0
    assert result["nesting_ok"] and result["sum_error"] == 0.0

    overlapping = spans[:2] + [["uarch.prime", 5.0, 7.0, 1, None]]
    assert not tracing.analyze({42: overlapping}, 42, 10.0, 1)["nesting_ok"]


TIGHT = [10.0, 10.1, 10.2, 9.9, 10.0, 10.1, 9.9, 10.0, 10.2, 10.0]


def test_identical_runs_read_unchanged():
    assert compare.verdict(TIGHT, list(TIGHT), "lower", 0.1) == "unchanged"


def test_twenty_percent_slower_reads_worse_and_faster_reads_better():
    slower = [value * 1.2 for value in TIGHT]
    assert compare.verdict(TIGHT, slower, "lower", 0.1) == "worse"
    assert compare.verdict(slower, TIGHT, "lower", 0.1) == "better"
    # Throughput: higher is better, so a 20 % drop is worse.
    assert compare.verdict(TIGHT, [value * 0.8 for value in TIGHT], "higher", 0.1) == "worse"


def test_wide_spread_reads_unresolved_unless_head_beats_every_base_run():
    wide = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(TIGHT, wide, "lower", 0.1) == "unresolved"
    assert compare.verdict(wide, [1.0] * 10, "lower", 0.1) == "better"


def test_claim_needs_nine_of_ten_pair_wins_and_a_gain_beyond_the_base_iqr():
    base = [10.0 + 0.01 * index for index in range(10)]
    nine = [value - 1.0 for value in base[:9]] + [base[9] + 1.0]
    eight = [value - 1.0 for value in base[:8]] + [value + 1.0 for value in base[8:]]
    assert compare.claim(base, nine, "lower")["met"]
    assert not compare.claim(base, eight, "lower")["met"]
    # Nine wins but a gain inside the base's own spread is no claim.
    noisy = [10.0, 14.0, 6.0, 12.0, 8.0, 11.0, 9.0, 13.0, 7.0, 10.0]
    assert not compare.claim(noisy, [value - 0.5 for value in noisy], "lower")["met"]

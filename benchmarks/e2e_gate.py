#!/usr/bin/env python3
"""Regression gate over a paired end-to-end benchmark run.

Reads ``parent.json`` and ``change.json`` from the output directory of
``benchmarks/e2e/bench.py ab PARENT CHANGE --out-dir DIR`` and applies
the benchmark's noise-aware ``compare.verdict`` to every ``end_to_end``
metric that ``BENCHMARK.json`` declares, on every workload.  Exits 1 if
any verdict is ``worse`` or a metric is missing from either side.

Usage (from the repository root):

    python3 benchmarks/e2e/bench.py ab BASE_CHECKOUT . --pairs 3 --out-dir DIR
    python3 benchmarks/e2e_gate.py DIR
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402


def gate(parent: dict, change: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    """One line per (metric, workload) and whether no metric got worse."""
    ok = True
    lines = [
        f"{'metric':<18} {'workload':<15} {'parent median':>14} "
        f"{'change median':>14} {'bound':>5}  verdict"
    ]
    for workload, parent_entry in parent["workloads"].items():
        change_entry = change["workloads"].get(workload, {"metrics": {}})
        for metric in metrics:
            name = metric["name"]
            base = parent_entry["metrics"].get(name)
            head = change_entry["metrics"].get(name)
            if base is None or head is None:
                ok = False
                lines.append(f"{name:<18} {workload:<15} {'':>14} {'':>14} {'':>5}  missing")
                continue
            outcome = compare.verdict(
                base["values"], head["values"], metric["better"], metric["bound"]
            )
            ok = ok and outcome != "worse"
            lines.append(
                f"{name:<18} {workload:<15} {base['median']:>14.4g} "
                f"{head['median']:>14.4g} {metric['bound']:>5.2f}  {outcome}"
            )
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = pathlib.Path(argv[0])
    parent = json.loads((out_dir / "parent.json").read_text())
    change = json.loads((out_dir / "change.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lines, ok = gate(parent, change, metrics)
    print("\n".join(lines))
    print("e2e gate: " + ("pass" if ok else "FAIL: an end-to-end metric is worse or missing"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

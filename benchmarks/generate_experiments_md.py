#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the benchmark harness's artifacts.

Run after ``pytest benchmarks/ --benchmark-only``: every benchmark
writes its regenerated figure to ``benchmarks/output/``, and this script
collates them — plus the headline shape statistics it re-parses from the
experiment reports — into the paper-vs-measured record.  The
"Simulation performance" table is rendered from ``BENCH_e2e.json``
(``python3 benchmarks/e2e/bench.py run --out BENCH_e2e.json``).
Everything after :data:`HANDWRITTEN_MARKER` in the checked-in
EXPERIMENTS.md is hand-written and copied through unchanged.

Usage:  python benchmarks/generate_experiments_md.py
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / "benchmarks" / "output"
TARGET = ROOT / "EXPERIMENTS.md"
#: Where the hand-written sections are read from (the checked-in file).
HANDWRITTEN_SOURCE = ROOT / "EXPERIMENTS.md"
HANDWRITTEN_MARKER = (
    "<!-- Hand-written from here on: generate_experiments_md.py copies "
    "the rest of this file unchanged. -->"
)
BENCH_E2E = ROOT / "BENCH_e2e.json"
BENCHMARK_SPEC = ROOT / "BENCHMARK.json"

#: (artifact file, experiment id, paper artifact, what "reproduced" means here)
EXPERIMENTS: tuple[tuple[str, str, str, str], ...] = (
    (
        "fig02_naive_vs_alternation.txt",
        "fig2/3",
        "naive-vs-alternation methodology argument (Section III)",
        "naive subtraction misses by orders of magnitude even noiseless; "
        "alternation stays within a few percent",
    ),
    (
        "fig05_instruction_table.txt",
        "fig5",
        "the 11 instructions/events table",
        "verbatim",
    ),
    ("fig06_machines.txt", "fig6", "the three laptops table", "verbatim"),
    (
        "fig07_spectrum_add_ldm.txt",
        "fig7",
        "ADD/LDM spectrum at 80 kHz",
        "peak shifted <1 kHz from intended frequency, dispersion inside the "
        "+/-1 kHz band, peak far above the ~6e-18 W/Hz floor",
    ),
    (
        "fig08_spectrum_add_add.txt",
        "fig8",
        "ADD/ADD spectrum (error floor)",
        "floor ~6e-18 W/Hz, weak external radio signal visible above it, "
        "A/A measurement near the error floor",
    ),
    (
        "fig09_core2duo_matrix.txt",
        "fig9",
        "Core 2 Duo 11x11 SAVAT matrix, 10 cm",
        "see shape statistics below",
    ),
    (
        "fig10_visualization.txt",
        "fig10",
        "grayscale visualization of fig9",
        "dark off-chip/L2 blocks, light arithmetic block",
    ),
    (
        "fig11_selected_pairs.txt",
        "fig11",
        "selected-pairings bar chart",
        "ordering anchored: STL2/STM & STL2/DIV loudest, ADD/ADD & ADD/MUL quietest",
    ),
    (
        "fig12_fig13_pentium3m.txt",
        "fig12/13",
        "Pentium 3 M matrix + bars, 10 cm",
        "ADD/DIV an order of magnitude over ADD/MUL; LDM > STM; off-chip >> L2",
    ),
    (
        "fig14_fig15_turionx2.txt",
        "fig14/15",
        "Turion X2 matrix + bars, 10 cm",
        "DIV rivals off-chip accesses; otherwise P3M-like structure",
    ),
    (
        "fig16_distance_bars.txt",
        "fig16",
        "selected pairings at 50/100 cm",
        "sharp 10->50 cm drop, small 50->100 cm change, off-chip dominates, "
        "DIV advantage shrinks",
    ),
    (
        "fig17_matrix_50cm.txt",
        "fig17",
        "full matrix at 50 cm",
        "see shape statistics below",
    ),
    (
        "fig18_matrix_100cm.txt",
        "fig18",
        "full matrix at 100 cm",
        "see shape statistics below; L2 collapses faster than off-chip",
    ),
)

ABLATIONS: tuple[tuple[str, str], ...] = (
    ("ablation_coupling_modes.txt", "field modes in the EM coupling model"),
    ("ablation_distance_model.txt", "power-law vs linear distance interpolation"),
    ("ablation_band.txt", "+/-1 kHz integration band vs a single bin"),
    ("ablation_alternation_freq.txt", "alternation-frequency invariance"),
    ("ablation_duty_cycle.txt", "duty-cycle factor for unequal-latency pairs"),
    ("ablation_sequences.txt", "additive sequence estimate vs direct measurement"),
)

EXTENSIONS: tuple[tuple[str, str], ...] = (
    ("ext_multichannel.txt", "power/acoustic channel SAVAT (Section VII)"),
    ("ext_branch_events.txt", "branch-prediction events BRH/BRM (Section VII)"),
    ("ext_mitigation.txt", "compensating-activity mitigation cost/benefit"),
    ("ext_branchless.txt", "branchless constant-time rewrite"),
)

_SHAPE_RE = re.compile(
    r"Shape agreement: Pearson ([\d.-]+), Spearman ([\d.-]+), "
    r"mean relative error ([\d.]+%)"
)
_REPEAT_RE = re.compile(r"Repeatability \(std/mean\): ([\d.]+)")


def _shape_line(text: str) -> str | None:
    match = _SHAPE_RE.search(text)
    if not match:
        return None
    line = (
        f"Pearson {match.group(1)}, Spearman {match.group(2)}, "
        f"mean relative error {match.group(3)}"
    )
    repeat = _REPEAT_RE.search(text)
    if repeat:
        line += f"; std/mean {repeat.group(1)} (paper: ~0.05)"
    return line


def _digest_status(entry: dict) -> str:
    digest, pinned = entry["digest"], entry["digest_pinned"]
    if pinned is None:
        return f"`{str(digest)[:12]}` (not pinned)"
    status = "matches pin" if digest == pinned else "MISMATCH vs pin"
    return f"`{str(digest)[:12]}` ({status})"


def performance_section(result: dict, metrics: list[dict]) -> list[str]:
    """The "Simulation performance" table of one ``bench.py run`` result."""
    host = result["host"]
    sha = (host.get("git_sha") or "unknown")[:12]
    header = " | ".join(f"`{metric['name']}` ({metric['unit']})" for metric in metrics)
    lines = [
        "## Simulation performance (not a paper figure)",
        "",
        "Generated from `BENCH_e2e.json`, the checked-in result of",
        "`python3 benchmarks/e2e/bench.py run --out BENCH_e2e.json` (protocol,",
        "workloads and metric definitions: `benchmarks/e2e/README.md`).  Each",
        "cell is the median [q1, q3] over the workload's n successful timed",
        "invocations; failed counts every invocation of the run, including the",
        "preparation and the traced one.  Host timings drift, so read the",
        "quartiles with the median.  A performance claim needs paired",
        "`bench.py ab` runs, and CI's `e2e-gate` job fails a pull request when",
        "paired runs against its base read any of these metrics as `worse`.",
        "",
        f"Run: seed {result['seed']}{' (quick)' if result['quick'] else ''}, "
        f"{host['nproc']} CPUs, {host['machine']}, Python {host['python']}, "
        f"numpy {host['numpy']}; HEAD at run time `{sha}`.",
        "",
        f"| workload | n | {header} | failed | samples digest |",
        "|---|---:|" + "---:|" * len(metrics) + "---:|---|",
    ]
    for name, entry in result["workloads"].items():
        summaries = [entry["metrics"][metric["name"]] for metric in metrics]
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]" for s in summaries]
        runs = len(entry["runs"])
        failed = round(entry["metrics"]["failure_fraction"]["median"] * runs)
        n = entry["metrics"]["wall_s"]["n"]
        lines.append(
            f"| `{name}` | {n} | " + " | ".join(cells)
            + f" | {failed}/{runs} | {_digest_status(entry)} |"
        )
    lines.append("")
    return lines


def main() -> int:
    missing = [
        name
        for name, *_rest in EXPERIMENTS
        if not (OUTPUT_DIR / name).exists()
    ]
    if missing:
        print(
            "missing artifacts (run `pytest benchmarks/ --benchmark-only` first): "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 1

    lines: list[str] = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Every table and figure in the paper's evaluation, regenerated by the",
        "benchmark harness (`pytest benchmarks/ --benchmark-only`).  Artifacts",
        "live in `benchmarks/output/`; this file records, per experiment, what",
        "the paper shows, what the reproduction measures, and the shape",
        "statistics.  Absolute zeptojoule scales match by calibration; the",
        "*measured* quantities below come out of the forward pipeline",
        "(kernel -> cycle simulation -> EM model -> spectrum analyzer), which",
        "is free to disagree with its calibration — the agreement numbers are",
        "the reproduction's actual result.  See DESIGN.md §2 for the",
        "hardware-substitution rationale and §8 for known deviations.",
        "",
        "## Paper figures",
        "",
    ]
    for name, experiment_id, artifact, meaning in EXPERIMENTS:
        text = (OUTPUT_DIR / name).read_text()
        lines.append(f"### {experiment_id} — {artifact}")
        lines.append("")
        lines.append(f"*Artifact:* `benchmarks/output/{name}`")
        lines.append("")
        shape = _shape_line(text)
        if shape:
            lines.append(f"*Shape agreement (measured vs published):* {shape}")
            lines.append("")
        lines.append(f"*Reproduced:* {meaning}.")
        lines.append("")

    lines.append("## Ablations (design choices from DESIGN.md §5)")
    lines.append("")
    for name, description in ABLATIONS:
        path = OUTPUT_DIR / name
        if not path.exists():
            continue
        lines.append(f"### {description}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")

    lines.append("## Extensions (Section VII future work, measured)")
    lines.append("")
    for name, description in EXTENSIONS:
        path = OUTPUT_DIR / name
        if not path.exists():
            continue
        lines.append(f"### {description}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")

    metrics = json.loads(BENCHMARK_SPEC.read_text())["end_to_end"]
    lines.extend(performance_section(json.loads(BENCH_E2E.read_text()), metrics))
    lines.append(HANDWRITTEN_MARKER)
    handwritten = HANDWRITTEN_SOURCE.read_text().split(HANDWRITTEN_MARKER, 1)
    if len(handwritten) != 2:
        print(f"{HANDWRITTEN_SOURCE} has no hand-written marker", file=sys.stderr)
        return 1
    TARGET.write_text("\n".join(lines) + handwritten[1])
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the ``savat`` CLI (see README.md beside this file).

Every measured invocation is a fresh ``python child.py`` process that runs
``repro.cli.main`` from a checkout's ``src/``, one at a time: a closed
loop with one client.  Inputs come from ``--seed``; outputs are checked
against a pinned samples digest (seed 2014) or, for other seeds, against
each other, and against the paper's matrices.

    bench.py run [--seed N] [--quick] [--out FILE]
    bench.py measure --workload W --seed N --seconds S --trace 0|1
    bench.py compare BASE.json HEAD.json [--claim METRIC@WORKLOAD]
    bench.py ab PARENT_DIR CHANGE_DIR [--pairs 10] [--seed N] [--out-dir DIR]

``measure`` is the one-workload, time-boxed form whose last stdout line
is a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Linux only: it reads ``/proc`` and ``/dev/shm``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import compare
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
WORK = HERE / ".work"

#: The seed the samples digests are pinned at.
PINNED_SEED = 2014
#: ``--quick``: 2 events and 1 repetition, for the self-test.
QUICK_EVENTS = "ADD,LDM"
#: Wall-clock cap on one child before it is killed (counts as a failure).
INVOCATION_TIMEOUT_S = 60.0
#: ``measure`` starts no invocation after this many seconds, so it ends
#: within 180 s even if the last invocation times out.
MEASURE_CUTOFF_S = 90.0
#: ``measure`` reports ``setup_s`` as the median of at least this many set-ups.
SETUP_SAMPLES = 3
#: How long a finished child's helpers (e.g. the resource tracker) may
#: take to exit before they count as leaked.
LEAK_GRACE_S = 3.0
#: Traced runs: layer self times plus untraced time must match wall time.
SUM_TOLERANCE = 0.02
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))

FIG9 = (
    "campaign", "--machine", "core2duo", "--distance", "0.10",
    "--repetitions", "3", "--seed", "{seed}", "--format", "json",
    "--cache-dir", "{cache}",
)


@dataclass(frozen=True)
class Workload:
    """One ``savat`` argv and how the benchmark runs it."""

    name: str
    #: savat argv; ``{seed}`` and ``{cache}`` are filled per invocation.
    argv: tuple[str, ...]
    #: Core 2 Duo distances the invocation calibrates (one per campaign).
    distances: tuple[float, ...]
    #: Timed invocations per ``run``.
    repeats: int
    #: sha256 of the float64 ``samples_zj`` bytes at :data:`PINNED_SEED`.
    digest: str
    #: Lowest Spearman rho vs the paper's matrix accepted as a correct
    #: output, for any seed.
    fidelity_floor: float
    workers: int = 1
    #: Reads a result cache filled once beforehand instead of a fresh one.
    warm: bool = False

    def calibrations(self) -> list[str]:
        return [f"core2duo@{distance}" for distance in self.distances]

    def command(self, seed: int, cache: Path, quick: bool = False) -> list[str]:
        argv = [part.format(seed=seed, cache=cache) for part in self.argv]
        if quick:
            argv[argv.index("--repetitions") + 1] = "1"
            if "--events" in argv:
                argv[argv.index("--events") + 1] = QUICK_EVENTS
            else:
                argv += ["--events", QUICK_EVENTS]
        return argv


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fig9_cold", FIG9, (0.10,), repeats=5,
            digest="8900241cb7e8cc38885bf507d5b17c2baf2340c2024d785d6cf832bdf191773f",
            fidelity_floor=0.8,
        ),
        Workload(
            "full_band",
            (
                "campaign", "--method", "full", "--events", "ADD,MUL,LDM,STM",
                "--repetitions", "3", "--seed", "{seed}", "--format", "json",
                "--no-cache",
            ),
            (0.10,), repeats=5,
            digest="74448724d164213625c054fa7c031fd43d005cbb6977d241ff1018d1c95510ad",
            fidelity_floor=0.2,
        ),
        Workload(
            "distance_study",
            (
                "study", "--machines", "core2duo",
                "--distances", "0.10,0.25,0.50,1.00", "--repetitions", "3",
                "--workers", "2", "--seed", "{seed}", "--format", "json",
                "--no-cache",
            ),
            (0.10, 0.25, 0.50, 1.00), repeats=5, workers=2,
            digest="c287f7e19bf1b306d34e80ca9c66dd9af8f37429ff0bcce7d9bde818eab65544",
            fidelity_floor=0.8,
        ),
        Workload(
            "fig9_warm", FIG9, (0.10,), repeats=10, warm=True,
            digest="8900241cb7e8cc38885bf507d5b17c2baf2340c2024d785d6cf832bdf191773f",
            fidelity_floor=0.8,
        ),
    )
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed invocation)."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def samples_digest(campaigns: list[dict]) -> str:
    import numpy as np

    digest = hashlib.sha256()
    for campaign in campaigns:
        digest.update(np.asarray(campaign["samples_zj"], dtype=np.float64).tobytes())
    return digest.hexdigest()


def fidelity(campaigns: list[dict]) -> float:
    """Lowest Spearman rho of a campaign's mean matrix vs its paper target."""
    import numpy as np

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.analysis.stats import matrix_correlations
    from repro.isa.events import EVENT_ORDER
    from repro.machines.calibrated import reference_for

    rhos = []
    for campaign in campaigns:
        index = [EVENT_ORDER.index(name) for name in campaign["events"]]
        target = reference_for(campaign["machine"], campaign["distance_m"]).values_zj
        mean = np.asarray(campaign["samples_zj"], dtype=np.float64).mean(axis=2)
        rhos.append(matrix_correlations(mean, target[np.ix_(index, index)])["spearman"])
    return min(rhos)


def _session_pids(session: int) -> list[int]:
    """Live (non-zombie) processes of a session, from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        state, _ppid, _pgrp, sid = stat[stat.rindex(")") + 2 :].split()[:4]
        if state != "Z" and int(sid) == session:
            pids.append(int(entry))
    return pids


def _stop_session(session: int) -> list[int]:
    """Let a finished child's session drain; kill and return what stays."""
    deadline = time.monotonic() + LEAK_GRACE_S
    while (left := _session_pids(session)) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in left:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while _session_pids(session) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left


def _shm_segments() -> set[str]:
    return {path.name for path in Path("/dev/shm").glob("savat_*")}


class Bench:
    """Spawns child processes against one checkout's ``src/``."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root).resolve()
        self.src = self.root / "src"
        if not (self.src / "repro" / "cli.py").is_file():
            raise BenchError(f"no savat sources under {self.src}")
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="session-", dir=WORK))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _env(self, workers: int, tmp: Path) -> dict:
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("SAVAT_") and key not in THREAD_VARS
        }
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(tmp)
        env.update(dict.fromkeys(THREAD_VARS, str(max(1, NPROC // max(1, workers)))))
        return env

    def _spawn(
        self,
        directory: Path,
        calibrations: list[str],
        savat_argv: list[str] | None,
        workers: int,
        trace: bool,
    ) -> dict:
        """Run one child in ``directory``; raw timings and problems."""
        tmp = directory / "tmp"
        tmp.mkdir()
        command = [
            sys.executable, str(CHILD),
            "--times", str(directory / "times.json"),
            "--stdout", str(directory / "stdout.json"),
        ]
        for item in calibrations:
            command += ["--calibrate", item]
        if trace:
            (directory / "spans").mkdir()
            command += ["--spans", str(directory / "spans")]
        if savat_argv:
            command += ["--", *savat_argv]
        shm_before = _shm_segments()
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        with open(directory / "stderr.txt", "w") as stderr:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                command,
                cwd=directory,
                env=self._env(workers, tmp),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
            )
            timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                t_end = time.monotonic()
            except BaseException:
                kill()
                os.wait4(proc.pid, 0)
                _stop_session(proc.pid)
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)

        problems = []
        if timed_out.is_set():
            problems.append(f"timed out after {INVOCATION_TIMEOUT_S:.0f} s")
        elif proc.returncode != 0:
            lines = (directory / "stderr.txt").read_text().strip().splitlines()
            problems.append(
                f"exit code {proc.returncode}: {lines[-1] if lines else 'no stderr'}"
            )
        orphans = _stop_session(proc.pid)
        if orphans:
            problems.append(f"leaked processes {orphans}")
        leaked = sorted(_shm_segments() - shm_before)
        if leaked:
            problems.append(f"leaked /dev/shm segments {leaked}")
        left = sorted(path.name for path in tmp.iterdir())
        if left:
            problems.append(f"leaked temp files {left}")
        times = {}
        if not problems:
            try:
                times = json.loads((directory / "times.json").read_text())
            except (OSError, ValueError) as error:
                problems.append(f"no child timestamps: {error}")
        if times and not Path(times["repro_file"]).resolve().is_relative_to(self.src):
            problems.append(f"imported repro from {times['repro_file']}, not {self.src}")
        return {
            "problems": problems,
            "t0": t0,
            "wall_s": t_end - t0,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "times": times,
        }

    def probe(self, calibrations: list[str]) -> dict:
        """A set-up-only child: import and calibrate, no CLI call."""
        directory = Path(tempfile.mkdtemp(prefix="inv-", dir=self.work))
        try:
            raw = self._spawn(directory, calibrations, None, 1, False)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        problems = raw["problems"]
        record = {"kind": "probe", "ok": not problems, "error": "; ".join(problems) or None}
        if record["ok"]:
            record["setup_s"] = raw["times"]["calibrated"] - raw["t0"]
        return record

    def warm_up(self) -> None:
        """One untimed import-only child: fills ``__pycache__`` and the page cache."""
        record = self.probe([])
        if not record["ok"]:
            raise BenchError(f"warm-up failed: {record['error']}")

    def prepare(self, workload: Workload, seed: int, quick: bool) -> tuple[Path, dict]:
        """Fill a result cache for a warm workload (pooled, untimed).

        The result cache key leaves out the worker count, and pooled
        samples are bit-identical to serial ones, so the serial warm
        invocations hit every cell.
        """
        cache = Path(tempfile.mkdtemp(prefix="warm-cache-", dir=self.work))
        extra = ["--workers", str(NPROC)] if NPROC > 1 else []
        record = self.invoke(workload, seed, cache, quick, extra=extra, workers=NPROC)
        record["kind"] = "prep"
        return cache, record

    def invoke(
        self,
        workload: Workload,
        seed: int,
        cache: Path | None = None,
        quick: bool = False,
        trace: bool = False,
        extra: list[str] = (),
        workers: int | None = None,
    ) -> dict:
        """One timed invocation of a workload (a fresh cache unless given)."""
        directory = Path(tempfile.mkdtemp(prefix="inv-", dir=self.work))
        try:
            argv = workload.command(seed, cache or directory / "cache", quick) + list(extra)
            raw = self._spawn(
                directory, workload.calibrations(), argv, workers or workload.workers, trace
            )
            record = {"kind": "traced" if trace else "run", "ok": False, "error": None}
            if raw["problems"]:
                record["error"] = "; ".join(raw["problems"])
                return record
            record.update(self._read_outputs(workload, argv, directory, raw))
            if trace:
                record["traced"] = self._read_spans(workload, directory, raw)
            return record
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _read_outputs(
        self, workload: Workload, argv: list[str], directory: Path, raw: dict
    ) -> dict:
        record = {
            "wall_s": raw["wall_s"],
            "setup_s": raw["times"]["calibrated"] - raw["t0"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        try:
            payload = json.loads((directory / "stdout.json").read_text())
        except (OSError, ValueError) as error:
            return {**record, "error": f"unparsable output: {error}"}
        campaigns = payload.get("campaigns", [payload])
        repetitions = int(argv[argv.index("--repetitions") + 1])
        problem = _check_campaigns(campaigns, workload.distances, repetitions)
        if problem:
            return {**record, "error": problem}
        cells = sum(len(campaign["events"]) ** 2 for campaign in campaigns)
        rho = fidelity(campaigns)
        record.update(
            cells=cells,
            cells_per_s=cells / raw["wall_s"],
            fidelity_spearman=rho,
            digest=samples_digest(campaigns),
            ok=True,
        )
        # A 2-event matrix has two off-diagonal cells; their rho may be NaN.
        if rho < workload.fidelity_floor:
            record.update(
                ok=False, error=f"fidelity {rho:.3f} below floor {workload.fidelity_floor}"
            )
        return record

    def _read_spans(self, workload: Workload, directory: Path, raw: dict) -> dict:
        spans, absent = tracing.load_spans(directory / "spans")
        result = tracing.analyze(spans, raw["times"]["pid"], raw["wall_s"], workload.workers)
        result["absent"] = absent
        result["wall_s"] = raw["wall_s"]
        result["ok"] = not absent and result["nesting_ok"] and result["sum_error"] <= SUM_TOLERANCE
        return result


def _check_campaigns(
    campaigns: list[dict], distances: tuple[float, ...], repetitions: int
) -> str | None:
    import numpy as np

    if len(campaigns) != len(distances):
        return f"expected {len(distances)} campaign(s), got {len(campaigns)}"
    for campaign, distance in zip(campaigns, distances):
        samples = np.asarray(campaign["samples_zj"], dtype=np.float64)
        count = len(campaign["events"])
        if campaign["machine"] != "core2duo" or abs(campaign["distance_m"] - distance) > 1e-9:
            return (
                f"campaign for {campaign['machine']}@{campaign['distance_m']}, "
                f"expected core2duo@{distance}"
            )
        if samples.shape != (count, count, repetitions):
            return f"samples shape {samples.shape}, expected {(count, count, repetitions)}"
        if not np.all(np.isfinite(samples)) or np.any(samples < 0):
            return "samples not finite and non-negative"
    return None


def check_digests(records: list[dict], expected: str | None) -> str | None:
    """Fail every record whose digest differs from ``expected``.

    ``expected`` is the pinned digest at the pinned seed; otherwise the
    first successful record's digest, so every invocation of one seed
    must agree (prep, cold, warm and traced alike).
    """
    digests = [record["digest"] for record in records if record.get("digest")]
    expected = expected or (digests[0] if digests else None)
    for record in records:
        if record["ok"] and record.get("digest") and record["digest"] != expected:
            record["ok"] = False
            record["error"] = f"samples digest {record['digest'][:16]} != {expected[:16]}"
    return expected


def expected_digest(workload: Workload, seed: int, quick: bool) -> str | None:
    return workload.digest if seed == PINNED_SEED and not quick else None


def e2e_values(records: list[dict]) -> dict[str, list[float]]:
    """End-to-end metric samples of a workload's successful records."""
    runs = [record for record in records if record["kind"] == "run" and record["ok"]]
    setups = [record for record in records if record["kind"] in ("run", "probe") and record["ok"]]
    return {
        "wall_s": [record["wall_s"] for record in runs],
        "setup_s": [record["setup_s"] for record in setups],
        "cells_per_s": [record["cells_per_s"] for record in runs],
        "peak_rss_mb": [record["peak_rss_mb"] for record in runs],
        "fidelity_spearman": [record["fidelity_spearman"] for record in runs],
    }


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _describe(name: str, record: dict) -> str:
    if not record["ok"]:
        return f"{name} {record['kind']}: FAILED {record['error']}"
    if "wall_s" not in record:
        return f"{name} {record['kind']}: setup {record['setup_s']:.2f} s"
    return (
        f"{name} {record['kind']}: wall {record['wall_s']:.2f} s, setup "
        f"{record['setup_s']:.2f} s, rss {record['peak_rss_mb']:.0f} MB"
    )


# ----------------------------------------------------------------------
# measure: one workload, time-boxed, one JSON line
# ----------------------------------------------------------------------
def command_measure(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    spec = load_spec()
    started = time.monotonic()
    bench = Bench(ROOT)
    try:
        bench.warm_up()
        records: list[dict] = []
        cache = None
        if workload.warm:
            cache, prep = bench.prepare(workload, args.seed, quick=False)
            records.append(prep)
        if args.trace:
            records.append(bench.invoke(workload, args.seed, cache))
            _log(_describe(workload.name, records[-1]))
        loop_start = time.monotonic()
        walls: list[float] = []
        while True:
            record = bench.invoke(workload, args.seed, cache, trace=bool(args.trace))
            records.append(record)
            _log(_describe(workload.name, record))
            if not record["ok"]:
                break
            walls.append(record["wall_s"])
            elapsed = time.monotonic() - loop_start
            if (
                elapsed + statistics.median(walls) > args.seconds
                or time.monotonic() - started > MEASURE_CUTOFF_S
            ):
                break
        if not args.trace:
            setups = sum(1 for r in records if r["ok"] and "setup_s" in r and r["kind"] != "prep")
            while setups < SETUP_SAMPLES and time.monotonic() - started <= MEASURE_CUTOFF_S:
                record = bench.probe(workload.calibrations())
                records.append(record)
                _log(_describe(workload.name, record))
                if not record["ok"]:
                    break
                setups += 1
    finally:
        bench.close()

    check_digests(records, expected_digest(workload, args.seed, False))
    failed = [record for record in records if not record["ok"]]
    for record in failed:
        _log(_describe(workload.name, record))
    if args.trace:
        traced = [r["traced"] for r in records if r["kind"] == "traced" and r["ok"]]
        untraced = [r["wall_s"] for r in records if r["kind"] == "run" and r["ok"]]
        if not traced or not untraced:
            _log("no successful traced and untraced invocation")
            return 1
        for result in traced:
            if result["absent"]:
                _log(f"absent wrapper targets: {', '.join(result['absent'])}")
        values = {
            name: [result["metrics"][name] for result in traced]
            for name in traced[0]["metrics"]
        }
        values["tracing_overhead"] = [
            result["wall_s"] / statistics.median(untraced) - 1.0 for result in traced
        ]
        metric_specs = spec["per_layer"]
    else:
        values = e2e_values(records)
        if not values["wall_s"]:
            _log("no successful invocation")
            return 1
        metric_specs = spec["end_to_end"]
    medians = {name: statistics.median(samples) for name, samples in values.items()}
    metrics = {
        metric["name"]: {"value": medians[metric["name"]], "unit": metric["unit"]}
        for metric in metric_specs
    }
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# run: every workload, round-robin, plus one traced run each
# ----------------------------------------------------------------------
def host_facts(root: Path) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def measure_checkouts(
    roots: list[Path], seed: int, quick: bool, rounds: int | None = None
) -> list[dict]:
    """Run every workload against each checkout; one result per root.

    With several roots the invocations of one round alternate between
    them, and the order flips every round (``ab``).  ``rounds`` overrides
    each workload's ``repeats``.
    """
    benches: list[Bench] = []
    records = [{name: [] for name in WORKLOADS} for _ in roots]
    try:
        benches.extend(Bench(root) for root in roots)
        caches = []
        for bench, side in zip(benches, records):
            bench.warm_up()
            cache = {}
            for workload in WORKLOADS.values():
                if workload.warm:
                    cache[workload.name], prep = bench.prepare(workload, seed, quick)
                    side[workload.name].append(prep)
                    _log(_describe(workload.name, prep))
            caches.append(cache)
        total = rounds or max(workload.repeats for workload in WORKLOADS.values())
        for index in range(total):
            order = list(range(len(roots)))
            if index % 2:
                order.reverse()
            for workload in WORKLOADS.values():
                if rounds is None and index >= workload.repeats:
                    continue
                for side in order:
                    record = benches[side].invoke(
                        workload, seed, caches[side].get(workload.name), quick
                    )
                    records[side][workload.name].append(record)
                    _log(_describe(workload.name, record))
        for workload in WORKLOADS.values():
            for side, bench in enumerate(benches):
                record = bench.invoke(
                    workload, seed, caches[side].get(workload.name), quick, trace=True
                )
                records[side][workload.name].append(record)
                _log(_describe(workload.name, record))
    finally:
        for bench in benches:
            bench.close()
    return [
        build_result(root, side, seed, quick) for root, side in zip(roots, records)
    ]


def build_result(root: Path, records: dict[str, list[dict]], seed: int, quick: bool) -> dict:
    spec = load_spec()
    definitions = {metric["name"]: metric for metric in spec["end_to_end"]}
    definitions["failure_fraction"] = {
        "name": "failure_fraction", "unit": "fraction", "better": "lower", "bound": 0.0,
    }
    workloads = {}
    for name, workload in WORKLOADS.items():
        runs = records[name]
        digest = check_digests(runs, expected_digest(workload, seed, quick))
        values = e2e_values(runs)
        failed = sum(not record["ok"] for record in runs)
        values["failure_fraction"] = [failed / len(runs)]
        untraced = values["wall_s"]
        traced = next((r for r in runs if r["kind"] == "traced" and r["ok"]), None)
        if traced:
            layer_values = traced["traced"]["metrics"]
            if untraced:
                layer_values["tracing_overhead"] = (
                    traced["wall_s"] / statistics.median(untraced) - 1.0
                )
            traced["traced"]["metrics"] = {
                metric["name"]: {"value": layer_values[metric["name"]], "unit": metric["unit"]}
                for metric in spec["per_layer"]
                if metric["name"] in layer_values
            }
        workloads[name] = {
            "argv": list(workload.command(seed, Path("<cache>"), quick)),
            "digest": digest,
            "digest_pinned": expected_digest(workload, seed, quick),
            "metrics": {
                metric: {
                    **{key: definitions[metric][key] for key in ("unit", "better", "bound")},
                    **compare.summarize(samples),
                    "values": samples,
                }
                for metric, samples in values.items()
                if samples
            },
            "traced": traced["traced"] if traced else None,
            "runs": [{key: value for key, value in r.items() if key != "traced"} for r in runs],
        }
    return {
        "schema": "savat-e2e/1",
        "host": host_facts(root),
        "seed": seed,
        "quick": quick,
        "workloads": workloads,
    }


def result_ok(result: dict) -> bool:
    """No failed invocation, and every traced run passed its checks."""
    return all(
        entry["metrics"]["failure_fraction"]["median"] == 0
        and entry["traced"] is not None
        and entry["traced"]["ok"]
        for entry in result["workloads"].values()
    )


def format_result(result: dict) -> str:
    lines = [
        f"seed {result['seed']}{' (quick)' if result['quick'] else ''}; host {result['host']}",
        "tail = max: with n <= 10 no percentile has ten samples beyond it",
        f"{'workload':<15} {'metric':<18} {'unit':<9} {'median':>10} {'q1':>10} "
        f"{'q3':>10} {'min':>10} {'max':>10} {'n':>3}",
    ]
    for name, entry in result["workloads"].items():
        for metric, summary in entry["metrics"].items():
            lines.append(
                f"{name:<15} {metric:<18} {summary['unit']:<9} "
                + " ".join(f"{summary[key]:>10.4g}" for key in ("median", "q1", "q3", "min", "max"))
                + f" {summary['n']:>3}"
            )
        pinned = entry["digest_pinned"]
        status = "pinned, matches" if pinned and entry["digest"] == pinned else (
            "MISMATCH vs pinned" if pinned else "not pinned")
        lines.append(f"{name:<15} digest {str(entry['digest'])[:16]}... ({status})")
    lines.append("")
    lines.append(format_layers(result))
    return "\n".join(lines)


def format_layers(result: dict) -> str:
    """The traced runs' layer table: self time and share of wall per workload."""
    names = list(result["workloads"])
    traced = {name: result["workloads"][name]["traced"] or {} for name in names}
    rows: dict[str, dict[str, str]] = {}
    for name in names:
        for row in traced[name].get("layers", []):
            rows.setdefault(row["layer"], {})[name] = f"{row['self_s']:.3f} s ({row['share']:.1%})"
        for key in ("wall_s", "sum_error"):
            if key in traced[name]:
                rows.setdefault(f"traced {key}", {})[name] = f"{traced[name][key]:.4g}"
        for key, metric in traced[name].get("metrics", {}).items():
            if not key.endswith((".self_s", ".calls")) and key not in ("import_s", "untraced_s"):
                rows.setdefault(key, {})[name] = f"{metric['value']:.4g}"
    lines = [
        "traced run: self seconds (share of traced wall); pool workers' "
        "self time is included, so pooled shares can sum past 100%",
        f"{'layer':<28}" + "".join(f" {name:>20}" for name in names),
    ]
    for layer, cells in rows.items():
        lines.append(f"{layer:<28}" + "".join(f" {cells.get(name, '-'):>20}" for name in names))
    absent = sorted({item for entry in traced.values() for item in entry.get("absent", [])})
    lines.append(f"absent wrapper targets: {', '.join(absent) or 'none'}")
    return "\n".join(lines)


def command_run(args: argparse.Namespace) -> int:
    (result,) = measure_checkouts([ROOT], args.seed, args.quick, rounds=1 if args.quick else None)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(format_result(result))
    print(f"\nwrote {out}")
    return 0 if result_ok(result) else 1


# ----------------------------------------------------------------------
# compare / ab
# ----------------------------------------------------------------------
def format_compare(base: dict, head: dict, claim: str | None = None) -> tuple[str, bool]:
    """Side-by-side verdict table; ``ok`` is False on a digest mismatch or unmet claim."""
    def cell(summary: dict) -> str:
        return f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"

    ok = True
    lines = [
        f"{'metric':<18} {'workload':<15} {'base median [q1, q3]':<32} "
        f"{'head median [q1, q3]':<32} {'bound':>5}  verdict"
    ]
    for name, base_entry in base["workloads"].items():
        head_entry = head["workloads"].get(name)
        if head_entry is None:
            continue
        for metric, b in base_entry["metrics"].items():
            h = head_entry["metrics"].get(metric)
            if h is None:
                continue
            outcome = compare.verdict(b["values"], h["values"], b["better"], b["bound"])
            lines.append(
                f"{metric:<18} {name:<15} {cell(b):<32} {cell(h):<32} "
                f"{b['bound']:>5.2f}  {outcome}"
            )
        if base_entry["digest"] is None or base_entry["digest"] != head_entry["digest"]:
            ok = False
            lines.append(
                f"{'digest':<18} {name:<15} MISMATCH "
                f"{base_entry['digest']} != {head_entry['digest']}"
            )
        else:
            lines.append(f"{'digest':<18} {name:<15} equal ({base_entry['digest'][:16]}...)")
    if claim:
        metric, _, workload = claim.partition("@")
        try:
            b = base["workloads"][workload]["metrics"][metric]
            h = head["workloads"][workload]["metrics"][metric]
        except KeyError:
            raise BenchError(f"no metric {metric!r} on workload {workload!r} to claim") from None
        outcome = compare.claim(b["values"], h["values"], b["better"])
        ok = ok and outcome["met"]
        lines.append(
            f"claim {claim}: {'MET' if outcome['met'] else 'NOT MET'}: "
            f"{outcome['wins']}/{outcome['pairs']} pair wins (need >= 9/10 and >= 10 pairs), "
            f"median gain {outcome['gain']:.4g} vs base IQR {outcome['base_iqr']:.4g}"
        )
    return "\n".join(lines), ok


def command_compare(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text())
    head = json.loads(Path(args.head).read_text())
    text, ok = format_compare(base, head, args.claim)
    print(text)
    return 0 if ok else 1


def command_ab(args: argparse.Namespace) -> int:
    parent, change = measure_checkouts(
        [Path(args.parent), Path(args.change)], args.seed, False, rounds=args.pairs
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "parent.json").write_text(json.dumps(parent, indent=1) + "\n")
    (out / "change.json").write_text(json.dumps(change, indent=1) + "\n")
    text, ok = format_compare(parent, change)
    print(text)
    print(f"\nwrote {out / 'parent.json'} and {out / 'change.json'}")
    return 0 if ok and result_ok(parent) and result_ok(change) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="every workload, round-robin, plus a traced run each")
    run.add_argument("--seed", type=int, default=PINNED_SEED)
    run.add_argument("--quick", action="store_true", help=f"events {QUICK_EVENTS}, 1 repetition")
    run.add_argument("--out", default=str(WORK / "run.json"))
    run.set_defaults(handler=command_run)

    measure = commands.add_parser("measure", help="one workload for --seconds; one JSON line")
    measure.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(handler=command_measure)

    comparison = commands.add_parser("compare", help="verdicts for two run results")
    comparison.add_argument("base")
    comparison.add_argument("head")
    comparison.add_argument("--claim", metavar="METRIC@WORKLOAD")
    comparison.set_defaults(handler=command_compare)

    ab = commands.add_parser("ab", help="paired runs of two checkouts, alternating order")
    ab.add_argument("parent")
    ab.add_argument("change")
    ab.add_argument("--pairs", type=int, default=10)
    ab.add_argument("--seed", type=int, default=PINNED_SEED)
    ab.add_argument("--out-dir", default=str(WORK / "ab"))
    ab.set_defaults(handler=command_ab)
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BenchError as error:
        _log(f"bench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Regression tests: parallel execution is bit-identical to serial.

The executor's contract is that the per-cell seed schedule — not the
execution order — determines every noise draw, so fanning a campaign
out across worker processes must reproduce the serial samples bit for
bit, and the same seed must always yield the same matrix.  The
``workers`` validation and leak checks live here too.
"""

import ctypes
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cli import main as cli_main
from repro.core import executor as executor_module
from repro.core.campaign import run_campaign
from repro.core.executor import (
    WorkerPool,
    _validate_workers,
    cell_seed,
    execute_campaign,
    spawn_cell_seeds,
)
from repro.core.faults import FaultPlan
from repro.core.savat import MeasurementConfig
from repro.core.study import run_study
from repro.errors import CellExecutionError, ConfigurationError
from repro.isa.events import get_event
from repro.machines.calibrated import load_calibrated_machine

#: A fast config for executor tests: a 10x higher alternation frequency
#: shrinks the simulated period 10x without changing the code paths.
FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB", "MUL", "NOI")

#: The small campaign the validation, leak, and property tests run.
PAIR_EVENTS = ("ADD", "SUB")
SEED = 3
REPETITIONS = 2


def _run(machine, **overrides):
    parameters = dict(
        events=PAIR_EVENTS,
        repetitions=REPETITIONS,
        seed=SEED,
        config=FAST_CONFIG,
    )
    parameters.update(overrides)
    return run_campaign(machine, **parameters)


def _savat_segments() -> list[str]:
    """Every /dev/shm entry under this project's ``savat_`` prefix."""
    return sorted(path.name for path in Path("/dev/shm").glob("savat_*"))


class TestSeedSchedule:
    def test_schedule_is_deterministic(self):
        first = spawn_cell_seeds(7, 4)
        second = spawn_cell_seeds(7, 4)
        assert len(first) == 16
        for a, b in zip(first, second):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key

    def test_cells_draw_distinct_streams(self):
        seeds = spawn_cell_seeds(0, 3)
        draws = {
            float(np.random.default_rng(seq).normal()) for seq in seeds
        }
        assert len(draws) == 9

    def test_cell_seed_matches_schedule_entry(self):
        seeds = spawn_cell_seeds(42, 4)
        entry = cell_seed(42, 4, 2, 3)
        assert entry.spawn_key == seeds[2 * 4 + 3].spawn_key

    def test_cell_seed_rejects_out_of_range_cells(self):
        with pytest.raises(ConfigurationError):
            cell_seed(0, 3, 3, 0)
        with pytest.raises(ConfigurationError):
            cell_seed(0, 3, 0, -1)

    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(1, 11),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_cell_seed_equals_the_spawned_entry(self, seed, count, data):
        """Property: the cell's seed built alone is the spawned schedule
        entry, and so is every stream drawn from it."""
        i = data.draw(st.integers(0, count - 1))
        j = data.draw(st.integers(0, count - 1))
        alone = cell_seed(seed, count, i, j)
        spawned = spawn_cell_seeds(seed, count)[i * count + j]
        assert (alone.entropy, alone.spawn_key, alone.pool_size) == (
            spawned.entropy, spawned.spawn_key, spawned.pool_size
        )
        assert np.array_equal(alone.generate_state(4), spawned.generate_state(4))

    def test_fully_cached_campaign_never_imports_numpy_random(
        self, core2duo_10cm, tmp_path
    ):
        """Seeds are derived only for cold cells, so a rerun whose every
        cell is cached leaves ``numpy.random`` unimported."""
        argv = [
            "campaign", "--events", "ADD,SUB", "--repetitions", "1",
            "--workers", "0", "--cache-dir", str(tmp_path), "--format", "csv",
        ]
        assert cli_main(argv) == 0
        source = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.slow
class TestParallelMatchesSerial:
    @pytest.fixture(scope="class")
    def serial(self, core2duo_10cm):
        return run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=5,
            config=FAST_CONFIG,
        )

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parallel_is_bit_identical(self, core2duo_10cm, serial, workers):
        parallel = run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=5,
            config=FAST_CONFIG,
            workers=workers,
        )
        assert np.array_equal(parallel.samples_zj, serial.samples_zj)
        assert parallel.events == serial.events

    def test_same_seed_reproduces_exactly(self, core2duo_10cm, serial):
        again = run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=5,
            config=FAST_CONFIG,
        )
        assert np.array_equal(again.samples_zj, serial.samples_zj)

    def test_different_seed_differs(self, core2duo_10cm, serial):
        other = run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=6,
            config=FAST_CONFIG,
        )
        assert not np.array_equal(other.samples_zj, serial.samples_zj)

    def test_execution_metadata_recorded(self, core2duo_10cm):
        matrix = run_campaign(
            core2duo_10cm,
            events=("ADD", "SUB"),
            repetitions=1,
            seed=5,
            config=FAST_CONFIG,
            workers=2,
        )
        execution = matrix.metadata["execution"]
        assert execution["workers"] == 2
        assert execution["cells_simulated"] == 4
        assert execution["cache_hits"] == 0
        assert execution["cache_misses"] == 0
        assert set(execution["cell_seconds"]) == {
            "ADD/ADD", "ADD/SUB", "SUB/ADD", "SUB/SUB"
        }
        assert all(t >= 0 for t in execution["cell_seconds"].values())
        assert execution["wall_seconds"] > 0

    def test_parallel_progress_reports_every_cell(self, core2duo_10cm):
        calls = []
        run_campaign(
            core2duo_10cm,
            events=("ADD", "SUB"),
            repetitions=1,
            seed=5,
            config=FAST_CONFIG,
            workers=2,
            progress=lambda a, b, done, total: calls.append((a, b, done, total)),
        )
        assert len(calls) == 4
        assert [call[2] for call in calls] == [1, 2, 3, 4]
        assert {call[:2] for call in calls} == {
            ("ADD", "ADD"), ("ADD", "SUB"), ("SUB", "ADD"), ("SUB", "SUB")
        }


@pytest.mark.slow
class TestSeveralMachineSpecs:
    """One execution over two machine specs and two distances equals the
    standalone campaigns bit for bit, serial or pooled, either method."""

    POINTS = (("core2duo", 0.10), ("pentium3m", 0.10), ("core2duo", 0.50))
    FULL_CONFIG = MeasurementConfig(
        alternation_frequency_hz=800e3, method="full", duration_s=0.01
    )

    @pytest.fixture(scope="class")
    def standalone(self):
        return {
            (config.method, point): _run(
                load_calibrated_machine(*point), config=config
            ).samples_zj
            for config in (FAST_CONFIG, self.FULL_CONFIG)
            for point in self.POINTS
        }

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("method", ["analytic", "full"])
    def test_equals_standalone_campaigns(self, standalone, method, workers):
        config = FAST_CONFIG if method == "analytic" else self.FULL_CONFIG
        results = execute_campaign(
            [load_calibrated_machine(*point) for point in self.POINTS],
            [get_event(name) for name in PAIR_EVENTS],
            config=config,
            repetitions=REPETITIONS,
            seed=SEED,
            workers=workers,
        )
        for point, (samples, stats) in zip(self.POINTS, results):
            assert np.array_equal(samples, standalone[(method, point)]), point
            assert stats.cells_simulated == len(PAIR_EVENTS) ** 2
            assert stats.workers == max(workers, 1)


@pytest.mark.slow
class TestOutstandingAttempts:
    """A pool keeps one cell queued behind each running one, unless budgeted."""

    @pytest.fixture
    def outstanding(self, monkeypatch):
        """Sizes of the attempt sets the executor waits on."""
        sizes = []
        original = executor_module.wait

        def spy(futures, **kwargs):
            sizes.append(len(futures))
            return original(futures, **kwargs)

        monkeypatch.setattr(executor_module, "wait", spy)
        return sizes

    def test_two_workers_without_a_budget_keep_four_attempts(
        self, core2duo_10cm, outstanding
    ):
        matrix = _run(core2duo_10cm, workers=2)
        assert max(outstanding) == 4
        assert matrix.metadata["execution"]["workers"] == 2
        assert np.array_equal(matrix.samples_zj, _run(core2duo_10cm).samples_zj)

    def test_a_budget_keeps_one_attempt_per_worker(self, core2duo_10cm, outstanding):
        _run(core2duo_10cm, workers=2, cell_timeout_s=60.0)
        assert max(outstanding) == 2

    def test_a_serial_run_keeps_one_attempt(self, core2duo_10cm, outstanding):
        _run(core2duo_10cm, workers=0)
        assert set(outstanding) == {1}


class TestExecuteCampaignValidation:
    def test_rejects_empty_event_list(self, core2duo_10cm):
        with pytest.raises(ConfigurationError):
            execute_campaign(core2duo_10cm, [], repetitions=1)

    def test_rejects_zero_repetitions(self, core2duo_10cm):
        with pytest.raises(ConfigurationError):
            execute_campaign(core2duo_10cm, [get_event("ADD")], repetitions=0)

    def test_rejects_an_event_listed_twice(self, core2duo_10cm):
        with pytest.raises(ConfigurationError, match="event ADD listed twice"):
            execute_campaign(core2duo_10cm, [get_event("ADD"), get_event("add")])

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True, None])
    def test_rejects_bad_seed(self, core2duo_10cm, seed):
        with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
            execute_campaign(core2duo_10cm, [get_event("ADD")], repetitions=1, seed=seed)


class TestSeveralCalibrationsValidation:
    """One execution over several calibrations takes each (machine,
    distance) at most once, and per-campaign outputs for each of them."""

    def test_rejects_one_machine_at_one_distance_twice(self, core2duo_10cm):
        machines = [
            core2duo_10cm,
            load_calibrated_machine("pentium3m", 0.10),
            load_calibrated_machine("core2duo", 0.10),
        ]
        with pytest.raises(ConfigurationError, match="'core2duo' at 0.1 m twice"):
            execute_campaign(machines, [get_event("ADD")])

    def test_rejects_one_distance_twice(self, core2duo_10cm):
        with pytest.raises(ConfigurationError, match="distinct distances"):
            execute_campaign([core2duo_10cm, core2duo_10cm], [get_event("ADD")])

    def test_rejects_one_bundle_for_several(self, core2duo_10cm, core2duo_100cm):
        from repro.obs import CampaignObservability

        for bundles in (CampaignObservability(), [CampaignObservability()]):
            with pytest.raises(ConfigurationError, match="bundle"):
                execute_campaign(
                    [core2duo_10cm, core2duo_100cm], [get_event("ADD")],
                    observability=bundles,
                )


class TestWorkersValidation:
    @pytest.mark.parametrize("workers", [-1, -7, 2.5, "3", True, None])
    def test_bad_values_are_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            _validate_workers(workers)

    @pytest.mark.parametrize("workers", [0, 1, 4, np.int64(2)])
    def test_good_values_normalize(self, workers):
        value = _validate_workers(workers)
        assert isinstance(value, int)
        assert value == int(workers)

    def test_run_campaign_rejects_bad_workers(self, core2duo_10cm):
        with pytest.raises(ConfigurationError, match="workers"):
            _run(core2duo_10cm, workers=-1)

    def test_run_study_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_study(["core2duo"], [0.10], workers=-2)

    @pytest.mark.parametrize("value", ["-1", "2.5", "lots"])
    def test_cli_rejects_bad_workers_at_parse_time(self, value, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--workers", value]
            )
        assert "workers" in capsys.readouterr().err

    def test_worker_pool_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError, match="workers"):
            WorkerPool(-1)


def _openblas():
    """numpy's bundled OpenBLAS with its thread-count setter, or ``None``."""
    libraries = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libraries.glob("libscipy_openblas64_*.so"):
        library = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        if hasattr(library, "scipy_openblas_set_num_threads64_"):
            return library
    return None


def _blas_threads() -> int:
    """This process's OpenBLAS thread count (run inside a pool worker)."""
    return _openblas().scipy_openblas_get_num_threads64_()


needs_openblas = pytest.mark.skipif(
    _openblas() is None, reason="numpy's OpenBLAS thread setter is not exported"
)


@needs_openblas
class TestPoolBlasThreads:
    """Pool workers split the usable CPUs' BLAS threads between them."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_runs_its_share_of_the_cpus(self, workers):
        parent = _blas_threads()
        share = max(1, len(os.sched_getaffinity(0)) // workers)
        with WorkerPool(workers) as pool:
            counts = {
                pool.submit(_blas_threads).result() for _ in range(2 * workers)
            }
        assert counts == {min(parent, share)}
        assert _blas_threads() == parent

    def test_projection_is_bit_identical_at_one_and_two_threads(self):
        from repro.uarch.activity import NUM_COMPONENTS, ActivityTrace

        generator = np.random.default_rng(2014)
        trace = ActivityTrace(
            generator.random((NUM_COMPONENTS, 200_003)), clock_hz=2e9
        )
        weights = generator.normal(size=(4, NUM_COMPONENTS))
        library = _openblas()
        before = library.scipy_openblas_get_num_threads64_()
        try:
            projected = {}
            for threads in (1, 2):
                library.scipy_openblas_set_num_threads64_(threads)
                projected[threads] = trace.project(weights)
        finally:
            library.scipy_openblas_set_num_threads64_(before)
        assert np.array_equal(projected[1], projected[2])


@pytest.mark.slow
class TestCliDefaultWorkers:
    """``savat campaign`` without ``--workers`` uses the usable CPUs."""

    def test_cached_rerun_builds_no_pool(
        self, core2duo_10cm, tmp_path, capsys, monkeypatch
    ):
        import repro.core.executor as executor
        from repro.cli import main

        arguments = [
            "campaign", "--events", "ADD,SUB", "--repetitions", "1",
            "--cache-dir", str(tmp_path), "--format", "json",
        ]
        assert main(arguments) == 0
        cold = json.loads(capsys.readouterr().out)
        built = []

        class RecordingPool(WorkerPool):
            def __init__(self, workers):
                built.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(executor, "WorkerPool", RecordingPool)
        assert main(arguments) == 0
        warm = json.loads(capsys.readouterr().out)
        assert built == []
        assert warm["samples_zj"] == cold["samples_zj"]
        assert warm["metadata"]["execution"]["cells_simulated"] == 0
        assert warm["metadata"]["execution"]["workers"] == 1
        # Four cold cell groups: one worker per usable CPU, at most four.
        assert cold["metadata"]["execution"]["workers"] == min(
            len(os.sched_getaffinity(0)), 4
        )


@pytest.mark.slow
class TestNoSegmentLeaks:
    """Pooled campaigns leave no ``/dev/shm/savat_*`` entry on any exit path.

    Nor a live worker process once an attempt was abandoned: a hung
    worker would otherwise keep the interpreter from exiting.
    """

    def test_successful_pooled_campaign(self, core2duo_10cm):
        _run(core2duo_10cm, workers=2)
        assert _savat_segments() == []

    def test_fatal_cell_execution_error(self, core2duo_10cm):
        plan = FaultPlan.from_spec("raise@0,0x9")
        with pytest.raises(CellExecutionError):
            _run(core2duo_10cm, workers=2, max_retries=0, fault_plan=plan)
        assert _savat_segments() == []

    def test_timeout_and_retry_path(self, core2duo_10cm):
        plan = FaultPlan.from_spec("hang@0,1:1.5")
        _run(
            core2duo_10cm,
            workers=2,
            cell_timeout_s=0.4,
            max_retries=2,
            fault_plan=plan,
        )
        assert _savat_segments() == []

    @pytest.mark.timeout(25)
    def test_abandoned_hang_leaves_no_live_worker(self, core2duo_10cm):
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        matrix = _run(
            core2duo_10cm,
            workers=2,
            cell_timeout_s=0.5,
            max_retries=1,
            fault_plan=FaultPlan.from_spec("hang@0,1:30"),
        )
        assert set(multiprocessing.active_children()) - before == set()
        assert time.monotonic() - started < 15
        assert matrix.metadata["execution"]["timeouts"] == 1

    @pytest.mark.timeout(25)
    def test_every_slot_lost_to_hung_cells(self, core2duo_10cm):
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(CellExecutionError, match="lost to hung cells") as excinfo:
            _run(
                core2duo_10cm,
                workers=2,
                cell_timeout_s=0.3,
                max_retries=3,
                fault_plan=FaultPlan.from_spec("hang@0,0:6x9;hang@0,1:6x9"),
            )
        assert time.monotonic() - started < 5
        assert set(multiprocessing.active_children()) - before == set()
        assert excinfo.value.pair in {"ADD/ADD", "ADD/SUB"}
        assert excinfo.value.attempts >= 1


@pytest.mark.slow
@pytest.mark.timeout(600)
class TestBitIdentityProperty:
    @pytest.fixture(scope="class")
    def reference(self, core2duo_10cm):
        """The serial run every other run must match."""
        return _run(core2duo_10cm)

    @settings(max_examples=6, deadline=None)
    @given(workers=st.sampled_from((0, 2)))
    def test_samples_are_invariant(self, core2duo_10cm, reference, workers):
        matrix = _run(core2duo_10cm, workers=workers)
        assert np.array_equal(matrix.samples_zj, reference.samples_zj)

    def test_combined_fault_plan(self, core2duo_10cm, reference, tmp_path):
        plan = FaultPlan.from_spec("raise@0,0;hang@0,1:1.5;corrupt@1,0")
        matrix = _run(
            core2duo_10cm,
            cache_dir=tmp_path,
            workers=2,
            cell_timeout_s=0.4,
            max_retries=2,
            fault_plan=plan,
        )
        execution = matrix.metadata["execution"]
        assert np.array_equal(matrix.samples_zj, reference.samples_zj)
        assert execution["faults_injected"] == {
            "raise": 1, "hang": 1, "corrupt": 1,
        }
        assert _savat_segments() == []

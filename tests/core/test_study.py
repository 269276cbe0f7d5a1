"""Tests for the study runner: one trace per cell group.

A study is only allowed to remove *redundant* work: every campaign in
the grid must produce bit-identical samples to a standalone
``run_campaign`` with the same arguments — serial or pooled, with
either measurement method, and with the result cache cold, warm, or
partly warm — while each cell's kernel trace is produced once for all
distances of a machine, and the whole grid runs as one execution.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.core import executor, savat
from repro.core.campaign import run_campaign
from repro.core.executor import campaign_cache_key
from repro.core.savat import MeasurementConfig
from repro.core.study import StudyResult, run_study
from repro.core.trace_cache import TraceCache
from repro.errors import CellExecutionError, ConfigurationError
from repro.machines.calibrated import load_calibrated_machine

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)
FULL_CONFIG = MeasurementConfig(
    alternation_frequency_hz=800e3, method="full", duration_s=0.01
)

EVENTS = ("ADD", "SUB")
CELLS = len(EVENTS) ** 2
SEED = 3
REPETITIONS = 2
DISTANCES = (0.10, 0.50)


def _study(**overrides) -> StudyResult:
    parameters = dict(
        machines=["core2duo"],
        distances_m=DISTANCES,
        events=EVENTS,
        config=FAST_CONFIG,
        repetitions=REPETITIONS,
        seed=SEED,
    )
    parameters.update(overrides)
    return run_study(**parameters)


def _standalone(distance, config=FAST_CONFIG, machine="core2duo"):
    return run_campaign(
        load_calibrated_machine(machine, distance),
        config=config,
        events=EVENTS,
        repetitions=REPETITIONS,
        seed=SEED,
    )


def _phases(matrix) -> set[str]:
    return set(matrix.metadata["execution"]["phase_seconds"])


@pytest.fixture
def prime_calls(monkeypatch):
    """Counts ``prime_alternation_steady_state`` calls in this process.

    A cell whose frequency is re-tuned primes once per simulation
    attempt, so the count per trace is the same for every run of a cell
    but not always one.
    """
    calls = []
    prime = savat.prime_alternation_steady_state

    def counting(*args, **kwargs):
        calls.append(args)
        return prime(*args, **kwargs)

    monkeypatch.setattr(savat, "prime_alternation_steady_state", counting)
    return calls


def _standalone_prime_calls(
    prime_calls, distance, config=FAST_CONFIG, machine="core2duo"
) -> int:
    del prime_calls[:]
    _standalone(distance, config, machine)
    count = len(prime_calls)
    del prime_calls[:]
    return count


@pytest.mark.slow
class TestStudySamples:
    @pytest.fixture(scope="class")
    def serial_study(self):
        return _study()

    def test_matches_standalone_campaigns_bit_for_bit(self, serial_study):
        for distance in DISTANCES:
            matrix = serial_study.matrix_for("core2duo", distance)
            assert np.array_equal(
                _standalone(distance).samples_zj, matrix.samples_zj
            )

    def test_second_distance_skips_trace_production(self, serial_study):
        first, second = serial_study.matrices
        assert {"prime", "core_run"} <= _phases(first)
        assert _phases(second) == {"analyze"}
        assert second.metadata["execution"]["cells_simulated"] == CELLS

    def test_pool_study_equals_serial_study(self, serial_study):
        pooled = _study(workers=2)
        for serial_matrix, pooled_matrix in zip(
            serial_study.matrices, pooled.matrices
        ):
            assert np.array_equal(
                serial_matrix.samples_zj, pooled_matrix.samples_zj
            )
        assert _phases(pooled.matrices[1]) == {"analyze"}

    def test_matrix_for_unknown_campaign_raises(self, serial_study):
        with pytest.raises(ConfigurationError):
            serial_study.matrix_for("core2duo", 0.33)

    def test_totals_aggregate_campaign_counters(self, serial_study):
        summed = {
            name: sum(
                matrix.metadata["execution"]["trace_cache"][name]
                for matrix in serial_study.matrices
            )
            for name in serial_study.trace_cache
        }
        assert serial_study.trace_cache == summed


@pytest.mark.slow
class TestStudyEqualsStandaloneCampaigns:
    """Serial and pooled, both methods, result cache cold/warm/partly warm."""

    @pytest.fixture(scope="class")
    def standalone(self):
        return {
            (config.method, distance): _standalone(distance, config).samples_zj
            for config in (FAST_CONFIG, FULL_CONFIG)
            for distance in DISTANCES
        }

    @staticmethod
    def _assert_equal(study, standalone, method):
        for distance in DISTANCES:
            assert np.array_equal(
                study.matrix_for("core2duo", distance).samples_zj,
                standalone[(method, distance)],
            ), (method, distance)

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("config", [FAST_CONFIG, FULL_CONFIG], ids=["analytic", "full"])
    def test_cold_and_warm_result_cache(self, standalone, tmp_path, config, workers):
        cold = _study(config=config, workers=workers, cache_dir=tmp_path)
        self._assert_equal(cold, standalone, config.method)
        warm = _study(config=config, workers=workers, cache_dir=tmp_path)
        self._assert_equal(warm, standalone, config.method)
        for matrix in cold.matrices:
            assert matrix.metadata["execution"]["workers"] == max(workers, 1)
        for matrix in warm.matrices:
            assert matrix.metadata["execution"]["cells_simulated"] == 0
            # Every cell was a cache hit: nothing ran on the study's pool.
            assert matrix.metadata["execution"]["workers"] == 1

    @pytest.mark.parametrize("config", [FAST_CONFIG, FULL_CONFIG], ids=["analytic", "full"])
    def test_partly_warm_result_cache(
        self, standalone, tmp_path, prime_calls, config
    ):
        _study(config=config, cache_dir=tmp_path)
        key = campaign_cache_key(
            "core2duo", 0.50, config, list(EVENTS), REPETITIONS, SEED
        )
        for path in (tmp_path / key).glob("cell_*.npz"):
            path.unlink()
        one_campaign = _standalone_prime_calls(prime_calls, 0.50, config)
        # No trace cache, so the far distance's traces are produced anew.
        partly = _study(config=config, cache_dir=tmp_path)
        self._assert_equal(partly, standalone, config.method)
        near, far = (matrix.metadata["execution"] for matrix in partly.matrices)
        assert near["cache_hits"] == CELLS and near["cells_simulated"] == 0
        assert far["cache_misses"] == CELLS and far["cells_simulated"] == CELLS
        # Only the far distance was measured, and each of its traces
        # was produced once.
        assert len(prime_calls) == one_campaign


@pytest.mark.slow
@pytest.mark.parametrize("workers", [0, 2])
def test_prime_runs_once_per_cell_whatever_the_distances(prime_calls, workers):
    one_campaign = _standalone_prime_calls(prime_calls, 0.10)
    assert one_campaign >= CELLS
    for distances in ((0.10,), (0.10, 0.50, 1.00)):
        del prime_calls[:]
        study = _study(distances_m=distances, workers=workers)
        if workers:
            # Pool workers prime out of this process's sight; the cells
            # that did are the ones that record a prime phase.
            primed = [
                pair
                for matrix in study.matrices
                for pair, phases in matrix.metadata["execution"][
                    "cell_phase_seconds"
                ].items()
                if "prime" in phases
            ]
            assert len(primed) == CELLS
        else:
            assert len(prime_calls) == one_campaign


@pytest.mark.slow
@pytest.mark.parametrize("workers", [0, 2])
def test_prime_runs_once_per_cell_per_machine_spec(prime_calls, workers):
    machines = ("core2duo", "pentium3m")
    one_each = sum(
        _standalone_prime_calls(prime_calls, 0.10, machine=machine)
        for machine in machines
    )
    study = _study(machines=list(machines), workers=workers)
    if workers:
        primed = [
            (matrix.machine, matrix.distance_m)
            for matrix in study.matrices
            for phases in matrix.metadata["execution"][
                "cell_phase_seconds"
            ].values()
            if "prime" in phases
        ]
        # Each spec's traces count toward its first distance.
        assert sorted(primed) == sorted(
            (machine, DISTANCES[0]) for machine in machines for _ in range(CELLS)
        )
    else:
        assert len(prime_calls) == one_each


@pytest.mark.slow
class TestStudyResultCache:
    def test_result_cache_counters_are_per_campaign(self, tmp_path):
        """The shared result cache counts per campaign, so each matrix
        reports its own traffic rather than a study-wide total."""
        cold = _study(cache_dir=tmp_path)
        for matrix in cold.matrices:
            execution = matrix.metadata["execution"]
            assert execution["cache_hits"] == 0
            assert execution["cache_misses"] == CELLS
        warm = _study(cache_dir=tmp_path)
        for matrix in warm.matrices:
            execution = matrix.metadata["execution"]
            assert execution["cache_hits"] == CELLS
            assert execution["cache_misses"] == 0
            assert execution["cells_simulated"] == 0
        for cold_matrix, warm_matrix in zip(cold.matrices, warm.matrices):
            assert np.array_equal(
                cold_matrix.samples_zj, warm_matrix.samples_zj
            )

    def test_explicit_trace_cache_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAVAT_TRACE_CACHE_DIR", str(tmp_path / "env"))
        _study(
            cache_dir=tmp_path / "cache", trace_cache=TraceCache(tmp_path / "traces")
        )
        assert len(list((tmp_path / "traces").glob("trace_*.npz"))) == CELLS
        assert not (tmp_path / "env").exists()
        assert not (tmp_path / "cache" / "traces").exists()

    def test_prebuilt_trace_cache_is_used(self, tmp_path):
        cache = TraceCache(tmp_path)
        study = _study(trace_cache=cache)
        # One trace per cell for both distances, stored by the first.
        assert cache.counters()["stores"] == CELLS
        first, second = (
            matrix.metadata["execution"]["trace_cache"] for matrix in study.matrices
        )
        assert first["misses"] == first["stores"] == CELLS
        assert second == {"disk_hits": 0, "misses": 0, "stores": 0, "quarantined": 0}

    def test_trace_cache_off_recomputes_every_campaign(self, tmp_path, monkeypatch):
        """Without ``trace_cache`` a study keeps no traces: neither the
        result cache's directory nor ``$SAVAT_TRACE_CACHE_DIR`` gives it
        a trace cache."""
        monkeypatch.setenv("SAVAT_TRACE_CACHE_DIR", str(tmp_path / "env"))
        study = _study(cache_dir=tmp_path / "cache")
        assert study.trace_cache == {
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "quarantined": 0,
        }
        assert not (tmp_path / "env").exists()
        assert not (tmp_path / "cache" / "traces").exists()


@pytest.mark.slow
class TestStudyOutputs:
    def test_output_dir_carries_per_campaign_observability(self, tmp_path):
        from repro.obs.check import check_against_execution, parse_prometheus
        from repro.obs.trace import validate_trace_file

        _study(output_dir=tmp_path)
        for stem in ("core2duo_10cm", "core2duo_50cm"):
            assert (tmp_path / f"{stem}.json").exists()
            assert validate_trace_file(tmp_path / f"{stem}.trace.jsonl") == []
            samples, errors = parse_prometheus(
                (tmp_path / f"{stem}.prom").read_text()
            )
            assert errors == []
            payload = json.loads((tmp_path / f"{stem}.json").read_text())
            execution = payload["metadata"]["execution"]
            assert check_against_execution(samples, execution) == []


@pytest.mark.slow
class TestStudyTeardown:
    def test_failing_study_leaves_no_files_or_workers(self, tmp_path, monkeypatch):
        # The first machine's cells run on the pool; the second's fail.
        # The study keeps no traces without a cache directory, so
        # nothing is left in TMPDIR, and the pool's workers are gone.
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        simulate_cell = executor.simulate_cell

        def second_machine_fails(machines, *args, **kwargs):
            if machines[0].name == "pentium3m":
                raise ConfigurationError("second machine fails")
            return simulate_cell(machines, *args, **kwargs)

        monkeypatch.setattr(executor, "simulate_cell", second_machine_fails)
        pools = []

        class RecordingPool(executor.WorkerPool):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(executor, "WorkerPool", RecordingPool)
        with pytest.raises(CellExecutionError, match="second machine fails"):
            run_study(
                ["core2duo", "pentium3m"],
                [0.10],
                events=EVENTS,
                config=FAST_CONFIG,
                repetitions=REPETITIONS,
                seed=SEED,
                workers=2,
            )
        assert pools == [2]
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestStudyValidation:
    def test_no_machines_rejected(self):
        with pytest.raises(ConfigurationError):
            run_study([], [0.10])

    def test_no_distances_rejected(self):
        with pytest.raises(ConfigurationError):
            run_study(["core2duo"], [])

    def test_bad_distance_rejected_before_any_campaign(self):
        with pytest.raises(ConfigurationError):
            run_study(["core2duo"], [0.10, -1.0], events=EVENTS)

    def test_duplicate_distance_rejected(self):
        with pytest.raises(ConfigurationError, match="distance 0.1 more than once"):
            run_study(["core2duo"], [0.10, 0.1], events=EVENTS)

    def test_duplicate_machine_rejected(self):
        with pytest.raises(ConfigurationError, match="machine 'core2duo'"):
            run_study(["core2duo", "Core2Duo"], [0.10], events=EVENTS)

    def test_uncalibratable_grid_point_fails_before_the_pool_starts(
        self, monkeypatch
    ):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("the pool started before calibration failed")

        monkeypatch.setattr(executor, "WorkerPool", no_pool)
        with pytest.raises(ConfigurationError):
            run_study(
                ["core2duo", "no-such-machine"], [0.10], events=EVENTS, workers=2
            )

    def test_observability_bundle_count_must_match(self):
        from repro.obs import CampaignObservability

        with pytest.raises(ConfigurationError):
            run_study(
                ["core2duo"],
                DISTANCES,
                events=EVENTS,
                observability=[CampaignObservability()],
            )

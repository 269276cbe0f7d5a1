"""Tests for the shared-pool study runner.

A study is only allowed to remove *redundant* work: every campaign in
the grid must produce bit-identical samples to a standalone
``run_campaign`` with the same arguments, whether the study runs
serially or over the shared worker pool, and the second and later
distances of a machine must be served entirely from the shared
kernel-trace cache.
"""

import tempfile

import numpy as np
import pytest

from repro.core import study as study_module
from repro.core.campaign import run_campaign
from repro.core.savat import MeasurementConfig
from repro.core.study import StudyResult, run_study
from repro.core.trace_cache import TraceCache
from repro.errors import ConfigurationError
from repro.machines.calibrated import load_calibrated_machine

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB")
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


@pytest.mark.slow
class TestStudySamples:
    @pytest.fixture(scope="class")
    def serial_study(self):
        return _study()

    def test_matches_standalone_campaigns_bit_for_bit(self, serial_study):
        for distance in DISTANCES:
            machine = load_calibrated_machine("core2duo", distance)
            standalone = run_campaign(
                machine,
                config=FAST_CONFIG,
                events=EVENTS,
                repetitions=REPETITIONS,
                seed=SEED,
                trace_cache=False,
            )
            matrix = serial_study.matrix_for("core2duo", distance)
            assert np.array_equal(standalone.samples_zj, matrix.samples_zj)

    def test_second_distance_skips_trace_production(self, serial_study):
        cells = len(EVENTS) ** 2
        first, second = (
            matrix.metadata["execution"]["trace_cache"]
            for matrix in serial_study.matrices
        )
        assert first["misses"] == cells
        assert second["misses"] == 0
        assert second["memory_hits"] + second["disk_hits"] == cells

    def test_pool_study_equals_serial_study(self, serial_study):
        pooled = _study(workers=2)
        for serial_matrix, pooled_matrix in zip(
            serial_study.matrices, pooled.matrices
        ):
            assert np.array_equal(
                serial_matrix.samples_zj, pooled_matrix.samples_zj
            )
        second = pooled.matrices[1].metadata["execution"]["trace_cache"]
        assert second["misses"] == 0

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

    def test_registry_counts_campaigns_and_cells(self, serial_study):
        registry = serial_study.registry.to_prometheus()
        assert "savat_study_campaigns_total 2" in registry
        assert f"savat_study_cells_total {2 * len(EVENTS) ** 2}" in registry

    def test_campaign_wall_seconds_accessor(self, serial_study):
        walls = serial_study.campaign_wall_seconds()
        assert set(walls) == {("core2duo", 0.10), ("core2duo", 0.50)}
        assert all(seconds >= 0 for seconds in walls.values())


@pytest.mark.slow
class TestStudyResultCache:
    def test_result_cache_counters_are_per_campaign(self, tmp_path):
        """The shared result cache resets its counters per campaign
        execution, so each matrix reports its own traffic rather than a
        running study-wide total."""
        cells = len(EVENTS) ** 2
        cold = _study(cache_dir=tmp_path)
        for matrix in cold.matrices:
            execution = matrix.metadata["execution"]
            assert execution["cache_hits"] == 0
            assert execution["cache_misses"] == cells
        warm = _study(cache_dir=tmp_path)
        for matrix in warm.matrices:
            execution = matrix.metadata["execution"]
            assert execution["cache_hits"] == cells
            assert execution["cache_misses"] == 0
            assert execution["cells_simulated"] == 0
        for cold_matrix, warm_matrix in zip(cold.matrices, warm.matrices):
            assert np.array_equal(
                cold_matrix.samples_zj, warm_matrix.samples_zj
            )

    def test_trace_cache_disk_tier_defaults_inside_cache_dir(self, tmp_path):
        _study(cache_dir=tmp_path)
        assert list((tmp_path / "traces").glob("trace_*.npz"))

    def test_explicit_trace_cache_dir_wins(self, tmp_path):
        _study(cache_dir=tmp_path / "cache", trace_cache_dir=tmp_path / "traces")
        assert list((tmp_path / "traces").glob("trace_*.npz"))
        assert not (tmp_path / "cache" / "traces").exists()

    def test_prebuilt_trace_cache_is_used(self):
        cache = TraceCache()
        _study(trace_cache=cache)
        assert cache.counters()["stores"] == len(EVENTS) ** 2

    def test_trace_cache_off_recomputes_every_campaign(self):
        study = _study(trace_cache=False)
        assert study.trace_cache == {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "quarantined": 0,
        }


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
            import json

            payload = json.loads((tmp_path / f"{stem}.json").read_text())
            execution = payload["metadata"]["execution"]
            assert check_against_execution(samples, execution) == []


@pytest.mark.slow
class TestStudyTeardown:
    def test_failing_mid_grid_removes_its_temp_trace_dir(
        self, tmp_path, monkeypatch
    ):
        # With no cache_dir the study keeps its trace cache in a
        # temporary directory; the second grid entry fails, and the pool
        # must drain before that directory is removed.
        monkeypatch.delenv("SAVAT_TRACE_CACHE_DIR", raising=False)
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        seen: set[str] = set()

        def record(*_):
            seen.update(path.name for path in tmp_path.glob("savat_traces_*"))

        campaign = study_module.run_campaign
        calls = []

        def second_campaign_fails(machine, **kwargs):
            calls.append(machine)
            if len(calls) == 2:
                raise ConfigurationError("second grid entry fails")
            return campaign(machine, **kwargs)

        monkeypatch.setattr(study_module, "run_campaign", second_campaign_fails)
        with pytest.raises(ConfigurationError):
            run_study(
                ["core2duo"],
                [0.10, 0.50],
                events=EVENTS,
                config=FAST_CONFIG,
                repetitions=REPETITIONS,
                seed=SEED,
                workers=2,
                progress=record,
            )
        assert seen, "the study never created its temporary trace directory"
        assert list(tmp_path.glob("savat_traces_*")) == []


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

    def test_uncalibratable_grid_point_fails_before_the_pool_starts(
        self, monkeypatch
    ):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("the pool started before calibration failed")

        monkeypatch.setattr(study_module, "WorkerPool", no_pool)
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

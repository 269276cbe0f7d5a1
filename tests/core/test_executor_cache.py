"""Tests for the on-disk campaign result cache.

A warm cache must return an equal matrix while performing zero cell
simulations; changing any key component (seed, distance, event set,
repetitions, config) must miss; and corrupted or truncated entries are
quarantined (moved to ``<cache_dir>/quarantine/``, never silently
deleted) and re-simulated instead of crashing.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.campaign import run_campaign
from repro.core.executor import CACHE_SCHEMA_VERSION, ResultCache, campaign_cache_key
from repro.core.savat import MeasurementConfig
from repro.em.environment import (
    NoiseEnvironment,
    RadioInterferer,
    quiet_lab_environment,
)
from repro.errors import ConfigurationError
from repro.machines.calibrated import load_calibrated_machine

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB")
SEED = 3
REPETITIONS = 2


def _run(machine, cache_dir, **overrides):
    parameters = dict(
        events=EVENTS,
        repetitions=REPETITIONS,
        seed=SEED,
        config=FAST_CONFIG,
        cache_dir=cache_dir,
    )
    parameters.update(overrides)
    return run_campaign(machine, **parameters)


def _execution(matrix):
    return matrix.metadata["execution"]


def test_a_file_is_not_a_cache_directory(tmp_path):
    path = tmp_path / "file"
    path.write_text("")
    for directory in (path, path / "below"):
        with pytest.raises(ConfigurationError, match="is not a directory"):
            ResultCache(directory)


@pytest.mark.slow
class TestCacheHitsAndMisses:
    @pytest.fixture()
    def warm_cache(self, core2duo_10cm, tmp_path):
        """A cache directory primed with the canonical tiny campaign."""
        cold = _run(core2duo_10cm, tmp_path)
        return tmp_path, cold

    def test_manifest_records_modes_and_environment(self, warm_cache):
        cache_dir, _cold = warm_cache
        (manifest,) = cache_dir.glob("*/manifest.json")
        payload = json.loads(manifest.read_text())
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert payload["num_modes"] == 3
        assert payload["environment"] == json.loads(
            json.dumps(dataclasses.asdict(quiet_lab_environment()))
        )
        assert payload["environment"]["interferers"][0]["frequency_hz"] == 81_450.0

    def test_cold_run_misses_every_cell(self, warm_cache):
        _cache_dir, cold = warm_cache
        execution = _execution(cold)
        assert execution["cache_hits"] == 0
        assert execution["cache_misses"] == len(EVENTS) ** 2
        assert execution["cells_simulated"] == len(EVENTS) ** 2

    def test_warm_run_simulates_nothing_and_matches(self, core2duo_10cm, warm_cache):
        cache_dir, cold = warm_cache
        warm = _run(core2duo_10cm, cache_dir)
        execution = _execution(warm)
        assert execution["cache_hits"] == len(EVENTS) ** 2
        assert execution["cache_misses"] == 0
        assert execution["cells_simulated"] == 0
        assert np.array_equal(warm.samples_zj, cold.samples_zj)
        assert warm.events == cold.events

    def test_warm_cache_equals_uncached_run(self, core2duo_10cm, warm_cache):
        cache_dir, _cold = warm_cache
        uncached = _run(core2duo_10cm, None)
        warm = _run(core2duo_10cm, cache_dir, workers=2)
        assert np.array_equal(warm.samples_zj, uncached.samples_zj)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": SEED + 1},
            {"repetitions": REPETITIONS + 1},
            {"events": ("ADD", "MUL")},
            {"config": MeasurementConfig(alternation_frequency_hz=400e3)},
        ],
        ids=["seed", "repetitions", "events", "config"],
    )
    def test_changed_parameter_misses(self, core2duo_10cm, warm_cache, overrides):
        cache_dir, _cold = warm_cache
        changed = _run(core2duo_10cm, cache_dir, **overrides)
        execution = _execution(changed)
        assert execution["cache_hits"] == 0
        assert execution["cells_simulated"] > 0

    def test_changed_distance_misses(self, core2duo_100cm, warm_cache):
        cache_dir, _cold = warm_cache
        changed = _run(core2duo_100cm, cache_dir)
        execution = _execution(changed)
        assert execution["cache_hits"] == 0
        assert execution["cells_simulated"] == len(EVENTS) ** 2



@pytest.mark.slow
@pytest.mark.parametrize(
    "load",
    [
        dict(num_modes=2),
        dict(
            environment=NoiseEnvironment(
                instrument_floor_w_per_hz=1e6
                * quiet_lab_environment().instrument_floor_w_per_hz
            )
        ),
    ],
    ids=["num_modes", "environment"],
)
def test_changed_modes_or_environment_misses(core2duo_10cm, tmp_path, load):
    """A handle with other modes or another noise environment measures
    other samples, so the default machine's entries must not serve it.
    (ADD/SUB alone would not show the modes: two modes fit its cells
    to the same bits as three.)"""
    events = ("ADD", "LDM")
    default = _run(core2duo_10cm, tmp_path, events=events)
    machine = load_calibrated_machine("core2duo", 0.10, **load)
    changed = _run(machine, tmp_path, events=events)
    execution = _execution(changed)
    assert execution["cache_hits"] == 0
    assert execution["cells_simulated"] == len(events) ** 2
    uncached = _run(machine, None, events=events)
    assert np.array_equal(changed.samples_zj, uncached.samples_zj)
    assert not np.array_equal(changed.samples_zj, default.samples_zj)


@pytest.mark.slow
class TestCacheCorruption:
    def test_corrupted_entry_is_discarded_and_resimulated(
        self, core2duo_10cm, tmp_path
    ):
        cold = _run(core2duo_10cm, tmp_path)
        cache = ResultCache(tmp_path)
        key = campaign_cache_key(
            core2duo_10cm.name,
            core2duo_10cm.distance_m,
            FAST_CONFIG,
            EVENTS,
            REPETITIONS,
            SEED,
        )
        cache.cell_path(key, 0, 1).write_bytes(b"this is not an npz file")
        warm = _run(core2duo_10cm, tmp_path)
        execution = _execution(warm)
        assert execution["cache_hits"] == len(EVENTS) ** 2 - 1
        assert execution["cache_misses"] == 1
        assert execution["quarantined"] == 1
        assert np.array_equal(warm.samples_zj, cold.samples_zj)
        # The bad entry was preserved for inspection, not deleted.
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == b"this is not an npz file"

    def test_truncated_entry_is_discarded_and_resimulated(
        self, core2duo_10cm, tmp_path
    ):
        cold = _run(core2duo_10cm, tmp_path)
        cache = ResultCache(tmp_path)
        key = campaign_cache_key(
            core2duo_10cm.name,
            core2duo_10cm.distance_m,
            FAST_CONFIG,
            EVENTS,
            REPETITIONS,
            SEED,
        )
        path = cache.cell_path(key, 1, 0)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        warm = _run(core2duo_10cm, tmp_path)
        assert _execution(warm)["cache_misses"] == 1
        assert _execution(warm)["quarantined"] == 1
        assert np.array_equal(warm.samples_zj, cold.samples_zj)

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cell("somekey", 0, 0, np.ones(3))
        assert cache.load_cell("somekey", 0, 0, repetitions=3) is not None
        assert cache.load_cell("somekey", 0, 0, repetitions=5) is None
        # The wrong-shape probe quarantined the entry, so it is gone
        # from the live cache but preserved under quarantine/.
        assert cache.load_cell("somekey", 0, 0, repetitions=3) is None
        assert cache.quarantine_count == 1
        assert cache.quarantined_paths[0].is_file()

    def test_non_finite_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cell("somekey", 0, 0, np.array([1.0, np.nan]))
        assert cache.load_cell("somekey", 0, 0, repetitions=2) is None

    def test_repeated_corruption_never_overwrites_quarantined_entries(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        for payload in (b"first corruption", b"second corruption"):
            cache.cell_path("somekey", 0, 0).parent.mkdir(
                parents=True, exist_ok=True
            )
            cache.cell_path("somekey", 0, 0).write_bytes(payload)
            assert cache.load_cell("somekey", 0, 0, repetitions=2) is None
        contents = {
            path.read_bytes() for path in cache.quarantine_dir().iterdir()
        }
        assert contents == {b"first corruption", b"second corruption"}


class TestLoadCellCounterSemantics:
    """Pin the exactly-once counter discipline of ``load_cell``.

    Every call increments exactly one of ``hits``/``misses``; a
    quarantined entry increments ``quarantined``-side counters and
    ``misses`` exactly once each and never ``hits`` — in direct unit
    use and through both serial and pool campaign executions.
    """

    def _counters(self, cache):
        return (cache.hits, cache.misses, cache.quarantine_count)

    def test_absent_entry_is_one_miss_no_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load_cell("k", 0, 0, repetitions=2) is None
        assert self._counters(cache) == (0, 1, 0)

    def test_good_entry_is_one_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cell("k", 0, 0, np.ones(2))
        assert cache.load_cell("k", 0, 0, repetitions=2) is not None
        assert self._counters(cache) == (1, 0, 0)

    def test_unreadable_entry_is_one_miss_one_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.cell_path("k", 0, 0)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        assert cache.load_cell("k", 0, 0, repetitions=2) is None
        assert self._counters(cache) == (0, 1, 1)

    def test_wrong_shape_entry_is_one_miss_one_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cell("k", 0, 0, np.ones(3))
        assert cache.load_cell("k", 0, 0, repetitions=2) is None
        assert self._counters(cache) == (0, 1, 1)

    def test_non_finite_entry_is_one_miss_one_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cell("k", 0, 0, np.array([1.0, np.inf]))
        assert cache.load_cell("k", 0, 0, repetitions=2) is None
        assert self._counters(cache) == (0, 1, 1)

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
    def test_campaign_quarantine_counts_exactly_once_per_mode(
        self, core2duo_10cm, tmp_path, workers
    ):
        cells = len(EVENTS) ** 2
        _run(core2duo_10cm, tmp_path)  # warm the cache
        cache = ResultCache(tmp_path)
        key = campaign_cache_key(
            core2duo_10cm.name,
            core2duo_10cm.distance_m,
            FAST_CONFIG,
            EVENTS,
            REPETITIONS,
            SEED,
        )
        cache.cell_path(key, 0, 1).write_bytes(b"corrupt")
        matrix = _run(core2duo_10cm, None, cache=cache, workers=workers)
        execution = _execution(matrix)
        # The corrupt entry: one quarantine, one miss, never a hit —
        # on the cache object and in the execution metadata alike.
        assert (cache.hits, cache.misses) == (cells - 1, 1)
        assert cache.quarantine_count == 1
        assert execution["quarantined"] == 1
        assert execution["cache_misses"] == 1
        assert execution["cache_hits"] == cells - 1
        assert execution["cells_simulated"] == 1


class TestCacheKey:
    BASE = dict(
        machine_name="core2duo",
        distance_m=0.10,
        config=MeasurementConfig(),
        event_names=("ADD", "SUB"),
        repetitions=2,
        seed=0,
    )

    def test_key_is_stable(self):
        assert campaign_cache_key(**self.BASE) == campaign_cache_key(**self.BASE)

    def test_defaults_are_three_modes_in_the_quiet_lab(self):
        assert campaign_cache_key(**self.BASE) == campaign_cache_key(
            **self.BASE, num_modes=3, environment=quiet_lab_environment()
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"machine_name": "pentium3m"},
            {"distance_m": 0.50},
            {"config": MeasurementConfig(method="synthesis")},
            {"config": MeasurementConfig(loop_noise_fraction=0.07)},
            {"event_names": ("SUB", "ADD")},
            {"event_names": ("ADD", "SUB", "MUL")},
            {"repetitions": 3},
            {"seed": 1},
            {"num_modes": 2},
            {"environment": NoiseEnvironment()},
            {
                "environment": dataclasses.replace(
                    quiet_lab_environment(),
                    interferers=(
                        RadioInterferer(
                            frequency_hz=81_450.0, power_w=2.5e-16, bandwidth_hz=31.0
                        ),
                    ),
                )
            },
        ],
    )
    def test_any_component_changes_the_key(self, overrides):
        changed = dict(self.BASE)
        changed.update(overrides)
        assert campaign_cache_key(**changed) != campaign_cache_key(**self.BASE)

    def test_manifest_written_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.write_manifest("k", {"seed": 0})
        manifest = cache.campaign_dir("k") / "manifest.json"
        assert manifest.exists()
        before = manifest.read_text()
        cache.write_manifest("k", {"seed": 999})
        assert manifest.read_text() == before


class TestCounterResetPerExecution:
    """Pin that a shared ``ResultCache`` reports per-execution counters.

    A study reuses one cache object across many campaigns; without the
    per-execution reset, the second campaign's metadata would carry the
    first campaign's hits and misses too (the regression this pins).
    """

    def test_begin_execution_zeroes_the_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.load_cell("k", 0, 0, repetitions=2)
        cache.store_cell("k", 0, 0, np.ones(2))
        cache.load_cell("k", 0, 0, repetitions=2)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.begin_execution()
        assert (cache.hits, cache.misses, cache.quarantine_count) == (0, 0, 0)
        assert cache.quarantined_paths == []

    @pytest.mark.slow
    def test_reused_cache_reports_per_campaign_counters(self, core2duo_10cm, tmp_path):
        cells = len(EVENTS) ** 2
        cache = ResultCache(tmp_path)
        cold = _run(core2duo_10cm, None, cache=cache)
        warm = _run(core2duo_10cm, None, cache=cache)
        assert _execution(cold)["cache_misses"] == cells
        assert _execution(cold)["cache_hits"] == 0
        # Not cumulative: the warm campaign reports only its own traffic.
        assert _execution(warm)["cache_hits"] == cells
        assert _execution(warm)["cache_misses"] == 0
        assert np.array_equal(cold.samples_zj, warm.samples_zj)

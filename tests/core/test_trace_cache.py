"""Soundness tests for the cross-campaign kernel-trace cache.

The cache may only ever be a performance optimization: a campaign with
the trace cache on must produce bit-identical samples to one with it
off, for both measurement methods and on both the fast and reference
simulation paths.  That reduces to two properties locked down here:

* **key soundness** — any input that changes the produced trace
  (machine spec content, simulation path, schema versions, the ordered
  pair, any frequency-plan field) changes the key, while inputs that
  cannot change it (distance, seed, repetitions, method) do not;
* **payload integrity** — a hit returns exactly what the miss stored
  (trace bytes, retune outcome), and a corrupt disk entry is
  quarantined and recomputed, never trusted or silently deleted.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import run_campaign
from repro.core.savat import MeasurementConfig, _plan_pair
from repro.core.trace_cache import TraceCache, produce_cell_trace, trace_cache_key
from repro.errors import ConfigurationError
from repro.isa.events import get_event
from repro.machines.calibrated import load_calibrated_machine
from repro.uarch.fastpath import use_reference_path

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB")
SEED = 3
REPETITIONS = 2


@pytest.fixture(scope="module")
def pair():
    return get_event("ADD"), get_event("SUB")


@pytest.fixture(scope="module")
def plan(core2duo_10cm_module, pair):
    event_a, event_b = pair
    return _plan_pair(
        core2duo_10cm_module,
        event_a,
        event_b,
        FAST_CONFIG.alternation_frequency_hz,
    )


@pytest.fixture(scope="module")
def core2duo_10cm_module():
    return load_calibrated_machine("core2duo", 0.10)


class TestTraceCacheKey:
    def test_deterministic(self, core2duo_10cm_module, pair, plan):
        event_a, event_b = pair
        first = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        second = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        assert first == second

    def test_distance_does_not_change_the_key(self, pair, plan):
        """The core cross-campaign property: distance is a measurement
        parameter, not a trace parameter, so every distance of a study
        shares one trace."""
        event_a, event_b = pair
        near = load_calibrated_machine("core2duo", 0.10)
        far = load_calibrated_machine("core2duo", 1.00)
        assert trace_cache_key(near, event_a, event_b, plan) == trace_cache_key(
            far, event_a, event_b, plan
        )

    def test_pair_order_changes_the_key(self, core2duo_10cm_module, pair, plan):
        event_a, event_b = pair
        forward = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        reverse = trace_cache_key(core2duo_10cm_module, event_b, event_a, plan)
        assert forward != reverse

    def test_machine_changes_the_key(self, pair):
        event_a, event_b = pair
        keys = set()
        for name in ("core2duo", "pentium3m"):
            machine = load_calibrated_machine(name, 0.10)
            machine_plan = _plan_pair(
                machine, event_a, event_b, FAST_CONFIG.alternation_frequency_hz
            )
            keys.add(trace_cache_key(machine, event_a, event_b, machine_plan))
        assert len(keys) == 2

    def test_schema_versions_change_the_key(self, core2duo_10cm_module, pair, plan):
        event_a, event_b = pair
        base = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        assert base != trace_cache_key(
            core2duo_10cm_module, event_a, event_b, plan, schema_version=2
        )
        assert base != trace_cache_key(
            core2duo_10cm_module, event_a, event_b, plan, uarch_version=2
        )

    def test_simulation_path_changes_the_key(self, core2duo_10cm_module, pair, plan):
        event_a, event_b = pair
        fast = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        with use_reference_path():
            reference = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        assert fast != reference

    @given(
        count_a=st.integers(min_value=1, max_value=100_000),
        count_b=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_inst_loop_count_is_injective(
        self, core2duo_10cm_module, pair, plan, count_a, count_b
    ):
        event_a, event_b = pair
        keys = [
            trace_cache_key(
                core2duo_10cm_module,
                event_a,
                event_b,
                dataclasses.replace(
                    plan,
                    spec=dataclasses.replace(plan.spec, inst_loop_count=count),
                ),
            )
            for count in (count_a, count_b)
        ]
        assert (keys[0] == keys[1]) == (count_a == count_b)

    @given(
        field=st.sampled_from(
            [
                "target_frequency_hz",
                "predicted_frequency_hz",
                "cycles_per_iteration_a",
                "cycles_per_iteration_b",
            ]
        ),
        factor=st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_plan_field_perturbation_changes_the_key(
        self, core2duo_10cm_module, pair, plan, field, factor
    ):
        event_a, event_b = pair
        base = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        perturbed = dataclasses.replace(
            plan, **{field: getattr(plan, field) * factor}
        )
        assert base != trace_cache_key(
            core2duo_10cm_module, event_a, event_b, perturbed
        )

    def test_spec_content_changes_the_key(self, core2duo_10cm_module, pair, plan):
        event_a, event_b = pair
        base = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        altered_spec = dataclasses.replace(
            core2duo_10cm_module.spec, clock_hz=core2duo_10cm_module.spec.clock_hz * 2
        )
        altered = dataclasses.replace(core2duo_10cm_module, spec=altered_spec)
        assert base != trace_cache_key(altered, event_a, event_b, plan)


class TestTraceCacheTiers:
    def test_miss_then_disk_hit(self, core2duo_10cm_module, pair, plan, tmp_path):
        event_a, event_b = pair
        cache = TraceCache(tmp_path)
        cold_trace, cold_plan = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=cache
        )
        assert cache.counters() == {
            "disk_hits": 0,
            "misses": 1,
            "stores": 1,
            "quarantined": 0,
        }
        warm_trace, warm_plan = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=cache
        )
        assert cache.counters()["disk_hits"] == 1
        assert np.array_equal(warm_trace.data, cold_trace.data)
        assert warm_trace.clock_hz == cold_trace.clock_hz
        assert warm_plan == cold_plan

    def test_disk_tier_survives_a_fresh_cache(
        self, core2duo_10cm_module, pair, plan, tmp_path
    ):
        event_a, event_b = pair
        writer = TraceCache(directory=tmp_path)
        cold_trace, cold_plan = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=writer
        )
        reader = TraceCache(directory=tmp_path)
        warm_trace, warm_plan = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=reader
        )
        assert reader.counters()["disk_hits"] == 1
        assert reader.counters()["misses"] == 0
        assert np.array_equal(warm_trace.data, cold_trace.data)
        assert warm_plan == cold_plan

    def test_counter_delta(self):
        before = {"disk_hits": 0, "misses": 2, "stores": 2, "quarantined": 0}
        after = {"disk_hits": 1, "misses": 2, "stores": 3, "quarantined": 0}
        assert TraceCache.counter_delta(after, before) == {
            "disk_hits": 1,
            "misses": 0,
            "stores": 1,
            "quarantined": 0,
        }


class TestCorruptEntries:
    def test_corrupt_entry_is_quarantined_and_recomputed(
        self, core2duo_10cm_module, pair, plan, tmp_path
    ):
        event_a, event_b = pair
        writer = TraceCache(directory=tmp_path)
        cold_trace, _ = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=writer
        )
        key = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        writer.entry_path(key).write_bytes(b"not a npz payload")

        reader = TraceCache(directory=tmp_path)
        recovered_trace, _ = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=reader
        )
        counters = reader.counters()
        assert counters["quarantined"] == 1
        assert counters["misses"] == 1
        assert counters["stores"] == 1
        assert np.array_equal(recovered_trace.data, cold_trace.data)
        assert not list(tmp_path.glob("trace_*.npz")) == []
        quarantined = list(reader.quarantine_dir().iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(key)

    @pytest.mark.parametrize(
        "fields",
        [
            {"data": np.nan},
            {"clock_hz": np.nan},
            {"clock_hz": np.inf},
            {"clock_hz": -np.inf},
            {"predicted_frequency_hz": 0.0},
        ],
        ids=["nan_data", "nan_clock", "inf_clock", "neg_inf_clock", "zero_predicted"],
    )
    def test_semantically_invalid_entry_is_quarantined(
        self, core2duo_10cm_module, pair, plan, tmp_path, fields
    ):
        event_a, event_b = pair
        writer = TraceCache(directory=tmp_path)
        cold_trace, _ = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=writer
        )
        key = trace_cache_key(core2duo_10cm_module, event_a, event_b, plan)
        # Well-formed npz, nonsensical content in one field.
        payload = {
            "clock_hz": cold_trace.clock_hz,
            "predicted_frequency_hz": 1.0,
            **fields,
        }
        data = (
            np.full_like(cold_trace.data, payload.pop("data"))
            if "data" in payload
            else cold_trace.data
        )
        with open(writer.entry_path(key), "wb") as handle:
            np.savez(
                handle,
                data=data,
                clock_hz=np.float64(payload["clock_hz"]),
                inst_loop_count=np.int64(1),
                predicted_frequency_hz=np.float64(
                    payload["predicted_frequency_hz"]
                ),
            )
        reader = TraceCache(directory=tmp_path)
        recovered_trace, _ = produce_cell_trace(
            core2duo_10cm_module, event_a, event_b, plan, cache=reader
        )
        assert reader.counters()["quarantined"] == 1
        assert np.array_equal(recovered_trace.data, cold_trace.data)


    @pytest.mark.slow
    def test_negative_activity_is_quarantined_and_samples_unchanged(
        self, core2duo_10cm_module, tmp_path
    ):
        """Activity is never negative, so an entry holding some is
        corrupt: it is quarantined, the trace recomputed, and the
        campaign's samples equal a run without the cache."""
        baseline = _run(core2duo_10cm_module)
        cache = TraceCache(tmp_path)
        _run(core2duo_10cm_module, trace_cache=cache)
        entry = sorted(tmp_path.glob("trace_*.npz"))[0]
        with np.load(entry) as stored:
            fields = dict(stored)
        fields["data"] = fields["data"].copy()
        fields["data"][0, 0] = -1e-12
        with open(entry, "wb") as handle:
            np.savez(handle, **fields)

        rerun = _run(core2duo_10cm_module, trace_cache=TraceCache(tmp_path))
        counters = rerun.metadata["execution"]["trace_cache"]
        assert counters["quarantined"] == 1
        assert counters["misses"] == 1
        assert counters["disk_hits"] == len(EVENTS) ** 2 - 1
        assert np.array_equal(rerun.samples_zj, baseline.samples_zj)


class TestCacheDirectory:
    def test_a_file_is_rejected_up_front(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        for directory in (path, path / "below"):
            with pytest.raises(ConfigurationError, match="is not a directory"):
                TraceCache(directory)
        # A directory that does not exist yet is created on the first store.
        assert not TraceCache(tmp_path / "new" / "traces").directory.exists()

    def test_library_campaign_ignores_the_environment(
        self, core2duo_10cm, monkeypatch, tmp_path
    ):
        """``$SAVAT_TRACE_CACHE_DIR`` is the CLI's default, not the
        library's: without ``trace_cache`` a campaign keeps no traces."""
        monkeypatch.setenv("SAVAT_TRACE_CACHE_DIR", str(tmp_path))
        matrix = _run(core2duo_10cm)
        assert matrix.metadata["execution"]["trace_cache"] == {
            "disk_hits": 0, "misses": 0, "stores": 0, "quarantined": 0,
        }
        assert list(tmp_path.iterdir()) == []


def _run(machine, **overrides):
    parameters = dict(
        events=EVENTS,
        repetitions=REPETITIONS,
        seed=SEED,
        config=FAST_CONFIG,
    )
    parameters.update(overrides)
    return run_campaign(machine, **parameters)


@pytest.mark.slow
class TestCampaignBitIdentity:
    def test_cache_on_equals_cache_off_across_two_distances(self, tmp_path):
        """The acceptance property: a shared trace cache serving two
        distances changes nothing about either campaign's samples."""
        cache = TraceCache(tmp_path)
        for distance in (0.10, 0.50):
            machine = load_calibrated_machine("core2duo", distance)
            baseline = _run(machine)
            cached = _run(machine, trace_cache=cache)
            assert np.array_equal(baseline.samples_zj, cached.samples_zj), distance
        # The second distance was served entirely from the cache.
        second = cached.metadata["execution"]["trace_cache"]
        assert second["misses"] == 0
        assert second["disk_hits"] == len(EVENTS) ** 2

    @pytest.mark.parametrize("method", ["analytic", "full"])
    def test_both_methods(self, core2duo_10cm, method, tmp_path):
        config = MeasurementConfig(
            alternation_frequency_hz=800e3, method=method, duration_s=0.01
        )
        baseline = _run(core2duo_10cm, config=config)
        cached = _run(core2duo_10cm, config=config, trace_cache=TraceCache(tmp_path))
        assert np.array_equal(baseline.samples_zj, cached.samples_zj)

    def test_reference_path(self, core2duo_10cm, tmp_path):
        with use_reference_path():
            baseline = _run(core2duo_10cm)
            cached = _run(core2duo_10cm, trace_cache=TraceCache(tmp_path))
        assert np.array_equal(baseline.samples_zj, cached.samples_zj)

    def test_pool_execution_with_disk_tier(self, core2duo_10cm, tmp_path):
        baseline = _run(core2duo_10cm)
        cached = _run(
            core2duo_10cm, trace_cache=TraceCache(directory=tmp_path), workers=2
        )
        assert np.array_equal(baseline.samples_zj, cached.samples_zj)
        # Workers persisted their traces through the shared disk tier.
        assert list(tmp_path.glob("trace_*.npz"))

    def test_campaign_metadata_counters(self, core2duo_10cm, tmp_path):
        cache = TraceCache(tmp_path)
        cold = _run(core2duo_10cm, trace_cache=cache)
        warm = _run(core2duo_10cm, trace_cache=cache)
        cells = len(EVENTS) ** 2
        assert cold.metadata["execution"]["trace_cache"] == {
            "disk_hits": 0,
            "misses": cells,
            "stores": cells,
            "quarantined": 0,
        }
        assert warm.metadata["execution"]["trace_cache"] == {
            "disk_hits": cells,
            "misses": 0,
            "stores": 0,
            "quarantined": 0,
        }

"""Fault-injection suite for the campaign executor.

For every fault kind the :class:`~repro.core.faults.FaultPlan` harness
can inject — a worker exception, a hang past the cell timeout, and a
corrupted cache entry — the campaign must complete without manual
intervention, the final matrix must be bit-identical to a fault-free
run (retries replay the cell's original seed-schedule entry), and the
retry / timeout / quarantine counters must match the injected plan.
"""

import numpy as np
import pytest

from repro.core.campaign import run_campaign
from repro.core.faults import (
    DEFAULT_HANG_SECONDS,
    CellFault,
    FaultInjectedError,
    FaultPlan,
)
from repro.core.savat import MeasurementConfig
from repro.errors import CellExecutionError, ConfigurationError

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB")
SEED = 3
REPETITIONS = 2
CELLS = len(EVENTS) ** 2


def _run(machine, **overrides):
    parameters = dict(
        events=EVENTS,
        repetitions=REPETITIONS,
        seed=SEED,
        config=FAST_CONFIG,
    )
    parameters.update(overrides)
    return run_campaign(machine, **parameters)


def _execution(matrix):
    return matrix.metadata["execution"]


def _cached_cells(cache_dir):
    """The ``(i, j)`` of every cell file in a result cache directory."""
    return {
        (int(path.stem.split("_")[1]), int(path.stem.split("_")[2]))
        for path in cache_dir.glob("*/cell_*.npz")
    }


@pytest.fixture(scope="module")
def clean(core2duo_10cm):
    """The fault-free reference run every injected run must reproduce."""
    return _run(core2duo_10cm)


# ----------------------------------------------------------------------
# The plan itself
# ----------------------------------------------------------------------
class TestFaultPlanSpec:
    def test_parses_all_kinds(self):
        plan = FaultPlan.from_spec("raise@0,1;hang@1,2:2.5;corrupt@2,0")
        kinds = [(fault.kind, fault.i, fault.j) for fault in plan]
        assert kinds == [("raise", 0, 1), ("hang", 1, 2), ("corrupt", 2, 0)]
        assert plan.faults[1].seconds == pytest.approx(2.5)

    def test_attempt_counts(self):
        plan = FaultPlan.from_spec("raise@0,0x3")
        fault = plan.worker_fault(0, 0, attempt=2)
        assert fault is not None and fault.fires_on(2)
        assert plan.worker_fault(0, 0, attempt=3) is None

    def test_round_trips_through_spec(self):
        spec = "raise@0,1;hang@1,2:2.5;corrupt@2,0;raise@3,3x2"
        assert FaultPlan.from_spec(spec).to_spec() == spec

    def test_counts_by_kind(self):
        plan = FaultPlan.from_spec("raise@0,1;raise@1,1;hang@0,0:1")
        assert plan.counts_by_kind() == {"raise": 2, "hang": 1}

    def test_empty_spec_is_empty_plan(self):
        plan = FaultPlan.from_spec("")
        assert not plan and len(plan) == 0

    @pytest.mark.parametrize(
        "spec",
        ["explode@0,0", "raise@0", "raise@0,0:2.5", "hang@a,b", "raise@0,0x0"],
    )
    def test_malformed_specs_are_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec(spec)

    def test_worker_fault_ignores_corrupt_entries(self):
        plan = FaultPlan.from_spec("corrupt@0,0")
        assert plan.worker_fault(0, 0, 0) is None
        assert plan.corrupt_fault(0, 0) is not None


class TestCellFault:
    def test_raise_fault_raises_on_apply(self):
        with pytest.raises(FaultInjectedError):
            CellFault("raise", 0, 1).apply()

    def test_hang_fault_sleeps(self):
        import time

        started = time.perf_counter()
        CellFault("hang", 0, 0, seconds=0.05).apply()
        assert time.perf_counter() - started >= 0.05

    def test_corrupt_fault_cannot_apply_worker_side(self):
        with pytest.raises(ConfigurationError):
            CellFault("corrupt", 0, 0).apply()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CellFault("nonsense", 0, 0)
        with pytest.raises(ConfigurationError):
            CellFault("raise", -1, 0)
        with pytest.raises(ConfigurationError):
            CellFault("hang", 0, 0, seconds=-1.0)

    def test_default_hang_duration(self):
        fault = FaultPlan.from_spec("hang@0,0").faults[0]
        assert fault.seconds == DEFAULT_HANG_SECONDS


# ----------------------------------------------------------------------
# Injected worker exceptions
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestRaiseFaults:
    def test_serial_retry_absorbs_the_fault(self, core2duo_10cm, clean):
        plan = FaultPlan.from_spec("raise@0,1")
        matrix = _run(core2duo_10cm, fault_plan=plan)
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["retries"] == 1
        assert execution["faults_injected"] == {"raise": 1}
        assert execution["cells_simulated"] == CELLS

    def test_parallel_retry_absorbs_the_fault(self, core2duo_10cm, clean):
        plan = FaultPlan.from_spec("raise@1,0")
        matrix = _run(core2duo_10cm, workers=2, fault_plan=plan)
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["retries"] == 1
        assert execution["faults_injected"] == {"raise": 1}

    def test_repeated_fault_consumes_multiple_retries(self, core2duo_10cm, clean):
        plan = FaultPlan.from_spec("raise@0,0x2")
        matrix = _run(core2duo_10cm, max_retries=2, fault_plan=plan)
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["retries"] == 2
        assert execution["faults_injected"] == {"raise": 2}

    def test_exhausted_retries_raise_cell_execution_error(self, core2duo_10cm):
        plan = FaultPlan.from_spec("raise@0,1x5")
        with pytest.raises(CellExecutionError) as excinfo:
            _run(core2duo_10cm, max_retries=1, fault_plan=plan)
        assert excinfo.value.pair == "ADD/SUB"
        assert excinfo.value.attempts == 2

    def test_fatal_failure_without_a_cache_says_nothing_was_kept(
        self, core2duo_10cm
    ):
        plan = FaultPlan.from_spec("raise@0,1x9")
        with pytest.raises(CellExecutionError) as excinfo:
            _run(core2duo_10cm, max_retries=0, fault_plan=plan)
        message = str(excinfo.value)
        assert message.endswith(
            "(completed cells were not kept; rerun with --cache-dir to "
            "keep them)"
        )
        assert "result cache" not in message

    def test_fatal_failure_caches_completed_cells_before_reraise(
        self, core2duo_10cm, tmp_path
    ):
        plan = FaultPlan.from_spec("raise@1,0x9")
        with pytest.raises(CellExecutionError) as excinfo:
            _run(core2duo_10cm, cache_dir=tmp_path, max_retries=0, fault_plan=plan)
        # Row-major execution: both row-0 cells completed before the
        # fatal cell (1, 0) and are in the cache for the rerun.
        assert _cached_cells(tmp_path) == {(0, 0), (0, 1)}
        assert str(excinfo.value).endswith(
            f"(completed cells are in the result cache at {tmp_path}; "
            "rerun the same command to continue)"
        )

    def test_fatal_failure_in_pool_mode_caches_completed_cells(
        self, core2duo_10cm, tmp_path
    ):
        plan = FaultPlan.from_spec("raise@1,1x9")
        with pytest.raises(CellExecutionError):
            _run(
                core2duo_10cm, workers=2, cache_dir=tmp_path,
                max_retries=0, fault_plan=plan,
            )
        cells = _cached_cells(tmp_path)
        assert (1, 1) not in cells
        assert cells  # at least one completed cell was checkpointed


# ----------------------------------------------------------------------
# Injected hangs and the cell timeout budget
# ----------------------------------------------------------------------
class TestCellTimeoutValidation:
    @pytest.mark.parametrize("budget", [0, -1, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_budget_is_rejected(
        self, core2duo_10cm, budget
    ):
        with pytest.raises(ConfigurationError, match="cell_timeout_s"):
            _run(core2duo_10cm, cell_timeout_s=budget)


@pytest.mark.slow
@pytest.mark.timeout(300)
class TestHangFaults:
    def test_pool_timeout_abandons_and_retries_the_hung_cell(
        self, core2duo_10cm, clean
    ):
        plan = FaultPlan.from_spec("hang@0,1:1.5")
        matrix = _run(
            core2duo_10cm, workers=2, cell_timeout_s=0.4, fault_plan=plan
        )
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["timeouts"] == 1
        assert execution["retries"] == 1
        assert execution["faults_injected"] == {"hang": 1}

    def test_short_hang_within_budget_is_not_a_timeout(self, core2duo_10cm, clean):
        plan = FaultPlan.from_spec("hang@0,0:0.1")
        matrix = _run(
            core2duo_10cm, workers=2, cell_timeout_s=30.0, fault_plan=plan
        )
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["timeouts"] == 0
        assert execution["retries"] == 0

    def test_serial_overrun_is_discarded_and_retried(self, core2duo_10cm, clean):
        # A serial in-process cell cannot be killed, so the hang runs to
        # completion — but once it returns, the overrun attempt counts
        # one timeout, its result is discarded, and the retry (replaying
        # the original seed) produces the cell: the same counters the
        # pool path records for an abandoned hung attempt.
        plan = FaultPlan.from_spec("hang@0,1:0.5")
        matrix = _run(core2duo_10cm, cell_timeout_s=0.2, fault_plan=plan)
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["timeouts"] == 1
        assert execution["retries"] == 1

    def test_overrun_then_success_matches_across_modes(
        self, core2duo_10cm, clean, tmp_path
    ):
        # The satellite regression: a cell that overruns its budget once
        # and then succeeds must leave identical timeout/retry counters,
        # the same cached cells, and bit-identical samples whether the
        # campaign ran serially or under the process pool.
        plan_spec = "hang@0,1:1.2"
        outcomes = {}
        for label, workers in (("serial", 0), ("pool", 2)):
            cache_dir = tmp_path / label
            matrix = _run(
                core2duo_10cm,
                workers=workers,
                cell_timeout_s=0.4,
                cache_dir=cache_dir,
                fault_plan=FaultPlan.from_spec(plan_spec),
            )
            execution = _execution(matrix)
            assert np.array_equal(matrix.samples_zj, clean.samples_zj)
            outcomes[label] = {
                "timeouts": execution["timeouts"],
                "retries": execution["retries"],
                "cells_simulated": execution["cells_simulated"],
                "faults_injected": execution["faults_injected"],
                "cached_cells": _cached_cells(cache_dir),
            }
        assert outcomes["serial"] == outcomes["pool"]
        assert outcomes["serial"]["timeouts"] == 1
        assert outcomes["serial"]["retries"] == 1

    def test_serial_overrun_exhausting_retries_fails_like_the_pool(
        self, core2duo_10cm
    ):
        plan = FaultPlan.from_spec("hang@0,1:0.5x9")
        with pytest.raises(CellExecutionError) as excinfo:
            _run(
                core2duo_10cm, cell_timeout_s=0.2, max_retries=1,
                fault_plan=plan,
            )
        assert excinfo.value.pair == "ADD/SUB"
        assert excinfo.value.attempts == 2
        assert "exceeded the 0.2 s budget" in str(excinfo.value)

    def test_hang_on_every_attempt_exhausts_the_budget(self, core2duo_10cm, tmp_path):
        # Two cells run under the 0.3 s budget, the hung one and one
        # that takes milliseconds; the other two come from the result
        # cache.  Two cold cells keep the execution pooled.
        _run(core2duo_10cm, cache_dir=tmp_path)
        for name in ("cell_000_000.npz", "cell_000_001.npz"):
            (cold_cell,) = tmp_path.glob(f"*/{name}")
            cold_cell.unlink()
        plan = FaultPlan.from_spec("hang@0,1:5x9")
        with pytest.raises(CellExecutionError) as excinfo:
            _run(
                core2duo_10cm, cache_dir=tmp_path, workers=2,
                cell_timeout_s=0.3, max_retries=1, fault_plan=plan,
            )
        assert excinfo.value.pair == "ADD/SUB"
        assert excinfo.value.attempts == 2
        assert "exceeded the 0.3 s budget on all 2 attempt(s)" in str(excinfo.value)


# ----------------------------------------------------------------------
# Injected cache corruption and the quarantine
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCorruptFaults:
    def test_warm_entry_is_quarantined_and_recomputed(
        self, core2duo_10cm, clean, tmp_path
    ):
        _run(core2duo_10cm, cache_dir=tmp_path)  # warm the cache
        plan = FaultPlan.from_spec("corrupt@0,1")
        matrix = _run(core2duo_10cm, cache_dir=tmp_path, fault_plan=plan)
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["quarantined"] == 1
        assert execution["cache_hits"] == CELLS - 1
        assert execution["cache_misses"] == 1
        assert execution["faults_injected"] == {"corrupt": 1}

    def test_quarantined_entry_is_preserved_not_deleted(
        self, core2duo_10cm, tmp_path
    ):
        from repro.core.faults import CORRUPT_PAYLOAD

        _run(core2duo_10cm, cache_dir=tmp_path)
        plan = FaultPlan.from_spec("corrupt@1,1")
        _run(core2duo_10cm, cache_dir=tmp_path, fault_plan=plan)
        quarantine = tmp_path / "quarantine"
        entries = list(quarantine.iterdir())
        assert len(entries) == 1
        assert entries[0].name.endswith("cell_001_001.npz")
        assert entries[0].read_bytes() == CORRUPT_PAYLOAD

    def test_cold_corruption_still_converges(self, core2duo_10cm, clean, tmp_path):
        # No warm entry exists yet: the fault plants garbage where the
        # entry would live, which the loader must quarantine before the
        # cell simulates.
        plan = FaultPlan.from_spec("corrupt@1,0")
        matrix = _run(core2duo_10cm, cache_dir=tmp_path, fault_plan=plan)
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["quarantined"] == 1
        assert execution["cells_simulated"] == CELLS

    def test_corrupt_fault_without_cache_is_inert(self, core2duo_10cm, clean):
        plan = FaultPlan.from_spec("corrupt@0,0")
        matrix = _run(core2duo_10cm, fault_plan=plan)
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["faults_injected"] == {}
        assert execution["quarantined"] == 0


# ----------------------------------------------------------------------
# All three fault kinds in one campaign (the acceptance scenario)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.timeout(300)
class TestCombinedFaultPlan:
    def test_campaign_survives_raise_hang_and_corruption(
        self, core2duo_10cm, clean, tmp_path
    ):
        # Cold cache: the corrupt fault plants garbage where an entry
        # would live (quarantined before simulating), while the raise
        # and hang faults hit their cells' first worker attempts.
        plan = FaultPlan.from_spec("raise@0,0;hang@0,1:1.5;corrupt@1,0")
        matrix = _run(
            core2duo_10cm,
            cache_dir=tmp_path,
            workers=2,
            cell_timeout_s=0.4,
            max_retries=2,
            fault_plan=plan,
        )
        execution = _execution(matrix)
        assert np.array_equal(matrix.samples_zj, clean.samples_zj)
        assert execution["quarantined"] == 1
        assert execution["timeouts"] == 1
        # One retry for the raise, one for the timed-out hang.
        assert execution["retries"] == 2
        assert execution["cells_simulated"] == CELLS
        assert execution["faults_injected"] == {
            "raise": 1, "hang": 1, "corrupt": 1,
        }

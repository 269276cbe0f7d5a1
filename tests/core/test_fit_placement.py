"""Where a calibration's fit runs.

The fit (~1 s) is made only when a cold cell needs it: in the parent
process, once cache hits are resolved, before any attempt
or pool fork and outside every cell's timing and budget.  A run whose
every cell is read back from the result cache fits nothing.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core import executor, savat
from repro.core.campaign import run_campaign
from repro.core.executor import ResultCache, campaign_cache_key
from repro.core.savat import MeasurementConfig
from repro.core.study import run_study
from repro.machines import calibrated, calibration
from repro.machines.calibrated import load_calibrated_machine
from repro.obs import CampaignObservability
from repro.obs.trace import read_trace, validate_trace

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)
EVENTS = ("ADD", "SUB")
CELLS = len(EVENTS) ** 2


@pytest.fixture
def fits(monkeypatch, tmp_path):
    """Records the pid of every ``calibrate`` call, pool workers' too.

    The fit memo starts empty, and the spy appends to a file, so a fit
    in a forked worker shows up as a line with that worker's pid.
    """
    monkeypatch.setattr(calibrated, "_CACHE", {})
    log = tmp_path / "fits.log"
    log.write_text("")
    fit = calibrated.calibrate

    def recording(spec, reference, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {spec.name} {reference.distance_m}\n")
        return fit(spec, reference, **kwargs)

    monkeypatch.setattr(calibrated, "calibrate", recording)

    def read() -> list[tuple[int, str, float]]:
        return [
            (int(pid), name, float(distance))
            for pid, name, distance in (
                line.split() for line in log.read_text().splitlines()
            )
        ]

    return read


def _calibrate_events(path) -> list[dict]:
    return [
        record
        for record in read_trace(path)
        if record["kind"] == "event" and record["name"] == "calibrate"
    ]


@pytest.mark.slow
class TestCampaign:
    def test_fully_cached_cli_campaign_fits_and_profiles_nothing(
        self, core2duo_10cm, capsys, tmp_path, monkeypatch, fits
    ):
        argv = [
            "campaign", "--events", ",".join(EVENTS), "--repetitions", "1",
            "--cache-dir", str(tmp_path / "cache"), "--format", "json",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert len(fits()) == 1

        monkeypatch.setattr(calibrated, "_CACHE", {})
        monkeypatch.setattr(calibration, "_PROFILES", {})
        profiles = []
        for module in (calibration, savat):
            original = module.profile_all_events

            def counting(spec, original=original):
                profiles.append(spec.name)
                return original(spec)

            monkeypatch.setattr(module, "profile_all_events", counting)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert len(fits()) == 1
        assert profiles == []
        assert warm["metadata"]["execution"]["cache_hits"] == CELLS
        for payload in (cold, warm):
            del payload["metadata"]["execution"]
        assert warm == cold

    def test_cold_pooled_campaign_fits_once_in_the_parent(self, fits, tmp_path):
        trace = tmp_path / "run.jsonl"
        matrix = run_campaign(
            load_calibrated_machine("core2duo", 0.10),
            config=FAST_CONFIG,
            events=EVENTS,
            repetitions=1,
            workers=2,
            observability=CampaignObservability(trace=trace),
        )
        assert matrix.metadata["execution"]["workers"] == 2
        assert fits() == [(os.getpid(), "core2duo", 0.10)]
        (event,) = _calibrate_events(trace)
        assert event["machine"] == "core2duo"
        assert event["distance_m"] == 0.10
        assert 0 < event["seconds"] <= matrix.metadata["execution"]["wall_seconds"]
        assert validate_trace(read_trace(trace)) == []

    def test_fit_is_outside_every_cell_budget(self, fits, monkeypatch):
        fit = calibrated.calibrate

        def slow(*args, **kwargs):
            time.sleep(0.5)
            return fit(*args, **kwargs)

        monkeypatch.setattr(calibrated, "calibrate", slow)
        matrix = run_campaign(
            load_calibrated_machine("core2duo", 0.10),
            config=FAST_CONFIG,
            events=EVENTS,
            repetitions=1,
            cell_timeout_s=0.3,
        )
        execution = matrix.metadata["execution"]
        assert len(fits()) == 1
        assert execution["timeouts"] == 0
        assert execution["retries"] == 0
        # The execution's wall time includes the fit it had to make.
        assert execution["wall_seconds"] > 0.5
        assert max(execution["cell_seconds"].values()) < 0.3

    def test_an_already_fitted_machine_writes_no_calibrate_event(
        self, core2duo_10cm, tmp_path
    ):
        trace = tmp_path / "run.jsonl"
        run_campaign(
            core2duo_10cm,
            config=FAST_CONFIG,
            events=EVENTS,
            repetitions=1,
            observability=CampaignObservability(trace=trace),
        )
        assert _calibrate_events(trace) == []

    def test_cached_campaign_writes_no_calibrate_event(
        self, core2duo_10cm, fits, tmp_path
    ):
        cache = tmp_path / "cache"
        run_campaign(
            core2duo_10cm, config=FAST_CONFIG, events=EVENTS, repetitions=1,
            cache_dir=cache,
        )
        trace = tmp_path / "warm.jsonl"
        machine = load_calibrated_machine("core2duo", 0.10)
        run_campaign(
            machine, config=FAST_CONFIG, events=EVENTS, repetitions=1,
            cache_dir=cache, observability=CampaignObservability(trace=trace),
        )
        assert not machine.fitted
        assert fits() == []
        assert _calibrate_events(trace) == []
        assert validate_trace(read_trace(trace)) == []


@pytest.mark.slow
@pytest.mark.parametrize("workers", [0, 2])
def test_half_cached_study_fits_only_the_uncached_distance(
    core2duo_10cm, fits, tmp_path, workers
):
    cache = tmp_path / "cache"
    run_campaign(
        core2duo_10cm, config=FAST_CONFIG, events=EVENTS, repetitions=1,
        cache_dir=cache,
    )
    study = run_study(
        ["core2duo"],
        [0.10, 0.50],
        events=EVENTS,
        config=FAST_CONFIG,
        repetitions=1,
        workers=workers,
        cache_dir=cache,
    )
    assert fits() == [(os.getpid(), "core2duo", 0.50)]
    near, far = (matrix.metadata["execution"] for matrix in study.matrices)
    assert near["cache_hits"] == CELLS and near["cells_simulated"] == 0
    assert far["cells_simulated"] == CELLS
    standalone = run_campaign(
        load_calibrated_machine("core2duo", 0.50),
        config=FAST_CONFIG, events=EVENTS, repetitions=1,
    )
    assert np.array_equal(study.matrices[1].samples_zj, standalone.samples_zj)


@pytest.mark.slow
def test_study_fits_a_point_with_a_corrupt_cell_before_its_pool_starts(
    fits, tmp_path, monkeypatch
):
    """A cached cell that cannot be read is cold: its point is fitted in
    the parent before the pool starts, not beside the pool."""
    cache = tmp_path / "cache"
    arguments = dict(
        events=EVENTS, config=FAST_CONFIG, repetitions=1, cache_dir=cache
    )
    run_study(["core2duo"], [0.10, 0.50], **arguments)
    key = campaign_cache_key("core2duo", 0.50, FAST_CONFIG, EVENTS, 1, 0)
    # Two corrupt cells: a lone cold cell would run in-process.
    for i, j in ((0, 1), (1, 0)):
        ResultCache(cache).cell_path(key, i, j).write_bytes(b"not an npz file")
    monkeypatch.setattr(calibrated, "_CACHE", {})
    fitted = len(fits())
    fits_at_pool_start = _record_pool_starts(monkeypatch, fits)
    rerun = run_study(["core2duo"], [0.10, 0.50], workers=2, **arguments)
    assert fits()[fitted:] == [(os.getpid(), "core2duo", 0.50)]
    assert fits_at_pool_start == [fitted + 1]
    near, far = (matrix.metadata["execution"] for matrix in rerun.matrices)
    assert near["cache_hits"] == CELLS and near["cells_simulated"] == 0
    assert far["quarantined"] == 2 and far["cells_simulated"] == 2


@pytest.mark.slow
def test_pooled_two_machine_study_starts_one_pool_after_every_fit(
    fits, monkeypatch
):
    fits_at_pool_start = _record_pool_starts(monkeypatch, fits)
    study = run_study(
        ["core2duo", "pentium3m"], [0.10, 0.50], events=EVENTS,
        config=FAST_CONFIG, repetitions=1, workers=2,
    )
    grid = [
        (os.getpid(), name, distance)
        for name in ("core2duo", "pentium3m")
        for distance in (0.10, 0.50)
    ]
    assert sorted(fits()) == sorted(grid)
    assert fits_at_pool_start == [len(grid)]
    for matrix in study.matrices:
        assert matrix.metadata["execution"]["workers"] == 2
        assert matrix.metadata["execution"]["cells_simulated"] == CELLS


def _record_pool_starts(monkeypatch, fits) -> list[int]:
    """Patches the executor's pool to record the fit count at each start."""
    starts = []

    class RecordingPool(executor.WorkerPool):
        def __init__(self, workers):
            starts.append(len(fits()))
            super().__init__(workers)

    monkeypatch.setattr(executor, "WorkerPool", RecordingPool)
    return starts

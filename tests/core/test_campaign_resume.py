"""Resume suite: an interrupted campaign reruns against its result cache.

Each cell is stored in the result cache the moment it completes, so a
campaign that stopped after K cells — killed, or failed on a cell —
resumes by being rerun against the same cache.  The rerun must simulate
only the cells missing from the cache (verified by spying on
``simulate_cell``) and still produce a matrix bit-identical to an
uninterrupted run.  A torn or garbage cell file is quarantined and
recomputed, never replayed.
"""

import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import executor
from repro.core.campaign import run_campaign
from repro.core.faults import FaultPlan
from repro.core.savat import MeasurementConfig
from repro.errors import CellExecutionError

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB", "MUL")
SEED = 7
REPETITIONS = 2
TOTAL = len(EVENTS) ** 2
CELLS = [(i, j) for i in range(len(EVENTS)) for j in range(len(EVENTS))]


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


def _cell_file(campaign_dir: Path, i: int, j: int) -> Path:
    return campaign_dir / f"cell_{i:03d}_{j:03d}.npz"


@pytest.fixture(scope="module")
def cached_run(core2duo_10cm, tmp_path_factory):
    """One complete campaign and the cache directory holding its cells."""
    cache_dir = tmp_path_factory.mktemp("cache")
    matrix = _run(core2duo_10cm, cache_dir=cache_dir)
    (campaign_dir,) = [path for path in cache_dir.iterdir() if path.is_dir()]
    return matrix, campaign_dir


def _partial_cache(campaign_dir: Path, kept, into: Path) -> Path:
    """A cache under ``into`` holding only the ``kept`` cells of a run."""
    target = into / campaign_dir.name
    target.mkdir()
    for i, j in kept:
        shutil.copy2(_cell_file(campaign_dir, i, j), target)
    return target


class _SimulateSpy:
    """Counts executor.simulate_cell calls while delegating to the real one."""

    def __init__(self):
        self.calls = 0
        self._real = executor.simulate_cell

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._real(*args, **kwargs)


def _rerun(machine, **overrides):
    spy = _SimulateSpy()
    with mock.patch.object(executor, "simulate_cell", spy):
        matrix = _run(machine, **overrides)
    return matrix, spy.calls


@pytest.mark.slow
class TestResume:
    @settings(max_examples=6, deadline=None)
    @given(kept=st.sets(st.sampled_from(CELLS), max_size=TOTAL))
    def test_resume_recomputes_only_uncached_cells(
        self, core2duo_10cm, cached_run, kept
    ):
        full, campaign_dir = cached_run
        with tempfile.TemporaryDirectory(prefix="savat-resume-") as scratch:
            _partial_cache(campaign_dir, kept, Path(scratch))
            resumed, simulated = _rerun(core2duo_10cm, cache_dir=scratch)
        execution = _execution(resumed)
        assert simulated == TOTAL - len(kept)
        assert execution["cache_hits"] == len(kept)
        assert execution["cells_simulated"] == TOTAL - len(kept)
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    def test_fully_cached_campaign_reruns_with_zero_simulation(
        self, core2duo_10cm, cached_run, tmp_path
    ):
        full, campaign_dir = cached_run
        _partial_cache(campaign_dir, CELLS, tmp_path)
        resumed, simulated = _rerun(core2duo_10cm, cache_dir=tmp_path)
        assert simulated == 0
        assert _execution(resumed)["cache_hits"] == TOTAL
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    @pytest.mark.parametrize("damage", ["torn", "garbage"])
    def test_damaged_cell_file_is_quarantined_and_recomputed(
        self, core2duo_10cm, cached_run, tmp_path, damage
    ):
        full, campaign_dir = cached_run
        target = _partial_cache(campaign_dir, CELLS, tmp_path)
        cell = _cell_file(target, 1, 2)
        payload = cell.read_bytes()
        # A torn file is a write cut short; garbage is any other content.
        cell.write_bytes(
            payload[: len(payload) // 2] if damage == "torn" else b"not an npz"
        )
        resumed, simulated = _rerun(core2duo_10cm, cache_dir=tmp_path)
        execution = _execution(resumed)
        assert simulated == 1
        assert execution["quarantined"] == 1
        assert execution["cache_hits"] == TOTAL - 1
        assert execution["cache_misses"] == 1
        (quarantined,) = (tmp_path / "quarantine").iterdir()
        assert quarantined.name.endswith("cell_001_002.npz")
        assert np.array_equal(resumed.samples_zj, full.samples_zj)
        # The recomputed cell went back into the cache.
        assert cell.read_bytes() == payload

    def test_fatal_fault_then_resume_completes_the_campaign(
        self, core2duo_10cm, cached_run, tmp_path
    ):
        full, _campaign_dir = cached_run
        plan = FaultPlan.from_spec("raise@2,2x9")
        with pytest.raises(CellExecutionError, match="rerun the same command"):
            _run(
                core2duo_10cm, cache_dir=tmp_path, workers=0, max_retries=0,
                fault_plan=plan,
            )
        resumed, simulated = _rerun(core2duo_10cm, cache_dir=tmp_path, workers=0)
        # Row-major order: every cell before (2, 2) reached the cache, so
        # the rerun recomputes exactly the one that failed.
        assert simulated == 1
        assert _execution(resumed)["cache_hits"] == TOTAL - 1
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    def test_leftover_journal_file_is_ignored(
        self, core2duo_10cm, cached_run, tmp_path
    ):
        # Cache directories written by older releases may hold a
        # journal.jsonl beside the cells; it is neither read nor removed.
        full, campaign_dir = cached_run
        target = _partial_cache(campaign_dir, CELLS[:4], tmp_path)
        leftover = target / "journal.jsonl"
        leftover.write_text("not read\n")
        resumed, simulated = _rerun(core2duo_10cm, cache_dir=tmp_path)
        assert simulated == TOTAL - 4
        assert np.array_equal(resumed.samples_zj, full.samples_zj)
        assert leftover.read_text() == "not read\n"

"""``python -m repro.obs.check --matrix``: every cell is accounted for.

A cell has two sources, a result-cache hit or a simulation, so a
campaign's ``cache_hits + cells_simulated`` equals its cell count — on a
cold run, a warm rerun, and a run that quarantined a corrupt entry (the
quarantined cell is a miss and is then simulated).
"""

import json

import pytest

from repro.core.campaign import run_campaign
from repro.core.faults import FaultPlan
from repro.core.savat import MeasurementConfig
from repro.obs import CampaignObservability
from repro.obs.check import check_cell_accounting, main as check

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB")


def _outputs(machine, directory, **overrides):
    """Run a small campaign; return its metrics and campaign JSON paths."""
    metrics = directory / "metrics.prom"
    matrix = run_campaign(
        machine,
        events=EVENTS,
        repetitions=2,
        seed=5,
        config=FAST_CONFIG,
        observability=CampaignObservability(metrics_out=metrics),
        **overrides,
    )
    campaign = directory / "campaign.json"
    campaign.write_text(matrix.to_json())
    return metrics, campaign


def _check(metrics, campaign):
    return check(["--metrics", str(metrics), "--matrix", str(campaign)])


class TestCheckCellAccounting:
    def test_hits_plus_simulated_covering_every_cell_pass(self):
        execution = {"cache_hits": 3, "cells_simulated": 1}
        assert check_cell_accounting(execution, ["ADD", "SUB"]) == []

    def test_a_mismatch_is_one_line(self):
        execution = {"cache_hits": 3, "cells_simulated": 2}
        (error,) = check_cell_accounting(execution, ["ADD", "SUB"])
        assert error == (
            "cell accounting: 3 cache hit(s) + 2 simulated = 5, but a 2x2 "
            "campaign has 4 cells"
        )


@pytest.mark.slow
class TestMatrixAccounting:
    def test_valid_campaign_json_passes(self, core2duo_10cm, tmp_path, capsys):
        metrics, campaign = _outputs(core2duo_10cm, tmp_path)
        assert _check(metrics, campaign) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_doctored_campaign_json_fails_on_one_line(
        self, core2duo_10cm, tmp_path, capsys
    ):
        metrics, campaign = _outputs(core2duo_10cm, tmp_path)
        payload = json.loads(campaign.read_text())
        payload["events"].append("MUL")  # 9 cells claimed, 4 measured
        campaign.write_text(json.dumps(payload))
        assert _check(metrics, campaign) == 1
        failures = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("FAIL:")
        ]
        assert failures == [
            "FAIL: consistency: cell accounting: 0 cache hit(s) + 4 "
            "simulated = 4, but a 3x3 campaign has 9 cells"
        ]

    def test_quarantine_run_is_accounted_for(self, core2duo_10cm, tmp_path):
        cache_dir = tmp_path / "cache"
        _outputs(core2duo_10cm, tmp_path, cache_dir=cache_dir)
        metrics, campaign = _outputs(
            core2duo_10cm, tmp_path, cache_dir=cache_dir,
            fault_plan=FaultPlan.from_spec("corrupt@1,0"),
        )
        execution = json.loads(campaign.read_text())["metadata"]["execution"]
        assert execution["quarantined"] == 1
        assert (execution["cache_hits"], execution["cells_simulated"]) == (3, 1)
        assert _check(metrics, campaign) == 0

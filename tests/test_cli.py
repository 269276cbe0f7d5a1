"""Tests for the savat command-line interface."""

import argparse
import json
import os

import numpy as np
import pytest

from repro.cli import (
    _campaign_execution_kwargs,
    _campaign_summary_lines,
    _distance,
    _distance_list,
    _event_list,
    _machine_list,
    _measurement_config,
    build_parser,
    main,
)


class TestEventList:
    def test_parses_comma_separated_names(self):
        assert _event_list("ADD,SUB,MUL") == ["ADD", "SUB", "MUL"]

    def test_is_case_insensitive(self):
        assert _event_list("add,Sub") == ["ADD", "SUB"]

    def test_strips_whitespace_and_drops_empty_tokens(self):
        assert _event_list(" ADD , ,SUB, ") == ["ADD", "SUB"]

    def test_unknown_token_names_itself_and_the_choices(self):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _event_list("ADD,bogus")
        assert "unknown event 'bogus'" in str(excinfo.value)
        assert "ADD" in str(excinfo.value)  # valid choices listed

    def test_duplicate_event_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError, match="event ADD listed twice"):
            _event_list("ADD,add")

    def test_bare_commas_are_an_error_not_an_empty_campaign(self):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _event_list(",,")
        assert "no event names given" in str(excinfo.value)

    def test_parser_rejects_bad_events_with_exit_code_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", "--events", "ADD,bogus"])
        assert excinfo.value.code == 2
        assert "unknown event 'bogus'" in capsys.readouterr().err

    def test_parser_returns_a_validated_list(self):
        args = build_parser().parse_args(["campaign", "--events", "add, sub,"])
        assert args.events == ["ADD", "SUB"]


class TestObservabilityFlags:
    def test_defaults_without_environment(self, monkeypatch):
        monkeypatch.delenv("SAVAT_METRICS_OUT", raising=False)
        monkeypatch.delenv("SAVAT_TRACE", raising=False)
        args = build_parser().parse_args(["campaign"])
        assert args.metrics_out is None
        assert args.trace is None
        assert args.progress is None  # auto-detect

    def test_flags_override(self):
        args = build_parser().parse_args(
            ["campaign", "--metrics-out", "m.prom", "--trace", "t.jsonl",
             "--progress"]
        )
        assert args.metrics_out == "m.prom"
        assert args.trace == "t.jsonl"
        assert args.progress is True

    def test_no_progress(self):
        args = build_parser().parse_args(["campaign", "--no-progress"])
        assert args.progress is False

    def test_environment_defaults(self, monkeypatch):
        monkeypatch.setenv("SAVAT_METRICS_OUT", "/tmp/env.prom")
        monkeypatch.setenv("SAVAT_TRACE", "/tmp/env.jsonl")
        args = build_parser().parse_args(["campaign"])
        assert args.metrics_out == "/tmp/env.prom"
        assert args.trace == "/tmp/env.jsonl"

    def test_execution_kwargs_build_an_observability_bundle(self, tmp_path):
        args = build_parser().parse_args(
            ["campaign", "--trace", str(tmp_path / "t.jsonl"),
             "--metrics-out", str(tmp_path / "m.prom"), "--no-progress"]
        )
        observability = _campaign_execution_kwargs(args)["observability"]
        assert observability.trace is not None
        assert observability.metrics_out == tmp_path / "m.prom"
        assert observability.progress_setting is False

    def test_execution_kwargs_without_flags_still_carry_a_registry(
        self, monkeypatch
    ):
        monkeypatch.delenv("SAVAT_METRICS_OUT", raising=False)
        monkeypatch.delenv("SAVAT_TRACE", raising=False)
        args = build_parser().parse_args(["campaign"])
        observability = _campaign_execution_kwargs(args)["observability"]
        assert observability.trace is None
        assert observability.metrics_out is None
        assert observability.metrics is not None


class _FakeCampaign:
    """Just enough of a SavatMatrix for the summary renderer."""

    events = ("ADD", "SUB")
    repetitions = 2

    def __init__(self, metadata):
        self.metadata = metadata

    def mean(self):
        return np.ones((2, 2))

    def std_over_mean(self):
        return 0.012


class _FakeMachine:
    def describe(self):
        return "core2duo at 10 cm"


class TestCampaignSummaryLines:
    EXECUTION = {
        "workers": 2, "wall_seconds": 1.5, "cache_hits": 1,
        "cache_misses": 3, "cells_simulated": 3,
        "retries": 1, "timeouts": 0, "quarantined": 0,
        "phase_seconds": {"core_run": 1.2},
        "faults_injected": {"raise": 1},
    }

    def test_full_summary_includes_the_execution_footer(self):
        lines = _campaign_summary_lines(
            _FakeCampaign({"execution": self.EXECUTION}), _FakeMachine()
        )
        text = "\n".join(lines)
        assert "3 cell(s) simulated" in text
        assert "robustness: 1 retry(ies), 0 timeout(s)" in text
        assert "simulation time by phase: core_run 1.2 s" in text
        assert "injected faults fired: raise x1" in text

    def test_missing_execution_metadata_degrades_gracefully(self):
        lines = _campaign_summary_lines(_FakeCampaign({}), _FakeMachine())
        text = "\n".join(lines)
        assert "SAVAT (zJ) on core2duo at 10 cm:" in text
        assert "std/mean over 2 repetitions" in text
        assert "cell(s) simulated" not in text
        assert "robustness" not in text

    def test_inexact_calibration_target_is_named(self):
        reference = {"figure": "interpolated", "exact": False, "distance_m": 0.25}
        lines = _campaign_summary_lines(
            _FakeCampaign({"reference": reference}), _FakeMachine()
        )
        assert (
            "calibration target: interpolated at 25 cm, "
            "not a verbatim published matrix"
        ) in lines

    def test_exact_calibration_target_adds_no_line(self):
        reference = {"figure": "Fig. 9/10", "exact": True, "distance_m": 0.10}
        lines = _campaign_summary_lines(
            _FakeCampaign({"reference": reference}), _FakeMachine()
        )
        assert not any("calibration target" in line for line in lines)

    def test_one_repetition_prints_no_numeric_spread(self):
        campaign = _FakeCampaign({})
        campaign.repetitions = 1
        text = "\n".join(_campaign_summary_lines(campaign, _FakeMachine()))
        assert "std/mean over 1 repetition: undefined" in text
        assert "0.012" not in text
        assert "0.000" not in text


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_measure_defaults(self):
        args = build_parser().parse_args(["measure", "ADD", "LDM"])
        assert args.machine == "core2duo"
        assert args.distance == pytest.approx(0.10)
        assert args.frequency == pytest.approx(80e3)

    def test_campaign_formats(self):
        args = build_parser().parse_args(["campaign", "--format", "json"])
        assert args.format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--format", "xml"])

    def test_campaign_execution_defaults(self, monkeypatch):
        monkeypatch.delenv("SAVAT_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["campaign"])
        assert args.workers == len(os.sched_getaffinity(0))
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_campaign_execution_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--workers", "4", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True

    def test_cache_dir_defaults_from_environment(self, monkeypatch):
        monkeypatch.setenv("SAVAT_CACHE_DIR", "/tmp/from-env")
        monkeypatch.setenv("SAVAT_TRACE_CACHE_DIR", "/tmp/traces-from-env")
        monkeypatch.setenv("SAVAT_INJECT_FAULTS", "raise@0,1")
        for command in ("campaign", "study", "groups"):
            args = build_parser().parse_args([command])
            assert args.cache_dir == "/tmp/from-env"
            assert args.trace_cache_dir == "/tmp/traces-from-env"
            if command != "study":
                assert args.inject_faults == "raise@0,1"
        args = build_parser().parse_args(["campaign", "--trace-cache-dir", "/tmp/t"])
        assert args.trace_cache_dir == "/tmp/t"

    def test_groups_accepts_execution_flags(self):
        args = build_parser().parse_args(["groups", "--workers", "2"])
        assert args.workers == 2

    def test_negative_workers_fail_parsing(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--workers", "-3"])
        assert "workers" in capsys.readouterr().err

    def test_audit_memory_assumption(self):
        args = build_parser().parse_args(["audit", "x.s", "--assume-memory", "L2"])
        assert args.assume_memory == "L2"


class TestMeasurementFlags:
    def test_campaign_method_and_duration_defaults(self, monkeypatch):
        monkeypatch.delenv("SAVAT_METHOD", raising=False)
        monkeypatch.delenv("SAVAT_DURATION_S", raising=False)
        args = build_parser().parse_args(["campaign"])
        config = _measurement_config(args)
        assert config.method == "analytic"
        assert config.duration_s == pytest.approx(1.0)

    def test_campaign_method_and_duration_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--method", "full", "--duration-s", "0.25"]
        )
        config = _measurement_config(args)
        assert config.method == "full"
        assert config.duration_s == pytest.approx(0.25)

    def test_groups_accepts_measurement_flags(self):
        args = build_parser().parse_args(["groups", "--method", "full"])
        assert _measurement_config(args).method == "full"

    def test_synthesis_alias_normalizes(self):
        args = build_parser().parse_args(["campaign", "--method", "synthesis"])
        assert _measurement_config(args).method == "full"

    def test_environment_defaults(self, monkeypatch):
        monkeypatch.setenv("SAVAT_METHOD", "full")
        monkeypatch.setenv("SAVAT_DURATION_S", "0.5")
        args = build_parser().parse_args(["campaign"])
        config = _measurement_config(args)
        assert config.method == "full"
        assert config.duration_s == pytest.approx(0.5)

    def test_unknown_method_flag_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--method", "guesswork"])

    def test_invalid_duration_environment_fails_cleanly(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("SAVAT_DURATION_S", "soon")
        args = build_parser().parse_args(["campaign"])
        with pytest.raises(ConfigurationError):
            _measurement_config(args)

    def test_method_and_duration_change_the_cache_key(self):
        from repro.core.executor import campaign_cache_key
        from repro.core.savat import MeasurementConfig

        keys = {
            campaign_cache_key("core2duo", 0.1, config, ["ADD", "SUB"], 3, 0)
            for config in (
                MeasurementConfig(),
                MeasurementConfig(method="full"),
                MeasurementConfig(method="full", duration_s=0.5),
                MeasurementConfig(duration_s=0.5),
            )
        }
        assert len(keys) == 4


@pytest.mark.slow
class TestCommands:
    def test_measure(self, capsys, core2duo_10cm):
        code = main(["measure", "ADD", "MUL"])
        output = capsys.readouterr().out
        assert code == 0
        assert "SAVAT(ADD/MUL)" in output
        assert "inst_loop_count" in output

    def test_measure_unknown_event_fails_cleanly(self, capsys):
        code = main(["measure", "ADD", "FDIV"])
        assert code == 2
        assert "unknown event" in capsys.readouterr().err

    def test_measure_non_finite_frequency_fails_cleanly(self, capsys, core2duo_10cm):
        code = main(["measure", "ADD", "SUB", "--frequency", "nan"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "error: alternation_frequency_hz must be finite, got nan"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--events", "ADD,SUB", "--repetitions", "1"],
            ["study", "--distances", "0.10", "--events", "ADD,SUB", "--repetitions", "1"],
        ],
        ids=["campaign", "study"],
    )
    def test_negative_seed_fails_cleanly(self, capsys, core2duo_10cm, argv):
        code = main([*argv, "--seed", "-1", "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--trace-cache-dir"],
            ["study", "--trace-cache-dir"],
            ["study", "--cache-dir"],
        ],
        ids=["campaign-trace-cache", "study-trace-cache", "study-result-cache"],
    )
    def test_cache_directory_that_is_a_file_fails_cleanly(self, capsys, tmp_path, argv):
        path = tmp_path / "file"
        path.write_text("")
        code = main([*argv, str(path), "--events", "ADD,SUB", "--repetitions", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and "is not a directory" in err[0]

    @pytest.mark.parametrize(
        "distance,figure,exact,anchors",
        [
            ("0.25", "interpolated", False, [0.10, 0.50, 1.00]),
            ("0.10", "Fig. 9/10", True, []),
        ],
        ids=["25cm", "10cm"],
    )
    def test_campaign_json_names_its_calibration_target(
        self, capsys, core2duo_10cm, distance, figure, exact, anchors
    ):
        code = main(
            ["campaign", "--distance", distance, "--events", "ADD",
             "--repetitions", "1", "--workers", "0", "--no-cache",
             "--format", "json"]
        )
        assert code == 0
        reference = json.loads(capsys.readouterr().out)["metadata"]["reference"]
        assert reference == {
            "figure": figure,
            "exact": exact,
            "distance_m": float(distance),
            "anchors_m": anchors,
        }

    def test_campaign_csv(self, capsys, core2duo_10cm):
        code = main(
            ["campaign", "--events", "ADD,MUL", "--repetitions", "1", "--format", "csv"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert output.splitlines()[0] == ",ADD,MUL"

    def test_campaign_json_roundtrips(self, capsys, core2duo_10cm):
        code = main(
            ["campaign", "--events", "ADD,SUB", "--repetitions", "1", "--format", "json"]
        )
        output = capsys.readouterr().out
        assert code == 0
        payload = json.loads(output)
        assert payload["events"] == ["ADD", "SUB"]

    def test_campaign_parallel_cached_rerun_is_identical(
        self, capsys, core2duo_10cm, tmp_path
    ):
        arguments = [
            "campaign", "--events", "ADD,SUB", "--repetitions", "1",
            "--workers", "2", "--cache-dir", str(tmp_path), "--format", "csv",
        ]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert list(tmp_path.rglob("cell_*.npz"))

    def test_campaign_writes_trace_and_metrics(
        self, capsys, core2duo_10cm, tmp_path
    ):
        from repro.obs.check import parse_prometheus
        from repro.obs.trace import validate_trace_file

        trace_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "run.prom"
        code = main(
            ["campaign", "--events", "ADD,SUB", "--repetitions", "1",
             "--trace", str(trace_path), "--metrics-out", str(metrics_path),
             "--no-progress", "--format", "csv"]
        )
        capsys.readouterr()
        assert code == 0
        assert validate_trace_file(trace_path) == []
        samples, errors = parse_prometheus(metrics_path.read_text())
        assert errors == []
        assert samples[("savat_cells_simulated_total", frozenset())] == 4

    def test_audit_leaky_file(self, capsys, tmp_path):
        source = tmp_path / "victim.s"
        source.write_text("test ebx, 1\njz zero\nmov eax, [esi]\nidiv ebx\nzero: halt\n")
        code = main(["audit", str(source)])
        output = capsys.readouterr().out
        assert code == 1  # leaks found -> nonzero exit for CI use
        assert "LEAKS" in output

    def test_audit_clean_file(self, capsys, tmp_path):
        source = tmp_path / "clean.s"
        source.write_text("add eax, 1\nhalt\n")
        code = main(["audit", str(source)])
        assert code == 0
        assert "no conditional branches" in capsys.readouterr().out

    def test_audit_missing_file(self, capsys):
        code = main(["audit", "/nonexistent/file.s"])
        assert code == 2

    def test_audit_unpublished_distance_is_an_error(self, capsys, tmp_path):
        source = tmp_path / "clean.s"
        source.write_text("add eax, 1\nhalt\n")
        code = main(["audit", str(source), "--distance", "0.104"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error_lines = captured.err.strip().splitlines()
        assert len(error_lines) == 1
        assert "no published matrix for 'core2duo' at 0.104 m" in error_lines[0]

    def test_audit_at_a_published_distance_to_a_tenth_of_a_millimetre(
        self, capsys, tmp_path
    ):
        source = tmp_path / "clean.s"
        source.write_text("add eax, 1\nhalt\n")
        code = main(["audit", str(source), "--distance", "0.1000000001"])
        assert code == 0
        assert "no conditional branches" in capsys.readouterr().out

    def test_attack(self, capsys, core2duo_10cm):
        code = main(["attack", "--key", "1011", "--seed", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "recovered key: 1011" in output


class TestGroupsCommand:
    @pytest.mark.parametrize("num_groups", ["0", "12"])
    def test_bad_cluster_count_fails_before_any_measurement(
        self, capsys, monkeypatch, num_groups
    ):
        from repro.core import executor
        from repro.machines import calibrated

        ran = []

        def forbidden(name):
            def spy(*args, **kwargs):
                ran.append(name)
                raise AssertionError(f"{name} must not run")

            return spy

        monkeypatch.setattr(calibrated, "_CACHE", {})
        monkeypatch.setattr(calibrated, "calibrate", forbidden("calibrate"))
        monkeypatch.setattr(executor, "simulate_cell", forbidden("simulate_cell"))
        code = main(
            ["groups", "--num-groups", num_groups, "--repetitions", "1",
             "--workers", "0", "--no-cache"]
        )
        assert ran == []
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: num_groups must be in [1, 11], got {num_groups}"
        ]

    @pytest.mark.slow
    def test_clusters_cover_every_event_and_rerun_from_the_cache(
        self, capsys, monkeypatch, core2duo_10cm, tmp_path
    ):
        from repro.core import executor
        from repro.isa.events import EVENT_ORDER

        arguments = ["groups", "--repetitions", "1", "--cache-dir", str(tmp_path)]
        assert main(arguments) == 0
        output = capsys.readouterr().out
        groups = [
            set(line.strip()[1:-1].split(", "))
            for line in output.splitlines()
            if line.startswith("  {")
        ]
        assert len(groups) == 4
        assert set().union(*groups) == set(EVENT_ORDER)
        assert sum(len(group) for group in groups) == len(EVENT_ORDER)

        simulated = []
        simulate_cell = executor.simulate_cell

        def counting(*args, **kwargs):
            simulated.append(args)
            return simulate_cell(*args, **kwargs)

        # In-process, so a cell simulated on the rerun would be counted.
        monkeypatch.setattr(executor, "simulate_cell", counting)
        assert main([*arguments, "--workers", "0"]) == 0
        assert capsys.readouterr().out == output
        assert simulated == []


@pytest.mark.slow
class TestExtendedCommands:
    def test_epi(self, capsys, core2duo_10cm):
        code = main(["epi"])
        output = capsys.readouterr().out
        assert code == 0
        assert "energy per instruction" in output
        assert "LDM" in output and "pJ" in output

    def test_frequency(self, capsys):
        code = main(["frequency", "--low", "40000", "--high", "100000", "--step", "20000"])
        output = capsys.readouterr().out
        assert code == 0
        assert "recommend" in output
        assert "<- chosen" in output


class TestDistanceArguments:
    def test_distance_parses_a_positive_float(self):
        assert _distance("0.25") == 0.25

    @pytest.mark.parametrize("text", ["0", "-0.1", "nan", "inf", "-inf"])
    def test_invalid_distance_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="positive, finite"):
            _distance(text)

    def test_non_numeric_distance_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError, match="invalid distance"):
            _distance("close")

    def test_parser_rejects_bad_distance_with_exit_code_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", "--distance", "-1"])
        assert excinfo.value.code == 2
        assert "positive, finite" in capsys.readouterr().err

    def test_distance_list_parses_and_validates(self):
        assert _distance_list("0.10, 0.25,") == [0.10, 0.25]
        with pytest.raises(argparse.ArgumentTypeError, match="positive, finite"):
            _distance_list("0.10,0")
        with pytest.raises(argparse.ArgumentTypeError, match="no distances"):
            _distance_list(",,")

    def test_distance_list_rejects_one_calibration_twice(self):
        with pytest.raises(argparse.ArgumentTypeError, match="'0.1' listed twice"):
            _distance_list("0.10,0.1")
        with pytest.raises(argparse.ArgumentTypeError, match="listed twice"):
            _distance_list("0.25,0.250001")
        assert _distance_list("0.25,0.2501") == [0.25, 0.2501]


class TestMachineList:
    def test_parses_and_normalizes(self):
        assert _machine_list("core2duo, PENTIUM3M") == ["core2duo", "pentium3m"]

    def test_duplicate_machine_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError, match="core2duo listed twice"):
            _machine_list("core2duo,CORE2DUO")

    def test_unknown_machine_names_itself_and_the_choices(self):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _machine_list("core2duo,laptop")
        assert "unknown machine 'laptop'" in str(excinfo.value)
        assert "core2duo" in str(excinfo.value)

    def test_empty_list_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError, match="no machine names"):
            _machine_list(",")


class TestStudyParser:
    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.machines == ["core2duo"]
        assert args.distances == [0.10, 0.50]
        assert args.events is None
        assert args.workers == len(os.sched_getaffinity(0))
        assert args.format == "table"

    def test_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "study",
                "--machines", "core2duo,pentium3m",
                "--distances", "0.10,0.25,1.0",
                "--events", "ADD,SUB",
                "--workers", "4",
                "--trace-cache-dir", str(tmp_path / "traces"),
                "--output-dir", str(tmp_path / "out"),
                "--format", "json",
            ]
        )
        assert args.machines == ["core2duo", "pentium3m"]
        assert args.distances == [0.10, 0.25, 1.0]
        assert args.events == ["ADD", "SUB"]
        assert args.workers == 4
        assert args.trace_cache_dir == str(tmp_path / "traces")
        assert args.format == "json"

    @pytest.mark.slow
    def test_study_command_runs_end_to_end(self, capsys, core2duo_10cm, tmp_path):
        code = main(
            [
                "study",
                "--distances", "0.10,0.50",
                "--events", "ADD,SUB",
                "--repetitions", "2",
                "--seed", "3",
                "--method", "analytic",
                "--cache-dir", str(tmp_path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "2 campaign(s)" in output
        assert "trace cache totals" in output
        # The result cache's directory holds results only.
        assert not (tmp_path / "traces").exists()

    @pytest.mark.slow
    def test_study_table_names_an_inexact_calibration_target(
        self, capsys, core2duo_10cm
    ):
        code = main(
            ["study", "--distances", "0.10,0.25", "--events", "ADD",
             "--repetitions", "1", "--workers", "0", "--no-cache"]
        )
        assert code == 0
        rows = {
            line.split(":")[0].strip(): line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  core2duo @ ")
        }
        assert rows["core2duo @ 25 cm"].endswith("; calibration target: interpolated")
        assert "calibration target" not in rows["core2duo @ 10 cm"]

    @pytest.mark.slow
    def test_study_json_format(self, capsys, core2duo_10cm, tmp_path):
        code = main(
            [
                "study",
                "--distances", "0.10",
                "--events", "ADD,SUB",
                "--repetitions", "2",
                "--trace-cache-dir", str(tmp_path),
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["campaigns"]) == 1
        assert payload["trace_cache"]["stores"] == 4

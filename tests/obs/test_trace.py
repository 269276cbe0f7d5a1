"""Unit tests for the JSONL trace writer and its schema validator."""

import json

import pytest

from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    TraceWriter,
    read_trace,
    validate_trace,
    validate_trace_file,
)


class FakeClock:
    """A monotonic clock advancing a fixed step per call."""

    def __init__(self, start=100.0, step=0.5):
        self.now = start
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _write_minimal_trace(path, clock=None):
    writer = TraceWriter(path, clock=clock or FakeClock())
    writer.start(campaign_key="abc123")
    writer.event("campaign_start", total_cells=1)
    writer.span_start("cell", i=0, j=0, attempt=0)
    writer.span_end("cell", i=0, j=0, attempt=0, status="ok")
    writer.event("campaign_end", status="ok")
    writer.close()
    return writer


class TestTraceWriter:
    def test_lifecycle_produces_a_valid_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_minimal_trace(path)
        assert validate_trace_file(path) == []

    def test_header_carries_the_schema_version(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_minimal_trace(path)
        header = read_trace(path)[0]
        assert header["kind"] == "header"
        assert header["trace_schema_version"] == TRACE_SCHEMA_VERSION
        assert header["campaign_key"] == "abc123"

    def test_writing_before_start_fails(self, tmp_path):
        writer = TraceWriter(tmp_path / "trace.jsonl")
        with pytest.raises(ValueError):
            writer.event("too_early")

    def test_close_is_idempotent(self, tmp_path):
        writer = _write_minimal_trace(tmp_path / "trace.jsonl")
        assert not writer.is_open
        writer.close()  # second close must not raise
        assert not writer.is_open

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        _write_minimal_trace(path)
        assert path.is_file()

    def test_records_use_the_injected_clock(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_minimal_trace(path, clock=FakeClock(start=0.0, step=1.0))
        timestamps = [r["ts"] for r in read_trace(path) if "ts" in r]
        assert timestamps == [1.0, 2.0, 3.0, 4.0]


class TestReadTrace:
    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "header"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_trace(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "header"}\n\n{"kind": "event"}\n')
        assert len(read_trace(path)) == 2

    def test_missing_file_reports_one_error(self, tmp_path):
        errors = validate_trace_file(tmp_path / "absent.jsonl")
        assert len(errors) == 1


class TestValidateTrace:
    HEADER = {"kind": "header", "trace_schema_version": TRACE_SCHEMA_VERSION}
    END = {"kind": "event", "name": "campaign_end", "ts": 99.0}

    def test_empty_trace_is_invalid(self):
        assert validate_trace([]) == ["trace is empty"]

    def test_missing_header_is_reported(self):
        errors = validate_trace([dict(self.END)])
        assert any("not a header" in error for error in errors)

    def test_unknown_schema_version_is_rejected(self):
        errors = validate_trace(
            [{"kind": "header", "trace_schema_version": 999}, dict(self.END)]
        )
        assert any("schema version" in error for error in errors)

    def test_decreasing_timestamps_are_reported(self):
        errors = validate_trace(
            [
                dict(self.HEADER),
                {"kind": "event", "name": "a", "ts": 5.0},
                {"kind": "event", "name": "b", "ts": 4.0},
                dict(self.END, ts=100.0),
            ]
        )
        assert any("decreases" in error for error in errors)

    def test_duplicate_span_identity_is_reported(self):
        span = {"kind": "span_start", "name": "cell", "ts": 1.0,
                "i": 0, "j": 1, "attempt": 0}
        errors = validate_trace(
            [dict(self.HEADER), dict(span), dict(span, ts=2.0), dict(self.END)]
        )
        assert any("duplicate span identity" in error for error in errors)

    def test_distinct_attempts_are_distinct_spans(self):
        records = [dict(self.HEADER)]
        for attempt in (0, 1):
            ts = 1.0 + attempt
            records.append({"kind": "span_start", "name": "cell", "ts": ts,
                            "i": 0, "j": 1, "attempt": attempt})
            records.append({"kind": "span_end", "name": "cell", "ts": ts + 0.5,
                            "i": 0, "j": 1, "attempt": attempt, "status": "ok"})
        records.append(dict(self.END))
        assert validate_trace(records) == []

    def test_unclosed_span_is_reported(self):
        errors = validate_trace(
            [
                dict(self.HEADER),
                {"kind": "span_start", "name": "cell", "ts": 1.0,
                 "i": 0, "j": 0, "attempt": 0},
                dict(self.END),
            ]
        )
        assert any("never closed" in error for error in errors)

    def test_span_end_without_start_is_reported(self):
        errors = validate_trace(
            [
                dict(self.HEADER),
                {"kind": "span_end", "name": "cell", "ts": 1.0,
                 "i": 0, "j": 0, "attempt": 0, "status": "ok"},
                dict(self.END),
            ]
        )
        assert any("span_end without span_start" in error for error in errors)

    def test_missing_campaign_end_is_reported(self):
        errors = validate_trace(
            [dict(self.HEADER), {"kind": "event", "name": "other", "ts": 1.0}]
        )
        assert any("campaign_end" in error for error in errors)

    def test_unknown_kind_is_reported(self):
        errors = validate_trace(
            [dict(self.HEADER),
             {"kind": "mystery", "name": "x", "ts": 1.0},
             dict(self.END)]
        )
        assert any("unknown kind" in error for error in errors)

    CALIBRATE = {"kind": "event", "name": "calibrate", "ts": 1.0,
                 "machine": "core2duo", "distance_m": 0.1, "seconds": 0.8}

    def test_calibrate_event_from_the_hook_passes_the_checker(self, tmp_path):
        from repro.obs import CampaignObservability
        from repro.obs.check import main as check

        path = tmp_path / "trace.jsonl"
        bundle = CampaignObservability(trace=path)
        bundle.campaign_start(total_cells=1, campaign_key="abc123")
        bundle.calibrated("core2duo", 0.1, 0.8)
        bundle.campaign_end()
        (event,) = [r for r in read_trace(path) if r.get("name") == "calibrate"]
        assert (event["machine"], event["distance_m"], event["seconds"]) == (
            "core2duo", 0.1, 0.8,
        )
        assert check(["--trace", str(path)]) == 0

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"machine": None}, "names no machine"),
            ({"distance_m": "10 cm"}, "no numeric distance_m"),
            ({"seconds": -1.0}, "not a finite duration"),
            ({"seconds": float("nan")}, "not a finite duration"),
            ({"seconds": None}, "not a finite duration"),
        ],
    )
    def test_malformed_calibrate_event_is_reported(self, change, problem):
        errors = validate_trace(
            [dict(self.HEADER), dict(self.CALIBRATE, **change), dict(self.END)]
        )
        assert len(errors) == 1 and problem in errors[0]

    def test_records_are_sorted_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_minimal_trace(path)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)

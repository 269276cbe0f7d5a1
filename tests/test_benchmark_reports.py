"""The scripts that turn benchmark results into checked-in reports.

``benchmarks/generate_experiments_md.py`` must reproduce the checked-in
EXPERIMENTS.md byte for byte (its figure notes from
``benchmarks/output/``, its performance table from ``BENCH_e2e.json``,
its hand-written sections unchanged), and ``benchmarks/e2e_gate.py``
must fail exactly when a paired run reads an end-to-end metric as worse.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _load(relative: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiments_md_is_what_the_generator_renders(tmp_path, monkeypatch):
    generator = _load("benchmarks/generate_experiments_md.py")
    target = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(generator, "TARGET", target)
    assert generator.main() == 0
    assert target.read_bytes() == (ROOT / "EXPERIMENTS.md").read_bytes()


def _result(wall_s: list[float]) -> dict:
    metrics = {
        metric["name"]: {"median": 1.0, "values": [1.0, 1.0, 1.0]}
        for metric in END_TO_END
    }
    metrics["wall_s"] = {"median": sorted(wall_s)[1], "values": wall_s}
    return {"workloads": {"fig9_cold": {"metrics": metrics}}}


class TestE2EGate:
    @pytest.fixture(scope="class")
    def gate(self):
        return _load("benchmarks/e2e_gate.py").gate

    def test_level_runs_pass(self, gate):
        lines, ok = gate(_result([10.0, 10.5, 11.0]), _result([10.2, 10.4, 10.9]), END_TO_END)
        assert ok
        assert len(lines) == 1 + len(END_TO_END)

    def test_a_worse_metric_fails(self, gate):
        lines, ok = gate(_result([10.0, 10.5, 11.0]), _result([14.0, 14.5, 15.0]), END_TO_END)
        assert not ok
        assert any(line.startswith("wall_s") and line.endswith("worse") for line in lines)

    def test_a_missing_metric_fails(self, gate):
        change = _result([10.0, 10.5, 11.0])
        del change["workloads"]["fig9_cold"]["metrics"]["peak_rss_mb"]
        lines, ok = gate(_result([10.0, 10.5, 11.0]), change, END_TO_END)
        assert not ok
        assert any(line.endswith("missing") for line in lines)

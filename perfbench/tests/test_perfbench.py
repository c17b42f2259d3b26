"""The benchmark's own tests: tiny workloads, tracer hygiene, compare.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import run  # noqa: E402
from spans import WRAPPED, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: Sizes at which every workload finishes in seconds.
TINY = {
    "golden": {"max_users": 6},
    "abr-fleet": {"users": 6},
    "record-path": {"users": 20},
}


def _run(tmp_path, workload, trace, seed=3):
    return run.run_benchmark(
        workload, seed, 0, trace, state=tmp_path / "state",
        sizes=TINY[workload],
    )


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_completes_with_every_check_passing(tmp_path, workload):
    record = _run(tmp_path, workload, trace=False)
    result = record["result"]
    assert all(record["checks"].values()), record["checks"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert record["provenance"]["src_sha256"]
    assert not (tmp_path / "state" / "work").exists() or not any(
        (tmp_path / "state" / "work").iterdir()
    )


@pytest.mark.parametrize("workload", ["abr-fleet", "record-path"])
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    record = _run(tmp_path, workload, trace=True)
    assert record["result"]["correct"], record["checks"]
    assert list(record["result"]["metrics"]) == PER_LAYER
    assert Path(record["trace_file"]).is_file()


def test_two_traced_runs_report_identical_event_counts(tmp_path):
    first = _run(tmp_path / "a", "golden", trace=True)
    second = _run(tmp_path / "b", "golden", trace=True)
    assert first["result"]["correct"] and second["result"]["correct"]
    counts = [
        name for name in PER_LAYER
        if name.endswith(("events_per_play", "packets_per_play",
                          "drops_per_play"))
    ]
    left = {n: first["result"]["metrics"][n]["value"] for n in counts}
    right = {n: second["result"]["metrics"][n]["value"] for n in counts}
    assert left == right
    assert left["sim.events_per_play"] > left["net.events_per_play"] > 0
    assert left["sim.timer_events_per_play"] > 0


def _originals():
    return {(owner, name): owner.__dict__[name] for owner, name in WRAPPED}


def test_tracer_restores_every_wrapped_function():
    from repro import RngFactory, Study, StudyConfig
    from repro.world.population import build_population

    before = _originals()
    population = build_population(RngFactory(2001), max_users=2)
    with Tracer() as tracer:
        assert _originals() != before
        Study(StudyConfig(seed=5, scale=0.02),
              population=population).run()
    assert _originals() == before
    assert tracer.plays and sum(tracer.plays[0]["events"].values()) > 0


def test_tracer_restores_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _originals() == before


def test_tracing_does_not_change_results():
    from repro import RngFactory, Study, StudyConfig
    from repro.world.population import build_population

    population = build_population(RngFactory(2001), max_users=3)
    config = StudyConfig(seed=9, scale=0.02)
    plain = Study(config, population=population).run().to_csv_string()
    with Tracer():
        traced = Study(config, population=population).run().to_csv_string()
    assert traced == plain


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == sorted(
        TINY, key=list(run.WORKLOADS).index
    )
    names = END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    slower = [v * 1.5 for v in steady]
    faster = [v * 0.8 for v in steady]
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0]
    assert compare.verdict(steady, slower, "lower", 0.1)["verdict"] == (
        "regression")
    assert compare.verdict(steady, faster, "lower", 0.1)["verdict"] == (
        "improved")
    assert compare.verdict(steady, steady, "lower", 0.1)["verdict"] == (
        "within bound")
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == (
        "unresolved")
    higher = compare.verdict(steady, faster, "higher", 0.1)
    assert higher["verdict"] == "regression" and higher["won"] == 0.0


def _write_runs(path, values, slowdown=1.0):
    """Untraced golden runs whose every metric reads ``value``
    corrected, and ``value * slowdown`` uncorrected."""
    with open(path, "w") as handle:
        for value in values:
            metrics = {n: {"value": value, "unit": "s"} for n in END_TO_END}
            handle.write(json.dumps({
                "workload": "golden", "trace": 0,
                "host_slowdown": slowdown + value / 100,
                "uncorrected": {n: value * slowdown for n in END_TO_END},
                "result": {"metrics": metrics},
            }) + "\n")


def test_compare_reads_result_files(tmp_path):
    _write_runs(tmp_path / "parent.jsonl", [1.0, 1.01, 0.99, 1.0])
    _write_runs(tmp_path / "change.jsonl", [1.0, 1.0, 1.01, 0.99])
    assert compare.main([str(tmp_path / "parent.jsonl"),
                         str(tmp_path / "change.jsonl")]) == 0


def test_compare_judges_uncorrected_values_when_the_host_moved(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    steady = [1.0, 1.01, 0.99, 1.0]
    # The change slowed the reference kernel with the program: its
    # corrected times look unchanged, its uncorrected ones 1.5x slower.
    _write_runs(parent, steady)
    _write_runs(change, steady, slowdown=1.5)
    rows = {r["metric"]: r["verdict"] for r in compare.compare(
        parent, change, SPEC)}
    assert rows["wall_s"] == rows["setup_s"] == "regression"
    assert rows["peak_rss_mb"] == "within bound"
    # Host moved, uncorrected values within the bound: unresolved.
    _write_runs(change, steady, slowdown=1.05)
    rows = {r["metric"]: r["verdict"] for r in compare.compare(
        parent, change, SPEC)}
    assert rows["wall_s"] == "unresolved: host speed moved"
    assert rows["peak_rss_mb"] == "within bound"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

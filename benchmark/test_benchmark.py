"""Tests of the benchmark itself: self-time arithmetic and tiny runs of every workload.

Run from the repository root with ``python -m pytest benchmark``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tracer import CHUNK, Span, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span(0, "root", None, 1, 0, 0.0, 10.0),
        Span(1, "a", 0, 1, 0, 1.0, 4.0),
        Span(2, "b", 1, 1, 0, 2.0, 3.0),
        # a chunk is transparent: its children are the root's layers
        Span(3, CHUNK, 0, 1, 0, 5.0, 9.0),
        Span(4, "c", 3, 1, 0, 5.5, 7.0),
        Span(5, "c", 3, 2, 0, 6.0, 8.0),   # overlaps span 4 on another thread
        Span(6, "d", 0, 1, 0, 9.5, 11.0),  # ends after its parent: clipped
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 2.5 + 0.5))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0 - 2.5)
    assert own[4] == pytest.approx(1.5)
    assert own[5] == pytest.approx(2.0)
    assert own[6] == pytest.approx(1.5)


def test_layer_totals_and_chunk_balance():
    tracer = tracing.Tracer()
    tracer.spans = [Span(0, "x", None, 1, 0, 0.0, 2.0), Span(1, "y", 0, 1, 0, 0.5, 1.0),
                    Span(2, "x", None, 1, 1, 3.0, 4.0)]
    assert tracer.layer_totals() == {"x": (pytest.approx(2.5), 2), "y": (pytest.approx(0.5), 1)}
    tracer.chunked = [(5.0, [4.0, 2.0]), (1.0, [1.0])]
    imbalance, overhead = tracer.chunk_balance()
    assert imbalance == pytest.approx((4.0 + 1.0) / (3.0 + 1.0))
    assert overhead == pytest.approx(1.0)


def test_tracer_restores_every_wrapped_function():
    from arrayneat import evolution, inference, problems, runner
    modules = (evolution, inference, problems, runner, problems.Problem)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert problems.forward_arrays is not before[2]["forward_arrays"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_prints_every_metric(name, trace, tmp_path):
    spec = replace(workloads.WORKLOADS[name], pop_size=20, generations=2, runs=1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    result, record = workloads.measure(spec, seed=0, seconds=0.0, trace=trace,
                                       out_dir=tmp_path, digest=None,
                                       declared=declared)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["cpu_count"] >= 1
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_workloads_match_the_benchmark_file():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_pass_rows_equal_the_stats_csv_of_arrayneat_run(tmp_path):
    from arrayneat import run_experiment
    spec = replace(workloads.WORKLOADS["cartpole-p1000"], pop_size=20, generations=3, runs=1)
    rows = workloads.run_pass(spec, 5, tmp_path).rows
    outcome = run_experiment(spec.config(5), tmp_path / "run")
    assert outcome.stats_path.read_text().splitlines()[1:] == rows


def test_digest_mismatch_is_a_failed_check(tmp_path):
    spec = replace(workloads.WORKLOADS["xor-p150"], generations=2, runs=1)
    result, _ = workloads.measure(spec, seed=0, seconds=0.0, trace=False,
                                  out_dir=tmp_path, digest="0" * 64,
                                  declared=BENCHMARK["end_to_end"])
    assert not result["correct"] and result["failed"] == 1


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "xor-p150",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

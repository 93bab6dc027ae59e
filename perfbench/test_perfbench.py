"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench

Checks that inputs generated from a seed are identical across calls, that
the untraced and traced runs print exactly the metrics ``BENCHMARK.json``
declares, that the correctness gate counts a bad repeat as failed, and that
the tracer fails loudly when a hook is missing or silent.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

from fedsim import SimplexConfig  # noqa: E402

TINY = {
    "blobs-compare": dict(seed_count=1, rounds=1, samples_per_class=20),
    "mlp-csv": dict(seed_count=1, rounds=1, csv_rows=160),
    "many-clients": dict(rounds=1, samples_per_class=40),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def declared(kind):
    spec = json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in json.loads(
        run.BENCHMARK_JSON.read_text(encoding="utf-8"))["workloads"]}
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_identical_across_calls(name, tmp_path):
    workload = tiny(name)
    first = write_inputs(workload, 7, tmp_path / "a").parent
    second = write_inputs(workload, 7, tmp_path / "b").parent
    other = write_inputs(workload, 8, tmp_path / "c").parent
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for file in files:
        # The config names its own directory's CSV; compare the rest bytewise.
        a, b = (d.joinpath(file).read_text() for d in (first, second))
        assert a.replace(str(first), "") == b.replace(str(second), "")
    assert any(
        first.joinpath(f).read_text().replace(str(first), "")
        != other.joinpath(f).read_text().replace(str(other), "")
        for f in files
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metrics_are_declared(name, tmp_path):
    workload = tiny(name)
    gate, metrics, _, _ = run.measure(workload, 3, 0, False, tmp_path / "untraced")
    assert (gate.attempted, gate.failed) == (run.MIN_REPEATS, 0), gate.failures
    assert set(metrics) == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())

    gate, metrics, _, tracer = run.measure(
        workload, 3, 0, True, tmp_path / "traced", SimplexConfig(max_iterations=2)
    )
    assert gate.failed == 0, gate.failures
    assert set(metrics) == declared("per_layer")
    assert tracer.spans


def test_gate_counts_a_changed_output_as_failed(tmp_path):
    workload = tiny("blobs-compare")
    config = write_inputs(workload, 0, tmp_path / "inputs")
    gate = run.Gate(workload)
    for index in range(2):
        code, _ = run.run_worker("compare", str(config), str(tmp_path / f"out{index}"))
        assert gate.check(code, tmp_path / f"out{index}")
    summary = tmp_path / "out1" / "summary.txt"
    summary.write_text(summary.read_text() + "\n")
    assert not gate.check(0, tmp_path / "out1")
    assert not gate.check(1, tmp_path / "out1")
    assert (gate.attempted, gate.failed) == (4, 2)


def test_tracer_fails_loudly_on_a_missing_hook(monkeypatch):
    import fedsim.cli

    original = fedsim.cli.parse_config
    monkeypatch.setattr(tracing, "SPAN_HOOKS", (
        ("fedsim.cli", "parse_config", "cli.parse_config"),
        ("fedsim.cli", "no_such_function", "x"),
    ))
    with pytest.raises(tracing.HookError, match="no_such_function"):
        with tracing.Tracer().installed():
            pass
    assert fedsim.cli.parse_config is original


def test_tracer_fails_loudly_on_a_silent_or_unexpected_layer():
    metrics = dict.fromkeys(declared("per_layer"), 1.0)
    metrics["data.load_csv.ms"] = 0.0
    tracing.check_fired(metrics, expects_solver=True, uses_csv=False)
    with pytest.raises(tracing.HookError, match="nelder_mead.minimize.calls"):
        tracing.check_fired(metrics, expects_solver=False, uses_csv=False)
    with pytest.raises(tracing.HookError, match="data.load_csv.ms"):
        tracing.check_fired(metrics, expects_solver=True, uses_csv=True)

import textwrap
from pathlib import Path

import fedsim
from fedsim import ParamVector
from fedsim.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in fedsim.__all__ if not hasattr(fedsim, name)]
    assert missing == []
    assert len(set(fedsim.__all__)) == len(fedsim.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from fedsim import *", namespace)
    assert set(fedsim.__all__) <= set(namespace)


def test_benchmark_hook_targets_exist(monkeypatch):
    # The benchmark's tracer patches fedsim functions by name and raises
    # HookError naming any that is gone; its sweep builds vectors with with_values.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.Tracer().installed():
        pass
    assert "with_values" in vars(ParamVector)


def test_traced_compare_passes_the_tracer_self_check(monkeypatch, tmp_path, capsys):
    # The benchmark's tracer tells local scoring from global scoring by the
    # list sgd_train returned, and check_fired fails a run where a layer it
    # needs reads 0; a compare that scored its local models one by one would
    # fail here.  Train splits of 12, 12, 9 and 9 rows train as two stacks.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    config = tmp_path / "config.yaml"
    config.write_text(
        textwrap.dedent(
            """
            dataset: {kind: blobs, samples_per_class: 26, num_classes: 3, dim: 4}
            strategies: [fedavg, fedavgopt]
            rounds: 2
            num_clients: 4
            train_fraction: 0.5
            train: {batch_size: 5}
            """
        ),
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["compare", str(config), "--output-dir", str(tmp_path / "out")]) == 0
    metrics = tracing.layer_metrics(tracer, tracer.trace_id)
    tracing.check_fired(metrics, expects_solver=True, uses_csv=False)
    # One federation of both rules for the one seed.  Each of its two rounds
    # is one sgd_train call (round 1 from the shared initial model, round 2
    # from both rules' global models), one local and one global evaluate
    # call, and 3 + 2 stacked steps: the 12-row stack takes batches of 5, 5
    # and 2, the 9-row one 5 and 4, whatever the number of starts.
    assert metrics["orchestrator.run_federation.calls"] == 1
    assert metrics["models.sgd_train.calls"] == 2
    assert metrics["models.evaluate_local.calls"] == 2
    assert metrics["models.evaluate_global.calls"] == 2
    assert metrics["models.steps"] == 2 * (3 + 2)
    assert metrics["strategies.aggregate_ms.fedavg"] > 0
    assert metrics["strategies.aggregate_ms.fedavgopt"] > 0


def test_traced_csv_compare_passes_the_tracer_self_check(monkeypatch, tmp_path):
    # The tracer times CSV loading through fedsim.cli's load_csv name; a
    # compare that reached the loader another way would read 0 there.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rows = ["x1,label,x2"] + [f"{i % 5}.5,c{i % 2},{-i}.25" for i in range(24)]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text(
        textwrap.dedent(
            f"""
            dataset: {{kind: csv, path: {tmp_path / "data.csv"}, label_column: label}}
            strategies: [fedavg, fedmedian]
            rounds: 2
            num_clients: 2
            train_fraction: 0.5
            """
        ),
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["compare", str(config), "--output-dir", str(tmp_path / "out")]) == 0
    metrics = tracing.layer_metrics(tracer, tracer.trace_id)
    tracing.check_fired(metrics, expects_solver=False, uses_csv=True)

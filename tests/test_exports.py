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
    # Round 1 once, then round 2 per strategy: three trained rounds of one
    # sgd_train and one local evaluate call each, and of 3 + 2 stacked steps.
    assert metrics["models.sgd_train.calls"] == 3
    assert metrics["models.evaluate_local.calls"] == 3
    assert metrics["models.evaluate_global.calls"] == 2 * 2
    assert metrics["models.steps"] == 3 * (3 + 2)

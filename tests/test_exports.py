from pathlib import Path

import fedsim
from fedsim import ParamVector

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

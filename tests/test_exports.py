import fedsim


def test_every_exported_name_resolves():
    missing = [name for name in fedsim.__all__ if not hasattr(fedsim, name)]
    assert missing == []
    assert len(set(fedsim.__all__)) == len(fedsim.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from fedsim import *", namespace)
    assert set(fedsim.__all__) <= set(namespace)

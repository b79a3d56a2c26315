import lisim


def test_every_export_resolves():
    assert len(set(lisim.__all__)) == len(lisim.__all__)
    for name in lisim.__all__:
        assert hasattr(lisim, name), name


def test_star_import_runs():
    namespace = {}
    exec("from lisim import *", namespace)
    assert set(lisim.__all__) <= set(namespace)

import importlib
import importlib.util
from pathlib import Path

import lisim

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_export_resolves():
    assert len(set(lisim.__all__)) == len(lisim.__all__)
    for name in lisim.__all__:
        assert hasattr(lisim, name), name


def test_star_import_runs():
    namespace = {}
    exec("from lisim import *", namespace)
    assert set(lisim.__all__) <= set(namespace)


def test_every_benchmark_tracer_site_resolves():
    # the tracer patches each name where its caller looks it up, so a
    # rename would silently drop a span from the traced benchmark runs
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    for module, attr, span in tracing.SITES:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), (module, attr, span)

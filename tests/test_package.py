import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lisim
from lisim import (Algorithm, ChainMessage, ConfigError, EqualizerKind,
                   EqualizerSet, NumericalDomainError, PanelEqualizer)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_export_resolves():
    assert len(set(lisim.__all__)) == len(lisim.__all__)
    for name in lisim.__all__:
        assert hasattr(lisim, name), name


def test_numerics_kernels_are_not_exported():
    # the kernels check none of their input, so outside callers go
    # through the public functions that do
    internal = {"svd", "hermitian_eig", "logdet2_hpd", "orthonormal_range"}
    assert internal.isdisjoint(lisim.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from lisim import *", namespace)
    assert set(lisim.__all__) <= set(namespace)


def test_cli_import_leaves_out_scipy_and_the_process_pool():
    # a lone in-process request never forks, so it must not pay for
    # importing the pool modules (or scipy, which nothing in src needs);
    # a forking sweep imports multiprocessing, but never the pool
    src = str(Path(lisim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, lisim.cli as cli; print([m for m in ('scipy', "
             "'concurrent.futures', 'multiprocessing') if m in sys.modules]);"
             " cli._usable_cpus = lambda: 2; cli.run_sweep(cli.SweepSpec("
             "values=(1,), algorithms=(cli.Algorithm.RMF,), panel_profiles="
             "(cli.PanelProfile.LARGE,), trials=2)); print(sorted(m for m in "
             "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout == "[]\n['multiprocessing']\n"


def _tracer_sites():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SITES


def test_every_benchmark_tracer_site_resolves():
    # the tracer patches each name where its caller looks it up, so a
    # rename would silently drop a span from the traced benchmark runs
    sites = _tracer_sites()
    assert sites
    for module, attr, span in sites:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), (module, attr, span)


def test_every_numerics_function_has_a_caller():
    # a public kernel that no library code calls, outside its own body,
    # and that the benchmark tracer does not wrap, has no reason to stay
    src = Path(lisim.__file__).resolve().parent
    public = {node.name for node in ast.parse(
        (src / "numerics.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in src.glob("*.py"):
        inside = path.name == "numerics.py"
        for statement in ast.parse(path.read_text()).body:
            own = (statement.name if inside
                   and isinstance(statement, ast.FunctionDef) else None)
            # numerics.f(...) elsewhere, a bare f(...) inside numerics
            for node in ast.walk(statement):
                f = getattr(node, "func", None)
                if isinstance(f, ast.Attribute) and isinstance(
                        f.value, ast.Name) and f.value.id == "numerics":
                    called.add(f.attr)
                elif inside and isinstance(f, ast.Name) and f.id != own:
                    called.add(f.id)
    traced = {attr for module, attr, _ in _tracer_sites()
              if module == "lisim.numerics"}
    assert sorted(public - called - traced) == []


def _rho_calls():
    h = np.eye(3, 2, dtype=complex)
    eq = EqualizerSet((PanelEqualizer(h, EqualizerKind.IIC, True),))
    return {
        "iic_local_step": (ValueError, lambda rho: lisim.iic_local_step(
            h, ChainMessage.initial(2), rho, 1)),
        "run_iic_chain": (ConfigError,
                          lambda rho: lisim.run_iic_chain([h], rho, 1)),
        "run_rmf": (ConfigError, lambda rho: lisim.run_rmf([h], 1, rho)),
        "run_centralized": (ConfigError, lambda rho: lisim.run_centralized(
            [h], rho, 1, Algorithm.IIC)),
        "sum_rate_full": (NumericalDomainError,
                          lambda rho: lisim.sum_rate_full(h, h, rho)),
        "channel_capacity": (NumericalDomainError,
                             lambda rho: lisim.channel_capacity(h, rho)),
        "sum_rate_panelized": (NumericalDomainError,
                               lambda rho: lisim.sum_rate_panelized(
                                   [h], eq, rho)),
        "chain_capacity_trace": (NumericalDomainError,
                                 lambda rho: lisim.chain_capacity_trace(
                                     [h], eq, rho)),
    }


@pytest.mark.parametrize("rho", [np.nan, np.inf, -0.5, 10**400,
                                 Fraction(1, 2)],
                         ids=["nan", "inf", "negative", "int-overflow",
                              "fraction"])
@pytest.mark.parametrize("name", sorted(_rho_calls()))
def test_non_finite_rho_is_rejected(name, rho):
    # the kernels below each entry point check nothing, so a NaN, infinite
    # or negative SNR that got past it would come back as a NaN, inf or
    # negative rate, and an int too large for a float or a Fraction would
    # escape as numpy's OverflowError, TypeError or UFuncTypeError
    error, call = _rho_calls()[name]
    with pytest.raises(error, match="rho"):
        call(rho)


def test_zero_rho_is_a_zero_rate():
    assert lisim.channel_capacity(np.eye(3, 2, dtype=complex), 0.0) == 0.0

import importlib
import importlib.util
import os
import subprocess
import sys
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
    # importing the pool modules (or scipy, which nothing in src needs)
    src = str(Path(lisim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, lisim.cli; print([m for m in ('scipy', "
             "'concurrent.futures', 'multiprocessing') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout == "[]\n"


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


@pytest.mark.parametrize("rho", [np.nan, np.inf, -0.5],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", sorted(_rho_calls()))
def test_non_finite_rho_is_rejected(name, rho):
    # the kernels below each entry point check nothing, so a NaN, infinite
    # or negative SNR that got past it would come back as a NaN, inf or
    # negative rate
    error, call = _rho_calls()[name]
    with pytest.raises(error, match="rho"):
        call(rho)


def test_zero_rho_is_a_zero_rate():
    assert lisim.channel_capacity(np.eye(3, 2, dtype=complex), 0.0) == 0.0

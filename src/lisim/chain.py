"""Daisy-chain and centralized execution of the panel algorithms.

A chain run folds the local interference-cancellation step over the
panels in scenario order, threading the Hermitian K x K accumulator from
panel to panel. Further passes continue the same fold: each panel then
steps against the accumulator less its own previous contribution.
Chains over the same blocks at several output widths fold together,
their accumulators stacked, and each gets the bits it would get alone.
Centralized execution reuses the exact same fold, so the resulting
filters are bit-identical; only the interconnect accounting changes
(full CSI upload instead of panel-to-panel messages).

Traffic is counted in complex scalars; one complex scalar is two 8-byte
reals, so multiply by 16 for bytes.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import capacity, numerics
# iic_local_step is the reference step the fold reproduces; it stays
# importable here, where benchmarks/tracing.py looks it up
from .equalizers import (EqualizerKind, EqualizerSet, PanelEqualizer,
                         iic_local_step, rmf_filter)  # noqa: F401
from .errors import ConfigError


class Algorithm(Enum):
    IIC = "iic"
    RMF = "rmf"


@dataclass(frozen=True)
class TrafficReport:
    """Interconnect accounting for one run, in complex scalars.

    ``chain_complex_scalars`` counts the K x K accumulator messages on
    the dedicated panel-to-panel links (zero for local-only algorithms
    and for centralized execution).
    """

    chain_complex_scalars: int
    backplane_scalars_per_use: int
    cpu_scalars_per_use: int
    centralized_csi_scalars: int


@dataclass(frozen=True)
class ChainResult:
    """Filters, capacity report, traffic accounting, and pass count."""

    equalizers: EqualizerSet
    report: capacity.CapacityReport
    traffic: TrafficReport
    passes_executed: int


def _validate_blocks(blocks, widths, rho: float):
    if not blocks:
        raise ConfigError("at least one channel block is required")
    blocks = [numerics._as_matrix(b, "channel block") for b in blocks]
    k = blocks[0].shape[1]
    if any(b.shape[1] != k for b in blocks):
        raise ConfigError("all channel blocks must share the user dimension")
    rows = min(b.shape[0] for b in blocks)
    for np_outputs in widths:
        if not numerics._is_int(np_outputs) or np_outputs < 1:
            raise ConfigError("np_outputs must be an integer of at least 1")
        if np_outputs > rows:
            raise ConfigError(
                "np_outputs cannot exceed the panel antenna count")
    if not 0.0 < rho < math.inf:
        raise ConfigError(f"rho must be positive and finite, got {rho}")
    return blocks, k


def _build_report(sum_rate: float, trace: np.ndarray,
                  ceiling: float) -> capacity.CapacityReport:
    report = capacity.CapacityReport(
        sum_rate_bits=sum_rate, per_panel_cumulative=trace,
        channel_capacity_bits=ceiling)
    report.validate()
    return report


def run_iic_chain(blocks, rho: float, np_outputs: int,
                  passes: int = 1) -> ChainResult:
    """Decentralized interference-cancellation run over a panel chain.

    One fold of the local step over ``passes`` sweeps of the panels in
    list order, carrying the accumulator ``z`` (from the identity) and the
    filters, the only per-panel state. In the first pass each panel steps
    against ``z`` and forwards ``z`` grown by its filter's projected Gram:
    the plain daisy chain of the envisioned hardware pipeline (the default
    single pass). In later passes panel i first subtracts its previous
    contribution, that Gram, and so re-optimizes against every other
    panel's current contribution, which can only increase the objective;
    the difference goes to the step as computed. Each step is
    ``iic_local_step``'s, whitened by the same Cholesky factor, so the
    filters are a fold of it bit for bit. The report's trace is
    ``capacity.chain_capacity_trace`` of the filters: read off the next
    step's Cholesky factor in a single pass, else computed by it.

    This is the one-cell call of the fold that ``lisim.cli`` runs on all
    of a trial's IIC cells at once (``_iic_chains``); a cell's result does
    not depend on the cells it shares that fold with.

    Parameters
    ----------
    blocks : sequence of array_like
        Per-panel Mp x K channel blocks in chain order.
    rho : float
        Linear SNR.
    np_outputs : int
        Outputs per panel; at most the panel antenna count.
    passes : int
        Number of sweeps over the chain, at least 1.
    """
    (result,) = _iic_chains(blocks, rho, (np_outputs,), passes)
    return result


def _iic_chains(blocks, rho: float, widths, passes: int):
    """``run_iic_chain`` of the blocks at each width, folded together.

    Checks its arguments as ``run_iic_chain`` does, runs ``_iic_fold``
    once for all widths and returns one ChainResult per width, in order.
    The blocks' ceiling is computed once and shared by every report.
    """
    blocks, k = _validate_blocks(blocks, widths, rho)
    if not numerics._is_int(passes) or passes < 1:
        raise ConfigError("passes must be an integer of at least 1")
    folds = _iic_fold(blocks, rho, widths, passes)
    ceiling = capacity.channel_capacity(np.vstack(blocks), rho)
    p = len(blocks)
    results = []
    for np_outputs, (eq_set, trace) in zip(widths, folds):
        # every panel drives np backplane outputs; a rank-deficient panel's
        # filter is narrower, and its unused outputs carry zeros
        traffic = TrafficReport(
            chain_complex_scalars=(p - 1) * passes * k * k,
            backplane_scalars_per_use=p * np_outputs,
            cpu_scalars_per_use=k,
            centralized_csi_scalars=0,
        )
        results.append(ChainResult(
            equalizers=eq_set,
            report=_build_report(float(trace[-1]), trace, ceiling),
            traffic=traffic, passes_executed=passes))
    return results


def _iic_fold(blocks, rho: float, widths, passes: int):
    """One IIC chain per width, folded over the panels at once.

    The accumulators of the C chains are one C x K x K stack. Per panel
    step, one stacked Cholesky factorization, one stacked whitening solve
    and one stacked SVD serve every chain; each then keeps
    ``min(width, rank)`` columns by ``numerics.numerical_rank`` and adds
    its filter's ``numerics.projected_gram``, formed on its own. Every
    stacked kernel gives a matrix the bits it would get alone, so a
    chain's filters do not depend on the other widths.

    Returns one ``(EqualizerSet, trace)`` per width, with the trace of
    ``capacity.chain_capacity_trace``. A single pass reads entry i off
    the Cholesky factor of ``I + G_0 + ... + G_i``, which is the next
    step's (one more factorization follows the last panel); more passes
    call ``chain_capacity_trace``. The blocks must be checked already.
    """
    k = blocks[0].shape[1]
    z = np.tile(np.eye(k, dtype=complex), (len(widths), 1, 1))
    filters = [[None] * len(blocks) for _ in widths]
    traces = np.empty((len(widths), len(blocks)))
    for pass_index in range(passes):
        for i, h in enumerate(blocks):
            if pass_index:
                # leave out each panel's contribution from the previous pass
                for c, cell in enumerate(filters):
                    z[c] -= numerics.projected_gram(cell[i], h, rho)
            chol = numerics.cholesky(z)
            if passes == 1 and i:
                traces[:, i - 1] = numerics.logdet2_factor(chol)
            u, s = numerics.svd(numerics.whiten(h, chol, rho))
            for c, (width, rank) in enumerate(
                    zip(widths, numerics.numerical_rank(s))):
                # a copy, so that the filters do not keep every u alive
                w = u[c, :, :min(width, rank)].copy()
                filters[c][i] = w
                z[c] += numerics.projected_gram(w, h, rho)
    if passes == 1:
        traces[:, -1] = numerics.logdet2_factor(numerics.cholesky(z))
    folds = []
    for cell, trace in zip(filters, traces):
        eq_set = EqualizerSet(per_panel=tuple(
            PanelEqualizer(w=w, kind=EqualizerKind.IIC, semi_unitary=True)
            for w in cell))
        if passes > 1:
            trace = capacity.chain_capacity_trace(blocks, eq_set, rho)
        folds.append((eq_set, trace))
    return folds


def run_rmf(blocks, np_outputs: int, rho: float) -> ChainResult:
    """Reduced-matched-filter run; every panel works from local CSI only.

    No panel-to-panel messages are needed, so chain traffic is zero. The
    filter construction itself does not depend on the SNR; ``rho`` only
    enters the returned capacity report.
    """
    blocks, k = _validate_blocks(blocks, (np_outputs,), rho)
    eq_set = EqualizerSet(per_panel=tuple(
        rmf_filter(h, np_outputs) for h in blocks))
    report = _build_report(
        capacity.sum_rate_panelized(blocks, eq_set, rho), np.zeros(0),
        capacity.channel_capacity(np.vstack(blocks), rho))
    traffic = TrafficReport(
        chain_complex_scalars=0,
        backplane_scalars_per_use=eq_set.n_total,
        cpu_scalars_per_use=k,
        centralized_csi_scalars=0,
    )
    return ChainResult(equalizers=eq_set, report=report, traffic=traffic,
                       passes_executed=1)


def run_centralized(blocks, rho: float, np_outputs: int,
                    algorithm: Algorithm, passes: int = 1) -> ChainResult:
    """Same algorithms executed at a central unit holding all CSI.

    Reuses the decentralized folds verbatim, so filters and capacities
    are bit-identical to the decentralized run; only the traffic
    accounting differs: the full M x K channel is uploaded once and no
    panel-to-panel messages flow.
    """
    algorithm = Algorithm(algorithm)
    if algorithm is Algorithm.IIC:
        base = run_iic_chain(blocks, rho, np_outputs, passes)
    else:
        base = run_rmf(blocks, np_outputs, rho)
    m_total = sum(np.asarray(b).shape[0] for b in blocks)
    users_k = np.asarray(blocks[0]).shape[1]
    return replace(base, traffic=replace(
        base.traffic, chain_complex_scalars=0,
        centralized_csi_scalars=m_total * users_k))

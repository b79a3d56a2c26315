"""Daisy-chain and centralized execution of the panel algorithms.

A chain run folds the local interference-cancellation step over the
panels in scenario order, threading the Hermitian K x K accumulator from
panel to panel. Further passes continue the same fold: each panel then
steps against the accumulator less its own previous contribution.
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
from .equalizers import (ChainMessage, EqualizerSet, iic_local_step,
                         rmf_filter)
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


def _validate_blocks(blocks, np_outputs: int, rho: float):
    if not blocks:
        raise ConfigError("at least one channel block is required")
    blocks = [numerics._as_matrix(b, "channel block") for b in blocks]
    k = blocks[0].shape[1]
    if any(b.shape[1] != k for b in blocks):
        raise ConfigError("all channel blocks must share the user dimension")
    if np_outputs < 1:
        raise ConfigError("np_outputs must be at least 1")
    if np_outputs > min(b.shape[0] for b in blocks):
        raise ConfigError("np_outputs cannot exceed the panel antenna count")
    if not 0.0 < rho < math.inf:
        raise ConfigError(f"rho must be positive and finite, got {rho}")
    return blocks, k


def _build_report(blocks, rho: float, sum_rate: float,
                  trace: np.ndarray) -> capacity.CapacityReport:
    report = capacity.CapacityReport(
        sum_rate_bits=sum_rate, per_panel_cumulative=trace,
        channel_capacity_bits=capacity.channel_capacity(np.vstack(blocks), rho))
    report.validate()
    return report


def run_iic_chain(blocks, rho: float, np_outputs: int,
                  passes: int = 1) -> ChainResult:
    """Decentralized interference-cancellation run over a panel chain.

    One fold of the local step over ``passes`` sweeps of the panels in
    list order, carrying the accumulator ``z`` (from the identity) and the
    filters, the only per-panel state. In the first pass each panel steps
    against ``z`` and forwards the step's message as ``z``: the plain
    daisy chain of the envisioned hardware pipeline (the default single
    pass). In later passes panel i first subtracts its previous
    contribution, its filter's projected Gram, and so re-optimizes
    against every other panel's current contribution, which can only
    increase the objective; the difference goes to the step as computed,
    which the relative ``numerics.check_hermitian`` accepts. The report's
    trace is ``capacity.chain_capacity_trace`` of the filters: the message
    log-determinants of a single pass, else formed from the final Grams.

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
    blocks, k = _validate_blocks(blocks, np_outputs, rho)
    if passes < 1:
        raise ConfigError("passes must be at least 1")

    msg = ChainMessage.initial(k)
    filters = [None] * len(blocks)
    trace = np.empty(len(blocks))
    for pass_index in range(passes):
        for i, h in enumerate(blocks):
            if pass_index:
                # leave out this panel's contribution from the previous
                # pass; the step formed this Gram too (ROADMAP items 2-3)
                msg = ChainMessage(
                    msg.z - numerics.projected_gram(filters[i].w, h, rho),
                    msg.hop_index)
            filters[i], _, msg = iic_local_step(h, msg, rho, np_outputs)
            if passes == 1:
                # the message is I plus panels 0..i's Grams, summed in order
                trace[i] = numerics.logdet2_hpd(msg.z)

    eq_set = EqualizerSet(per_panel=tuple(filters))
    if passes > 1:
        trace = capacity._cumulative_trace(
            [numerics.projected_gram(f.w, h, rho)
             for f, h in zip(filters, blocks)])
    report = _build_report(blocks, rho, float(trace[-1]), trace)
    p = len(blocks)
    hops = (p - 1) * passes
    # every panel drives np backplane outputs; a rank-deficient panel's
    # filter is narrower, and its unused outputs carry zeros
    traffic = TrafficReport(
        chain_complex_scalars=hops * k * k,
        backplane_scalars_per_use=p * np_outputs,
        cpu_scalars_per_use=k,
        centralized_csi_scalars=0,
    )
    return ChainResult(equalizers=eq_set, report=report, traffic=traffic,
                       passes_executed=passes)


def run_rmf(blocks, np_outputs: int, rho: float) -> ChainResult:
    """Reduced-matched-filter run; every panel works from local CSI only.

    No panel-to-panel messages are needed, so chain traffic is zero. The
    filter construction itself does not depend on the SNR; ``rho`` only
    enters the returned capacity report.
    """
    blocks, k = _validate_blocks(blocks, np_outputs, rho)
    eq_set = EqualizerSet(per_panel=tuple(
        rmf_filter(h, np_outputs) for h in blocks))
    report = _build_report(
        blocks, rho, capacity.sum_rate_panelized(blocks, eq_set, rho),
        np.zeros(0))
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

"""Daisy-chain and centralized execution of the panel algorithms.

One runner, ``_chains``, takes a list of ``(algorithm, np)`` cells over
the same channel blocks and scores each against the blocks' one
channel-capacity ceiling; ``run_iic_chain``, ``run_rmf`` and
``run_centralized`` are its one-cell calls. An IIC chain folds the local
interference-cancellation step over the panels in scenario order,
threading the Hermitian K x K accumulator from panel to panel as
square-root factors, never formed; later passes step each panel against
every other panel's latest contribution. A call's IIC cells fold
together (``_iic_fold``), and a rates-only cell's rate is read off the
rows that its filters keep (``_rows_rate``). Centralized execution
reuses the same runner and changes only the traffic accounting.

Traffic is counted in complex scalars; one complex scalar is two 8-byte
reals, so multiply by 16 for bytes.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import capacity, numerics
# iic_local_step is the reference that the IIC fold reproduces; it stays
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
    """Filters, capacity report, traffic accounting and pass count, as
    ``_chains`` states them (no filters or trace for a rates-only cell)."""

    equalizers: EqualizerSet | None
    report: capacity.CapacityReport
    traffic: TrafficReport
    passes_executed: int


def run_iic_chain(blocks, rho: float, np_outputs: int,
                  passes: int = 1) -> ChainResult:
    """Decentralized interference-cancellation run over a panel chain.

    ``passes`` sweeps of the local step over the Mp x K blocks in list
    order, carrying the accumulator ``z`` from the identity: in the first
    pass, the plain daisy chain, each panel steps against ``z`` and
    forwards it grown by its filter's projected Gram; in later passes a
    panel steps against ``z`` without its own previous Gram. The one-cell
    call of ``_chains``, which checks the arguments and states the contract.
    """
    (result,) = _chains(blocks, rho, [(Algorithm.IIC, np_outputs)], passes)
    return result


def _chains(blocks, rho: float, cells, passes: int, rates_only: bool = False):
    """One ChainResult per ``(algorithm, np)`` cell of the blocks, in order.

    Checks the blocks, which must all have one Mp x K shape, ``rho``,
    ``passes`` and every np, which lies between 1 and Mp. No filter keeps
    more columns than a block has rows (IIC keeps ``min(np, rank)``, RMF
    at most K), so np goes in as requested, and IIC counts ``P np``
    backplane outputs, the ones beyond a filter's width carrying zeros.
    The checked blocks become one P x Mp x K complex128 array, which
    every step below reads: a complex128 ndarray is used as it is, any
    other input stacked. Their one ceiling follows, so an overflowing
    ``rho`` fails there, before any cell. The IIC cells then fold
    together (``_iic_fold``). RMF cells are rated as they are yielded, in
    the one column order read off the array at the first of them, each
    from a QR of its own columns (``_rmf_rows``). Every report is checked
    against the ceiling.

    The cell contracts, stated here once. A cell's result does not
    depend on the cells it runs with: it is the same bit for bit
    whichever cells share the call, or alone. An IIC cell's filters span
    what ``iic_local_step`` keeps from the same input, though their
    columns may differ in phase. RMF filters are built by ``rmf_filter``
    alone. Every rate that is not the ceiling is
    ``capacity.sum_rate_panelized``'s formula on the rows that its cell's
    filters keep, read by ``_rows_rate``. The one-cell calls below run on
    the raw blocks and return the filters; an IIC result's trace is
    ``capacity.chain_capacity_trace`` of them, that formula after each
    panel, and its rate the last entry.

    ``rates_only`` is for callers that read no more than the rates and
    the traffic, as ``lisim.cli`` does: every result then has no
    equalizers and an empty trace. Blocks with Mp > K are factored once,
    by ``numerics.user_side_factor``, and every cell and the ceiling run
    on the stack of factors, whose ``R^H R`` is the blocks' ``H^H H``. So
    the rates are the raw blocks' up to rounding, and the traffic is
    theirs exactly. A full-width cell is not run: IIC with np at least
    ``min(Mp, K)``, or RMF with np at least K, keeps every block's whole
    column space, so its rate is the ceiling.
    """
    checked = [numerics._as_matrix(b, "channel block") for b in blocks]
    if not checked:
        raise ConfigError("at least one channel block is required")
    p, (mp, k) = len(checked), checked[0].shape
    for b in checked:
        if b.shape != (mp, k):
            raise ConfigError("all channel blocks must share one shape, got "
                              f"{(mp, k)} and {b.shape}")
    for _, np_outputs in cells:
        if not numerics._is_int(np_outputs):
            raise ConfigError(
                f"np_outputs must be an integer, got {np_outputs!r}")
        if not 1 <= np_outputs <= mp:
            raise ConfigError(f"np must be between 1 and the {mp} "
                              f"antennas per panel, got {np_outputs}")
    if not numerics._is_finite_real(rho) or rho <= 0.0:
        raise ConfigError(f"rho must be positive and finite, got {rho}")
    if not numerics._is_int(passes) or passes < 1:
        raise ConfigError("passes must be an integer of at least 1")
    if rates_only and mp > k:
        blocks = np.stack([numerics.user_side_factor(h) for h in checked])
    elif type(blocks) is not np.ndarray or blocks.dtype != np.complex128:
        blocks = np.stack(checked)
    del checked  # so that no generated block outlives the stack
    ceiling = capacity.channel_capacity(blocks.reshape(-1, k), rho)
    full_width = {(algorithm, np_outputs) for algorithm, np_outputs in cells
                  if rates_only and np_outputs
                  >= (min(mp, k) if algorithm is Algorithm.IIC else k)}
    widths = [np_outputs for algorithm, np_outputs in cells
              if algorithm is Algorithm.IIC
              and (algorithm, np_outputs) not in full_width]
    # reversed and popped as the cells are yielded, so that no filter
    # outlives its caller's use of it while the RMF cells run
    folds = _iic_fold(blocks, rho, widths, passes)[::-1] if widths else []
    order = None
    for algorithm, np_outputs in cells:
        iic = algorithm is Algorithm.IIC
        eq_set, trace = None, np.zeros(0)
        if (algorithm, np_outputs) in full_width:
            rate = ceiling
        elif iic:
            filters = folds.pop()
            if rates_only:
                rate = _rows_rate(blocks, lambda lo, hi: (np.swapaxes(_padded(
                    filters[lo:hi], blocks.shape[1], np_outputs).conj(), 1, 2)
                    @ blocks[lo:hi]).reshape(-1, k), rho)
        else:
            if order is None:  # rmf_filter's, which does not depend on np
                order = np.argsort(-np.sum(np.abs(blocks) ** 2, axis=1),
                                   axis=-1, kind="stable")
            rate = _rows_rate(blocks, lambda lo, hi: _rmf_rows(
                blocks[lo:hi], order[lo:hi], np_outputs), rho)
        if not rates_only:
            # no cell is full width without rates_only
            if not iic:
                filters = [rmf_filter(h, np_outputs).w for h in blocks]
            eq_set = EqualizerSet(per_panel=tuple(
                PanelEqualizer(w=w, kind=EqualizerKind(algorithm.value),
                               semi_unitary=iic) for w in filters))
            if iic:
                trace = capacity.chain_capacity_trace(blocks, eq_set, rho)
                rate = float(trace[-1])
        report = capacity.CapacityReport(
            sum_rate_bits=rate, per_panel_cumulative=trace,
            channel_capacity_bits=ceiling)
        report.validate()
        traffic = TrafficReport(
            chain_complex_scalars=(p - 1) * passes * k * k if iic else 0,
            backplane_scalars_per_use=p * (np_outputs if iic
                                           else min(np_outputs, k)),
            cpu_scalars_per_use=k, centralized_csi_scalars=0)
        yield ChainResult(equalizers=eq_set, report=report, traffic=traffic,
                          passes_executed=passes if iic else 1)


def _iic_fold(blocks, rho: float, widths, passes: int):
    """One IIC chain per width, folded over the panels at once.

    The C chains are stacked, and one stacked kernel of each kind serves
    them all per panel step; each chain keeps ``min(width, rank)`` columns
    of its whitened block's left singular vectors, by
    ``numerics.numerical_rank``. Every stacked kernel gives a matrix the
    bits it would get alone, so a chain's result does not depend on the
    other widths.

    The first pass carries an inverse factor ``g`` of each accumulator,
    ``z^-1 = g^H g``, from I. A panel whitens its block to
    ``A = sqrt(rho) H g^H``, which has the left singular vectors of any
    whitening against ``z``, and takes the thin SVD ``A = U S V^H``. The
    kept columns ``_w`` move ``z = g^-1 g^-H`` to
    ``g^-1 (I + V_w S_w^2 V_w^H) g^-H``, so ``g`` moves to
    ``(I + V_w S_w^2 V_w^H)^-1/2 g``. Later passes hold R factors that
    ``numerics.grown_factor`` grows (the two-filter form): a backward
    sweep grows ``S_i`` by the rows ``sqrt(rho) W^H H`` of the previous
    filters of panels i onward; panel i whitens against ``[F; S_i+1]``
    grown into one factor, and all but the last panel grow ``F`` from I
    by the rows of their new filter.

    Returns one list of per-panel filter arrays per width; ``_chains``
    states what they are. The blocks must be checked already.
    """
    mp, k = blocks[0].shape
    identity = np.tile(np.eye(k, dtype=complex), (len(widths), 1, 1))
    filters = [[None] * len(blocks) for _ in widths]
    g = identity
    for i, h in enumerate(blocks):
        u, s, vh = numerics.svd((np.sqrt(rho) * h)
                                @ np.swapaxes(g.conj(), 1, 2))
        keep = np.minimum(widths, numerics.numerical_rank(s))
        gains = np.where(np.arange(s.shape[1]) < keep[:, None], s * s, 0.0)
        shrink = 1.0 / np.sqrt(1.0 + gains) - 1.0
        g = g + np.swapaxes(vh.conj(), 1, 2) @ (shrink[:, :, None]
                                                * (vh @ g))
        for c, width in enumerate(keep):
            # a copy, so that the filters do not keep every u alive
            filters[c][i] = u[c, :, :width].copy()
    for _ in range(1, passes):
        # S_P-1 down to S_1, the filters zero-padded to one width to stack
        suffix = [np.zeros_like(identity)]
        for i in range(len(blocks) - 1, 0, -1):
            w = _padded([cell[i] for cell in filters], mp, min(mp, k))
            suffix.append(numerics.grown_factor(suffix[-1], np.sqrt(rho) * (
                np.swapaxes(w.conj(), 1, 2) @ blocks[i])))
        f = identity.copy()
        for i, h in enumerate(blocks):
            r = f if i == len(blocks) - 1 else numerics.grown_factor(
                f, suffix.pop())
            u, s, _ = numerics.svd(numerics.whiten(
                h, np.swapaxes(r.conj(), 1, 2), rho))
            for c, (width, rank) in enumerate(
                    zip(widths, numerics.numerical_rank(s))):
                filters[c][i] = w = u[c, :, :min(width, rank)].copy()
                if i < len(blocks) - 1:
                    f[c] = numerics.grown_factor(
                        f[c], np.sqrt(rho) * (w.conj().T @ h))
    return filters


def _padded(filters, rows: int, width: int) -> np.ndarray:
    """The filters stacked as ``rows x width`` matrices, zero-padded."""
    w = np.zeros((len(filters), rows, width), dtype=complex)
    for pad, f in zip(w, filters):
        pad[:, :f.shape[1]] = f
    return w


def _rmf_rows(stack, order, np_outputs: int) -> np.ndarray:
    """The rows ``T = Q^H H`` of a stack of panels, as one K-column matrix.

    ``Q`` spans each panel's RMF filter, its first np columns in ``order``
    (``rmf_filter``'s): it is the reduced QR's where ``numerics.full_rank``
    clears the R, else the left singular vectors, zero past their
    ``numerical_rank`` as ``sum_rate_panelized`` drops them."""
    selected = np.take_along_axis(stack, order[:, None, :np_outputs], axis=2)
    q, r = np.linalg.qr(selected)
    rest = ~numerics.full_rank(r)
    if rest.any():
        u, s, _ = numerics.svd(selected[rest])
        q[rest] = np.where(np.arange(u.shape[2]) < numerics.numerical_rank(
            s)[:, None, None], u, 0.0)
    return (np.swapaxes(q.conj(), 1, 2) @ stack).reshape(-1, stack.shape[2])


def _rows_rate(blocks, rows, rho: float) -> float:
    """``log2 det(I + rho T^H T)`` of the rows ``T`` that a cell keeps.

    ``blocks`` is the P x Mp x K array, and ``rows(lo, hi)`` gives the
    rows of panels lo to hi - 1; each slice of at most
    ``numerics._QR_ROWS`` block rows (at least one panel) updates the R
    factor of all the rows: ``sum_rate_panelized``'s rate up to rounding."""
    p, mp, k = blocks.shape
    step = max(1, numerics._QR_ROWS // mp)
    r = np.zeros((0, k), dtype=complex)
    for lo in range(0, p, step):
        r = numerics.grown_factor(r, rows(lo, lo + step))
    return numerics.logdet2_eye_plus_gram(r, rho)


def run_rmf(blocks, np_outputs: int, rho: float) -> ChainResult:
    """Reduced-matched-filter run: each panel keeps its strongest user
    columns from local CSI, no chain traffic, and ``rho`` enters only the
    report. The one-cell call of ``_chains``, which states the contract.
    """
    (result,) = _chains(blocks, rho, [(Algorithm.RMF, np_outputs)], 1)
    return result


def run_centralized(blocks, rho: float, np_outputs: int,
                    algorithm: Algorithm, passes: int = 1) -> ChainResult:
    """The one-cell run of ``_chains`` at a central unit holding all CSI.

    Its filters and rates are the decentralized run's bit for bit; the
    full M x K channel goes up once and no panel messages flow.
    """
    blocks = list(blocks)  # read twice: by _chains and for the traffic
    (result,) = _chains(blocks, rho, [(Algorithm(algorithm), np_outputs)],
                        passes)
    mp, k = np.shape(blocks[0])
    return replace(result, traffic=replace(
        result.traffic, chain_complex_scalars=0,
        centralized_csi_scalars=len(blocks) * mp * k))

"""Daisy-chain and centralized execution of the panel algorithms.

One runner, ``_chains``, takes a list of ``(algorithm, np)`` cells over
the same channel blocks and scores each against the blocks' one
channel-capacity ceiling; ``run_iic_chain``, ``run_rmf`` and
``run_centralized`` are its one-cell calls. An IIC chain folds the local
interference-cancellation step over the panels in scenario order,
threading the Hermitian K x K accumulator from panel to panel as
square-root factors, never formed; later passes step each panel against
every other panel's latest contribution. A call's IIC cells fold
together (``_iic_fold``), and its RMF cells read their rates off one
stack of the blocks (``_rmf_cell``). Centralized execution reuses the
same runner and changes only the traffic accounting.

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
    """Filters, capacity report, traffic accounting, and pass count.

    ``equalizers`` is None, and the report's trace empty, for a
    rates-only cell; ``_chains`` states what each result carries.
    """

    equalizers: EqualizerSet | None
    report: capacity.CapacityReport
    traffic: TrafficReport
    passes_executed: int


def run_iic_chain(blocks, rho: float, np_outputs: int,
                  passes: int = 1) -> ChainResult:
    """Decentralized interference-cancellation run over a panel chain.

    One fold of the local step over ``passes`` sweeps of the panels in
    list order, carrying the accumulator ``z`` (from the identity) and the
    filters, the only per-panel state. In the first pass each panel steps
    against ``z`` and forwards ``z`` grown by its filter's projected Gram:
    the plain daisy chain of the envisioned hardware pipeline (the default
    single pass). In later passes panel i steps against ``z`` without its
    own previous Gram, and so re-optimizes against every other panel's
    current contribution, which can only increase the objective.

    This is the one-cell call of ``_chains``, the runner that
    ``lisim.cli`` gives all of a trial's cells at once; the result's
    contract (filters, trace and rate) is stated there.

    Parameters
    ----------
    blocks : sequence of array_like
        Per-panel Mp x K channel blocks in chain order, all of one shape;
        blocks of different shapes raise ConfigError.
    rho : float
        Linear SNR.
    np_outputs : int
        Outputs per panel; at most the panel antenna count.
    passes : int
        Number of sweeps over the chain, at least 1.
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
    The blocks' one ceiling follows these checks, so an overflowing
    ``rho`` fails there, before any cell. The IIC cells then fold
    together (``_iic_fold``). RMF cells are rated as they are yielded, by
    ``_rmf_cell`` from the one stack and column order that ``_rmf_order``
    makes at the first of them. Every report is checked against the
    ceiling.

    The cell contracts, stated here once. A cell's result does not
    depend on the cells it runs with: it is the same bit for bit
    whichever cells share the call, or alone. An IIC cell's filters span
    what ``iic_local_step`` keeps from the same input, though their
    columns may differ in phase. RMF filters are built by ``rmf_filter``
    alone, and an RMF rate is ``capacity.sum_rate_panelized``'s formula
    on the same rows. The one-cell calls below run on the raw blocks and
    return the filters; an IIC result's trace is
    ``capacity.chain_capacity_trace`` of them, its rate the trace's last
    entry.

    ``rates_only`` is for callers that read no more than the rates and
    the traffic, as ``lisim.cli`` does: every result then has no
    equalizers and an empty trace. The checked blocks are factored once,
    by ``numerics.user_side_factor``, and every cell and the ceiling run
    on the factors, whose ``R^H R`` is the blocks' ``H^H H``. So the
    rates are the raw blocks' up to rounding, and the traffic is theirs
    exactly. A single-pass IIC rate is the sum of the fold's increments,
    which carries the rounding of its inverse factor; a multi-pass one
    is read off the fold's last R factor, as ``chain_capacity_trace``
    reads it. A full-width cell is not run: IIC with np at least
    ``min(Mp, K)``, or RMF with np at least K, keeps every block's whole
    column space, so its rate is the ceiling.
    """
    blocks = [numerics._as_matrix(b, "channel block") for b in blocks]
    if not blocks:
        raise ConfigError("at least one channel block is required")
    p, (mp, k) = len(blocks), blocks[0].shape
    for b in blocks:
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
    if rates_only:
        blocks = [numerics.user_side_factor(h) for h in blocks]
    ceiling = capacity.channel_capacity(np.vstack(blocks), rho)
    full_width = {(algorithm, np_outputs) for algorithm, np_outputs in cells
                  if rates_only and np_outputs
                  >= (min(mp, k) if algorithm is Algorithm.IIC else k)}
    widths = [np_outputs for algorithm, np_outputs in cells
              if algorithm is Algorithm.IIC
              and (algorithm, np_outputs) not in full_width]
    # reversed and popped as the cells are yielded, so that no filter
    # outlives its caller's use of it while the RMF cells run
    folds = _iic_fold(blocks, rho, widths, passes)[::-1] if widths else []
    rmf = None
    for algorithm, np_outputs in cells:
        iic = algorithm is Algorithm.IIC
        eq_set, trace = None, np.zeros(0)
        if (algorithm, np_outputs) in full_width:
            rate = ceiling
        elif iic:
            filters, rate = folds.pop()
        else:
            if rmf is None:
                # stacked after the IIC fold, not beside its temporaries
                rmf = _rmf_order(blocks)
            rate = _rmf_cell(*rmf, np_outputs, rho)
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
    ``(I + V_w S_w^2 V_w^H)^-1/2 g`` and the rate grows by
    ``sum log2(1 + s_j^2)`` over the kept ``j``. Later passes hold R
    factors from ``numerics.grown_factor`` alone (the two-filter form): a
    backward sweep grows ``S_i`` from the previous filters of panels i
    onward; panel i whitens against the R factor of ``[F; S_i+1]`` and
    grows ``F`` from I by its new filter, as ``chain_capacity_trace``
    grows its factor, and the rate is read off the last ``F``.

    Returns one ``(filters, rate)`` per width, the filters a list of
    per-panel arrays; ``_chains`` states what they are. The blocks must
    be checked already.
    """
    mp, k = blocks[0].shape
    identity = np.tile(np.eye(k, dtype=complex), (len(widths), 1, 1))
    filters = [[None] * len(blocks) for _ in widths]
    rates = np.zeros(len(widths))
    g = identity
    for i, h in enumerate(blocks):
        u, s, vh = numerics.svd((np.sqrt(rho) * h)
                                @ np.swapaxes(g.conj(), 1, 2))
        keep = np.minimum(widths, numerics.numerical_rank(s))
        gains = np.where(np.arange(s.shape[1]) < keep[:, None], s * s, 0.0)
        rates += numerics.log2_one_plus(gains)
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
            w = np.zeros((len(widths), mp, min(mp, k)), dtype=complex)
            for pad, cell in zip(w, filters):
                pad[:, :cell[i].shape[1]] = cell[i]
            suffix.append(numerics.grown_factor(suffix[-1], w, blocks[i],
                                                rho))
        f = identity.copy()
        for i, h in enumerate(blocks):
            r = f if i == len(blocks) - 1 else np.linalg.qr(
                np.concatenate([f, suffix.pop()], axis=1), mode="r")
            u, s, _ = numerics.svd(numerics.whiten(
                h, np.swapaxes(r.conj(), 1, 2), rho))
            for c, (width, rank) in enumerate(
                    zip(widths, numerics.numerical_rank(s))):
                filters[c][i] = w = u[c, :, :min(width, rank)].copy()
                f[c] = numerics.grown_factor(f[c], w, h, rho)
        rates = numerics.logdet2_factor(f)
    return [(cell, float(rate)) for cell, rate in zip(filters, rates)]


def _rmf_order(blocks):
    """The blocks as one P x Mp x K stack, and each block's column order.

    The order is ``rmf_filter``'s: descending squared column norm, ties
    in ascending user index. It does not depend on np, so every RMF cell
    of a call reads its columns off this one order.
    """
    stack = np.stack(blocks)
    norms = np.sum(np.abs(stack) ** 2, axis=1)
    return stack, np.argsort(-norms, axis=-1, kind="stable")


def _rmf_cell(stack, order, np_outputs: int, rho: float) -> float:
    """The rate of one RMF cell, over every panel at once.

    Per slice of ``numerics._QR_ROWS`` block rows (at least one panel),
    one stacked SVD gives the left singular vectors ``U`` of each panel's
    filter, its first ``np`` columns in ``order`` as ``rmf_filter`` keeps
    them, of which ``capacity.sum_rate_panelized`` keeps the leading
    ``numerical_rank``; here the rows of ``T = U^H H`` past a panel's rank
    are zeroed instead. The rate ``log2 det(I + rho sum_i T_i^H T_i)`` is
    read off the singular values of the R factor of all the panels' rows,
    which each slice updates, so it agrees with ``sum_rate_panelized`` up
    to the rounding of factoring the rows in slices.
    """
    p, mp, k = stack.shape
    step = max(1, numerics._QR_ROWS // mp)
    r = np.zeros((0, k), dtype=complex)
    for lo in range(0, p, step):
        h = stack[lo:lo + step]
        u, s, _ = numerics.svd(np.take_along_axis(
            h, order[lo:lo + step, None, :np_outputs], axis=2))
        t = np.swapaxes(u.conj(), 1, 2) @ h
        t[np.arange(t.shape[1]) >= numerics.numerical_rank(s)[:, None]] = 0.0
        r = np.linalg.qr(np.vstack([r, t.reshape(-1, k)]), mode="r")
    return numerics.logdet2_eye_plus_gram(r, rho)


def run_rmf(blocks, np_outputs: int, rho: float) -> ChainResult:
    """Reduced-matched-filter run; every panel works from local CSI only.

    No panel-to-panel messages are needed, so chain traffic is zero. The
    filter construction itself does not depend on the SNR; ``rho`` only
    enters the returned capacity report. The one-cell call of
    ``_chains``, where the result's contract is stated. The blocks must
    all have one Mp x K shape; ConfigError otherwise.
    """
    (result,) = _chains(blocks, rho, [(Algorithm.RMF, np_outputs)], 1)
    return result


def run_centralized(blocks, rho: float, np_outputs: int,
                    algorithm: Algorithm, passes: int = 1) -> ChainResult:
    """Same algorithms executed at a central unit holding all CSI.

    Reuses the decentralized runner verbatim, so filters and capacities
    are bit-identical to the decentralized run; only the traffic
    accounting differs: the full M x K channel is uploaded once and no
    panel-to-panel messages flow. ``passes`` is checked for RMF too,
    which makes a single pass. The blocks must all have one Mp x K
    shape; ConfigError otherwise.
    """
    (result,) = _chains(blocks, rho, [(Algorithm(algorithm), np_outputs)],
                        passes)
    mp, k = np.shape(blocks[0])
    return replace(result, traffic=replace(
        result.traffic, chain_complex_scalars=0,
        centralized_csi_scalars=len(blocks) * mp * k))

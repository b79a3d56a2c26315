"""Daisy-chain and centralized execution of the panel algorithms.

One runner, ``_chains``, takes a list of ``(algorithm, np)`` cells over
the same channel blocks and scores each against the blocks' one
channel-capacity ceiling; ``run_iic_chain``, ``run_rmf`` and
``run_centralized`` are its one-cell calls. An IIC chain folds the local
interference-cancellation step over the panels in scenario order,
threading the Hermitian K x K accumulator from panel to panel; the
first pass carries an inverse square-root factor of it instead. Further
passes continue the same fold: each panel then steps against the
accumulator less its own previous contribution. Chains over the same
blocks at several output widths fold together, their state stacked, and
each gets the bits it would get alone. The RMF cells of a
call read their filters off one stack of the blocks and one column
order, and each is scored by stacked SVDs and one R factor of its
panels' rows, never panel by panel. Centralized
execution reuses the exact same runner, so the resulting filters are
bit-identical; only the interconnect accounting changes (full CSI upload
instead of panel-to-panel messages).

Traffic is counted in complex scalars; one complex scalar is two 8-byte
reals, so multiply by 16 for bytes.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import capacity, numerics
# iic_local_step and rmf_filter are the references that the IIC fold and
# the stacked RMF cells reproduce; they stay importable here, where
# benchmarks/tracing.py looks them up
from .equalizers import (EqualizerKind, EqualizerSet, PanelEqualizer,
                         iic_local_step, rmf_filter)  # noqa: F401
from .errors import ConfigError


#: Panels per stacked SVD and Gram product of an RMF cell: slices keep a
#: cell's temporaries small next to its filters, at no cost in speed.
_RMF_SLICE = 32


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

    ``equalizers`` is None for a full-width cell (see ``_chains``).
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
    single pass). In later passes panel i first subtracts its previous
    contribution, that Gram, and so re-optimizes against every other
    panel's current contribution, which can only increase the objective;
    the difference goes to the step as computed. How closely the filters
    and the report's trace follow ``iic_local_step`` and
    ``capacity.chain_capacity_trace`` is stated in ``_iic_fold``.

    This is the one-cell call of ``_chains``, the runner that
    ``lisim.cli`` gives all of a trial's cells at once.

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


def _chains(blocks, rho: float, cells, passes: int, max_np=None,
            centralized: bool = False, full_width_from_ceiling: bool = False):
    """One ChainResult per ``(algorithm, np)`` cell of the blocks, in order.

    Checks the blocks, which must all have one Mp x K shape, ``rho``,
    ``passes`` and every np, which lies between 1 and ``max_np``: by
    default the blocks' Mp, the raw Mp for a caller running on
    ``numerics.user_side_factor`` factors. No filter keeps more columns
    than a block has rows (IIC keeps ``min(np, rank)``, RMF at most K),
    so np goes in as requested, and IIC counts ``P np`` backplane
    outputs, the ones beyond a filter's width carrying zeros. The blocks'
    one ceiling follows these checks, so an overflowing ``rho`` fails
    there, before any cell. The IIC cells then fold together. RMF cells
    are built as they are yielded, by ``_rmf_cell`` from the one stack
    and column order that ``_rmf_order`` makes at the first of them.
    Every report is checked against the ceiling. ``centralized`` counts
    a central unit's CSI upload in place of chain messages.

    A cell's result does not depend on the cells it runs with: it is the
    same bit for bit whichever cells share the call, or alone.

    With ``full_width_from_ceiling``, a full-width cell is not run: IIC
    with np at least the blocks' row count (``min(Mp, K)`` for factors),
    or RMF with np at least K, keeps every block's whole column space, so
    its rate is the ceiling.
    Its result has that rate, an empty trace, no equalizers and the
    traffic and passes a run would report. Only a caller that reads no
    more than the rate may ask for this; the one-cell calls below keep
    the full fold, which the acceptance criteria test.
    """
    if not blocks:
        raise ConfigError("at least one channel block is required")
    blocks = [numerics._as_matrix(b, "channel block") for b in blocks]
    p, (mp, k) = len(blocks), blocks[0].shape
    for b in blocks:
        if b.shape != (mp, k):
            raise ConfigError("all channel blocks must share one shape, got "
                              f"{(mp, k)} and {b.shape}")
    if max_np is None:
        max_np = mp
    for _, np_outputs in cells:
        if not numerics._is_int(np_outputs):
            raise ConfigError(
                f"np_outputs must be an integer, got {np_outputs!r}")
        if not 1 <= np_outputs <= max_np:
            raise ConfigError(f"np must be between 1 and the {max_np} "
                              f"antennas per panel, got {np_outputs}")
    if not numerics._is_finite_real(rho) or rho <= 0.0:
        raise ConfigError(f"rho must be positive and finite, got {rho}")
    if not numerics._is_int(passes) or passes < 1:
        raise ConfigError("passes must be an integer of at least 1")
    ceiling = capacity.channel_capacity(np.vstack(blocks), rho)
    full_width = {(algorithm, np_outputs) for algorithm, np_outputs in cells
                  if full_width_from_ceiling and np_outputs
                  >= (mp if algorithm is Algorithm.IIC else k)}
    widths = [np_outputs for algorithm, np_outputs in cells
              if algorithm is Algorithm.IIC
              and (algorithm, np_outputs) not in full_width]
    # reversed and popped as the cells are yielded, so that no filter
    # outlives its caller's use of it while the RMF cells run
    folds = _iic_fold(blocks, rho, widths, passes)[::-1] if widths else []
    rmf = None
    for algorithm, np_outputs in cells:
        iic = algorithm is Algorithm.IIC
        if (algorithm, np_outputs) in full_width:
            eq_set, rate, trace = None, ceiling, np.zeros(0)
        elif iic:
            eq_set, trace = folds.pop()
            rate = float(trace[-1])
        else:
            if rmf is None:
                # stacked after the IIC fold, not beside its temporaries
                rmf = _rmf_order(blocks)
            eq_set, rate = _rmf_cell(*rmf, np_outputs, rho)
            trace = np.zeros(0)
        report = capacity.CapacityReport(
            sum_rate_bits=rate, per_panel_cumulative=trace,
            channel_capacity_bits=ceiling)
        report.validate()
        traffic = TrafficReport(
            chain_complex_scalars=(p - 1) * passes * k * k
            if iic and not centralized else 0,
            backplane_scalars_per_use=p * (np_outputs if iic
                                           else min(np_outputs, k)),
            cpu_scalars_per_use=k,
            centralized_csi_scalars=p * mp * k if centralized else 0)
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
    whitening against ``z``, and takes the thin SVD ``A = U S V^H``. As
    ``z = F F^H`` for ``F = g^-1``, the kept columns ``_w`` move ``z`` to
    ``F (I + V_w S_w^2 V_w^H) F^H``: so ``g`` moves to
    ``(I + V_w S_w^2 V_w^H)^-1/2 g``, and the trace grows by
    ``sum log2(1 + s_j^2)`` over the kept ``j``. Later passes hold ``z``
    itself, the sum of the filters' projected Grams: panel i subtracts
    its previous contribution, whitens against the Cholesky factor of
    the rest and adds its new one. The last of them grows an R factor of
    ``I + G_0 + ... + G_i`` from I by ``numerics.grown_factor``, as
    ``capacity.chain_capacity_trace`` does, and reads entry i off it.

    The contract: every filter spans what ``iic_local_step`` keeps from
    the same input, though its columns may differ in phase. A multi-pass
    trace is ``chain_capacity_trace`` of the filters bit for bit; a
    single-pass trace is that up to the rounding of forming
    ``I + rho H^H H``. Returns one ``(EqualizerSet, trace)`` per width.
    The blocks must be checked already.
    """
    k = blocks[0].shape[1]
    identity = np.tile(np.eye(k, dtype=complex), (len(widths), 1, 1))
    filters = [[None] * len(blocks) for _ in widths]
    increments = np.empty((len(widths), len(blocks)))
    # the explicit accumulator serves the later passes alone
    z = identity.copy() if passes > 1 else None
    g = identity
    for i, h in enumerate(blocks):
        u, s, vh = numerics.svd((np.sqrt(rho) * h)
                                @ np.swapaxes(g.conj(), 1, 2))
        keep = np.minimum(widths, numerics.numerical_rank(s))
        gains = np.where(np.arange(s.shape[1]) < keep[:, None], s * s, 0.0)
        increments[:, i] = numerics.log2_one_plus(gains)
        shrink = 1.0 / np.sqrt(1.0 + gains) - 1.0
        g = g + np.swapaxes(vh.conj(), 1, 2) @ (shrink[:, :, None]
                                                * (vh @ g))
        for c, width in enumerate(keep):
            # a copy, so that the filters do not keep every u alive
            filters[c][i] = w = u[c, :, :width].copy()
            if z is not None:
                z[c] += numerics.projected_gram(w, h, rho)
    traces = np.cumsum(increments, axis=1)
    # the last pass grows an R factor of I + G_0 + ... + G_i for the trace
    factors = identity.copy()
    for pass_index in range(1, passes):
        last = pass_index == passes - 1
        for i, h in enumerate(blocks):
            # leave out each panel's contribution from the previous pass
            for c, cell in enumerate(filters):
                z[c] -= numerics.projected_gram(cell[i], h, rho)
            u, s, _ = numerics.svd(numerics.whiten(h, numerics.cholesky(z),
                                                   rho))
            for c, (width, rank) in enumerate(
                    zip(widths, numerics.numerical_rank(s))):
                filters[c][i] = w = u[c, :, :min(width, rank)].copy()
                z[c] += numerics.projected_gram(w, h, rho)
                if last:
                    factors[c] = numerics.grown_factor(factors[c], w, h, rho)
            if last:
                traces[:, i] = numerics.logdet2_factor(factors)
    return [(EqualizerSet(per_panel=tuple(
        PanelEqualizer(w=w, kind=EqualizerKind.IIC, semi_unitary=True)
        for w in cell)), trace) for cell, trace in zip(filters, traces)]


def _rmf_order(blocks):
    """The blocks as one P x Mp x K stack, and each block's column order.

    The order is ``rmf_filter``'s: descending squared column norm, ties
    in ascending user index. It does not depend on np, so every RMF cell
    of a call reads its columns off this one order.
    """
    stack = np.stack(blocks)
    norms = np.sum(np.abs(stack) ** 2, axis=1)
    return stack, np.argsort(-norms, axis=-1, kind="stable")


def _rmf_cell(stack, order, np_outputs: int, rho: float):
    """One RMF cell over every panel at once: ``(EqualizerSet, rate)``.

    The filters are ``rmf_filter``'s bit for bit, views of one
    P x Mp x min(np, K) stack. Per slice of ``_RMF_SLICE`` panels, one
    stacked SVD gives each filter's left singular vectors ``U``, of
    which ``capacity.sum_rate_panelized`` keeps the leading
    ``numerical_rank``; here the rows of ``T = U^H H`` past a panel's
    rank are zeroed instead. The rate ``log2 det(I + rho sum_i T_i^H
    T_i)`` is read off the singular values of the R factor of all the
    panels' rows, which each slice updates; like the ceiling, it never
    forms ``I + rho sum_i T_i^H T_i``, so it is ``sum_rate_panelized``'s
    up to that sum's rounding.
    """
    w = np.take_along_axis(stack, order[:, None, :np_outputs], axis=2)
    k = stack.shape[2]
    r = np.zeros((0, k), dtype=complex)
    for lo in range(0, len(w), _RMF_SLICE):
        u, s, _ = numerics.svd(w[lo:lo + _RMF_SLICE])
        t = np.swapaxes(u.conj(), 1, 2) @ stack[lo:lo + _RMF_SLICE]
        t[np.arange(t.shape[1]) >= numerics.numerical_rank(s)[:, None]] = 0.0
        r = np.linalg.qr(np.vstack([r, t.reshape(-1, k)]), mode="r")
    rate = numerics.logdet2_eye_plus_gram(r, rho)
    eq_set = EqualizerSet(per_panel=tuple(
        PanelEqualizer(w=h, kind=EqualizerKind.RMF, semi_unitary=False)
        for h in w))
    return eq_set, rate


def run_rmf(blocks, np_outputs: int, rho: float) -> ChainResult:
    """Reduced-matched-filter run; every panel works from local CSI only.

    No panel-to-panel messages are needed, so chain traffic is zero. The
    filter construction itself does not depend on the SNR; ``rho`` only
    enters the returned capacity report. The one-cell call of ``_chains``:
    the filters are ``rmf_filter``'s, built for all panels at once, and
    the rate is ``capacity.sum_rate_panelized``'s up to rounding. The
    blocks must all have one Mp x K shape; ConfigError otherwise.
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
                        passes, centralized=True)
    return result

"""Daisy-chain and centralized execution of the panel algorithms.

One runner, ``_chains``, takes a list of ``(algorithm, np)`` cells over
the same channel blocks and scores each against the blocks' one
channel-capacity ceiling; ``run_iic_chain``, ``run_rmf`` and
``run_centralized`` are its one-cell calls. An IIC chain folds the local
interference-cancellation step over the panels in scenario order,
threading the Hermitian K x K accumulator from panel to panel. Further
passes continue the same fold: each panel then steps against the
accumulator less its own previous contribution. Chains over the same
blocks at several output widths fold together, their accumulators
stacked, and each gets the bits it would get alone. The RMF cells of a
call read their filters off one stack of the blocks and one column
order, and each is scored by stacked SVDs and one K x K Gram over its
panels, never panel by panel. Centralized
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

    ``equalizers`` is None for a full-width cell that ``_chains`` answered
    from the ceiling instead of building its filters.
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
    the difference goes to the step as computed. Each step is
    ``iic_local_step``'s, whitened by the same Cholesky factor, so the
    filters are a fold of it bit for bit. The report's trace is
    ``capacity.chain_capacity_trace`` of the filters bit for bit: read off
    the next step's Cholesky factor in a single pass, else off the factor
    of the last pass's running sum of its Grams.

    This is the one-cell call of ``_chains``, the runner that
    ``lisim.cli`` gives all of a trial's cells at once; a cell's result
    does not depend on the cells it runs with.

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
    Every report is checked against the ceiling. A cell's result is the
    same bit for bit whichever cells share the call. ``centralized``
    counts a central unit's CSI upload in place of chain messages.

    With ``full_width_from_ceiling``, a full-width cell is not run: IIC
    with np at least the blocks' row count, or RMF with np at least K,
    keeps every block's whole column space, so its rate is the ceiling.
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

    The accumulators of the C chains are one C x K x K stack. Per panel
    step, one stacked Cholesky factorization, one stacked whitening solve
    and one stacked SVD serve every chain; each then keeps
    ``min(width, rank)`` columns by ``numerics.numerical_rank`` and adds
    its filter's ``numerics.projected_gram``, formed on its own. Every
    stacked kernel gives a matrix the bits it would get alone, so a
    chain's filters do not depend on the other widths.

    Returns one ``(EqualizerSet, trace)`` per width, with the trace of
    ``capacity.chain_capacity_trace`` bit for bit. A single pass reads
    entry i off the Cholesky factor of ``I + G_0 + ... + G_i``, which is
    the next step's (one more factorization follows the last panel).
    With more passes, the last one also sums its Grams from I, in
    ``chain_capacity_trace``'s order, and reads entry i off the stacked
    factor of ``I + G_0 + ... + G_i``. The blocks must be checked already.
    """
    k = blocks[0].shape[1]
    identity = np.tile(np.eye(k, dtype=complex), (len(widths), 1, 1))
    z = identity.copy()
    filters = [[None] * len(blocks) for _ in widths]
    traces = np.empty((len(widths), len(blocks)))
    for pass_index in range(passes):
        # the last of several passes sums its Grams from I again, for the
        # trace; keeping every Gram instead raises the peak memory
        prefix = identity.copy() if 0 < pass_index == passes - 1 else None
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
                gram = numerics.projected_gram(w, h, rho)
                z[c] += gram
                if prefix is not None:
                    prefix[c] += gram
            if prefix is not None:
                traces[:, i] = numerics.logdet2_factor(
                    numerics.cholesky(prefix))
    if passes == 1:
        traces[:, -1] = numerics.logdet2_factor(numerics.cholesky(z))
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
    rank are zeroed instead, which drops them from the one K x K Gram
    ``sum_i T_i^H T_i``, summed slice by slice. The rate is that of
    ``sum_rate_panelized`` up to the rounding of its summation order.
    """
    w = np.take_along_axis(stack, order[:, None, :np_outputs], axis=2)
    k = stack.shape[2]
    gram = np.zeros((k, k), dtype=complex)
    for lo in range(0, len(w), _RMF_SLICE):
        u, s = numerics.svd(w[lo:lo + _RMF_SLICE])
        t = np.swapaxes(u.conj(), 1, 2) @ stack[lo:lo + _RMF_SLICE]
        t[np.arange(t.shape[1]) >= numerics.numerical_rank(s)[:, None]] = 0.0
        t = t.reshape(t.shape[0] * t.shape[1], k)
        gram += t.conj().T @ t
    rate = numerics.logdet2_eye_plus(rho * gram)
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

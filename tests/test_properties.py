"""Property tests of the chain invariants over the whole parameter space.

Channels are small Gaussian blocks with per-user gains spread over three
decades. Co-located users share one channel column, so a block's rank can
fall below both its antenna count and the user count; every draw has more
users than antennas per panel, or, for the tall blocks that the sweep
factors to their K x K triangle, more antennas than users. The SNR spans
rho in [1e-8, 1e9] and IIC runs one to three passes. One property runs
every pass count at rho in [1e9, 1e14], and one draws P, Mp and K in 1..5
instead, with rho near overflow, in [1e280, 1.6e308]. The ceiling of
users at one site and the RMF cell against its reference draw rho in
[1e-8, 1e17], and the IIC rates and trace entries against theirs in
[1e-8, 1e16]. One property sets a config field to a malformed value.

The draws are derandomized so the suite is reproducible. Hypothesis
folds the literals and strings of ``src/lisim`` into its derandomized
draws, so adding or removing a constant or an error message there
reshuffles the 40 examples; the real check is a randomized search over
the same space, ``--hypothesis-profile deep`` (registered in
``conftest.py``). The two rank-one cases at the end were found by it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisim import capacity, chain, numerics
from lisim.capacity import CEILING_SLACK_BITS, MONOTONE_SLACK_BITS
from lisim.chain import Algorithm
from lisim.channel import ScenarioConfig
from lisim.cli import SweepSpec
from lisim.equalizers import (ChainMessage, EqualizerKind, EqualizerSet,
                              PanelEqualizer, iic_local_step, rmf_filter)
from lisim.errors import ConfigError, LisimError, NumericalDomainError

#: 40 derandomized draws, unless a profile other than Hypothesis's
#: default was selected on the command line; then that profile's.
PROPERTY_SETTINGS = (settings(max_examples=40, deadline=None,
                              derandomize=True, database=None)
                     if settings.get_current_profile_name() == "default"
                     else settings())


@st.composite
def chain_inputs(draw, tall=False, colocated=False):
    """(blocks, rho, passes, distinct users) with K > Mp, or Mp > K if tall.

    With ``colocated`` there are K >= 2 users at fewer than K sites.
    """
    p = draw(st.integers(1, 4))
    short = draw(st.integers(2 if colocated and tall else 1, 4))
    long = draw(st.integers(short + 1, short + 3))
    mp, k = (long, short) if tall else (short, long)
    distinct = draw(st.integers(1, k - 1 if colocated else k))
    rho = 10.0 ** draw(st.floats(-8.0, 9.0))
    passes = draw(st.integers(1, 3))
    return _sited_blocks(draw, p, mp, k, distinct), rho, passes, distinct


def _sited_blocks(draw, p, mp, k, distinct):
    """P Mp x K blocks of K users standing at ``distinct`` sites."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (p * mp, distinct)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    base *= 10.0 ** rng.uniform(-2.0, 1.0, distinct)
    # every distinct position hosts at least one user
    site = np.concatenate([np.arange(distinct),
                           rng.integers(0, distinct, k - distinct)])
    h = base[:, rng.permutation(site)]
    return [h[i * mp:(i + 1) * mp] for i in range(p)]


@st.composite
def overflow_inputs(draw):
    """(blocks, rho, passes): P, Mp and K in 1..5, rho near overflow.

    Half the draws put the users at fewer sites than users.
    """
    p, mp, k = (draw(st.integers(1, 5)) for _ in range(3))
    distinct = draw(st.integers(1, k)) if draw(st.booleans()) else k
    rho = 10.0 ** draw(st.floats(280.0, math.log10(1.6e308)))
    passes = draw(st.integers(1, 3))
    return _sited_blocks(draw, p, mp, k, distinct), rho, passes


def _bits_tol(rate: float) -> float:
    return MONOTONE_SLACK_BITS * max(1.0, abs(rate))


@PROPERTY_SETTINGS
@given(chain_inputs(), st.data())
def test_rate_below_ceiling_and_trace_nondecreasing(inputs, data):
    blocks, rho, passes, _ = inputs
    mp = blocks[0].shape[0]
    np_outputs = data.draw(st.integers(1, mp))
    iic = chain.run_iic_chain(blocks, rho, np_outputs, passes)
    rmf = chain.run_rmf(blocks, np_outputs, rho)
    for res in (iic, rmf):
        report = res.report
        assert (report.sum_rate_bits
                <= report.channel_capacity_bits + CEILING_SLACK_BITS)
    trace = iic.report.per_panel_cumulative
    assert trace.shape == (len(blocks),)
    assert np.all(np.diff(trace, prepend=0.0) >= -MONOTONE_SLACK_BITS)
    assert trace[-1] == iic.report.sum_rate_bits


@PROPERTY_SETTINGS
@given(chain_inputs(), st.data())
def test_extra_passes_never_lose_rate(inputs, data):
    blocks, rho, _, _ = inputs
    np_outputs = data.draw(st.integers(1, blocks[0].shape[0]))
    rates = [chain.run_iic_chain(blocks, rho, np_outputs, passes)
             .report.sum_rate_bits for passes in (1, 2, 3)]
    for before, after in zip(rates, rates[1:]):
        assert after >= before - _bits_tol(before)


@PROPERTY_SETTINGS
@given(chain_inputs(), st.sampled_from(list(Algorithm)))
def test_centralized_equals_decentralized(inputs, algorithm):
    blocks, rho, passes, _ = inputs
    np_outputs = blocks[0].shape[0]
    if algorithm is Algorithm.IIC:
        dec = chain.run_iic_chain(blocks, rho, np_outputs, passes)
    else:
        dec = chain.run_rmf(blocks, np_outputs, rho)
    cen = chain.run_centralized(blocks, rho, np_outputs, algorithm, passes)
    for a, b in zip(dec.equalizers, cen.equalizers):
        np.testing.assert_array_equal(a.w, b.w)
    assert cen.report.sum_rate_bits == dec.report.sum_rate_bits
    np.testing.assert_array_equal(cen.report.per_panel_cumulative,
                                  dec.report.per_panel_cumulative)
    assert cen.passes_executed == dec.passes_executed
    assert cen.traffic.chain_complex_scalars == 0
    assert cen.traffic.centralized_csi_scalars == sum(b.size for b in blocks)
    assert (cen.traffic.backplane_scalars_per_use
            == dec.traffic.backplane_scalars_per_use)


@PROPERTY_SETTINGS
@given(chain_inputs())
def test_outputs_above_block_rank_change_nothing(inputs):
    # co-located users cap every block's rank at the distinct count
    blocks, rho, passes, distinct = inputs
    mp = blocks[0].shape[0]
    at_rank = chain.run_iic_chain(blocks, rho, min(distinct, mp), passes)
    above = chain.run_iic_chain(blocks, rho, mp, passes)
    rate = at_rank.report.sum_rate_bits
    assert abs(above.report.sum_rate_bits - rate) <= _bits_tol(rate)
    np.testing.assert_allclose(above.report.per_panel_cumulative,
                               at_rank.report.per_panel_cumulative,
                               rtol=MONOTONE_SLACK_BITS,
                               atol=MONOTONE_SLACK_BITS)
    for wide, slim in zip(above.equalizers, at_rank.equalizers):
        assert wide.n_cols <= min(distinct, mp)
        assert wide.n_cols == slim.n_cols
    assert (above.traffic.chain_complex_scalars
            == at_rank.traffic.chain_complex_scalars)
    assert above.traffic.backplane_scalars_per_use == len(blocks) * mp


@PROPERTY_SETTINGS
@given(st.tuples(st.booleans(), st.booleans()).flatmap(
    lambda flags: chain_inputs(tall=flags[0], colocated=flags[1])),
    st.floats(9.0, 14.0), st.integers(1, 3))
def test_every_pass_count_runs_at_high_snr(inputs, log_rho, passes):
    blocks, _, _, _ = inputs
    rho = 10.0 ** log_rho
    cells = [(Algorithm.IIC, width)
             for width in range(1, blocks[0].shape[0] + 1)]
    results = list(chain._chains(blocks, rho, cells, passes))
    assert len(results) == len(cells)
    for result in results:
        report = result.report
        assert (report.sum_rate_bits
                <= report.channel_capacity_bits + CEILING_SLACK_BITS)
        assert np.all(np.diff(report.per_panel_cumulative, prepend=0.0)
                      >= -MONOTONE_SLACK_BITS)


@PROPERTY_SETTINGS
@given(st.integers(1, 8), st.integers(1, 5), st.floats(-8.0, 17.0),
       st.integers(0, 2**32 - 1))
def test_ceiling_of_users_at_one_site(m, k, log_rho, seed):
    # H = h 1^T has one nonzero singular value, sqrt(K) ||h||
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** (
        rng.uniform(-2.0, 1.0))
    rho = 10.0 ** log_rho
    big_h = np.outer(h, np.ones(k))
    gain = rho * k * np.linalg.norm(h) ** 2
    want = np.log1p(gain) / np.log(2.0)
    for got in (capacity.channel_capacity(big_h, rho),
                capacity.sum_rate_full(big_h, big_h, rho),
                capacity.sum_rate_full(big_h, np.eye(m), rho)):
        assert abs(got - want) <= 1e-9 * want
    # two panels that see the same users double the one nonzero gain
    eq = EqualizerSet(per_panel=(rmf_filter(big_h, min(m, k)),) * 2)
    got = capacity.sum_rate_panelized([big_h, big_h], eq, rho)
    want = np.log1p(2.0 * gain) / np.log(2.0)
    assert abs(got - want) <= 1e-9 * want


def _rounding_bits(blocks, rho):
    """``K rho lambda_max eps`` in bits, about the rounding of a formed
    ``I + rho H^H H``. The only such matrix left is the accumulator ``z``
    of the local-step reference, ``_local_step_fold``; rates are read off
    factors, and this is the scale of their rounding too."""
    k = blocks[0].shape[1]
    return (k * rho * np.linalg.norm(np.vstack(blocks), 2) ** 2
            * np.finfo(float).eps / np.log(2.0))


def _rates(blocks, rho, np_outputs, passes):
    """IIC rate, RMF rate and the ceiling of one chain."""
    return (chain.run_iic_chain(blocks, rho, np_outputs, passes)
            .report.sum_rate_bits,
            chain.run_rmf(blocks, np_outputs, rho).report.sum_rate_bits,
            capacity.channel_capacity(np.vstack(blocks), rho))


@PROPERTY_SETTINGS
@given(chain_inputs(tall=True), st.data())
def test_factored_blocks_keep_every_rate(inputs, data):
    # factoring rotates each block by a unitary and drops zero rows, so
    # the rates may move by the rounding an exact rotation causes
    blocks, rho, passes, _ = inputs
    mp, k = blocks[0].shape
    np_outputs = data.draw(st.integers(1, mp))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    unitaries = [np.linalg.qr(rng.standard_normal((mp, mp))
                              + 1j * rng.standard_normal((mp, mp)))[0]
                 for _ in blocks]
    factors = [numerics.user_side_factor(h) for h in blocks]
    assert all(r.shape == (k, k) for r in factors)
    raw = _rates(blocks, rho, np_outputs, passes)
    rotated = _rates([u @ h for u, h in zip(unitaries, blocks)], rho,
                     np_outputs, passes)
    factored = _rates(factors, rho, min(np_outputs, k), passes)
    # one rotation's deviation is a noisy sample of the rounding in forming
    # I + rho H^H H, about K rho lambda_max eps per eigenvalue
    rounding = _rounding_bits(blocks, rho)
    for r, u, f in zip(raw, rotated, factored):
        assert abs(f - r) <= max(1e-9, 4.0 * abs(u - r), 4.0 * rounding)


def _local_step_fold(blocks, rho, np_outputs, passes):
    """Filters of a chain folded one ``iic_local_step`` at a time."""
    msg = ChainMessage.initial(blocks[0].shape[1])
    filters = [None] * len(blocks)
    for pass_index in range(passes):
        for i, h in enumerate(blocks):
            if pass_index:
                msg = ChainMessage(msg.z - numerics.projected_gram(
                    filters[i].w, h, rho), msg.hop_index)
            filters[i], _, msg = iic_local_step(h, msg, rho, np_outputs)
    return EqualizerSet(per_panel=tuple(filters))


def _iic_set(filters):
    """The EqualizerSet of a fold's per-panel filters."""
    return EqualizerSet(per_panel=tuple(
        PanelEqualizer(w, EqualizerKind.IIC, True) for w in filters))


# The fold itself, not run_iic_chain: its ceiling check could stop a
# draw on a rank-one rounding defect.
@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda tall: chain_inputs(tall=tall)))
def test_batched_fold_is_a_fold_of_the_local_step(inputs):
    blocks, rho, passes, _ = inputs
    widths = list(range(1, blocks[0].shape[0] + 1))
    tol = max(1e-9, 4.0 * _rounding_bits(blocks, rho))
    for width, filters in zip(widths,
                              chain._iic_fold(blocks, rho, widths, passes)):
        eq = _local_step_fold(blocks, rho, width, passes)
        np.testing.assert_allclose(
            capacity.chain_capacity_trace(blocks, _iic_set(filters), rho),
            capacity.chain_capacity_trace(blocks, eq, rho),
            rtol=0.0, atol=tol)


# The rates-only call and the fold alone, not run_iic_chain, whose rate
# is read off chain_capacity_trace instead.
@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda tall: chain_inputs(tall=tall)),
       st.floats(-8.0, 16.0))
def test_a_rates_only_iic_rate_is_the_rows_rate_of_its_filters(inputs,
                                                                log_rho):
    # as lisim.cli runs them: on the user-side factors, every width short
    # of full, and the rate scored as sum_rate_panelized scores the rows
    blocks, _, passes, _ = inputs
    rho = 10.0 ** log_rho
    mp, k = blocks[0].shape
    factors = [numerics.user_side_factor(h) for h in blocks]
    widths = list(range(1, min(mp, k)))
    cells = [(Algorithm.IIC, width) for width in widths]
    results = chain._chains(blocks, rho, cells, passes, rates_only=True)
    for filters, got in zip(chain._iic_fold(factors, rho, widths, passes),
                            results, strict=True):
        want = capacity.sum_rate_panelized(factors, _iic_set(filters), rho)
        rate = got.report.sum_rate_bits
        assert abs(rate - want) <= max(1e-9, 1e-12 * abs(want))


# The fold itself, not run_iic_chain: its ceiling check could stop a
# draw on a rank-one rounding defect.
@PROPERTY_SETTINGS
@given(st.tuples(st.booleans(), st.booleans()).flatmap(
    lambda flags: chain_inputs(tall=flags[0], colocated=flags[1])),
    st.floats(-8.0, 16.0))
def test_a_trace_entry_is_the_rate_of_its_panels(inputs, log_rho):
    # entry i and sum_rate_panelized of panels 0..i both read the
    # singular values of an R factor of the same kept rows
    blocks, _, passes, _ = inputs
    rho = 10.0 ** log_rho
    widths = list(range(1, blocks[0].shape[0] + 1))
    for filters in chain._iic_fold(blocks, rho, widths, passes):
        eq = _iic_set(filters)
        trace = capacity.chain_capacity_trace(blocks, eq, rho)
        for i, got in enumerate(trace):
            want = capacity.sum_rate_panelized(
                blocks[:i + 1], EqualizerSet(eq.per_panel[:i + 1]), rho)
            assert abs(got - want) <= max(1e-9, 1e-12 * abs(want))


@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda tall: chain_inputs(tall=tall)),
       st.data())
def test_a_cell_does_not_depend_on_its_batch(inputs, data):
    # bit-equal rates alone and in a batch are pinned by
    # test_a_cell_runs_alike_alone_and_with_others
    blocks, rho, passes, _ = inputs
    mp = blocks[0].shape[0]
    widths = data.draw(st.lists(st.integers(1, mp), min_size=1, max_size=4))
    batch = chain._iic_fold(blocks, rho, widths, passes)
    for width, filters in zip(widths, batch):
        (alone,) = chain._iic_fold(blocks, rho, [width], passes)
        for a, b in zip(filters, alone, strict=True):
            np.testing.assert_array_equal(a, b)


# The cell itself, not run_rmf: its ceiling check could stop a draw on
# a rank-one rounding defect.
@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda tall: chain_inputs(tall=tall)),
       st.floats(-8.0, 17.0), st.data())
def test_a_batched_rmf_cell_is_the_one_cell_reference(inputs, log_rho, data):
    # as lisim.cli runs them: on the user-side factors, with np up to the
    # raw Mp; a zero block gives its panel a rank-0 filter
    blocks, _, _, _ = inputs
    rho = 10.0 ** log_rho
    mp = blocks[0].shape[0]
    if data.draw(st.booleans()):
        blocks[data.draw(st.integers(0, len(blocks) - 1))] = np.zeros(
            blocks[0].shape, dtype=complex)
    factors = [numerics.user_side_factor(h) for h in blocks]
    stack = np.stack(factors)
    # rmf_filter's column order, read off the stack as chain._chains does
    order = np.argsort(-np.sum(np.abs(stack) ** 2, axis=1), axis=-1,
                       kind="stable")
    for width in data.draw(st.lists(st.integers(1, mp), min_size=1,
                                    max_size=4)):
        rate = chain._rows_rate(stack, lambda lo, hi: chain._rmf_rows(
            stack[lo:hi], order[lo:hi], width), rho)
        ref = EqualizerSet(per_panel=tuple(rmf_filter(h, width)
                                           for h in factors))
        # both read the rate off the singular values of the same rows
        want = capacity.sum_rate_panelized(factors, ref, rho)
        assert abs(rate - want) <= max(1e-9, 1e-11 * abs(want))


def _outcomes(blocks, rho, cells, passes):
    """The results of one rates-only ``chain._chains`` call, then its
    error, if any."""
    out = []
    try:
        for result in chain._chains(blocks, rho, cells, passes,
                                    rates_only=True):
            out.append(result)
    except NumericalDomainError as exc:
        out.append(str(exc))
    return out


@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda tall: chain_inputs(tall=tall)),
       st.data())
def test_a_cell_runs_alike_alone_and_with_others(inputs, data):
    # as lisim.cli runs them: rates only, on the user-side factors, with
    # np up to the raw Mp, so that np can exceed a factor's rows
    blocks, rho, passes, _ = inputs
    mp = blocks[0].shape[0]
    cells = data.draw(st.lists(
        st.tuples(st.sampled_from(list(Algorithm)), st.integers(1, mp)),
        min_size=1, max_size=5))
    # a run stops at its first failing report (the rank-one ceiling
    # overshoot pinned below), so the call of all cells stops there too
    want = []
    for cell in cells:
        want += _outcomes(blocks, rho, [cell], passes)
        if isinstance(want[-1], str):
            break
    got = _outcomes(blocks, rho, cells, passes)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, str):
            assert a == b
            continue
        # a full-width cell has no equalizers, alone or with others
        assert (a.equalizers is None) == (b.equalizers is None)
        for x, y in zip(a.equalizers or (), b.equalizers or ()):
            np.testing.assert_array_equal(x.w, y.w)
        np.testing.assert_array_equal(a.report.per_panel_cumulative,
                                      b.report.per_panel_cumulative)
        assert a.report.sum_rate_bits == b.report.sum_rate_bits
        assert (a.report.channel_capacity_bits
                == b.report.channel_capacity_bits)
        assert a.traffic == b.traffic
        assert a.passes_executed == b.passes_executed


@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda tall: chain_inputs(tall=tall)),
       st.floats(-8.0, 6.0), st.data())
def test_full_width_cells_are_answered_from_the_ceiling(inputs, log_rho,
                                                        data):
    # as lisim.cli runs a trial: rates only, on the user-side factors,
    # whose row count min(Mp, K) makes an IIC cell full width
    blocks, _, passes, _ = inputs
    rho = 10.0 ** log_rho
    mp, k = blocks[0].shape
    if data.draw(st.booleans()):
        blocks[data.draw(st.integers(0, len(blocks) - 1))] = np.zeros(
            blocks[0].shape, dtype=complex)
    cells = data.draw(st.lists(
        st.tuples(st.sampled_from(list(Algorithm)), st.integers(1, mp)),
        min_size=1, max_size=5))

    def full_width(cell):
        algorithm, np_outputs = cell
        return np_outputs >= (min(mp, k) if algorithm is Algorithm.IIC
                              else k)

    others = iter(chain._chains(
        blocks, rho, [c for c in cells if not full_width(c)], passes,
        rates_only=True))
    tol = max(1e-9, _rounding_bits(blocks, rho))
    for cell, got in zip(cells, chain._chains(blocks, rho, cells, passes,
                                              rates_only=True),
                         strict=True):
        if not full_width(cell):
            # the same bits whether or not full-width cells share the call
            want = next(others)
            assert got.equalizers is None
            assert got.report.sum_rate_bits == want.report.sum_rate_bits
            np.testing.assert_array_equal(got.report.per_panel_cumulative,
                                          want.report.per_panel_cumulative)
            assert got.traffic == want.traffic
            if cell[0] is Algorithm.RMF:
                # rates-only results carry no filters; run_rmf's do
                assert (got.traffic.backplane_scalars_per_use
                        == chain.run_rmf(blocks, cell[1],
                                         rho).equalizers.n_total)
            continue
        algorithm, np_outputs = cell
        report = got.report
        assert report.sum_rate_bits == report.channel_capacity_bits
        assert report.per_panel_cumulative.size == 0
        assert got.equalizers is None
        fold = (chain.run_iic_chain(blocks, rho, np_outputs, passes)
                if algorithm is Algorithm.IIC
                else chain.run_rmf(blocks, np_outputs, rho))
        assert abs(fold.report.sum_rate_bits - report.sum_rate_bits) <= tol
        assert got.traffic == fold.traffic
        assert got.traffic.backplane_scalars_per_use == (
            fold.equalizers.n_total if algorithm is Algorithm.RMF
            else len(blocks) * np_outputs)
        assert got.passes_executed == fold.passes_executed
    assert next(others, None) is None


@PROPERTY_SETTINGS
@given(overflow_inputs(), st.data())
def test_overflow_is_a_lisim_error(inputs, data):
    # near rho = 1e308 a Gram, an accumulator or the ceiling can overflow;
    # a run then fails with the one overflow line of numerics.cholesky,
    # never with numpy's LinAlgError from a later kernel or a NaN rate
    blocks, rho, passes = inputs
    cells = data.draw(st.lists(
        st.tuples(st.sampled_from(list(Algorithm)),
                  st.integers(1, blocks[0].shape[0])),
        min_size=1, max_size=3))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            results = list(chain._chains(blocks, rho, cells, passes))
    except LisimError as exc:
        assert ("not finite" not in str(exc) or str(exc)
                == "log-determinant is not finite: non-finite matrix entries")
        return
    for result in results:
        report = result.report
        assert np.isfinite([report.sum_rate_bits,
                            report.channel_capacity_bits]).all()
        assert np.isfinite(report.per_panel_cumulative).all()


#: Malformed config values: wrong types, bools, out-of-range and
#: non-finite numbers, numpy scalars, stray strings and tuples.
MALFORMED_VALUES = ("1", None, [1], (), 2.5, True, -1, 0, math.nan, math.inf,
                    np.int64(-3), np.float64(math.nan), "small", (1, 1))


@PROPERTY_SETTINGS
@given(st.sampled_from([(cls, f.name) for cls in (ScenarioConfig, SweepSpec)
                        for f in dataclasses.fields(cls)]),
       st.sampled_from(MALFORMED_VALUES))
def test_a_malformed_config_field_is_a_config_error(field, value):
    # a field set through replace is checked as the constructor checks it
    cls, name = field
    try:
        dataclasses.replace(cls(), **{name: value})
    except ConfigError:
        pass


def _one_site_blocks(p, mp, k, scale):
    """Blocks of a channel whose K users all stand at one site (rank 1).

    At this conditioning the rates round differently with the memory
    layout of the blocks, so the layout of the search that found these
    cases is kept: column indexing, then row slices.
    """
    rng = np.random.default_rng(0)
    h = scale * (rng.standard_normal((p * mp, 1))
                 + 1j * rng.standard_normal((p * mp, 1)))
    h = h[:, np.zeros(k, dtype=int)]
    return [h[i * mp:(i + 1) * mp] for i in range(p)]


def test_rank_one_channel_at_high_snr_stays_below_ceiling():
    chain.run_iic_chain(_one_site_blocks(2, 3, 4, 10.0), 1e7, 1)


def test_rank_one_channel_at_high_snr_keeps_rate_over_passes():
    blocks = _one_site_blocks(3, 2, 4, 3.0)
    one, two = (chain.run_iic_chain(blocks, 1e7, 1, passes=q)
                .report.sum_rate_bits for q in (1, 2))
    assert two >= one - _bits_tol(one)

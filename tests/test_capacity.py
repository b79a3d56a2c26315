import numpy as np
import pytest
from scipy.linalg import block_diag

from lisim import capacity, equalizers
from lisim.capacity import CapacityReport
from lisim.equalizers import ChainMessage, EqualizerKind, EqualizerSet
from lisim.errors import NumericalDomainError


def two_determinant_rate(h, w, rho):
    """Independent evaluation via the covariance quotient of the filter
    output, log2 det(rho W^H H H^H W + W^H W) - log2 det(W^H W)."""
    gram = w.conj().T @ w
    signal = rho * (w.conj().T @ h) @ (h.conj().T @ w) + gram
    return (np.linalg.slogdet(signal)[1] - np.linalg.slogdet(gram)[1]) / np.log(2.0)


def raw_set(*mats):
    return EqualizerSet(per_panel=tuple(
        equalizers.PanelEqualizer(np.asarray(m, dtype=complex),
                                  EqualizerKind.RMF, False) for m in mats))


class TestSumRateFull:
    def test_scalar(self):
        assert capacity.sum_rate_full([[1.0]], [[1.0]], 3.0) == pytest.approx(
            2.0, abs=1e-12)  # log2(1 + 3)

    def test_orthogonal_filter_kills_rate(self):
        h = np.array([[1.0], [0.0]])
        w = np.array([[0.0], [1.0]])
        assert capacity.sum_rate_full(h, w, 5.0) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_matches_two_determinant_form(self, crandn):
        for _ in range(20):
            h = crandn(8, 3)
            w = crandn(8, 4)
            got = capacity.sum_rate_full(h, w, 2.0)
            want = two_determinant_rate(h, w, 2.0)
            assert got == pytest.approx(want, rel=1e-8)


class TestChannelCapacity:
    def test_zero_channel(self):
        assert capacity.channel_capacity(np.zeros((3, 2)), 1.0) == 0.0

    def test_scalar(self):
        assert capacity.channel_capacity([[1.0]], 3.0) == pytest.approx(2.0)

    def test_orthonormal_columns(self):
        # unit Gram matrix: capacity is K * log2(1 + rho)
        assert capacity.channel_capacity(np.eye(2), 1.0) == pytest.approx(
            2.0, abs=1e-12)

    # A rank-one channel, H^H H with eigenvalues 8 and 0: the capacity is
    # log2(1 + 8 rho). Forming I + rho H^H H would round the unit
    # eigenvalue away once rho * 8 * eps reaches about 1.
    def test_rank_one_ceiling_at_rho_1e16(self):
        got = capacity.channel_capacity(np.ones((4, 2)), 1e16)
        assert abs(got - np.log2(1.0 + 8e16)) <= 1e-9

    def test_rank_one_ceiling_at_rho_1e17(self):
        got = capacity.channel_capacity(np.ones((4, 2)), 1e17)
        assert abs(got - np.log2(1.0 + 8e17)) <= 1e-9


class TestSumRatePanelized:
    def test_single_block_reduces_to_full(self, crandn):
        h = crandn(4, 3)
        w = crandn(4, 2)
        got = capacity.sum_rate_panelized([h], raw_set(w), 1.5)
        assert got == pytest.approx(capacity.sum_rate_full(h, w, 1.5),
                                    rel=1e-12)

    def test_identity_filters_reach_channel_capacity(self, crandn):
        blocks = [crandn(3, 4), crandn(3, 4)]
        eq = raw_set(np.eye(3), np.eye(3))
        got = capacity.sum_rate_panelized(blocks, eq, 1.0)
        want = capacity.channel_capacity(np.vstack(blocks), 1.0)
        assert got == pytest.approx(want, abs=1e-9)

    def test_matches_dense_block_diagonal(self, crandn):
        blocks = [crandn(4, 3) for _ in range(3)]
        filters = [crandn(4, 2) for _ in range(3)]
        got = capacity.sum_rate_panelized(blocks, raw_set(*filters), 2.0)
        want = capacity.sum_rate_full(np.vstack(blocks), block_diag(*filters),
                                      2.0)
        assert got == pytest.approx(want, abs=1e-9)

    def test_no_panels_give_zero_bits(self):
        # log2 det I, as chain_capacity_trace gives an empty trace; rho is
        # still checked first
        assert capacity.sum_rate_panelized([], raw_set(), 1.0) == 0.0
        with pytest.raises(NumericalDomainError, match="rho"):
            capacity.sum_rate_panelized([], raw_set(), -1.0)

    def test_filter_count_mismatch(self, crandn):
        with pytest.raises(ValueError):
            capacity.sum_rate_panelized([crandn(2, 2)], raw_set(np.eye(2),
                                                                np.eye(2)), 1.0)

    def test_rejects_non_finite_block(self, crandn):
        h = crandn(3, 2)
        h[2, 0] = np.nan
        with pytest.raises(NumericalDomainError, match="non-finite"):
            capacity.sum_rate_panelized([h], raw_set(np.eye(3)), 1.0)

    @pytest.mark.parametrize("semi_unitary", [False, True])
    def test_rejects_non_finite_filter(self, crandn, semi_unitary):
        w = np.eye(3, 2, dtype=complex)
        w[0, 1] = np.nan
        eq = EqualizerSet(per_panel=(equalizers.PanelEqualizer(
            w, EqualizerKind.IIC, semi_unitary),))
        with pytest.raises(NumericalDomainError, match="filter"):
            capacity.sum_rate_panelized([crandn(3, 2)], eq, 1.0)

    def test_rejects_filter_falsely_flagged_semi_unitary(self):
        # taken as it is, 2 * eye(3, 2) gives 4.64 bits against a 2-bit ceiling
        h = np.eye(3, 2)
        w = 2 * np.eye(3, 2)
        flagged = EqualizerSet((equalizers.PanelEqualizer(
            w, EqualizerKind.IIC, True),))
        with pytest.raises(NumericalDomainError, match="semi-unitary"):
            capacity.sum_rate_panelized([h], flagged, 1.0)
        assert capacity.sum_rate_panelized([h], raw_set(w), 1.0) == (
            pytest.approx(capacity.channel_capacity(h, 1.0), abs=1e-12))


@pytest.mark.parametrize("name", ["sum_rate_full", "sum_rate_panelized",
                                  "chain_capacity_trace"])
def test_rejects_antenna_count_mismatch(crandn, name):
    h, w = crandn(3, 2), np.eye(4, 2)
    args = (h, w) if name == "sum_rate_full" else ([h], raw_set(w))
    with pytest.raises(ValueError, match="antenna"):
        getattr(capacity, name)(*args, 1.0)


class TestChainCapacityTrace:
    def test_zero_blocks_zero_trace(self):
        for p in (0, 2):
            blocks = [np.zeros((2, 3))] * p
            trace = capacity.chain_capacity_trace(
                blocks, raw_set(*[np.eye(2)] * p), 1.0)
            np.testing.assert_allclose(trace, np.zeros(p), atol=1e-12)

    def test_single_block(self, crandn):
        h = crandn(4, 2)
        w = crandn(4, 2)
        trace = capacity.chain_capacity_trace([h], raw_set(w), 1.0)
        assert trace.shape == (1,)
        assert trace[0] == pytest.approx(capacity.sum_rate_full(h, w, 1.0),
                                         rel=1e-12)

    def test_increments_match_local_steps(self, crandn):
        blocks = [crandn(4, 3) for _ in range(3)]
        msg = ChainMessage.initial(3)
        filters, deltas = [], []
        for h in blocks:
            eq, delta, msg = equalizers.iic_local_step(h, msg, 1.3, 2)
            filters.append(eq)
            deltas.append(delta)
        eq_set = EqualizerSet(per_panel=tuple(filters))
        trace = capacity.chain_capacity_trace(blocks, eq_set, 1.3)
        increments = np.diff(np.concatenate([[0.0], trace]))
        np.testing.assert_allclose(increments, deltas, atol=1e-8)
        assert trace[-1] == pytest.approx(
            capacity.sum_rate_panelized(blocks, eq_set, 1.3), abs=1e-9)


class TestNonFiniteRates:
    """A finite rho whose gains overflow raises, not a NaN or inf rate."""

    H = 2 * np.eye(3, 2, dtype=complex)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("name", ["channel_capacity", "sum_rate_full",
                                      "sum_rate_panelized",
                                      "chain_capacity_trace"])
    def test_overflow_raises(self, name):
        h = self.H
        args = {"channel_capacity": (h,), "sum_rate_full": (h, h),
                "sum_rate_panelized": ([h, h], raw_set(h, h)),
                "chain_capacity_trace": ([h], raw_set(h))}[name]
        with pytest.raises(NumericalDomainError, match="not finite"):
            getattr(capacity, name)(*args, 1e308)


class TestInvariants:
    def test_data_processing_bound(self, crandn):
        for _ in range(30):
            h = crandn(6, 3)
            w = crandn(6, 2)
            rate = capacity.sum_rate_full(h, w, 1.0)
            ceiling = capacity.channel_capacity(h, 1.0)
            assert rate <= ceiling + 1e-9

    def test_unitary_filter_rotation_is_invisible(self, crandn):
        blocks = [crandn(4, 3) for _ in range(2)]
        filters = [crandn(4, 2) for _ in range(2)]
        base = capacity.sum_rate_panelized(blocks, raw_set(*filters), 1.0)
        u, _ = np.linalg.qr(crandn(2, 2))
        rotated = [filters[0] @ u, filters[1]]
        got = capacity.sum_rate_panelized(blocks, raw_set(*rotated), 1.0)
        assert got == pytest.approx(base, abs=1e-9)

    def test_monotone_in_output_count_single_panel(self, crandn):
        h = crandn(6, 4)
        rates = []
        for n in range(1, 7):
            eq, _, _ = equalizers.iic_local_step(h, ChainMessage.initial(4),
                                                 1.0, n)
            rates.append(capacity.sum_rate_panelized([h],
                                                     EqualizerSet((eq,)), 1.0))
        assert np.all(np.diff(rates) >= -1e-9)


class TestCapacityReport:
    def test_valid_report_passes(self):
        CapacityReport(sum_rate_bits=1.0,
                       per_panel_cumulative=np.array([0.4, 1.0]),
                       channel_capacity_bits=2.0).validate()

    def test_rejects_rate_above_ceiling(self):
        report = CapacityReport(sum_rate_bits=2.1,
                                per_panel_cumulative=np.zeros(0),
                                channel_capacity_bits=2.0)
        with pytest.raises(NumericalDomainError):
            report.validate()

    def test_rejects_decreasing_trace(self):
        report = CapacityReport(sum_rate_bits=1.0,
                                per_panel_cumulative=np.array([1.0, 0.5]),
                                channel_capacity_bits=2.0)
        with pytest.raises(NumericalDomainError):
            report.validate()

import math

import numpy as np
import pytest

from lisim import equalizers, numerics
from lisim.equalizers import ChainMessage, EqualizerKind
from lisim.errors import NumericalDomainError


def semi_unitary_error(w):
    return np.max(np.abs(w.conj().T @ w - np.eye(w.shape[1])))


def span_projector(eq):
    """Orthogonal projector onto the column space of a panel filter."""
    q = eq.orthonormal_columns()
    return q @ q.conj().T


class TestRmfFilter:
    def test_orders_by_column_strength(self):
        h = np.array([[2.0, 1.0, 3.0]])  # squared norms 4, 1, 9
        eq = equalizers.rmf_filter(h, 2)
        np.testing.assert_array_equal(eq.w, h[:, [2, 0]])
        assert eq.kind is EqualizerKind.RMF
        assert not eq.semi_unitary

    def test_full_selection_sorted(self):
        h = np.array([[2.0, 1.0, 3.0]])
        eq = equalizers.rmf_filter(h, 3)
        np.testing.assert_array_equal(eq.w, h[:, [2, 0, 1]])

    def test_more_outputs_than_users_caps_width(self):
        h = np.array([[2.0, 1.0, 3.0]])
        eq = equalizers.rmf_filter(h, 5)
        assert eq.n_cols == 3  # duplicated columns would add no rank

    def test_tie_break_ascending_user_index(self):
        h = np.array([[1.0, -1.0, 1.0]])
        eq = equalizers.rmf_filter(h, 2)
        np.testing.assert_array_equal(eq.w, h[:, [0, 1]])

    def test_selection_invariant_under_scaling(self, crandn):
        h = crandn(4, 6)
        base = equalizers.rmf_filter(h, 3)
        scaled = equalizers.rmf_filter(2.5 * h, 3)
        np.testing.assert_allclose(scaled.w, 2.5 * base.w, rtol=1e-12)

    def test_rejects_zero_outputs(self):
        with pytest.raises(ValueError):
            equalizers.rmf_filter(np.eye(2), 0)


class TestSinglePanelFilter:
    def test_unit_column(self):
        eq = equalizers.single_panel_filter(np.array([[1.0], [0.0]]), 1)
        assert eq.semi_unitary
        np.testing.assert_allclose(np.abs(eq.w[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_full_width_projects_onto_column_space(self, crandn):
        h = crandn(5, 3)
        eq = equalizers.single_panel_filter(h, 5)
        assert eq.n_cols == 3  # rank of a generic 5x3 block
        q = numerics.orthonormal_range(h)
        np.testing.assert_allclose(span_projector(eq), q @ q.conj().T,
                                   atol=1e-9)

    def test_zero_block_canonical_fallback(self):
        # no canonical fallback: a rank-0 block gets no outputs, as in IIC
        eq = equalizers.single_panel_filter(np.zeros((4, 3)), 2)
        assert eq.w.shape == (4, 0)

    def test_rejects_too_many_outputs(self):
        with pytest.raises(ValueError):
            equalizers.single_panel_filter(np.eye(2), 3)

    def test_rejects_non_finite_block(self):
        with pytest.raises(NumericalDomainError):
            equalizers.single_panel_filter(np.array([[np.nan, 0.0]]), 1)


class TestIicLocalStep:
    def test_scalar_unit_chain(self):
        h = np.array([[1.0], [0.0]])
        eq, delta, msg = equalizers.iic_local_step(
            h, ChainMessage.initial(1), rho=1.0, np_outputs=1)
        np.testing.assert_allclose(np.abs(eq.w[:, 0]), [1.0, 0.0], atol=1e-12)
        assert delta == pytest.approx(1.0, abs=1e-12)  # log2(1 + 1)
        np.testing.assert_allclose(msg.z, [[2.0]], atol=1e-12)
        assert msg.hop_index == 1

    def test_scalar_chain_accumulates(self):
        h = np.array([[1.0], [0.0]])
        eq, delta, msg = equalizers.iic_local_step(
            h, ChainMessage(np.array([[2.0 + 0.0j]]), 1), 1.0, 1)
        assert delta == pytest.approx(math.log2(1.5), abs=1e-12)
        np.testing.assert_allclose(msg.z, [[3.0]], atol=1e-12)
        # telescoping: log2(2) + log2(1.5) = log2(3)
        assert 1.0 + delta == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_zero_block_is_a_no_op(self):
        z0 = np.array([[1.4 + 0.0j, 0.2], [0.2, 2.0]])
        eq, delta, msg = equalizers.iic_local_step(
            np.zeros((3, 2)), ChainMessage(z0, 0), 1.0, 2)
        assert eq.w.shape == (3, 0)  # nothing to capture, nothing built
        assert delta == 0.0
        np.testing.assert_array_equal(msg.z, z0)

    def test_rejects_indefinite_accumulator(self):
        with pytest.raises(NumericalDomainError):
            equalizers.iic_local_step(np.eye(2), ChainMessage(-np.eye(2), 0),
                                      1.0, 1)

    def test_rejects_non_hermitian_accumulator(self):
        z = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(NumericalDomainError, match="not Hermitian"):
            equalizers.iic_local_step(np.eye(2), ChainMessage(z, 0), 1.0, 1)

    def test_rejects_non_square_accumulator(self):
        with pytest.raises(ValueError, match="square"):
            equalizers.iic_local_step(np.eye(2),
                                      ChainMessage(np.zeros((2, 3)), 0), 1.0, 1)

    def test_rejects_non_finite_accumulator(self):
        z = np.eye(2, dtype=complex)
        z[0, 1] = z[1, 0] = np.nan
        with pytest.raises(NumericalDomainError, match="non-finite"):
            equalizers.iic_local_step(np.eye(2), ChainMessage(z, 0), 1.0, 1)

    def test_semi_unitary_on_random_instances(self, crandn):
        for _ in range(25):
            h = crandn(6, 4)
            g = crandn(3, 4)
            z = np.eye(4) + g.conj().T @ g
            z = 0.5 * (z + z.conj().T)
            eq, delta, msg = equalizers.iic_local_step(
                h, ChainMessage(z, 0), rho=1.7, np_outputs=3)
            assert eq.semi_unitary
            assert semi_unitary_error(eq.w) <= 1e-9
            assert delta >= 0.0
            assert np.max(np.abs(msg.z - msg.z.conj().T)) <= 1e-10
            s = span_projector(eq)
            assert np.max(np.abs(s @ s - s)) <= 1e-9
            assert np.trace(s).real == pytest.approx(eq.n_cols, abs=1e-9)

    def test_padding_adds_no_capacity(self, crandn):
        # rank-2 block asked for 4 outputs: the filter stops at the rank,
        # so the step is the one asked for exactly 2
        h = crandn(5, 2)
        msg0 = ChainMessage.initial(2)
        eq_wide, delta_wide, msg_wide = equalizers.iic_local_step(h, msg0,
                                                                  1.0, 4)
        eq_slim, delta_slim, msg_slim = equalizers.iic_local_step(h, msg0,
                                                                  1.0, 2)
        assert eq_wide.n_cols == 2
        np.testing.assert_array_equal(eq_wide.w, eq_slim.w)
        assert delta_wide == delta_slim
        np.testing.assert_array_equal(msg_wide.z, msg_slim.z)

    def test_local_optimality_against_sampling(self, rng, crandn):
        # width-1 step against 2000 random unit-vector candidates
        for _ in range(10):
            h = crandn(2, 2)
            g = crandn(2, 2)
            z = np.eye(2) + g.conj().T @ g
            z = 0.5 * (z + z.conj().T)
            msg = ChainMessage(z, 0)
            _, delta, _ = equalizers.iic_local_step(h, msg, 1.0, 1)

            values, basis = numerics.hermitian_eig(z)
            h_hat = h @ (basis * values**-0.5)
            gram = h_hat @ h_hat.conj().T
            cand = crandn(2, 2000)
            cand /= np.linalg.norm(cand, axis=0)
            gains = np.real(np.sum(cand.conj() * (gram @ cand), axis=0))
            best = float(np.log2(1.0 + gains.max()))
            assert delta >= best - 1e-9


class TestPanelEqualizer:
    @pytest.mark.parametrize("semi_unitary", [False, True])
    def test_orthonormal_columns_rejects_non_finite_filter(self,
                                                           semi_unitary):
        # checked where the filter enters, not deep inside the SVD
        w = np.eye(3, 2, dtype=complex)
        w[0, 1] = np.nan
        pe = equalizers.PanelEqualizer(w, EqualizerKind.RMF, semi_unitary)
        with pytest.raises(NumericalDomainError, match="filter"):
            pe.orthonormal_columns()

    @pytest.mark.parametrize("mp, k", [(16, 20), (6, 3), (4, 4)])
    def test_subspace_filters_pass_the_semi_unitary_check(self, crandn, mp,
                                                          k):
        h = crandn(mp, k)
        low_rank = np.outer(crandn(mp), crandn(k))
        z = ChainMessage(np.eye(k) + 1e3 * (h.conj().T @ h))
        filters = [equalizers.single_panel_filter(h, mp),
                   equalizers.single_panel_filter(low_rank, mp),
                   equalizers.single_panel_filter(np.zeros((mp, k)), 1),
                   equalizers.iic_local_step(h, z, 1e3, mp)[0],
                   equalizers.iic_local_step(low_rank, z, 1.0, 2)[0]]
        for pe in filters:
            assert pe.semi_unitary
            assert pe.orthonormal_columns() is pe.w


@pytest.mark.parametrize("n", [0, 1.5, True])
@pytest.mark.parametrize("build", [
    equalizers.rmf_filter,
    equalizers.single_panel_filter,
    lambda h, n: equalizers.iic_local_step(h, ChainMessage.initial(2), 1.0, n),
], ids=["rmf_filter", "single_panel_filter", "iic_local_step"])
def test_rejects_bad_output_count(build, n):
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        build(np.eye(2), n)

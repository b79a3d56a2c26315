import math

import numpy as np
import pytest

from lisim import numerics
from lisim.errors import NumericalDomainError


def reconstruction_error(a, b):
    denom = np.linalg.norm(a) or 1.0
    return np.linalg.norm(a - b) / denom


class TestHermitianEig:
    def test_identity(self):
        values, basis = numerics.hermitian_eig(np.eye(2))
        np.testing.assert_allclose(values, [1.0, 1.0])
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2),
                                   atol=1e-12)

    def test_diagonal(self):
        values, basis = numerics.hermitian_eig(np.diag([4.0, 2.0]))
        np.testing.assert_allclose(values, [4.0, 2.0])
        # eigenvectors of a diagonal matrix are canonical columns up to phase
        np.testing.assert_allclose(np.abs(basis), np.eye(2), atol=1e-12)

    def test_symmetric_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        # closed-form roots of the characteristic polynomial
        tr, det = 4.0, 3.0
        disc = math.sqrt(tr * tr - 4.0 * det)
        expected = [(tr + disc) / 2.0, (tr - disc) / 2.0]
        values, _ = numerics.hermitian_eig(a)
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_random_reconstruction(self, crandn):
        for _ in range(100):
            g = crandn(8, 8)
            a = g + g.conj().T
            values, basis = numerics.hermitian_eig(a)
            assert np.all(np.diff(values) <= 0)
            assert values.flags.c_contiguous and basis.flags.c_contiguous
            ortho = basis.conj().T @ basis - np.eye(8)
            assert np.max(np.abs(ortho)) <= 1e-10
            rebuilt = (basis * values) @ basis.conj().T
            assert reconstruction_error(a, rebuilt) <= 1e-9


class TestCheckHermitian:
    """The tolerance is relative to the largest entry of the matrix."""

    @staticmethod
    def _hermitian(crandn, scale):
        g = crandn(6, 6)
        a = g + g.conj().T
        return a * (scale / np.max(np.abs(a)))

    def test_accepts_rounding_asymmetry_at_large_norm(self, crandn):
        a = self._hermitian(crandn, 1e12)
        a[0, 1] += 1e-15 * 1e12
        assert np.max(np.abs(a - a.conj().T)) > 0.0
        numerics.check_hermitian(a)

    def test_rejects_relative_asymmetry_at_small_norm(self, crandn):
        a = self._hermitian(crandn, 1e-12)
        a[0, 1] += 1e-3 * 1e-12
        with pytest.raises(NumericalDomainError):
            numerics.check_hermitian(a)


class TestSvd:
    def test_zero_matrix(self):
        _, s, _ = numerics.svd(np.zeros((2, 2)))
        np.testing.assert_allclose(s, [0.0, 0.0])

    def test_diagonal(self):
        _, s, _ = numerics.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_unit_column(self):
        u, s, _ = numerics.svd(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(s, [1.0])
        np.testing.assert_allclose(np.abs(u[:, 0]), [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 3), (3, 8)])
    def test_random_reconstruction(self, crandn, shape):
        for _ in range(100):
            a = crandn(*shape)
            u, s, vh = numerics.svd(a)
            np.testing.assert_allclose((u * s) @ vh, a, atol=1e-12)
            assert np.all(s >= 0)
            assert np.all(np.diff(s) <= 0)
            assert u.shape == (shape[0], min(shape))
            ortho = u.conj().T @ u - np.eye(u.shape[1])
            assert np.max(np.abs(ortho)) <= 1e-10
            # A A^H = U diag(s^2) U^H holds for the left factor alone
            rebuilt = (u * s**2) @ u.conj().T
            assert reconstruction_error(a @ a.conj().T, rebuilt) <= 1e-9


class TestLogdet2Hpd:
    def test_identity(self):
        assert numerics.logdet2_hpd(np.eye(5)) == pytest.approx(0.0)

    def test_diagonal(self):
        assert numerics.logdet2_hpd(np.diag([4.0, 2.0])) == pytest.approx(3.0)

    def test_symmetric_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        det = 2.0 * 2.0 - 1.0 * 1.0  # cofactor expansion
        assert numerics.logdet2_hpd(a) == pytest.approx(math.log2(det),
                                                        rel=1e-12)

    def test_matches_eigenvalue_sum(self, crandn):
        for _ in range(50):
            g = crandn(6, 6)
            a = g.conj().T @ g + np.eye(6)
            a = 0.5 * (a + a.conj().T)
            expected = np.sum(np.log2(np.linalg.eigvalsh(a)))
            assert numerics.logdet2_hpd(a) == pytest.approx(expected,
                                                            abs=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalDomainError):
            numerics.logdet2_hpd(np.diag([1.0, -1.0]))

    def test_failed_cholesky_of_non_finite_entries(self):
        # an overflowing Gram can make the Cholesky fail, not return NaN
        with pytest.raises(NumericalDomainError, match="not finite"):
            numerics.logdet2_hpd(np.diag([1.0, -np.inf]))


class TestLogdet2EyePlusGram:
    @pytest.mark.parametrize("shape", [(6, 3), (4, 4), (3, 6)],
                             ids=["tall", "square", "wide"])
    @pytest.mark.parametrize("rho", [1e-3, 1.0, 1e3])
    def test_matches_slogdet(self, crandn, shape, rho):
        for _ in range(20):
            a = crandn(*shape)
            _, logdet = np.linalg.slogdet(np.eye(shape[1])
                                          + rho * (a.conj().T @ a))
            want = logdet / math.log(2.0)
            got = numerics.logdet2_eye_plus_gram(a, rho)
            assert abs(got - want) <= 1e-12 * want

    def test_no_rows_is_zero(self):
        assert numerics.logdet2_eye_plus_gram(
            np.zeros((0, 3), dtype=complex), 1.0) == 0.0

    def test_rank_one_closed_form_at_high_snr(self, crandn):
        # h 1^T has one nonzero singular value, sqrt(K) ||h||; forming
        # I + rho A^H A would round the other K - 1 unit eigenvalues away
        h = crandn(5)
        rho = 1e16
        got = numerics.logdet2_eye_plus_gram(np.outer(h, np.ones(4)), rho)
        want = math.log2(1.0 + rho * 4 * np.linalg.norm(h) ** 2)
        assert abs(got - want) <= 1e-12 * want

    def test_overflowing_gain_raises(self):
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalDomainError, match="not finite"):
                numerics.logdet2_eye_plus_gram(1e200 * np.eye(2), 1e10)


class TestCholesky:
    @pytest.mark.parametrize("bad", [
        np.diag([np.inf, 1.0]),
        np.full((2, 2), np.nan),
        np.stack([np.eye(2), np.diag([np.inf, 1.0])]),
        np.stack([np.full((2, 2), np.nan), np.eye(2)]),
    ], ids=["inf", "nan", "stack-inf", "stack-nan"])
    def test_rejects_non_finite_entries(self, bad):
        # tested before LAPACK, which would return a factor for each of these
        with pytest.raises(NumericalDomainError, match="^log-determinant is "
                           "not finite: non-finite matrix entries$"):
            numerics.cholesky(bad)


class TestOrthonormalRange:
    def test_rank_one_span(self):
        q = numerics.orthonormal_range(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert q.shape == (2, 1)
        np.testing.assert_allclose(np.abs(q[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_identity_full_rank(self):
        q = numerics.orthonormal_range(np.eye(3))
        assert q.shape == (3, 3)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)

    def test_duplicated_column(self):
        col = np.array([1.0, 1.0]) / math.sqrt(2.0)
        a = np.column_stack([col, col])
        # rank-1 outer product: singular values are (sqrt(2), 0)
        _, sing, _ = numerics.svd(a)
        assert sing[0] == pytest.approx(math.sqrt(2.0))
        assert sing[1] == pytest.approx(0.0, abs=1e-12)
        assert numerics.orthonormal_range(a).shape == (2, 1)

    def test_zero_matrix_empty_basis(self):
        assert numerics.orthonormal_range(np.zeros((3, 2))).shape == (3, 0)

    @pytest.mark.parametrize("n, width", [(1, 1), (2, 2), (3, 2), (None, 2)],
                             ids=["below", "at", "above", "none"])
    def test_width_is_min_of_n_and_rank(self, crandn, n, width):
        a = crandn(5, 2) @ crandn(2, 4)  # rank 2
        q = numerics.orthonormal_range(a, n)
        assert q.shape == (5, width)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(width), atol=1e-12)
        # the leading columns of the full basis: the dominant directions
        full = numerics.orthonormal_range(a)
        np.testing.assert_array_equal(q, full[:, :width])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_matrix_has_no_columns_for_any_n(self, n):
        # a zero matrix has rank 0, whatever n asks for
        assert numerics.orthonormal_range(np.zeros((3, 2)), n).shape == (3, 0)

    def test_projector_idempotent(self, crandn):
        for _ in range(30):
            a = crandn(6, 3) @ crandn(3, 5)  # rank-deficient on purpose
            q = numerics.orthonormal_range(a)
            p = q @ q.conj().T
            assert np.max(np.abs(p @ p - p)) <= 1e-9


class TestAsMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.inf)])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(NumericalDomainError):
            numerics._as_matrix(a)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ValueError):
            numerics._as_matrix(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_accepts_empty(self, shape):
        assert numerics._as_matrix(np.zeros(shape, dtype=complex)).shape == shape

    def test_complex_array_passes_through(self, crandn):
        a = crandn(3, 2)
        assert numerics._as_matrix(a) is a

    @pytest.mark.parametrize("a", [[[1, 2], [3, 4]],
                                   np.arange(6.0).reshape(2, 3)])
    def test_converts_list_and_real_input(self, a):
        out = numerics._as_matrix(a)
        assert type(out) is np.ndarray and out.dtype == np.complex128
        np.testing.assert_array_equal(out, np.asarray(a))


class TestGrownFactor:
    @pytest.mark.parametrize("rows, k, extra", [(0, 4, 6), (4, 4, 2),
                                                (4, 4, 0), (3, 5, 1)])
    def test_gram_is_the_sum_of_the_grams(self, crandn, rows, k, extra):
        r = np.triu(crandn(rows, k))
        t = crandn(extra, k)
        grown = numerics.grown_factor(r, t)
        assert grown.shape == (min(rows + extra, k), k)
        assert np.all(np.tril(grown, -1) == 0.0)
        gram = r.conj().T @ r + t.conj().T @ t
        assert reconstruction_error(gram, grown.conj().T @ grown) <= 1e-13

    def test_a_stack_gives_each_matrix_its_bits_alone(self, crandn):
        r = np.stack([np.triu(crandn(5, 5)) for _ in range(3)])
        t = np.stack([crandn(7, 5) for _ in range(3)])
        stacked = numerics.grown_factor(r, t)
        for c in range(3):
            np.testing.assert_array_equal(
                stacked[c], numerics.grown_factor(r[c], t[c]))

    @pytest.mark.parametrize("r_shape, t_shape", [
        ((0, 4), (6, 4)), ((0, 5), (2, 5)), ((3, 5), (1, 5)),
        ((2, 4, 4), (2, 7, 4)), ((3, 0, 4), (3, 6, 4)),
        ((3, 2, 6), (3, 1, 6))])
    def test_is_the_triangle_of_a_plain_qr(self, crandn, r_shape, t_shape):
        # 0-row r, wide results (fewer rows than columns) and stacks
        r, t = crandn(*r_shape), crandn(*t_shape)
        grown = numerics.grown_factor(r, t)
        want = np.linalg.qr(np.concatenate([r, t], axis=-2), mode="r")
        np.testing.assert_array_equal(grown, want)
        assert grown.tobytes() == want.tobytes()


class TestFullRank:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_clears_only_full_numerical_rank(self, crandn, n):
        # 16-row panels with graded columns: condition numbers 1e4 to 1e14,
        # and gradings that put 16-column panels, as an RMF filter of 16
        # users at spread distances, at kappa near 5e5
        conds = np.concatenate([np.repeat(10.0 ** np.arange(4, 15), 4),
                                np.geomspace(3e4, 1e5, 24)])
        sel = np.stack([crandn(16, n) * np.logspace(0, -np.log10(c), n)
                        for c in conds])
        _, r = np.linalg.qr(sel)
        cleared = numerics.full_rank(r)
        s = np.linalg.svd(sel, compute_uv=False)
        kappa = s[:, 0] / s[:, -1]
        assert np.all(numerics.numerical_rank(s)[cleared] == n)
        # near the cutoff, the SVD decides
        assert not cleared[kappa >= 1e-3 / numerics.RANK_TOL].any()
        # and the bound n kappa below the margin certainly clears
        assert cleared[kappa * n < 1e-3 / numerics.RANK_TOL].all()
        if n == 16:
            assert ((kappa > 3e5) & (kappa < 6e5)).sum() >= 5

    def test_zero_and_singular_triangles_fail_quietly(self, crandn):
        r = np.triu(crandn(4, 3, 3))
        r[0] = 0.0
        r[1, 2, 2] = 0.0
        r[2, 1, 1] = 1e-300
        np.testing.assert_array_equal(numerics.full_rank(r),
                                      [False, False, False, True])
        # past the diagonal screen, an inverse with entries near 1e174,
        # whose squares overflow
        r = np.eye(30) * 1e-6 - np.triu(np.ones((30, 30)), 1)
        np.testing.assert_array_equal(
            numerics.full_rank(np.stack([r, np.eye(30)])), [False, True])


class TestUserSideFactor:
    @pytest.mark.parametrize("shape", [(5, 4), (12, 3), (400, 20),
                                       (1100, 20)])
    def test_tall_block_gives_triangle_with_same_gram(self, crandn, shape):
        h = crandn(*shape)
        r = numerics.user_side_factor(h)
        k = shape[1]
        assert r.shape == (k, k)
        assert np.all(np.tril(r, -1) == 0.0)
        gram = h.conj().T @ h
        assert reconstruction_error(gram, r.conj().T @ r) <= 1e-13

    def test_rank_deficient_tall_block(self, crandn):
        h = crandn(9, 2) @ crandn(2, 4)
        r = numerics.user_side_factor(h)
        assert r.shape == (4, 4)
        gram = h.conj().T @ h
        assert reconstruction_error(gram, r.conj().T @ r) <= 1e-13

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (1, 20)])
    def test_short_block_is_returned_as_is(self, crandn, shape):
        h = crandn(*shape)
        assert numerics.user_side_factor(h) is h

"""Dense complex-matrix kernels used by every other module.

Thin wrappers around LAPACK (via numpy): Hermitian eigendecomposition,
SVD, base-2 log-determinants of Hermitian positive-definite matrices
(``log2 det(I + X)`` among them), orthonormal range bases, the projected
Gram ``rho (Q^H H)^H (Q^H H)`` that every captured covariance is made of,
and the K x K user-side factor of a tall channel block. All functions are
pure and safe to call from concurrent workers. The kernels state their
preconditions and check none: each input is checked once, by the public
function it enters. Channel blocks and filters go through ``_as_matrix``
(2-D, finite) in the ``chain``, ``equalizers`` and ``capacity`` functions
that take them, every function that takes ``rho`` rejects a non-finite
one, and ``iic_local_step`` also checks its accumulator for hermiticity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError

#: Max entry of ``|A - A^H|`` in Hermitian checks, relative to ``max |A|``.
TOL_HERMITIAN = 1e-10

#: Relative cutoff (vs. the largest singular value) for rank decisions.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class EigDecomp:
    """Eigendecomposition of a Hermitian matrix.

    ``basis`` is unitary with eigenvectors as columns, ``values`` is real
    and sorted descending, and ``basis @ diag(values) @ basis.conj().T``
    reconstructs the input.
    """

    basis: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SvdDecomp:
    """Left factor of a thin SVD ``A = left @ diag(singulars) @ V^H``.

    ``left`` is semi-unitary; ``singulars`` is real, nonnegative and
    sorted descending. ``V`` is not kept: nothing reads it.
    """

    left: np.ndarray
    singulars: np.ndarray

    def rank(self) -> int:
        """Number of singular values above ``RANK_TOL`` times the largest."""
        if self.singulars.size == 0 or self.singulars[0] <= 0.0:
            return 0
        return int(np.count_nonzero(self.singulars > RANK_TOL * self.singulars[0]))


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    # a complex128 ndarray is already what np.asarray would return
    if type(a) is not np.ndarray or a.dtype != np.complex128:
        a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalDomainError(f"{name} contains non-finite entries")
    return a


def check_hermitian(a: np.ndarray) -> None:
    """Raise unless ``max |A - A^H| <= TOL_HERMITIAN * max |A|``.

    The bound scales with ``A``, so rounding passes at any magnitude, and
    an empty ``A`` passes. This is the only Hermitian guard, applied to
    the chain accumulator where it enters ``iic_local_step``: no producer
    symmetrizes its result.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    deviation = float(np.abs(a - a.conj().T).max(initial=0.0))
    if deviation > TOL_HERMITIAN * float(np.abs(a).max(initial=0.0)):
        raise NumericalDomainError(
            f"matrix is not Hermitian (max entry deviation {deviation:.3e})"
        )


def hermitian_eig(a) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    ``a`` must be a finite square ndarray, Hermitian as
    ``check_hermitian`` defines it; only its lower triangle is read.
    """
    values, basis = np.linalg.eigh(a)
    # eigh returns ascending order; flip to descending
    return EigDecomp(basis=np.ascontiguousarray(basis[:, ::-1]),
                     values=np.ascontiguousarray(values[::-1]))


def svd(a) -> SvdDecomp:
    """Thin singular value decomposition of a finite 2-D ndarray."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return SvdDecomp(left=u, singulars=s)


def logdet2_hpd(a) -> float:
    """Base-2 log-determinant of a Hermitian positive-definite matrix.

    ``a`` must be a finite square ndarray, Hermitian as
    ``check_hermitian`` defines it; only its lower triangle is read. Uses
    a Cholesky factorization, so the determinant itself is never formed
    and the result is safe for very large or very small determinants.

    Raises
    ------
    NumericalDomainError
        If the input is not positive definite.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"matrix is not positive definite: {exc}") from exc
    return float(2.0 * np.log2(chol.diagonal().real).sum())


def logdet2_eye_plus(x: np.ndarray) -> float:
    """``log2 det(I + X)`` of a Hermitian positive-semidefinite K x K ``x``.

    ``I + X`` goes to ``logdet2_hpd`` as it is, under its precondition.
    """
    return logdet2_hpd(np.eye(x.shape[0]) + x)


def projected_gram(q: np.ndarray, h: np.ndarray, rho: float) -> np.ndarray:
    """Captured covariance ``rho (Q^H H)^H (Q^H H)``, K x K.

    With ``q`` semi-unitary this is ``rho H^H P H`` for the orthogonal
    projector ``P`` onto the column space of ``q``.
    """
    t = q.conj().T @ h
    return rho * (t.conj().T @ t)


def user_side_factor(h: np.ndarray) -> np.ndarray:
    """K x K triangle ``R`` with ``R^H R = H^H H`` of a tall Mp x K block.

    For Mp > K this is the ``R`` of a QR factorization, ``H = Q R``: the
    block rotated by the unitary ``Q^H`` with its zero rows dropped. Every
    rate and every chain accumulator depends on a block only through
    ``H^H H``, so a run on ``R`` gives the rates of a run on ``H`` while
    its kernels see K rows instead of Mp. A block with Mp <= K is returned
    as it is.
    """
    if h.shape[0] <= h.shape[1]:
        return h
    return np.linalg.qr(h, mode="r")


def orthonormal_range(a) -> np.ndarray:
    """Orthonormal basis of the column space of a finite 2-D ndarray ``a``.

    Returns the semi-unitary m x r matrix of the left singular vectors
    whose singular value exceeds ``RANK_TOL`` times the largest one, so
    r is the numerical rank; a zero (or empty) input yields r = 0.
    """
    dec = svd(a)
    return dec.left[:, : dec.rank()]

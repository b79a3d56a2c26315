"""Dense complex-matrix kernels used by every other module.

Thin wrappers around LAPACK (via numpy): Hermitian eigendecomposition,
SVD, base-2 log-determinants of Hermitian positive-definite matrices
(``log2 det(I + X)`` among them), orthonormal range bases, the projected
Gram ``rho (Q^H H)^H (Q^H H)`` that every captured covariance is made of,
and the K x K user-side factor of a tall channel block. They return plain
arrays, and ``orthonormal_range`` holds the one rank rule. All functions
are pure and safe to call from concurrent workers. The kernels state their
preconditions and check none: each input is checked once, by the public
function it enters. Channel blocks and filters go through ``_as_matrix``
(2-D, finite) in the ``chain``, ``equalizers`` and ``capacity`` functions
that take them, every function that takes ``rho`` rejects a negative or
non-finite one, and ``iic_local_step`` also checks its accumulator for
hermiticity.
"""

import math

import numpy as np

from .errors import NumericalDomainError

#: Max entry of ``|A - A^H|`` in Hermitian checks, relative to ``max |A|``.
TOL_HERMITIAN = 1e-10

#: Relative cutoff (vs. the largest singular value) for rank decisions;
#: read only by ``orthonormal_range``.
RANK_TOL = 1e-10


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


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(values, basis)`` of a Hermitian matrix.

    ``a`` must be a finite square ndarray, Hermitian as
    ``check_hermitian`` defines it; only its lower triangle is read.
    ``values`` is sorted descending, and both arrays are contiguous.
    """
    values, basis = np.linalg.eigh(a)
    # eigh returns ascending order; flip to descending
    return (np.ascontiguousarray(values[::-1]),
            np.ascontiguousarray(basis[:, ::-1]))


def svd(a) -> tuple[np.ndarray, np.ndarray]:
    """Left factor ``(U, s)`` of the thin SVD of a finite 2-D ndarray."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, s


def logdet2_hpd(a) -> float:
    """Base-2 log-determinant of a Hermitian positive-definite matrix.

    ``a`` must be a finite square ndarray, Hermitian as
    ``check_hermitian`` defines it; only its lower triangle is read. Uses
    a Cholesky factorization, so the determinant itself is never formed
    and the result is safe for very large or very small determinants.

    Raises
    ------
    NumericalDomainError
        If the input is not positive definite, or the result is not finite.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"matrix is not positive definite: {exc}") from exc
    value = float(2.0 * np.log2(chol.diagonal().real).sum())
    if not math.isfinite(value):
        raise NumericalDomainError(f"log-determinant is not finite: {value}")
    return value


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


def orthonormal_range(a, n=None) -> np.ndarray:
    """Orthonormal basis of the dominant column space of a finite 2-D ``a``.

    Returns the leading left singular vectors whose singular value
    exceeds ``RANK_TOL`` times the largest one, at most ``n`` of them: the
    width is ``min(n, rank)``, the rank when ``n`` is None, 0 for a zero
    or empty ``a``. This is the one rank rule of every filter.
    """
    u, s = svd(a)
    rank = int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))
    return u[:, : rank if n is None else min(n, rank)]

"""Dense complex-matrix kernels used by every other module.

Thin wrappers around LAPACK (via numpy): Hermitian eigendecomposition,
SVD, Cholesky factors and the base-2 log-determinants of Hermitian
positive-definite matrices read off them (``log2 det(I + X)`` among them),
whitening against a Cholesky factor, orthonormal range bases, the
projected Gram ``rho (Q^H H)^H (Q^H H)`` that every captured covariance is
made of, and the K x K user-side factor of a tall channel block. They
return plain arrays, and ``numerical_rank`` holds the one rank rule. The
SVD, Cholesky, whitening, log-determinant and rank kernels also take a
stack of matrices and give each the bits it would get alone. All
functions are pure and safe to call from concurrent workers. The kernels
state their preconditions and check none: each input is checked once,
by the public function it enters. Channel blocks and filters go through
``_as_matrix`` (2-D, finite) in the ``chain``, ``equalizers`` and
``capacity`` functions that take them, every function that takes ``rho``
rejects a negative or non-finite one, every count must pass ``_is_int``
where it enters, and ``iic_local_step`` also checks its accumulator for
hermiticity.
"""

import numbers

import numpy as np

from .errors import NumericalDomainError

#: Max entry of ``|A - A^H|`` in Hermitian checks, relative to ``max |A|``.
TOL_HERMITIAN = 1e-10

#: Relative cutoff (vs. the largest singular value) for rank decisions;
#: read only by ``numerical_rank``.
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


def _is_int(value) -> bool:
    """True for an int or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a real number (int, float or numpy scalar), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    Nothing in lisim calls it since the chain whitens with the Cholesky
    factor; it stays because ``benchmarks/tracing.py`` traces this name.
    """
    values, basis = np.linalg.eigh(a)
    # eigh returns ascending order; flip to descending
    return (np.ascontiguousarray(values[::-1]),
            np.ascontiguousarray(basis[:, ::-1]))


def svd(a) -> tuple[np.ndarray, np.ndarray]:
    """Left factor ``(U, s)`` of the thin SVD of a finite ndarray or stack."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, s


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor ``L``, ``A = L L^H``, of a matrix or stack.

    ``a`` must be square and Hermitian as ``check_hermitian`` defines it;
    only its lower triangle is read. Raises NumericalDomainError if a
    matrix is not positive definite; one with non-finite entries is
    reported as a non-finite log-determinant, the value the chain reads
    off each factor of its accumulator.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(a).all():
            raise NumericalDomainError("log-determinant is not finite: "
                                       "non-finite matrix entries") from exc
        raise NumericalDomainError(f"matrix is not positive definite: {exc}") from exc


def logdet2_factor(chol):
    """Base-2 log-determinant of ``L L^H`` from its Cholesky factor ``L``.

    One value per factor of a stack; raises NumericalDomainError if a
    value is not finite.
    """
    diagonal = np.diagonal(chol, axis1=-2, axis2=-1).real
    value = 2.0 * np.log2(diagonal).sum(axis=-1)
    if not np.isfinite(value).all():
        raise NumericalDomainError(f"log-determinant is not finite: {value}")
    return value


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
    return float(logdet2_factor(cholesky(a)))


def whiten(h: np.ndarray, chol: np.ndarray, rho: float) -> np.ndarray:
    """``sqrt(rho) H L^-H``: a block whitened against ``Z = L L^H``.

    ``chol`` is the Cholesky factor of ``Z``, or a stack of them, which
    gives the stack of whitened blocks. ``H Z^-1 H^H`` is the Gram of the
    rows of ``H L^-H`` and of ``H Z^-1/2`` alike, so any square root of
    ``Z`` whitens to the same left singular vectors.
    """
    # b as a stack of matrices, as numpy >= 2 would broadcast it
    rhs = np.broadcast_to(h.conj().T, chol.shape[:-1] + h.shape[:1])
    solved = np.linalg.solve(chol, rhs)
    return np.sqrt(rho) * np.swapaxes(solved.conj(), -1, -2)


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


def numerical_rank(s):
    """Count of singular values above ``RANK_TOL`` times the largest.

    ``s`` holds one matrix's singular values, or one row per matrix of a
    stack; the count is 0 for a zero or empty matrix. This is the one
    rank rule of every filter.
    """
    cutoff = RANK_TOL * s.max(axis=-1, keepdims=True, initial=0.0)
    return (s > cutoff).sum(axis=-1)


def orthonormal_range(a, n=None) -> np.ndarray:
    """Orthonormal basis of the dominant column space of a finite 2-D ``a``.

    Returns the leading left singular vectors whose singular value
    passes ``numerical_rank``, at most ``n`` of them: the width is
    ``min(n, rank)``, the rank when ``n`` is None.
    """
    u, s = svd(a)
    rank = int(numerical_rank(s))
    return u[:, : rank if n is None else min(n, rank)]

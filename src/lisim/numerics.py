"""Dense complex-matrix kernels used by every other module.

Thin wrappers around LAPACK (via numpy): Hermitian eigendecomposition,
SVD, Cholesky factors, whitening against a triangular factor, orthonormal
range bases, the projected Gram ``rho (Q^H H)^H (Q^H H)`` that every
captured covariance is made of, R factors of rows (``grown_factor``, every
QR of rows, and the K x K ``user_side_factor`` of a tall block), and
base-2 log-determinants read off eigenvalues (``log2_one_plus``) or off
the singular values of rows (``logdet2_eye_plus_gram``, every rate).
They return plain arrays. ``numerical_rank`` holds the one rank rule;
``full_rank`` certifies, without an SVD, that it keeps every column of an
RMF filter, from the R of ``chain._rmf_rows``' QR of columns, and does so
for every filter of condition number below 1e7 / columns. The SVD,
Cholesky, R-factor, whitening and rank kernels also take a stack of
matrices and give each the bits it would get alone. All functions are
pure and safe to call from concurrent workers. The kernels state their
preconditions and check none: each input is checked once, by the public
function it enters. Channel blocks and filters go through
``_as_matrix`` (2-D, finite) in the ``chain``, ``equalizers`` and
``capacity`` functions that take them, every function that takes ``rho``
rejects a negative one or one that fails ``_is_finite_real``, every count
must pass ``_is_int`` where it enters, and ``iic_local_step`` also checks
its accumulator for hermiticity. A Gram, accumulator or gain that
overflows (rho near 1e308) is reported by ``check_finite`` alone.
"""

import functools
import math

import numpy as np

from .errors import NumericalDomainError

#: Max entry of ``|A - A^H|`` in Hermitian checks, relative to ``max |A|``.
TOL_HERMITIAN = 1e-10

#: Relative cutoff (vs. the largest singular value) for rank decisions;
#: read by ``numerical_rank``, and by ``full_rank`` for its margin.
RANK_TOL = 1e-10

#: ``np.tri``'s mask below the diagonal, made once per shape (grown_factor)
_below_diagonal = functools.cache(functools.partial(np.tri, k=-1, dtype=bool))

#: The one row budget of a slice: ``user_side_factor`` grows its factor by
#: slices of this many rows (on 4000 x 20 blocks, twice as fast as one QR),
#: and ``chain._rows_rate`` takes a cell's rows in whole panels, as many fit.
_QR_ROWS = 512


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


def _is_finite_real(value) -> bool:
    """True for a finite int, float or numpy real scalar; a bool is not one."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int such as 10**400 has no float value
        return False


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
    It stays because ``benchmarks/tracing.py`` traces this name.
    """
    values, basis = np.linalg.eigh(a)
    # eigh returns ascending order; flip to descending
    return (np.ascontiguousarray(values[::-1]),
            np.ascontiguousarray(basis[:, ::-1]))


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(U, s, Vh)`` of a finite ndarray or stack.

    ``A = U diag(s) Vh``, with ``s`` descending.
    """
    return np.linalg.svd(a, full_matrices=False)


def check_finite(a) -> None:
    """Raise the one overflow error unless every entry of ``a`` is finite.

    An overflowing Gram, accumulator or gain is reported as a non-finite
    log-determinant, whichever kernel would read it first.
    """
    if not np.isfinite(a).all():
        raise NumericalDomainError("log-determinant is not finite: "
                                   "non-finite matrix entries")


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor ``L``, ``A = L L^H``, of a matrix or stack.

    ``a`` must be square and Hermitian as ``check_hermitian`` defines it;
    only its lower triangle is read. Raises NumericalDomainError if a
    matrix is not positive definite, or has non-finite entries (an
    overflowing Gram), which LAPACK would factor or fail on by chance.
    Those are tested first, by ``check_finite``.
    """
    check_finite(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"matrix is not positive definite: {exc}") from exc


def logdet2_hpd(a) -> float:
    """Base-2 log-determinant ``2 sum log2 |L_jj|`` of a Hermitian
    positive-definite ``a = L L^H``, off its ``cholesky`` factor.

    ``a`` must be a square ndarray, Hermitian as ``check_hermitian``
    defines it; ``cholesky``'s errors pass through. It stays because
    ``benchmarks/tracing.py`` traces this name.
    """
    diagonal = np.abs(np.diagonal(cholesky(a)))
    return float(2.0 * np.log2(diagonal).sum())


def whiten(h: np.ndarray, chol: np.ndarray, rho: float) -> np.ndarray:
    """``sqrt(rho) H L^-H``: a block whitened against ``Z = L L^H``.

    ``chol`` is any lower-triangular ``L`` with ``Z = L L^H``, or a stack
    of them, which gives the stack of whitened blocks. ``H Z^-1 H^H`` is
    the Gram of the rows of ``H L^-H`` and of ``H Z^-1/2`` alike, so any
    square root of ``Z`` whitens to the same left singular vectors.
    """
    # b as a stack of matrices, as numpy >= 2 would broadcast it
    rhs = np.broadcast_to(h.conj().T, chol.shape[:-1] + h.shape[:1])
    # rows and columns reversed, L is upper triangular and the LU never
    # pivots; on a graded L (rho near 1e300) pivoting rounds one to zero
    solved = np.linalg.solve(chol[..., ::-1, ::-1], rhs[..., ::-1, :])
    return np.sqrt(rho) * np.swapaxes(solved[..., ::-1, :].conj(), -1, -2)


def log2_one_plus(gains):
    """``sum_j log2(1 + g_j)`` over the last axis of nonnegative gains.

    ``log2 det(I + X)`` of a Hermitian ``X`` with eigenvalues ``g``, read
    off them without forming ``I + X``, whose rounding would drown the
    unit eigenvalues next to a large one. One value per row of a stack.
    """
    return np.log1p(gains).sum(axis=-1) / math.log(2.0)


def logdet2_eye_plus_gram(a: np.ndarray, rho: float) -> float:
    """``log2 det(I + rho A^H A)`` of a finite 2-D ``a``, from its singular
    values ``s`` as ``log2_one_plus(rho s^2)``.

    A gain ``rho s^2`` that overflows raises ``check_finite``'s error.
    """
    gains = rho * np.linalg.svd(a, compute_uv=False) ** 2
    check_finite(gains)
    return float(log2_one_plus(gains))


def projected_gram(q: np.ndarray, h: np.ndarray, rho: float) -> np.ndarray:
    """Captured covariance ``rho (Q^H H)^H (Q^H H)``, K x K.

    With ``q`` semi-unitary this is ``rho H^H P H`` for the orthogonal
    projector ``P`` onto the column space of ``q``.
    """
    t = q.conj().T @ h
    return rho * (t.conj().T @ t)


def grown_factor(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """R factor of the rows ``[R; T]``, whose Gram is ``R^H R + T^H T``.

    No Gram is formed, so a rank-deficient term keeps its unit
    eigenvalues; ``r`` may have no rows. Every QR of rows in lisim is
    this call (``chain._rmf_rows`` makes the one QR of filter columns),
    and a stack gives each matrix the bits it gets alone: ``mode="r"``'s,
    with a cached mask in place of the one ``np.triu`` builds per call.
    """
    a = np.linalg.qr(np.concatenate([r, t], axis=-2), mode="raw")[0]
    rows = min(a.shape[-2:])
    return np.where(_below_diagonal(rows, a.shape[-2]), 0.0,
                    np.swapaxes(a, -1, -2)[..., :rows, :])


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
    r = h[:0]
    for i in range(0, len(h), _QR_ROWS):
        r = grown_factor(r, h[i:i + _QR_ROWS])
    return r


def numerical_rank(s):
    """Count of singular values above ``RANK_TOL`` times the largest.

    ``s`` holds one matrix's singular values, or one row per matrix of a
    stack; the count is 0 for a zero or empty matrix. This is the one
    rank rule of every filter.
    """
    cutoff = RANK_TOL * s.max(axis=-1, keepdims=True, initial=0.0)
    return (s > cutoff).sum(axis=-1)


def full_rank(r: np.ndarray) -> np.ndarray:
    """True for each n x n triangle of a stack that certainly has rank n
    by ``numerical_rank``, which then needs no SVD.

    Sufficient only: on ``R`` scaled to a largest entry of 1, the bound
    ``kappa_2(R) <= ||R||_F ||R^-1||_F <= n kappa_2(R)`` is below
    ``1e-3 / RANK_TOL``, a margin no rounding of the QR or SVD closes.
    A triangle whose ``max|R| / min|R_jj|``, a lower bound on ``kappa_2``,
    is not below it fails uninverted, one whose inverse overflows fails
    too, and neither a zero, singular nor overflowing ``R`` warns.
    """
    limit = 1e-3 / RANK_TOL
    scale = np.abs(r).max(axis=(-2, -1))
    ok = np.abs(np.diagonal(r, 0, -2, -1)).min(axis=-1) > scale / limit
    r = np.where(ok[..., None, None], r / np.where(ok, scale, 1.0)[
        ..., None, None], np.eye(r.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan fail
        return ok & (np.linalg.norm(r, axis=(-2, -1)) * np.linalg.norm(
            np.linalg.inv(r), axis=(-2, -1)) < limit)


def orthonormal_range(a, n=None) -> np.ndarray:
    """Orthonormal basis of the dominant column space of a finite 2-D ``a``.

    Returns the leading left singular vectors whose singular value
    passes ``numerical_rank``, at most ``n`` of them: the width is
    ``min(n, rank)``, the rank when ``n`` is None.
    """
    u, s, _ = svd(a)
    rank = int(numerical_rank(s))
    return u[:, : rank if n is None else min(n, rank)]

"""Per-panel linear filters for the panelized uplink receiver.

Three constructions are provided:

* ``rmf_filter``: the reduced matched filter, keeping the strongest user
  columns of the local channel block.
* ``single_panel_filter``: the capacity-optimal subspace filter for an
  isolated panel, built from dominant left singular vectors.
* ``iic_local_step``: one step of the iterative interference cancellation
  chain. Each panel whitens its channel block against the Hermitian
  accumulator received from the previous panel, keeps the dominant left
  singular vectors of the whitened block, and forwards the updated
  accumulator.

Filters only matter through the column space of their matrix, so
semi-unitary representatives are used wherever possible.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numerics
from .errors import NumericalDomainError


#: Max entry of ``|W^H W - I|`` accepted from a filter flagged
#: semi-unitary; the SVD bases the subspace filters keep sit near 1e-15.
SEMI_UNITARY_TOL = 1e-10


class EqualizerKind(Enum):
    RMF = "rmf"
    SVD_OPT = "svd_opt"
    IIC = "iic"


@dataclass(frozen=True)
class PanelEqualizer:
    """Filter matrix of one panel plus provenance flags.

    ``semi_unitary`` is True when ``w.conj().T @ w`` is the identity by
    construction (subspace filters); the reduced matched filter keeps raw
    channel columns and is generally not semi-unitary.

    ``n_cols`` is the width actually built, which can be below the
    requested output count: subspace filters stop at the rank of the
    block they see, because further outputs would carry no signal.
    """

    w: np.ndarray
    kind: EqualizerKind
    semi_unitary: bool

    @property
    def n_cols(self) -> int:
        return self.w.shape[1]

    def orthonormal_columns(self) -> np.ndarray:
        """Orthonormal basis of the filter column space; checks the filter.

        A filter flagged ``semi_unitary`` must have ``W^H W = I`` within
        ``SEMI_UNITARY_TOL``: a rate through it could exceed the capacity.
        """
        w = numerics._as_matrix(self.w, "filter")
        if not self.semi_unitary:
            return numerics.orthonormal_range(w)
        deviation = np.abs(w.conj().T @ w - np.eye(w.shape[1])).max(initial=0.0)
        if deviation > SEMI_UNITARY_TOL:
            raise NumericalDomainError(
                f"filter flagged semi-unitary is not (max entry of "
                f"|W^H W - I| is {deviation:.3e})")
        return w


@dataclass(frozen=True)
class EqualizerSet:
    """Ordered per-panel filters forming one block-diagonal equalizer."""

    per_panel: tuple

    def __len__(self) -> int:
        return len(self.per_panel)

    def __iter__(self):
        return iter(self.per_panel)

    def __getitem__(self, i) -> PanelEqualizer:
        return self.per_panel[i]


@dataclass(frozen=True)
class ChainMessage:
    """Hermitian K x K accumulator passed from panel to panel.

    Starts at the identity and only ever grows by positive semidefinite
    updates, so every eigenvalue stays at or above 1.
    """

    z: np.ndarray
    hop_index: int = 0

    @classmethod
    def initial(cls, users_k: int) -> "ChainMessage":
        return cls(z=np.eye(users_k, dtype=complex), hop_index=0)


def rmf_filter(h_panel, np_outputs: int) -> PanelEqualizer:
    """Reduced matched filter: the strongest channel columns of a panel.

    The filter keeps the first ``min(np_outputs, K)`` columns of
    ``_rmf_order``. More outputs than users would only duplicate columns
    without adding rank, so the width is capped at K.
    """
    if not numerics._is_int(np_outputs) or np_outputs < 1:
        raise ValueError("np_outputs must be an integer of at least 1")
    h = numerics._as_matrix(h_panel, "channel block")
    selected = _rmf_order(h)[: min(np_outputs, h.shape[1])]
    return PanelEqualizer(w=h[:, selected], kind=EqualizerKind.RMF,
                          semi_unitary=False)


def _rmf_order(h: np.ndarray) -> np.ndarray:
    """RMF's column order of a block, or of each block of a stack: by
    descending squared Euclidean norm, ties by ascending user index."""
    return np.argsort(-np.sum(np.abs(h) ** 2, axis=-2), axis=-1,
                      kind="stable")


def single_panel_filter(h, n_outputs: int) -> PanelEqualizer:
    """Capacity-optimal filter for an isolated panel.

    Keeps the ``min(n_outputs, rank(h))`` dominant left singular vectors,
    which span everything that matters for the rate at the filter output.
    A zero block has rank 0 and yields an Mp x 0 filter, as in
    ``iic_local_step``: no output would carry signal.
    """
    h = numerics._as_matrix(h, "channel block")
    if not numerics._is_int(n_outputs) or n_outputs < 1:
        raise ValueError("n_outputs must be an integer of at least 1")
    if n_outputs > h.shape[0]:
        raise ValueError("n_outputs cannot exceed the number of antennas")
    return PanelEqualizer(w=numerics.orthonormal_range(h, n_outputs),
                          kind=EqualizerKind.SVD_OPT, semi_unitary=True)


def iic_local_step(h_panel, z_prev: ChainMessage, rho: float,
                   np_outputs: int):
    """One panel's step of the interference-cancellation chain.

    Whitens the local block against the incoming accumulator, selects the
    dominant left singular vectors of the whitened block as the filter,
    and forwards the accumulator grown by the captured signal covariance.

    Parameters
    ----------
    h_panel : array_like
        Local Mp x K channel block.
    z_prev : ChainMessage
        Accumulator from the previous panel, checked here: finite,
        Hermitian as ``numerics.check_hermitian`` defines it, relative to
        scale (identity at the head of the chain), and positive definite,
        which its Cholesky factorization finds.
    rho : float
        Linear SNR, positive and finite.
    np_outputs : int
        Requested filter width. The filter keeps ``min(np_outputs, rank)``
        columns, with ``rank`` the numerical rank of the whitened block
        (at most ``min(Mp, K)``): further columns would carry no signal
        and add no capacity. A zero block yields an Mp x 0 filter, a zero
        increment and an unchanged accumulator.

    Returns
    -------
    (PanelEqualizer, float, ChainMessage)
        The panel filter, the capacity increment ``delta_c`` in bits
        contributed by this panel, ``sum log2(1 + s_j^2)`` over the kept
        singular values of the whitened block, and the accumulator to
        forward,
        ``z_prev + rho (W^H H)^H (W^H H)`` as computed (not symmetrized).
    """
    h = numerics._as_matrix(h_panel, "channel block")
    if not numerics._is_int(np_outputs) or np_outputs < 1:
        raise ValueError("np_outputs must be an integer of at least 1")
    if not numerics._is_finite_real(rho) or rho <= 0.0:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    z = numerics._as_matrix(z_prev.z, "chain accumulator")
    numerics.check_hermitian(z)
    u, s, _ = numerics.svd(numerics.whiten(h, numerics.cholesky(z), rho))
    keep = min(np_outputs, int(numerics.numerical_rank(s)))
    w = u[:, :keep]
    eq = PanelEqualizer(w=w, kind=EqualizerKind.IIC, semi_unitary=True)
    # the kept singular values of the whitened block give the increment
    delta_c = float(numerics.log2_one_plus(s[:keep] ** 2))

    z_next = z + numerics.projected_gram(w, h, rho)
    return eq, delta_c, ChainMessage(z=z_next, hop_index=z_prev.hop_index + 1)

"""Sum-rate capacity evaluation for panelized linear receivers.

All rates are in bits (per channel use). Determinants are always
evaluated on the K x K user side, which is tiny compared to the antenna
count, and the filter enters only through the orthogonal projector onto
its column space. Rank-deficient filters therefore degrade gracefully to
a lower-rank projector instead of requiring an explicit Gram inverse.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .equalizers import EqualizerSet
from .errors import NumericalDomainError

#: Allowed slack when checking rates against the channel-capacity ceiling.
CEILING_SLACK_BITS = 1e-6

#: Allowed backward slack in monotone cumulative traces.
MONOTONE_SLACK_BITS = 1e-9

#: Rows per slice of a tall channel that ``channel_capacity`` factors on
#: its own: on 4000 x 20 stacked blocks, twice as fast as one QR.
_QR_ROWS = 512


@dataclass(frozen=True)
class CapacityReport:
    """Per-trial capacity summary.

    ``per_panel_cumulative`` holds the running sum rate after each panel
    of a chain run. It is empty for algorithms without a chain pass, and
    for a full-width cell (see ``chain._chains``).
    """

    sum_rate_bits: float
    per_panel_cumulative: np.ndarray
    channel_capacity_bits: float

    def validate(self) -> None:
        """Runtime check of the ceiling bound and monotone accumulation."""
        if self.sum_rate_bits > self.channel_capacity_bits + CEILING_SLACK_BITS:
            raise NumericalDomainError(
                f"sum rate {self.sum_rate_bits} exceeds channel capacity "
                f"{self.channel_capacity_bits}")
        trace = self.per_panel_cumulative
        if trace.size:
            if np.any(np.diff(trace) < -MONOTONE_SLACK_BITS):
                raise NumericalDomainError(
                    "per-panel cumulative rate is not nondecreasing")


def _check_rho(rho: float) -> None:
    # rho = 0 is a valid zero rate; a negative rho would give a negative one
    if not numerics._is_finite_real(rho) or rho < 0.0:
        raise NumericalDomainError(f"rho must be finite and >= 0, got {rho}")


def sum_rate_full(h, w, rho: float) -> float:
    """Rate through a single dense filter, ``log2 det(I + rho H^H P H)``.

    ``P`` is the orthogonal projector onto the column space of ``w``,
    ``Q Q^H`` for an orthonormal range basis ``Q``, so rank-deficient
    filters are handled continuously. The rate is ``channel_capacity``
    of the kept rows ``Q^H H``, which checks ``rho``.
    """
    h = numerics._as_matrix(h, "channel")
    w = numerics._as_matrix(w, "filter")
    if w.shape[0] != h.shape[0]:
        raise ValueError("channel and filter must share the antenna dimension")
    q = numerics.orthonormal_range(w)
    return channel_capacity(q.conj().T @ h, rho)


def channel_capacity(h, rho: float) -> float:
    """Capacity of the raw antenna interface, ``log2 det(I + rho H^H H)``.

    Read off the singular values ``s`` of ``H`` (of its R factor, when
    ``H`` is tall) as ``sum log2(1 + rho s^2)``, so that the unit
    eigenvalues of ``I + rho H^H H`` are never rounded next to a large
    one; see ``numerics.logdet2_eye_plus_gram``.
    """
    _check_rho(rho)
    h = numerics._as_matrix(h, "channel")
    if h.shape[0] > h.shape[1]:
        # the R factors of row slices, then the R factor of their stack:
        # an R of H, from copies small enough to stay in cache
        slices = [np.linalg.qr(h[i:i + _QR_ROWS], mode="r")
                  for i in range(0, len(h), _QR_ROWS)]
        h = np.linalg.qr(np.vstack(slices), mode="r")
        # the R factor of entries near overflow can itself overflow
        numerics.check_finite(h)
    return numerics.logdet2_eye_plus_gram(h, rho)


def _panel_filters(blocks, eq: EqualizerSet, rho: float):
    """Per-panel ``(Q_i, H_i)``, ``Q_i`` an orthonormal basis of the i-th
    filter's column space; checks every input."""
    _check_rho(rho)
    if len(blocks) != len(eq):
        raise ValueError("one equalizer per channel block is required")
    pairs = []
    for h, pe in zip(blocks, eq):
        h = numerics._as_matrix(h, "channel block")
        q = pe.orthonormal_columns()
        if q.shape[0] != h.shape[0]:
            raise ValueError("equalizer and block disagree on antenna count")
        pairs.append((q, h))
    return pairs


def sum_rate_panelized(blocks, eq: EqualizerSet, rho: float) -> float:
    """Rate of the block-diagonal receiver.

    ``log2 det(I_K + rho sum_i H_i^H S_i H_i)``, ``S_i = Q_i Q_i^H`` the
    projector onto the i-th filter's column space: ``channel_capacity``
    of the stacked rows ``Q_i^H H_i``, as ``sum_rate_full`` on the dense
    block-diagonal filter. No panels give ``log2 det I = 0``.
    """
    rows = [q.conj().T @ h for q, h in _panel_filters(blocks, eq, rho)]
    return channel_capacity(np.vstack(rows), rho) if rows else 0.0


def chain_capacity_trace(blocks, eq: EqualizerSet, rho: float) -> np.ndarray:
    """Cumulative sum rate after each panel of a chain run.

    Entry i, ``log2 det(I + G_0 + ... + G_i)``, is the rate delivered by
    panels 0..i together. It is read off the R factor that
    ``numerics.grown_factor`` grows from I by each panel's term, so no
    ``I + G_0 + ... + G_i`` is rounded. The final entry is
    ``sum_rate_panelized`` up to rounding, and consecutive
    differences are the per-panel increments of the chain steps.
    """
    pairs = _panel_filters(blocks, eq, rho)
    if not pairs:
        return np.zeros(0)
    r = np.eye(pairs[0][1].shape[1], dtype=complex)
    out = np.empty(len(pairs))
    for i, (q, h) in enumerate(pairs):
        r = numerics.grown_factor(r, q, h, rho)
        out[i] = numerics.logdet2_factor(r)
    return out

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


@dataclass(frozen=True)
class CapacityReport:
    """Per-trial capacity summary.

    ``per_panel_cumulative`` holds the running sum rate after each panel
    of a chain run. It is empty for algorithms without a chain pass, and
    for a full-width cell answered from the ceiling without running.
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
    obtained from an orthonormal range basis; the Gram inverse of the
    full-rank formulation is never formed, so rank-deficient filters are
    handled continuously.
    """
    _check_rho(rho)
    h = numerics._as_matrix(h, "channel")
    w = numerics._as_matrix(w, "filter")
    if w.shape[0] != h.shape[0]:
        raise ValueError("channel and filter must share the antenna dimension")
    q = numerics.orthonormal_range(w)
    return numerics.logdet2_eye_plus(numerics.projected_gram(q, h, rho))


def channel_capacity(h, rho: float) -> float:
    """Capacity of the raw antenna interface, ``log2 det(I + rho H^H H)``."""
    _check_rho(rho)
    h = numerics._as_matrix(h, "channel")
    return numerics.logdet2_eye_plus(rho * (h.conj().T @ h))


def _panel_grams(blocks, eq: EqualizerSet, rho: float):
    """Per-panel terms ``rho H_i^H S_i H_i``, K x K; checks every input."""
    _check_rho(rho)
    if len(blocks) != len(eq):
        raise ValueError("one equalizer per channel block is required")
    grams = []
    for h, pe in zip(blocks, eq):
        h = numerics._as_matrix(h, "channel block")
        q = pe.orthonormal_columns()
        if q.shape[0] != h.shape[0]:
            raise ValueError("equalizer and block disagree on antenna count")
        grams.append(numerics.projected_gram(q, h, rho))
    return grams


def sum_rate_panelized(blocks, eq: EqualizerSet, rho: float) -> float:
    """Rate of the block-diagonal receiver.

    Evaluates ``log2 det(I_K + rho sum_i H_i^H S_i H_i)`` with ``S_i``
    the projector onto the i-th filter's column space; identical to
    ``sum_rate_full`` on the assembled dense block-diagonal filter.
    """
    grams = _panel_grams(blocks, eq, rho)
    return numerics.logdet2_eye_plus(sum(grams))


def chain_capacity_trace(blocks, eq: EqualizerSet, rho: float) -> np.ndarray:
    """Cumulative sum rate after each panel of a chain run.

    Entry i, ``log2 det(I + G_0 + ... + G_i)`` summed from I as a chain
    does, is the rate delivered by panels 0..i together. The final
    entry equals ``sum_rate_panelized`` and consecutive differences equal
    the per-panel increments reported by the chain steps.
    """
    grams = _panel_grams(blocks, eq, rho)
    if not grams:
        return np.zeros(0)
    acc = np.eye(grams[0].shape[0], dtype=complex)
    out = np.empty(len(grams))
    for i, g in enumerate(grams):
        acc = acc + g
        out[i] = numerics.logdet2_hpd(acc)
    return out

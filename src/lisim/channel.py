"""Scenario geometry and LOS channel synthesis.

Coordinate frame: the antenna surface occupies the z = 0 plane, centered
horizontally (x in [-lis_width/2, +lis_width/2]) and centered vertically
in the room height. Users live inside the room box

    x in [-room_width/2, +room_width/2]
    y in [0, room_height]
    z in [min_user_depth, room_depth]

All distances are in meters. Panels tile the surface rectangle in
row-major order (bottom row first, left to right); that ordering is also
the daisy-chain order used by the chain module.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConfigError, DegenerateChannelError, NumericalDomainError

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, user population, and radio parameters of one deployment.

    ``snr_rho`` is a linear power ratio (1.0 means 0 dB) and is reported
    alongside every result because absolute rates depend on it.
    """

    lis_width_m: float = 10.0
    lis_height_m: float = 1.0
    room_width_m: float = 30.0
    room_height_m: float = 3.0
    room_depth_m: float = 30.0
    panel_side_m: float = 0.2
    users_k: int = 20
    wavelength_m: float = 0.05
    snr_rho: float = 1.0
    min_user_depth_m: float = 0.5

    def __post_init__(self) -> None:
        """Raise ConfigError on a bad field; ``replace`` runs this too."""
        for name in ("lis_width_m", "lis_height_m", "room_width_m",
                     "room_height_m", "room_depth_m", "panel_side_m",
                     "wavelength_m", "snr_rho", "min_user_depth_m"):
            value = getattr(self, name)
            if not numerics._is_finite_real(value) or value <= 0.0:
                raise ConfigError(f"{name} must be positive and finite")
        if not numerics._is_int(self.users_k) or self.users_k < 1:
            raise ConfigError("users_k must be an integer of at least 1")
        if self.min_user_depth_m >= self.room_depth_m:
            raise ConfigError("min_user_depth_m must be smaller than room_depth_m")
        _exact_div(self.lis_width_m, self.panel_side_m, "lis_width_m")
        _exact_div(self.lis_height_m, self.panel_side_m, "lis_height_m")
        if self.lis_width_m > self.room_width_m or self.lis_height_m > self.room_height_m:
            raise ConfigError("the surface must fit inside the room wall")


def _exact_div(length: float, step: float, name: str) -> int:
    """Integer ratio length/step, or ConfigError if it is not integral."""
    ratio = length / step
    count = round(ratio)
    if count < 1 or abs(ratio - count) > 1e-9:
        raise ConfigError(
            f"{name} ({length}) must be an integer multiple of panel_side_m ({step})"
        )
    return count


@dataclass(frozen=True)
class Scenario:
    """Antenna array built from a ScenarioConfig, in daisy-chain order.

    ``antenna_positions`` is M x 3 (every row has z = 0) and lists the
    panels one after another: rows ``i * Mp`` to ``(i + 1) * Mp - 1`` are
    panel i, with panels numbered row-major (bottom row first, left to
    right).
    """

    antenna_positions: np.ndarray
    antennas_per_panel: int

    @property
    def p_count(self) -> int:
        return self.antenna_positions.shape[0] // self.antennas_per_panel


@dataclass(frozen=True)
class ChannelRealization:
    """Per-panel Mp x K channel blocks in chain order.

    One scale is applied to every block so that the stacked matrix
    satisfies ``sum_i ||H_i||_F^2 = M * K``.
    """

    blocks: tuple


def build_scenario(cfg: ScenarioConfig, mp: int) -> Scenario:
    """Tile the surface rectangle with square panels of ``mp`` antennas.

    Parameters
    ----------
    cfg : ScenarioConfig
        Geometry; ``panel_side_m`` divides both surface dimensions, as
        ``ScenarioConfig`` checks when it is built.
    mp : int
        Antennas per panel; must be a perfect square. Antennas sit at the
        cell centers of a sqrt(mp) x sqrt(mp) grid inside each panel, so
        the spacing is ``panel_side_m / sqrt(mp)``.

    Returns
    -------
    Scenario
        The M antenna positions, panel after panel in row-major order
        (bottom row first, left to right).
    """
    # an mp that is not a positive integer gets side 0, which no panel has
    side = math.isqrt(mp) if numerics._is_int(mp) and mp > 0 else 0
    if side < 1 or side * side != mp:
        raise ConfigError(f"antennas per panel must be a perfect square, got {mp!r}")
    cols = _exact_div(cfg.lis_width_m, cfg.panel_side_m, "lis_width_m")
    rows = _exact_div(cfg.lis_height_m, cfg.panel_side_m, "lis_height_m")

    spacing = cfg.panel_side_m / side
    offsets = (np.arange(side) + 0.5) * spacing
    local = np.zeros((mp, 3))
    local[:, 0] = np.tile(offsets, side)     # x varies fastest
    local[:, 1] = np.repeat(offsets, side)

    x0 = -cfg.lis_width_m / 2.0
    y0 = (cfg.room_height_m - cfg.lis_height_m) / 2.0
    # panel (r, c) has its lower-left corner at (x0 + c side, y0 + r side, 0)
    corners = np.zeros((rows, cols, 3))
    corners[:, :, 0] = x0 + np.arange(cols) * cfg.panel_side_m
    corners[:, :, 1] = (y0 + np.arange(rows) * cfg.panel_side_m)[:, None]
    positions = corners.reshape(-1, 1, 3) + local
    return Scenario(antenna_positions=positions.reshape(-1, 3),
                    antennas_per_panel=mp)


def sample_users(scenario: Scenario, cfg: ScenarioConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw K user positions i.i.d. uniform over the room box.

    Returns the K x 3 positions, one (x, y, z) row per user. The depth
    coordinate is clipped away from the surface by sampling it uniformly
    on [min_user_depth_m, room_depth_m]; the gain model diverges at z = 0.
    """
    raw = rng.random((cfg.users_k, 3))
    positions = np.empty_like(raw)
    positions[:, 0] = (raw[:, 0] - 0.5) * cfg.room_width_m
    positions[:, 1] = raw[:, 1] * cfg.room_height_m
    positions[:, 2] = cfg.min_user_depth_m + raw[:, 2] * (
        cfg.room_depth_m - cfg.min_user_depth_m)
    return positions


def los_gain(user, antenna, wavelength_m: float):
    """Complex line-of-sight gain between a user and one antenna.

    For a user at (x_k, y_k, z_k) and an antenna at (x, y, 0) the gain is

        sqrt(z_k) / (2 sqrt(pi) d^(3/2)) * exp(-2j pi d / wavelength)

    with d the Euclidean distance between the two points. The amplitude
    law integrates to unit captured power over an infinite surface. The
    phase d / wavelength is reduced to the nearest whole cycle before its
    cosine and sine are taken; the subtraction is exact, so the rounding
    of d itself stays the error floor.

    Broadcasting over leading axes is supported; the last axis must hold
    the (x, y, z) coordinates.
    """
    user = np.asarray(user, dtype=float)
    antenna = np.asarray(antenna, dtype=float)
    if not (np.isfinite(user).all() and np.isfinite(antenna).all()):
        raise NumericalDomainError("non-finite user or antenna coordinate")
    z = user[..., 2]
    if not np.all(z > 0.0):
        raise NumericalDomainError("user depth must be strictly positive")
    if not wavelength_m > 0.0:  # written so that a NaN fails it too
        raise NumericalDomainError("wavelength must be positive")
    # x, y, z summed in order, as a sum over the last axis would, but with
    # no (..., 3) temporary: at M x K that temporary outgrows the cache
    d = np.sqrt((user[..., 0] - antenna[..., 0]) ** 2
                + (user[..., 1] - antenna[..., 1]) ** 2
                + (user[..., 2] - antenna[..., 2]) ** 2)
    amplitude = np.sqrt(z) / (_TWO_SQRT_PI * (d * np.sqrt(d)))
    # d becomes the phase in radians, within [-pi, pi]
    d /= wavelength_m
    d -= np.rint(d)
    d *= -2.0 * math.pi
    gain = np.empty(np.shape(d), dtype=complex)
    np.cos(d, out=gain.real)
    np.sin(d, out=gain.imag)
    gain *= amplitude
    return gain[()]  # a complex scalar for one user and one antenna


def realize_channel(scenario: Scenario, users: np.ndarray,
                    wavelength_m: float) -> ChannelRealization:
    """Generate all panel blocks and normalize the stacked channel.

    ``users`` holds the K x 3 user positions, as ``sample_users`` returns;
    another shape raises ``ValueError`` and a non-finite coordinate
    ``NumericalDomainError``. A single scale c = sqrt(M K) / ||H_raw||_F
    is applied to every block so the stacked Frobenius norm squared
    equals M * K exactly.
    """
    users = np.asarray(users, dtype=float)
    if users.ndim != 2 or users.shape[1] != 3:
        raise ValueError(f"users must be K x 3, got shape {users.shape}")
    stacked = los_gain(users[None, :, :],
                       scenario.antenna_positions[:, None, :], wavelength_m)
    blocks = stacked.reshape(scenario.p_count, scenario.antennas_per_panel,
                             users.shape[0])
    # summed block by block: one sum over all M rows rounds differently
    power = sum(np.sum(np.abs(blocks) ** 2, axis=(1, 2)).tolist())
    if power <= 0.0:
        raise DegenerateChannelError("raw channel is identically zero")
    stacked *= math.sqrt(stacked.size / power)
    return ChannelRealization(blocks=tuple(blocks))

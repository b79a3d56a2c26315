import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lisim import channel
from lisim.errors import (ConfigError, DegenerateChannelError,
                          NumericalDomainError)

BROADSIDE_GAIN = 1.0 / (2.0 * math.sqrt(math.pi))  # |h| at d = z = 1


@pytest.fixture
def cfg():
    return channel.ScenarioConfig()


class TestScenarioConfig:
    def test_defaults_valid(self):
        channel.ScenarioConfig()

    @pytest.mark.parametrize("overrides", [
        {"panel_side_m": 0.3},            # does not divide the 10 m width
        {"lis_height_m": 0.5, "panel_side_m": 0.4},
        {"snr_rho": 0.0},
        {"min_user_depth_m": 0.0},
        {"users_k": 0},
        {"wavelength_m": -1.0},
        {"lis_height_m": 5.0},            # taller than the room
        {"min_user_depth_m": 30.0},       # as deep as the room
        {"users_k": 2.5},
        {"users_k": True},
        {"lis_width_m": "10"},            # math.isfinite raised TypeError
        {"snr_rho": None},
        {"wavelength_m": [0.05]},
        {"room_depth_m": True},
        {"snr_rho": 10**400},             # math.isfinite raised OverflowError
        {"wavelength_m": Fraction(1, 2)},  # los_gain raised TypeError
    ])
    def test_rejects_bad_values(self, cfg, overrides):
        with pytest.raises(ConfigError):
            replace(cfg, **overrides)


def _panels(sc):
    """The antenna positions as a P x Mp x 3 array, one panel per row."""
    return sc.antenna_positions.reshape(sc.p_count, sc.antennas_per_panel, 3)


def _panel_spacing(sc):
    """Smallest distance between two antennas of the first panel."""
    pos = _panels(sc)[0]
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return dist[~np.eye(len(pos), dtype=bool)].min()


class TestBuildScenario:
    def test_small_panels(self, cfg):
        sc = channel.build_scenario(replace(cfg, panel_side_m=0.2), 16)
        assert sc.p_count == 250
        assert sc.antenna_positions.shape == (4000, 3)
        assert _panel_spacing(sc) == pytest.approx(0.05)

    def test_large_panels(self, cfg):
        sc = channel.build_scenario(replace(cfg, panel_side_m=1.0), 400)
        assert sc.p_count == 10
        assert sc.antenna_positions.shape == (4000, 3)
        assert _panel_spacing(sc) == pytest.approx(0.05)

    def test_single_antenna_at_panel_center(self, cfg):
        tiny = replace(cfg, lis_width_m=1.0, lis_height_m=1.0,
                       panel_side_m=1.0)
        sc = channel.build_scenario(tiny, 1)
        assert sc.p_count == 1
        # the one panel spans x in [-0.5, 0.5] and y in [1, 2]
        np.testing.assert_allclose(sc.antenna_positions, [[0.0, 1.5, 0.0]])

    def test_antennas_inside_surface_rectangle(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        pos = sc.antenna_positions
        assert np.all(pos[:, 2] == 0.0)
        assert np.all(np.abs(pos[:, 0]) < cfg.lis_width_m / 2)
        y0 = (cfg.room_height_m - cfg.lis_height_m) / 2
        assert np.all(pos[:, 1] > y0)
        assert np.all(pos[:, 1] < y0 + cfg.lis_height_m)

    def test_row_major_chain_order(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        centers = _panels(sc).mean(axis=1)
        # 5 rows of 50 panels, bottom row first, each row left to right
        row, col = np.divmod(np.arange(250), 50)
        x0 = -cfg.lis_width_m / 2
        y0 = (cfg.room_height_m - cfg.lis_height_m) / 2
        np.testing.assert_allclose(centers[:, 0], x0 + (col + 0.5) * 0.2,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(centers[:, 1], y0 + (row + 0.5) * 0.2,
                                   rtol=0, atol=1e-12)
        assert np.all(centers[:, 2] == 0.0)

    def test_rejects_non_square_mp(self, cfg):
        for mp in (15, -4, 0, 2.5, 16.0):
            with pytest.raises(ConfigError):
                channel.build_scenario(cfg, mp)

    def test_rejects_non_divisible_geometry(self, cfg):
        with pytest.raises(ConfigError):
            channel.build_scenario(replace(cfg, panel_side_m=0.3), 9)


class TestSampleUsers:
    def test_deterministic_given_seed(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        a = channel.sample_users(sc, cfg, np.random.default_rng(7))
        b = channel.sample_users(sc, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_depth_floor_enforced(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        users = channel.sample_users(sc, replace(cfg, users_k=2000),
                                     np.random.default_rng(3))
        assert users.shape == (2000, 3)
        assert users[:, 2].min() >= cfg.min_user_depth_m

    def test_uniform_moments(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        big = replace(cfg, users_k=10_000)
        pos = channel.sample_users(sc, big, np.random.default_rng(11))
        lows = np.array([-cfg.room_width_m / 2, 0.0, cfg.min_user_depth_m])
        highs = np.array([cfg.room_width_m / 2, cfg.room_height_m,
                          cfg.room_depth_m])
        assert np.all(pos >= lows) and np.all(pos <= highs)
        centers = (lows + highs) / 2
        stderr = (highs - lows) / math.sqrt(12.0) / math.sqrt(big.users_k)
        assert np.all(np.abs(pos.mean(axis=0) - centers) <= 3.0 * stderr)


class TestLosGain:
    def test_broadside_one_meter(self):
        # d = 1, d/wavelength = 20 is an integer, so the phase is exactly 1
        g = channel.los_gain([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.05)
        assert g == pytest.approx(BROADSIDE_GAIN + 0.0j, rel=1e-12)

    def test_one_wavelength_away(self):
        g = channel.los_gain([0.0, 0.0, 0.05], [0.0, 0.0, 0.0], 0.05)
        assert g == pytest.approx(BROADSIDE_GAIN / 0.05 + 0.0j, rel=1e-12)

    def test_magnitude_halves_when_depth_doubles(self):
        g = channel.los_gain([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], 0.05)
        assert abs(g) == pytest.approx(BROADSIDE_GAIN / 2.0, rel=1e-12)

    def test_equidistant_antennas_equal_magnitude(self):
        user = [0.3, 0.7, 2.5]
        left = channel.los_gain(user, [user[0] - 1.0, user[1], 0.0], 0.05)
        right = channel.los_gain(user, [user[0] + 1.0, user[1], 0.0], 0.05)
        assert abs(left) == pytest.approx(abs(right), rel=1e-12)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(NumericalDomainError):
            channel.los_gain([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.05)

    @pytest.mark.parametrize("wavelength_m", [0.0, -0.05, np.nan])
    def test_rejects_nonpositive_wavelength(self, wavelength_m):
        with pytest.raises(NumericalDomainError, match="wavelength"):
            channel.los_gain([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], wavelength_m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("point", [0, 1], ids=["user", "antenna"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rejects_non_finite_coordinate(self, axis, point, bad):
        points = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        points[point][axis] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="non-finite"):
                channel.los_gain(*points, 0.05)

    @pytest.mark.parametrize("side, mp", [(0.2, 16), (1.0, 400)])
    def test_matches_long_double_formula(self, cfg, side, mp):
        profile = replace(cfg, panel_side_m=side)
        sc = channel.build_scenario(profile, mp)
        for seed in range(5):
            users = channel.sample_users(sc, profile,
                                         np.random.default_rng(seed))
            got = _panel_block(sc.antenna_positions, users, 0.05)
            ref = _long_double_gain(users, sc.antenna_positions, 0.05)
            assert _relative_error(got, ref) <= 2e-12

    def test_phasor_has_unit_modulus(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        users = channel.sample_users(sc, cfg, np.random.default_rng(0))
        g = _panel_block(sc.antenna_positions, users, 0.05)
        d = np.linalg.norm(users[None, :, :]
                           - sc.antenna_positions[:, None, :], axis=-1)
        amplitude = np.sqrt(users[:, 2]) / (2.0 * math.sqrt(math.pi) * d**1.5)
        assert np.max(np.abs(np.abs(g) / amplitude - 1.0)) <= 2e-15

    def test_far_user_phase_within_rounding_of_distance(self, rng):
        antennas = rng.random((50, 3)) * [1.0, 1.0, 0.0]
        users = rng.random((20, 3)) * [10.0, 10.0, 0.0] + [0.0, 0.0, 1000.0]
        got = _panel_block(antennas, users, 0.05)
        ref = _long_double_gain(users, antennas, 0.05)
        # the rounding of d, at d / wavelength = 2e4 cycles, is the floor
        bound = 8 * math.pi * (1000.0 / 0.05) * np.finfo(float).eps
        assert _relative_error(got, ref) <= bound


def _panel_block(antennas, users, wavelength_m):
    """Unnormalized Mp x K block: ``los_gain`` of each antenna and user."""
    return channel.los_gain(users[None, :, :],
                            antennas[:, None, :], wavelength_m)


def _long_double_gain(users, antennas, wavelength_m):
    """``los_gain``'s formula in long double, from the same float inputs."""
    u = users.astype(np.longdouble)[None, :, :]
    a = antennas.astype(np.longdouble)[:, None, :]
    d = np.sqrt(np.sum((u - a) ** 2, axis=-1))
    pi = 4 * np.arctan(np.longdouble(1))
    amplitude = np.sqrt(u[..., 2]) / (2 * np.sqrt(pi) * d * np.sqrt(d))
    phase = -2 * pi * d / np.longdouble(wavelength_m)
    return amplitude * (np.cos(phase) + 1j * np.sin(phase))


def _relative_error(got, ref):
    """Largest ``|got - ref| / |ref|``, evaluated in long double."""
    err = np.abs(got.astype(np.clongdouble) - ref) / np.abs(ref)
    return float(np.max(err))


class TestPanelChannel:
    def _single_antenna_panel(self):
        return np.zeros((1, 3))

    def test_matches_scalar_gain(self):
        users = np.array([[0.0, 0.0, 1.0]])
        h = _panel_block(self._single_antenna_panel(), users, 0.05)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(BROADSIDE_GAIN + 0.0j, rel=1e-12)

    def test_duplicate_users_duplicate_columns(self):
        p = self._single_antenna_panel()
        users = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        h = _panel_block(p, users, 0.05)
        np.testing.assert_array_equal(h[:, 0], h[:, 1])

    def test_far_user_magnitude(self):
        users = np.array([[0.0, 0.0, 1000.0]])
        h = _panel_block(self._single_antenna_panel(), users, 0.05)
        assert abs(h[0, 0]) == pytest.approx(BROADSIDE_GAIN / 1000.0,
                                             rel=1e-12)

    def test_permutation_equivariance(self, rng):
        p = rng.random((4, 3)) * [1, 1, 0]
        pos = rng.random((5, 3)) + [0, 0, 1.0]
        perm = rng.permutation(5)
        h = _panel_block(p, pos, 0.05)
        h_perm = _panel_block(p, pos[perm], 0.05)
        np.testing.assert_allclose(h[:, perm], h_perm, rtol=1e-12)


class TestRealizeChannel:
    def test_stacked_norm_invariant(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        users = channel.sample_users(sc, cfg, np.random.default_rng(5))
        chan = channel.realize_channel(sc, users, cfg.wavelength_m)
        power = sum(np.sum(np.abs(b) ** 2) for b in chan.blocks)
        target = sc.antenna_positions.shape[0] * cfg.users_k
        assert power == pytest.approx(target, rel=1e-9)
        assert len(chan.blocks) == 250
        assert np.vstack(chan.blocks).shape == (4000, 20)

    def test_scalar_normalization(self, cfg):
        # single antenna facing a single broadside user whose raw gain is 2:
        # 1 / (2 sqrt(pi) z) = 2, with the wavelength equal to the distance
        # so the phase term is exactly 1
        z = 1.0 / (4.0 * math.sqrt(math.pi))
        tiny = replace(cfg, lis_width_m=1.0, lis_height_m=1.0,
                       panel_side_m=1.0, users_k=1)
        sc = channel.build_scenario(tiny, 1)
        antenna = sc.antenna_positions[0]
        users = np.array([[antenna[0], antenna[1], z]])
        raw = channel.los_gain(users[0], antenna, z)
        assert raw == pytest.approx(2.0 + 0.0j, rel=1e-12)
        chan = channel.realize_channel(sc, users, wavelength_m=z)
        assert chan.blocks[0][0, 0] == pytest.approx(1.0 + 0.0j, rel=1e-12)
        # M K = 1, so the scale is 1 / |raw|
        assert np.sum(np.abs(chan.blocks[0]) ** 2) == pytest.approx(1.0)

    def test_rescaled_geometry_keeps_normalized_power(self, cfg):
        tiny = replace(cfg, lis_width_m=1.0, lis_height_m=1.0,
                       panel_side_m=1.0, users_k=3)
        sc = channel.build_scenario(tiny, 4)
        rng = np.random.default_rng(9)
        pos = channel.sample_users(sc, tiny, rng)
        scales = []
        for users in (pos, pos * [1, 1, 4.0]):
            chan = channel.realize_channel(sc, users, 0.05)
            raw = _panel_block(sc.antenna_positions, users, 0.05)
            scale = abs(chan.blocks[0][0, 0] / raw[0, 0])
            np.testing.assert_allclose(np.vstack(chan.blocks), scale * raw,
                                       rtol=1e-12)
            power = sum(np.sum(np.abs(b) ** 2) for b in chan.blocks)
            target = sc.antenna_positions.shape[0] * tiny.users_k
            assert power == pytest.approx(target, rel=1e-9)
            scales.append(scale)
        assert scales[1] > scales[0]  # the far users' raw channel is weaker

    def test_underflowed_channel_raises(self, cfg):
        tiny = replace(cfg, lis_width_m=1.0, lis_height_m=1.0,
                       panel_side_m=1.0, users_k=1)
        sc = channel.build_scenario(tiny, 1)
        # amplitude underflows to exactly zero at this absurd range
        users = np.array([[1e130, 1.5, 1e-300]])
        with pytest.raises(DegenerateChannelError):
            channel.realize_channel(sc, users, 0.05)

    @pytest.mark.parametrize("side, mp", [(0.2, 16), (1.0, 400)])
    def test_blocks_match_per_block_formula(self, cfg, side, mp):
        # the power summed block by block and each block scaled on its own
        profile = replace(cfg, panel_side_m=side)
        sc = channel.build_scenario(profile, mp)
        for trial in range(3):
            users = channel.sample_users(
                sc, profile, np.random.default_rng([42, trial]))
            stacked = _panel_block(sc.antenna_positions, users, 0.05)
            raw = np.split(stacked, sc.p_count)
            power = sum(float(np.sum(np.abs(b) ** 2)) for b in raw)
            scale = math.sqrt(stacked.shape[0] * profile.users_k / power)
            chan = channel.realize_channel(sc, users, 0.05)
            assert len(chan.blocks) == len(raw)
            for got, b in zip(chan.blocks, raw):
                np.testing.assert_array_equal(got, scale * b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_rejects_non_finite_user(self, cfg, bad, axis):
        sc = channel.build_scenario(cfg, 16)
        users = channel.sample_users(sc, cfg, np.random.default_rng(0))
        users[3, axis] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="non-finite"):
                channel.realize_channel(sc, users, cfg.wavelength_m)

    @pytest.mark.parametrize("shape", [(20, 2), (20, 4), (60,), (1, 20, 3)])
    def test_rejects_wrong_user_shape(self, cfg, shape):
        sc = channel.build_scenario(cfg, 16)
        with pytest.raises(ValueError, match="K x 3"):
            channel.realize_channel(sc, np.ones(shape), cfg.wavelength_m)

    def test_deterministic_given_seed(self, cfg):
        sc = channel.build_scenario(cfg, 16)
        chans = []
        for _ in range(2):
            users = channel.sample_users(sc, cfg, np.random.default_rng(42))
            chans.append(channel.realize_channel(sc, users, cfg.wavelength_m))
        np.testing.assert_array_equal(np.vstack(chans[0].blocks),
                                      np.vstack(chans[1].blocks))

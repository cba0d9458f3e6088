"""Shared fixtures: fast, small-scale scenarios for unit/integration tests.

Full-scale workloads live in benchmarks/; tests use reduced scatterer
counts, grouped tone grids, and short traces so the suite stays fast while
still exercising every code path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays.geometry import hexagonal_array, l_shaped_array, linear_array
from repro.channel.impairments import ImpairmentConfig, clean
from repro.channel.model import MultipathChannel
from repro.channel.ofdm import make_grid
from repro.channel.sampler import CsiSampler, ap_antenna_positions
from repro.channel.scatterers import ring_field, uniform_field


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_grid():
    """A 30-tone grouped grid (Intel-5300 style) — 4x faster than full."""
    return make_grid().grouped(30)


@pytest.fixture(scope="session")
def fast_channel(small_grid):
    """A compact rich-scattering channel for pipeline tests."""
    rng = np.random.default_rng(777)
    field = uniform_field(20.0, 15.0, n_scatterers=60, rng=rng)
    return MultipathChannel(scatterers=field, grid=small_grid, los_gain=0.5)


@pytest.fixture(scope="session")
def fast_sampler(fast_channel):
    rng = np.random.default_rng(778)
    return CsiSampler(
        channel=fast_channel,
        tx_positions=ap_antenna_positions((1.0, 1.0), n_tx=2),
        impairments=ImpairmentConfig(snr_db=25.0),
        rng=rng,
    )


@pytest.fixture(scope="session")
def clean_sampler(fast_channel):
    """Sampler with no impairments at all (for exactness tests)."""
    rng = np.random.default_rng(779)
    return CsiSampler(
        channel=fast_channel,
        tx_positions=ap_antenna_positions((1.0, 1.0), n_tx=2),
        impairments=clean(),
        rng=rng,
    )


@pytest.fixture(scope="session")
def three_antenna():
    return linear_array(3)


@pytest.fixture(scope="session")
def hexagon():
    return hexagonal_array()


@pytest.fixture(scope="session")
def l_array():
    return l_shaped_array()


@pytest.fixture(scope="session")
def line_trace(fast_sampler, three_antenna):
    """A cached 1 m line trace at 0.5 m/s along the array axis."""
    from repro.motionsim.profiles import line_trajectory

    traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
    return fast_sampler.sample(traj, three_antenna)


@pytest.fixture(scope="session")
def hex_line_trace(fast_sampler, hexagon):
    """A cached hexagonal-array trace moving at +30 degrees."""
    from repro.motionsim.profiles import line_trajectory

    traj = line_trajectory((10.0, 8.0), 30.0, 0.5, 1.6)
    return fast_sampler.sample(traj, hexagon)

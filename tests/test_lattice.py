import numpy as np
import pytest

from hybridbcs.errors import ConfigurationError
from hybridbcs.lattice import BandGrid, build_flat_band, revival_time


def test_flat_band_weights_sum_to_one():
    grid = build_flat_band(1.0, 128)
    assert grid.n_modes == 128
    assert abs(grid.weights.sum() - 1.0) < 1e-14


def test_flat_band_midpoint_energies():
    grid = build_flat_band(2.0, 4)
    assert np.allclose(grid.energies, [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(grid.weights, 0.25)


def test_flat_band_excludes_fermi_level_and_edges():
    grid = build_flat_band(1.0, 64)
    assert np.all(np.abs(grid.energies) > 0)
    assert np.max(np.abs(grid.energies)) < 0.5


def test_flat_band_second_moment():
    # Midpoint rule on a flat band: sum w eps^2 = W^2/12 (1 - 1/n^2).
    for n in (4, 16, 256):
        grid = build_flat_band(1.0, n)
        moment = np.sum(grid.weights * grid.energies ** 2)
        assert abs(moment - (1.0 / 12.0) * (1.0 - 1.0 / n ** 2)) < 1e-15


def test_flat_band_rejects_odd_or_small():
    for bad in (0, 1, 3, 7):
        with pytest.raises(ConfigurationError):
            build_flat_band(1.0, bad)
    # BandGrid checks the bandwidth, NaN and inf included; building their
    # energies raises no RuntimeWarning first.
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            build_flat_band(bad, 4)


def test_grid_validation():
    nan, inf = np.nan, np.inf
    good = ([-0.25, 0.25], [0.5, 0.5], 1.0)
    assert BandGrid(*good).n_modes == 2
    bad = [
        ([0.0], [0.5, 0.5], 1.0),
        ([-0.25, 0.25], [0.7, 0.7], 1.0),
        ([-0.25, 0.25], [1.0, 0.0], 1.0),
        ([], [], 1.0),
        # Non-finite values, which fail no `<` or `>` comparison.
        ([nan, 0.5], [nan, 0.5], 1.0),
        ([nan, 0.5], [0.5, 0.5], 1.0),
        ([inf, 0.5], [0.5, 0.5], 1.0),
        ([-0.25, 0.25], [nan, 0.5], 1.0),
        ([-0.25, 0.25], [inf, 0.5], 1.0),
        ([-0.25, 0.25], [0.5, 0.5], nan),
        ([-0.25, 0.25], [0.5, 0.5], inf),
    ]
    for energies, weights, bandwidth in bad:
        with pytest.raises(ConfigurationError):
            BandGrid(np.array(energies), np.array(weights), bandwidth)


def test_grid_arrays_read_only():
    grid = build_flat_band(1.0, 8)
    with pytest.raises(ValueError):
        grid.energies[0] = 0.0


def test_nearest_mode():
    grid = build_flat_band(1.0, 8)
    for j, eps in enumerate(grid.energies):
        assert grid.nearest_mode(eps) == j
    assert grid.nearest_mode(10.0) == 7
    assert grid.nearest_mode(-10.0) == 0


def test_revival_time():
    # Pair amplitudes precess at 2 eps_k: the dephasing sum returns to
    # modulus 1 at the revival time and vanishes at half of it.
    for width, n_modes in ((1.0, 64), (2.0, 64), (3.0, 128)):
        grid = build_flat_band(width, n_modes)
        t_rev = revival_time(grid)

        def coherence(t):
            return abs(np.sum(grid.weights * np.exp(2j * grid.energies * t)))

        assert abs(coherence(t_rev) - 1.0) < 1e-12
        assert coherence(0.5 * t_rev) < 1e-12

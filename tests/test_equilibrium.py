import numpy as np
import pytest

from hybridbcs.dynamics import SystemParams, _split, density, rhs_total
from hybridbcs.equilibrium import (
    build_ground_state,
    continuum_gap,
    solve_gap,
)
from hybridbcs.errors import ConfigurationError, NoGapSolutionError
from hybridbcs.lattice import build_flat_band


def test_gap_matches_continuum_at_fine_grid():
    for u in (0.5, 1.0, 2.0):
        grid = build_flat_band(1.0, 4096)
        sol = solve_gap(grid, u)
        assert abs(sol.gap - continuum_gap(1.0, u)) < 1e-6
        assert sol.residual < 1e-12


def test_gap_residual_is_tiny():
    grid = build_flat_band(1.0, 256)
    sol = solve_gap(grid, 1.0)
    assert sol.residual < 1e-13


def test_gap_scales_with_bandwidth():
    # The gap equation is scale covariant: gap(c W, c u) = c gap(W, u).
    grid1 = build_flat_band(1.0, 512)
    grid3 = build_flat_band(3.0, 512)
    assert abs(solve_gap(grid3, 3.0).gap - 3.0 * solve_gap(grid1, 1.0).gap) < 1e-10


def test_no_solution_below_threshold():
    grid = build_flat_band(1.0, 8)
    with pytest.raises(NoGapSolutionError):
        solve_gap(grid, 0.01)


def test_invalid_coupling():
    grid = build_flat_band(1.0, 8)
    with pytest.raises(ConfigurationError):
        solve_gap(grid, 0.0)


def test_ground_state_half_filling_and_unit_length():
    grid = build_flat_band(1.0, 512)
    state = build_ground_state(grid, solve_gap(grid, 1.0))
    assert abs(density(state, grid) - 1.0) < 1e-12
    zeta = 4.0 * np.abs(state.d_k) ** 2 + (2.0 * state.n_k - 1.0) ** 2
    assert np.max(np.abs(zeta - 1.0)) < 1e-13


def test_ground_state_is_stationary():
    # With Gamma = P = 0 the BCS ground state must be a fixed point of the
    # equations of motion: the 2 eps Delta_k term cancels against the
    # pairing drive mode by mode.
    grid = build_flat_band(1.0, 256)
    for u in (0.5, 1.0):
        state = build_ground_state(grid, solve_gap(grid, u))
        params = SystemParams(u=u, gamma=0.0, pump=0.0, alpha=1.0, grid=grid)
        dn_k, dd_k = _split(rhs_total(state, params))
        assert np.max(np.abs(dn_k)) < 1e-12
        assert np.max(np.abs(dd_k)) < 1e-12

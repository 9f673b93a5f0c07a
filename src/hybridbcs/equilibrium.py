"""BCS self-consistency at zero dissipation and the initial variational state."""

from dataclasses import dataclass

import numpy as np

from .dynamics import BcsState
from .errors import ConfigurationError, NoGapSolutionError


@dataclass(frozen=True)
class GapSolution:
    """Solution of 1 = |U| sum_k w_k / (2 E_k) with E_k = sqrt(eps_k^2 + gap^2).

    `gap` is the energy gap, |U| times the pair amplitude sum_k w_k Delta_k;
    `residual` is |1 - |U| sum_k w_k / (2 E_k)| at that gap.
    """

    gap: float
    residual: float


def _gap_lhs(grid, u, gap):
    e_k = np.sqrt(grid.energies ** 2 + gap ** 2)
    return u * np.sum(grid.weights / (2.0 * e_k))


def solve_gap(grid, u):
    """Solve the BCS gap equation on the grid by bisection.

    The right-hand side |U| sum_k w_k/(2 E_k) is strictly decreasing in the
    gap, so the root is unique when it exists. Raises NoGapSolutionError when
    the coupling is below the discrete-grid threshold.
    """
    if u <= 0:
        raise ConfigurationError("attraction strength u must be positive")
    if _gap_lhs(grid, u, 0.0) < 1.0:
        raise NoGapSolutionError(
            "coupling below the discrete-grid threshold: |U| sum_k w_k/(2|eps_k|) < 1")
    lo, hi = 0.0, grid.bandwidth
    while _gap_lhs(grid, u, hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = _gap_lhs(grid, u, mid)
        if val > 1.0:
            lo = mid
        else:
            hi = mid
        if abs(val - 1.0) < 1e-13 and hi - lo < 1e-15 * grid.bandwidth:
            break
    gap = 0.5 * (lo + hi)
    residual = abs(1.0 - _gap_lhs(grid, u, gap))
    return GapSolution(gap=gap, residual=residual)


def continuum_gap(bandwidth, u):
    """Closed-form continuum-limit gap of the flat band, W / (2 sinh(W/|U|))."""
    return bandwidth / (2.0 * np.sinh(bandwidth / u))


def build_ground_state(grid, gap_solution):
    """Equilibrium BCS state at half filling, real positive pairing gauge.

    n_k = (1 - eps_k/E_k)/2, Delta_k = gap/(2 E_k); every mode has unit
    pseudospin length and the total density is n = 1 on a PH-symmetric grid.
    """
    gap = gap_solution.gap
    e_k = np.sqrt(grid.energies ** 2 + gap ** 2)
    n_k = 0.5 * (1.0 - grid.energies / e_k)
    d_k = gap / (2.0 * e_k) + 0j
    return BcsState(t=0.0, n_k=n_k, d_k=d_k)

"""BCS self-consistency at zero dissipation and the initial variational state."""

import numpy as np

from .dynamics import BcsState
from .errors import ConfigurationError, NoGapSolutionError


def _gap_lhs(grid, u, gap):
    e_k = np.sqrt(grid.energies ** 2 + gap ** 2)
    return u * np.sum(grid.weights / (2.0 * e_k))


def solve_gap(grid, u):
    """Gap of the BCS equation 1 = |U| sum_k w_k / (2 E_k) on the grid, by bisection.

    E_k = sqrt(eps_k^2 + gap^2), and the gap is |U| times the pair amplitude
    sum_k w_k Delta_k. The right-hand side is strictly decreasing in the
    gap, so the root is unique when it exists. Raises NoGapSolutionError when
    the coupling is below the discrete-grid threshold.
    """
    if not 0 < u < np.inf:
        raise ConfigurationError("attraction strength u must be positive and finite")
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
    return 0.5 * (lo + hi)


def continuum_gap(bandwidth, u):
    """Closed-form continuum-limit gap of the flat band, W / (2 sinh(W/|U|))."""
    return bandwidth / (2.0 * np.sinh(bandwidth / u))


def build_ground_state(grid, gap):
    """Equilibrium BCS state at half filling, real positive pairing gauge.

    n_k = (1 - eps_k/E_k)/2, Delta_k = gap/(2 E_k); every mode has unit
    pseudospin length and the total density is n = 1 on a PH-symmetric grid.
    """
    e_k = np.sqrt(grid.energies ** 2 + gap ** 2)
    n_k = 0.5 * (1.0 - grid.energies / e_k)
    d_k = gap / (2.0 * e_k) + 0j
    return BcsState(t=0.0, n_k=n_k, d_k=d_k)

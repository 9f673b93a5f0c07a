"""Discretized flat-density-of-states band.

All momentum sums are quadrature sums over this grid: a smooth function f
of the band energy is integrated as sum_k w_k f(eps_k), with sum_k w_k = 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class BandGrid:
    """Discretized band of width `bandwidth` with flat density of states.

    Immutable after construction; safe to share between threads.
    """

    energies: np.ndarray
    weights: np.ndarray
    bandwidth: float

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "weights", weights)
        if energies.ndim != 1 or weights.shape != energies.shape:
            raise ConfigurationError("energies and weights must be 1-D and of one length")
        # Each check below is written so that NaN fails it: every NaN comparison is false.
        if not 0 < self.bandwidth < np.inf:
            raise ConfigurationError("bandwidth must be positive and finite")
        if not np.all(np.isfinite(energies)):
            raise ConfigurationError("energies must be finite")
        if not np.all(weights > 0):
            raise ConfigurationError("quadrature weights must be positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ConfigurationError("quadrature weights must sum to 1")
        energies.setflags(write=False)
        weights.setflags(write=False)

    @property
    def n_modes(self):
        return len(self.energies)

    def nearest_mode(self, energy):
        """Index of the grid mode closest to the requested energy."""
        return int(np.argmin(np.abs(self.energies - energy)))


def build_flat_band(bandwidth, n_modes):
    """Midpoint-rule discretization of the flat band on [-W/2, W/2].

    n_modes must be even so the Fermi level eps = 0 falls between modes and
    the grid is exactly particle-hole symmetric; no mode sits at eps = 0 or
    at the band edges.
    """
    if n_modes < 2 or n_modes % 2 != 0:
        raise ConfigurationError("n_modes must be an even integer >= 2")
    j = np.arange(n_modes)
    energies = bandwidth * ((j + 0.5) / n_modes - 0.5)
    weights = np.full(n_modes, 1.0 / n_modes)
    return BandGrid(energies=energies, weights=weights, bandwidth=float(bandwidth))


def revival_time(grid):
    """Finite-grid dephasing revival time, pi*n_modes / W.

    Pair amplitudes precess at 2*eps_k, and on the midpoint grid the mode
    spacing is W / n_modes, so sum_k w_k exp(2i eps_k t) first returns to
    modulus 1 at t = pi*n_modes / W (it vanishes at half that time).
    """
    return np.pi * grid.n_modes / grid.bandwidth

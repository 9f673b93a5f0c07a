"""Driven-dissipative BCS dynamics with a hybrid Lindblad / no-click generator."""

from .lattice import BandGrid, build_flat_band, revival_time
from .equilibrium import GapSolution, solve_gap, continuum_gap, build_ground_state
from .dynamics import (
    BcsState,
    SystemParams,
    density,
    order_parameter,
    particle_hole_transform,
    pseudospin,
    rhs_total,
)
from .integrator import Protocol, TimeSeries, run_protocol
from .observables import (
    PlateauReport,
    PowerLawFit,
    collapse_index,
    detect_plateau,
    exponent_drift,
    fit_power_law,
    population_inversion_time,
)
from .errors import (
    BlowupError,
    ConfigurationError,
    IntegrationError,
    NoGapSolutionError,
    StepUnderflowError,
)

__version__ = "0.1.0"

__all__ = [
    "BandGrid",
    "BcsState",
    "BlowupError",
    "ConfigurationError",
    "GapSolution",
    "IntegrationError",
    "NoGapSolutionError",
    "PlateauReport",
    "PowerLawFit",
    "Protocol",
    "StepUnderflowError",
    "SystemParams",
    "TimeSeries",
    "build_flat_band",
    "build_ground_state",
    "collapse_index",
    "continuum_gap",
    "density",
    "detect_plateau",
    "exponent_drift",
    "fit_power_law",
    "order_parameter",
    "particle_hole_transform",
    "population_inversion_time",
    "pseudospin",
    "revival_time",
    "rhs_total",
    "run_protocol",
    "solve_gap",
]

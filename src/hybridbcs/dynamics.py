"""Right-hand side of the hybrid equations of motion for (n_k, Delta_k).

The generator is the full Lindbladian plus loss and pump corrections
weighted by (alpha - 1); alpha = 1 recovers the Lindblad dynamics, alpha = 0
the normalized no-click (non-Hermitian) dynamics. rhs_total evaluates all of
it in one call, computing n and Delta once.

Self-consistent fields (n, Delta, Phi) are recomputed at every evaluation:
the adaptive integrator assumes a pure function of the state. Occupations
are not clamped; physicality (0 <= n_k <= 1, zeta_k <= 1) is monitored by
tests, not enforced here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigurationError
from .lattice import BandGrid


@dataclass(frozen=True)
class SystemParams:
    """Interaction, rates and the hybrid parameter alpha of one run.

    alpha weights the recycling term of the loss and the pump jumps alike.
    """

    u: float
    gamma: float
    pump: float
    alpha: float
    grid: BandGrid

    def __post_init__(self):
        if not all(0.0 <= x < np.inf for x in (self.u, self.gamma, self.pump)):
            raise ConfigurationError("u, gamma and pump must be finite and non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in [0, 1]")


@dataclass
class BcsState:
    """Per-mode occupations n_k (per spin) and pairing amplitudes Delta_k."""

    t: float
    n_k: np.ndarray
    d_k: np.ndarray

    def __post_init__(self):
        self.n_k = np.asarray(self.n_k, dtype=float)
        self.d_k = np.asarray(self.d_k, dtype=complex)
        if self.n_k.shape != self.d_k.shape:
            raise ConfigurationError("n_k and d_k must have the same length")


def _pack(state):
    """The packed state y = [n_k, Re Delta_0, Im Delta_0, Re Delta_1, ...]."""
    return np.concatenate([state.n_k, np.ascontiguousarray(state.d_k).view(float)])


def _split(y):
    """Views of a packed state or derivative: (y[:M], y[M:] read as complex)."""
    m = y.size // 3
    return y[:m], y[m:].view(complex)


def _unpack(y, t):
    """A BcsState over the views of y."""
    return BcsState(t, *_split(y))


def density(state, grid):
    """Total density n = 2 sum_k w_k n_k (factor 2 for spin)."""
    # einsum, not BLAS ddot, whose bits OpenBLAS lets depend on the thread count.
    return 2.0 * float(np.einsum("i,i->", grid.weights, state.n_k))


def _pairs(d_k):
    """d_k as an (M, 2) real array [Re Delta_k, Im Delta_k]; a view when contiguous."""
    return np.ascontiguousarray(d_k).view(float).reshape(-1, 2)


def order_parameter(state, grid):
    """Order parameter Delta = sum_k w_k Delta_k."""
    return complex(*(grid.weights @ _pairs(state.d_k)).tolist())


def pseudospin(state, grid):
    """Per-mode pseudospin components and squared length.

    Returns (sx, sy, sz, zeta_k, zeta_mean) with sx = 2 Re Delta_k,
    sy = 2 Im Delta_k, sz = 2 n_k - 1 and zeta_k = sx^2 + sy^2 + sz^2;
    zeta_mean is the weighted average over the grid.
    """
    sx = 2.0 * state.d_k.real
    sy = 2.0 * state.d_k.imag
    sz = 2.0 * state.n_k - 1.0
    zeta_k = sx ** 2 + sy ** 2 + sz ** 2
    zeta_mean = float(np.einsum("i,i->", grid.weights, zeta_k))  # see density
    return sx, sy, sz, zeta_k, zeta_mean


def rhs_total(state, params):
    """Hybrid generator: Lindblad + (alpha-1)-weighted loss and pump terms.

    Returns the packed derivative [dn_k, Re dDelta_0, Im dDelta_0, ...] (see _split).

    With Phi = (-|U| + i(Gamma - P)) Delta the gap field, hole = 1 - n/2 and
    h_k = 1 - n_k, the Lindblad part is

        dn_k = -2 Im(Phi Delta_k*) - Gamma n n_k + 2 P hole h_k
        dDelta_k = (2i eps_k - Gamma n - 2 P hole) Delta_k - i Phi (2 n_k - 1)

    and the corrections enter with c_l = Gamma (alpha - 1) and
    c_p = P (alpha - 1):

        dn_k += -c_l n (n_k^2 - |Delta_k|^2) + 2 c_p hole (h_k^2 - |Delta_k|^2)
                + 4 Re(Delta Delta_k*) (c_p h_k - c_l n_k)
        dDelta_k += 2 [Delta (c_l n_k^2 + c_p h_k^2)
                       - Delta_k (c_l n n_k + 2 c_p hole h_k)
                       - (c_l + c_p) Delta* Delta_k^2]

    Regrouped around the scalars c = c_l + c_p, q, a0, a1, c0, u and v set
    below, with x.Delta_k = x_r Re Delta_k + x_i Im Delta_k, this reads

        dn_k = a0 + a1 n_k + q (n_k^2 - |Delta_k|^2) + u.Delta_k + n_k (v.Delta_k)
        dDelta_k = Delta_k (2i eps_k + a1 + 2 q n_k - 2 c Delta* Delta_k)
                   + c0 (1 - 2 n_k) + 2 c Delta n_k^2
    """
    grid = params.grid
    gamma, pump = params.gamma, params.pump
    n_k, d_k = state.n_k, state.d_k
    d2 = _pairs(d_k)
    n = density(state, grid)
    delta = order_parameter(state, grid)
    phi = (-params.u + 1j * (gamma - pump)) * delta
    hole = 1.0 - 0.5 * n
    c_l = gamma * (params.alpha - 1.0)
    c_p = pump * (params.alpha - 1.0)
    c = c_l + c_p
    q = 2.0 * c_p * hole - c_l * n
    a0 = 2.0 * (pump + c_p) * hole
    a1 = -gamma * n - 2.0 * (pump + 2.0 * c_p) * hole
    c0 = 1j * phi + 2.0 * c_p * delta
    out = np.empty(3 * n_k.size)
    dn, dd = _split(out)
    # dn_k = u.Delta_k + rest_k and dDelta_k = coef_k Delta_k + source_k.
    np.dot(d2, [-2.0 * phi.imag + 4.0 * c_p * delta.real,
                2.0 * phi.real + 4.0 * c_p * delta.imag], out=dn)
    n_c = n_k.astype(complex)
    if c == 0.0:  # c_l, c_p <= 0, so alpha = 1 or no rates; q = 0 as well
        rest = a1 * n_k
        coef = grid.precession + a1
        source = n_c * (-2.0 * c0)
    else:
        rest = d2 @ [-4.0 * c * delta.real, -4.0 * c * delta.imag]
        rest += q * n_k
        rest += a1
        rest *= n_k
        sq = np.square(d2)
        rest -= q * (sq[:, 0] + sq[:, 1])
        coef = n_c * (2.0 * q)
        coef += grid.precession
        coef += a1
        coef -= (2.0 * c * delta.conjugate()) * d_k
        source = n_c * (2.0 * c * delta)
        source -= 2.0 * c0
        source *= n_c
    rest += a0
    dn += rest
    np.multiply(d_k, coef, out=dd)
    source += c0
    dd += source
    if not np.isfinite(out).all():
        mode = int(np.argmin(np.isfinite(dn) & np.isfinite(dd)))
        raise BlowupError(f"non-finite derivative at mode {mode}, t={state.t}",
                          t=state.t, mode=mode)
    return out


def particle_hole_transform(state, grid):
    """Map n_k -> 1 - n_k, Delta_k -> -Delta_k* with eps_k -> -eps_k relabeling.

    Exchanges the roles of losses and pumps; requires a PH-symmetric grid.
    """
    partner = grid.ph_partner_indices()
    n_k = 1.0 - state.n_k[partner]
    d_k = -np.conj(state.d_k[partner])
    return BcsState(t=state.t, n_k=n_k, d_k=d_k)

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

import math
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
        # rhs_total's table = _plan @ (1, s): its values at s = 0, then the unit steps.
        t0, *ts = (_table(self, *s).T for s in np.eye(4)[:, 1:].tolist())
        plan = np.stack([t0] + [t - t0 for t in ts], axis=-1).reshape(-1, 4)
        plan.flags.writeable = False
        object.__setattr__(self, "_plan", plan)


class BcsState:
    """Per-mode occupations n_k (per spin) and pairing amplitudes Delta_k at time t,
    held as rows 1-3 of a (12, M) stack g of the monomials 1, n_k, Re, Im, eps_k Re,
    eps_k Im of Delta_k and n_k^2, Re^2, Im^2, n_k Re, n_k Im, Re Im; rhs_total fills
    rows 4 and up. n_k is a view of row 1, y = [n_k..., Re Delta_k..., Im Delta_k...]
    (see _split) the flat view of rows 1-3, d_k a complex copy. rhs_total writes into
    out, (3, M), or a fresh packed array while out is None. The stack is never
    reallocated, so the views and scratch rhs_total reads are made here once."""

    def __init__(self, t, n_k, d_k):
        n_k, d_k = np.asarray(n_k, dtype=float), np.asarray(d_k, dtype=complex)
        if n_k.ndim != 1 or n_k.shape != d_k.shape:
            raise ConfigurationError("n_k and d_k must be 1-D and of the same length")
        self.t, self.out = t, None
        self.g = g = np.empty((12, n_k.size))
        g[0] = 1.0
        g[1:4] = n_k, d_k.real, d_k.imag
        self.n_k, self.y = g[1], g[1:4].reshape(-1)
        # s = (1, s_n, s_r, s_i); by plan length 3K: the table, flat and (3, K), and rows :K
        self._s, b = np.ones(4), np.empty(36)
        self._views = g[1:4], g[2:4], g[4:6], g[6:9], g[9:11], g[2], g[3], g[11], self._s[1:]
        self._tables = {3 * k: (b[:3 * k], b[:3 * k].reshape(3, k), g[:k]) for k in (6, 12)}

    @property
    def d_k(self):
        return _split(self.y)[1]


def _split(y):
    """A packed state or derivative as (its n_k part, a view, and its Delta_k part, a copy)."""
    rows = y.reshape(3, -1)  # re + 1j * im would not be exact at -0.0 or inf
    return rows[0], rows[1:].T.copy().view(complex)[:, 0]


def density(state, grid):
    """Total density n = 2 sum_k w_k n_k (factor 2 for spin)."""
    # One gemv over three contiguous rows keeps its bits at any BLAS thread count.
    return 2.0 * float((state.g[1:4] @ grid.weights)[0])


def order_parameter(state, grid):
    """Order parameter Delta = sum_k w_k Delta_k."""
    return complex(*(state.g[1:4] @ grid.weights)[1:])


def pseudospin(state, grid):
    """Per-mode pseudospin components and squared length.

    Returns (sx, sy, sz, zeta_k, zeta_mean) with sx = 2 Re Delta_k,
    sy = 2 Im Delta_k, sz = 2 n_k - 1 and zeta_k = sx^2 + sy^2 + sz^2;
    zeta_mean is the weighted average over the grid.
    """
    n_k, re, im = state.g[1:4]
    sx, sy, sz = 2.0 * re, 2.0 * im, 2.0 * n_k - 1.0
    zeta_k = sx ** 2 + sy ** 2 + sz ** 2
    # einsum, not BLAS ddot, whose bits OpenBLAS lets depend on the thread count.
    zeta_mean = float(np.einsum("i,i->", grid.weights, zeta_k))
    return sx, sy, sz, zeta_k, zeta_mean


def rhs_total(state, params):
    """Hybrid generator: Lindblad + (alpha-1)-weighted loss and pump terms.

    Writes the rows (dn_k, Re dDelta_k, Im dDelta_k) into state.out, (3, M), unchecked:
    the stepper screens an attempt's stages at once. While out is None, returns the
    packed derivative [dn_k..., Re dDelta_k..., Im dDelta_k...] (see _split) in a fresh
    array, overflow silenced as the stepper silences it, checked by _check_finite.

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

    Regrouped around the scalars c = c_l + c_p, q, a0, a1 and c0 of _table and
    u = (-2 Im Phi + 4 c_p Re Delta, 2 Re Phi + 4 c_p Im Delta), with
    x.Delta_k = x_r Re Delta_k + x_i Im Delta_k, this reads

        dn_k = a0 + a1 n_k + q (n_k^2 - |Delta_k|^2) + (u - 4 c n_k Delta).Delta_k
        dDelta_k = Delta_k (2i eps_k + a1 + 2 q n_k - 2 c Delta* Delta_k)
                   + c0 (1 - 2 n_k) + 2 c Delta n_k^2

    so each row of _table holds the coefficients of one monomial of the stack in
    (dn_k, Re dDelta_k, Im dDelta_k), affine in the weighted sums s of rows 1-3. A
    call is three BLAS calls: s, the table params._plan @ (1, s), its product with the
    stack. With c = 0 (alpha = 1 or no rates; c_l, c_p <= 0, so q = 0 too) the rows
    quadratic in the state vanish, and rows 6-11 of the stack are neither filled nor read.
    """
    if state.out is None:
        with np.errstate(over="ignore", invalid="ignore"):
            state.out = out = np.empty((3, state.n_k.size))
            try:
                _check_finite(rhs_total(state, params), state.t)
            finally:
                state.out = None
        return out.reshape(-1)
    rows, re_im, eps_re_im, squares, n_re_im, re, im, re_x_im, sums = state._views
    np.multiply(re_im, params.grid.energies, out=eps_re_im)
    if len(params._plan) == 36:
        np.multiply(rows, rows, out=squares)
        np.multiply(re_im, state.n_k, out=n_re_im)
        np.multiply(re, im, out=re_x_im)
    np.dot(rows, params.grid.weights, out=sums)  # as density
    flat, table, monomials = state._tables[len(params._plan)]
    np.dot(params._plan, state._s, out=flat)
    np.dot(table, monomials, out=state.out)
    return state.out


def _table(params, s_n, s_r, s_i):
    """rhs_total's (K, 3) coefficient table at the weighted sums s = (s_n, s_r, s_i);
    SystemParams evaluates it once per unit vector to build the plan."""
    gamma, pump = params.gamma, params.pump
    c_l, c_p = gamma * (params.alpha - 1.0), pump * (params.alpha - 1.0)
    c = c_l + c_p
    n, delta = 2.0 * s_n, complex(s_r, s_i)
    phi = (-params.u + 1j * (gamma - pump)) * delta
    hole = 1.0 - 0.5 * n
    q = 2.0 * c_p * hole - c_l * n
    a0 = 2.0 * (pump + c_p) * hole
    a1 = -gamma * n - 2.0 * (pump + 2.0 * c_p) * hole
    c0 = 1j * phi + 2.0 * c_p * delta
    c_r, c_i = 2.0 * c * s_r, 2.0 * c * s_i
    return np.fromiter((
        a0, c0.real, c0.imag,                           # 1
        a1, -2.0 * c0.real, -2.0 * c0.imag,             # n_k
        -2.0 * phi.imag + 4.0 * c_p * s_r, a1, 0.0,     # Re Delta_k
        2.0 * phi.real + 4.0 * c_p * s_i, 0.0, a1,      # Im Delta_k
        0.0, 0.0, 2.0,                                  # eps_k Re Delta_k
        0.0, -2.0, 0.0,                                 # eps_k Im Delta_k
        q, c_r, c_i,                                    # n_k^2
        -q, -c_r, c_i,                                  # Re^2
        -q, c_r, -c_i,                                  # Im^2
        -2.0 * c_r, 2.0 * q, 0.0,                       # n_k Re
        -2.0 * c_i, 0.0, 2.0 * q,                       # n_k Im
        0.0, -2.0 * c_i, -2.0 * c_r,                    # Re Im
    ), float, 36 if c else 18).reshape(-1, 3)


def _check_finite(deriv, t):
    """Raise BlowupError naming the first mode with a non-finite entry of deriv, packed
    or (3, M). One dot product screens for those; large finite entries can overflow it
    too, so the modes are checked only when it is not finite."""
    if not math.isfinite(np.vdot(deriv, deriv)):
        finite = np.isfinite(deriv.reshape(3, -1)).all(axis=0)
        if not finite.all():
            mode = int(np.argmin(finite))
            raise BlowupError(f"non-finite derivative at mode {mode}, t={t}", t=t, mode=mode)


def particle_hole_transform(state, grid):
    """Map n_k -> 1 - n_k, Delta_k -> -Delta_k* with eps_k -> -eps_k relabeling.

    Exchanges losses and pumps; mode k pairs with mode M-1-k on a mirror-image grid.
    """
    eps, w = grid.energies, grid.weights
    if not (np.allclose(eps[::-1], -eps, atol=1e-12 * grid.bandwidth, rtol=0)
            and np.allclose(w[::-1], w, atol=1e-14, rtol=0)):
        raise ConfigurationError("grid is not its own particle-hole mirror")
    n_k = 1.0 - state.n_k[::-1]
    d_k = -np.conj(state.d_k[::-1])
    return BcsState(t=state.t, n_k=n_k, d_k=d_k)

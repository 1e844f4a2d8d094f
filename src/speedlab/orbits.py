"""Semi-trivial periodic orbits of the scalar periodic logistic equation.

For u_t = d u_xx - g u_x + u (c - e u), the sign of the principal eigenvalue
lambda(d, g, c) decides extinction versus a unique positive periodic orbit
that attracts all positive initial data.  The orbit is the fixed point of
the period map u(0) -> u(omega), found from an explicit constant
supersolution by Anderson mixing of depth ANDERSON_DEPTH (Walker & Ni 2011):
each next start is the combination of the last period ends whose residuals
u(omega) - u(0) best cancel in least squares.  An extrapolated start that is
not positive is replaced by the plain period end.  Convergence is decided by
the plain closure test alone: the orbit is the first period whose end is
within CYCLE_TOL * min(1, max u(omega)) of its start, and that period's
states are returned (a medium constant in t returns that start at every t,
so its orbit's rows are equal).  The gap is relative below unit scale, so a
small start does not pass as the orbit.

The nonlinear step matches the linear eigensolver split exactly: transport
solve first, then the nodewise growth factor exp(dt*(c - e*u_new)) with the
rate taken implicitly at the new value (a scalar Lambert-W solve per node).
A converged orbit is therefore an exact discrete eigenfunction, eigenvalue
zero, of the period map with potential c - e*u*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from . import eigen
from .coeffs import CoefficientField
from .errors import NoConvergence
from .pde import CellTransport, constant_in_t, write_csv

CYCLE_TOL = 1e-8
PERIOD_CAP = 2000
ANDERSON_DEPTH = 4  # period ends mixed into each next start


@dataclass
class PeriodicOrbit:
    """A time-space periodic solution over one period cell.

    snapshots[j] is the state at t_j = j*omega/nt; closure_gap is
    |u(omega, .) - u(0, .)|_inf of the converged period, the one returned,
    and is the orbit's certificate.
    """

    snapshots: np.ndarray
    omega: float
    ell: float
    extinct: bool
    closure_gap: float
    periods_marched: int

    @property
    def nt(self):
        return self.snapshots.shape[0]

    @property
    def nx(self):
        return self.snapshots.shape[1]

    def as_field(self) -> CoefficientField:
        return CoefficientField(self.omega, self.ell, self.snapshots, None)

    def max(self):
        return float(self.snapshots.max())


def _period_map(transport, c, e):
    """u0 -> (snapshots, u_end): one period of the logistic equation.

    transport.solve(r, .) is the transport solve with the coefficients of row
    r; the reaction tables are built once here for every period marched, one
    row of them when c and e do not vary in t.
    """
    nt, nx, dt = c.nt, c.nx, c.dt
    rows = 1 if constant_in_t(c.values, e.values) else nt
    a = dt * e.values[:rows]
    growth = np.exp(dt * c.values[:rows])

    def period(u0):
        snaps = np.empty((nt, nx))
        u = u0
        for j in range(nt):
            snaps[j] = u
            r = (j + 1) % nt
            w = transport.solve(r, u)
            k = r % rows
            u = np.real(lambertw(a[k] * w * growth[k])) / a[k]
        return snaps, u
    return period


def _anderson(ends, residuals):
    """Next start from the last period ends g_k and residuals f_k = g_k - u_k.

    Type-II Anderson mixing: g_k - dG gamma with gamma minimizing
    |f_k - dF gamma|_2 over the differences of successive ends and residuals.
    """
    if len(ends) == 1:
        return ends[0]
    dg = np.diff(np.array(ends), axis=0).T
    df = np.diff(np.array(residuals), axis=0).T
    gamma = np.linalg.lstsq(df, residuals[-1], rcond=None)[0]
    return ends[-1] - dg @ gamma


def logistic_orbit(d, g, c, e, start_value=None, growth=None) -> PeriodicOrbit:
    """Compute the attracting periodic orbit of u_t = d u_xx - g u_x + u(c - e u).

    e must be positive at every node (ValueError otherwise), as SystemSpec
    requires of a11 and a22.  Returns the extinct zero orbit when
    lambda(d, g, c) <= 0, without a solve when max c <= 0 (then
    lambda <= max c <= 0); otherwise iterates the period map with Anderson
    mixing from the constant supersolution max(c)/min(e) until one period's
    end u(omega) is within CYCLE_TOL * min(1, max u(omega)) of its start (cap
    PERIOD_CAP), and returns that period.
    growth is the principal eigenpair of (d, g, c) when the caller already
    has it; it is solved here otherwise.
    """
    for other in (g, c, e):
        if not d.same_grid(other):
            raise ValueError("orbit fields must share one grid")
    if e.min() <= 0.0:
        raise ValueError("need e > 0")

    if growth is None and c.max() > 0.0:
        growth = eigen.principal_eigen(d, g, c)
    if c.max() <= 0.0 or growth.lam <= 0.0:
        zeros = np.zeros_like(d.values)
        return PeriodicOrbit(snapshots=zeros, omega=d.omega, ell=d.ell, extinct=True,
                             closure_gap=0.0, periods_marched=0)

    if start_value is None:
        start_value = c.max() / e.min()
    period_map = _period_map(CellTransport(d, g), c, e)
    u = np.full(d.nx, float(start_value))
    ends, residuals = [], []  # the last ANDERSON_DEPTH + 1 periods
    for period in range(1, PERIOD_CAP + 1):
        snaps, u_end = period_map(u)
        gap = float(np.max(np.abs(u_end - u)))
        if gap < CYCLE_TOL * min(1.0, u_end.max()):
            break
        ends = [*ends[-ANDERSON_DEPTH:], u_end]
        residuals = [*residuals[-ANDERSON_DEPTH:], u_end - u]
        u = _anderson(ends, residuals)
        if u.min() <= 0.0:
            u = u_end
    else:
        raise NoConvergence(f"orbit cycle gap {gap:.3g} did not close in {PERIOD_CAP} periods")
    if constant_in_t(d.values, g.values, c.values, e.values):
        # the orbit of a medium constant in t is stationary: its start at every t
        snaps = np.tile(u, (d.nt, 1))

    return PeriodicOrbit(snapshots=snaps, omega=d.omega, ell=d.ell, extinct=False,
                         closure_gap=gap, periods_marched=period)


def dump_orbit_csv(path, orbit: PeriodicOrbit):
    """CSV dump: t, x, u_star."""
    nt, nx = orbit.nt, orbit.nx
    write_csv(path, ("t", "x", "u_star"),
              [np.repeat(np.arange(nt) * (orbit.omega / nt), nx),
               np.tile(np.arange(nx) * (orbit.ell / nx), nt), orbit.snapshots.ravel()])

"""Finite-difference time stepping on the periodic cell and the truncated line.

Scheme, used uniformly by every consumer in the package:

* transport d u_xx - g u_x: backward Euler with upwinded advection, so each
  step solves an M-matrix system and is order preserving for any dt;
* zero-order term h u in the linear solvers: exponential factor exp(dt*h)
  applied nodewise after the transport solve;
* nonlinear reaction on the truncated line: explicit factor (1 + dt*rate)
  with rates sampled at the old time level.

The periodic cell has one cyclic kernel, CellTransport, shared by the
linear period map and the logistic orbit solver: its tables are built once
per coefficient field, one row for each of the nt time rows, or a single
row that serves every step when d and g do not vary in t, and each step is
one direct LAPACK dgtsv call plus a Sherman-Morrison corner correction, for
one right-hand side or for all nx columns of the monodromy.  The scalar
solve_cell_transport / step_scalar_linear / period_map path assembles each
row on its own and stays independent of those tables.

The line evolver solves both species' transport as one stacked 2N-node
tridiagonal system; a zero seam between the two blocks keeps them
independent, so the result is bit for bit that of two separate solves.  Its
stencil and reaction entries are tabulated once on the (nt, nx) cell grid
and gathered onto the line through the line-to-cell map.  When d and g do
not vary in t the line matrix is the same at every step: a diagonal
similarity S makes it symmetric, LAPACK dpttrf factors it once, and a
period marches z = S^-1 v, one dpttrs a step, with S and dt folded into
the reaction's tables.  Media whose similarity would spread wider than
MAX_SCALE_SPREAD (drift strong against diffusion over the line's length)
are LU-factored once by dgttrf instead, and each step is one dgttrs; media
that vary in t gather the diagonals and make one dgtsv call a step.  Those
two take S = I, so one reaction formula serves all three.

The exponential split keeps spatially uniform linear problems exact (a
constant potential h produces exactly exp(h*omega) per period) and makes
the potential-shift identity lambda(h + c) = lambda(h) + c hold to
roundoff, which the eigensolver contracts rely on.  The explicit line
reaction carries a first-order bias opposite to the implicit transport's,
and the two cancel in the front speed at the KPP minimizer.  Coefficients
are sampled at the implicit time level t_{n+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf, dpttrs

from .coeffs import CoefficientField
from .errors import BlowupError, NonEllipticError, NumericalFailure, SingularSolve, StiffReaction


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass
class CellState:
    """Node values on the periodic cell [0, ell), with a time stamp."""

    values: np.ndarray
    t: float
    ell: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("cell state needs a 1-d array of >= 2 nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("cell state contains non-finite values")

    @property
    def nx(self):
        return self.values.size

    @property
    def x(self):
        return np.arange(self.nx) * (self.ell / self.nx)


@dataclass
class LineState:
    """Per-species node values on [x_lo, x_hi] with zero-flux boundaries."""

    values: np.ndarray  # shape (ncomp, N+1)
    t: float
    x_lo: float
    x_hi: float

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if not self.x_lo < self.x_hi:
            raise ValueError("need x_lo < x_hi")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("line state contains non-finite values")

    @property
    def n_nodes(self):
        return self.values.shape[1]

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / (self.n_nodes - 1)

    @property
    def x(self):
        return self.x_lo + np.arange(self.n_nodes) * self.dx


def cell_offsets(x, ell, nx):
    """Cell node under each line node: round(x/dx) mod nx with dx = ell/nx."""
    return np.round(x / (ell / nx)).astype(int) % nx


def constant_in_t(*tables):
    """True when no (nt, nx) table varies along the period (all rows are equal)."""
    return all(bool(np.all(a == a[0])) for a in tables)


def ceil_to_multiple(value, unit):
    """Smallest whole multiple of unit at or above value (up to roundoff)."""
    return unit * math.ceil(value / unit - 1e-12)


def rightmost_crossing(x, w, level):
    """Rightmost place where w falls below `level`, or None if w never reaches it.

    Takes the last node with w >= level and interpolates linearly towards the
    next node; returns x[-1] when that node is the last one.
    """
    above = w >= level
    if not above.any():
        return None
    k = int(np.max(np.nonzero(above)))
    if k == len(x) - 1:
        return float(x[-1])
    frac = (w[k] - level) / (w[k] - w[k + 1])
    return float(x[k] + frac * (x[k + 1] - x[k]))


# ---------------------------------------------------------------------------
# Transport matrices and solves
# ---------------------------------------------------------------------------

def _transport_entries(d_row, g_row, dx):
    """Stencil entries of T = d dxx - g dx with upwinded advection.

    Returns (lower, diag, upper): lower[i] multiplies u_{i-1}, upper[i]
    multiplies u_{i+1}.  Row sums are zero, so constants are stationary.
    """
    d_row = np.asarray(d_row, dtype=float)
    g_row = np.asarray(g_row, dtype=float)
    if np.any(d_row <= 0):
        raise NonEllipticError("diffusion coefficient <= 0 sampled on the grid")
    gp = np.maximum(g_row, 0.0)
    gm = np.minimum(g_row, 0.0)
    lower = d_row / dx**2 + gp / dx
    upper = d_row / dx**2 - gm / dx
    return lower, -(lower + upper), upper


def implicit_transport_banded(d_row, g_row, dx, dt, geometry):
    """Banded form of M = I - dt*T plus cyclic corners when periodic.

    geometry: "cell" (periodic wrap) or "line" (zero-flux, symmetric ghost).
    Returns (ab, corner_top_right, corner_bottom_left); corners are 0.0 for
    the line.  ab is in scipy solve_banded layout for (1, 1) bands.
    """
    lower, diag, upper = _transport_entries(d_row, g_row, dx)
    n = len(diag)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 - dt * diag
    ab[0, 1:] = -dt * upper[:-1]
    ab[2, :-1] = -dt * lower[1:]
    if geometry == "cell":
        return ab, -dt * lower[0], -dt * upper[-1]
    if geometry == "line":
        # zero-flux: ghost nodes mirror the first interior neighbour
        ab[0, 1] = -dt * (upper[0] + lower[0])
        ab[2, -2] = -dt * (lower[-1] + upper[-1])
        return ab, 0.0, 0.0
    raise ValueError(f"unknown geometry {geometry!r}")


def transport_step_matrix_dense(d_row, g_row, dx, dt, geometry):
    """Dense M = I - dt*T, for inspection and M-matrix verification."""
    ab, c_tr, c_bl = implicit_transport_banded(d_row, g_row, dx, dt, geometry)
    n = ab.shape[1]
    m = np.zeros((n, n))
    m[np.arange(n), np.arange(n)] = ab[1]
    m[np.arange(n - 1), np.arange(1, n)] = ab[0, 1:]
    m[np.arange(1, n), np.arange(n - 1)] = ab[2, :-1]
    if geometry == "cell":
        m[0, -1] += c_tr
        m[-1, 0] += c_bl
    return m


def _solve_line(ab, rhs):
    try:
        return solve_banded((1, 1), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularSolve(str(exc)) from exc


def cell_transport_solver(d_row, g_row, dx, dt):
    """Prefactored solve of (I - dt*T) u = rhs on the periodic cell for one row.

    Returns rhs -> u for one right-hand side or stacked columns: the
    Sherman-Morrison correction of the banded solve, with the correction
    vector solved once here.
    """
    ab, corner_tr, corner_bl = implicit_transport_banded(d_row, g_row, dx, dt, "cell")
    gamma = -ab[1, 0]
    ab[1, 0] -= gamma
    ab[1, -1] -= corner_tr * corner_bl / gamma
    u = np.zeros(ab.shape[1])
    u[0] = gamma
    u[-1] = corner_bl
    q = _solve_line(ab, u)
    w = corner_tr / gamma
    denom = 1.0 + (q[0] + w * q[-1])
    if abs(denom) < 1e-300:
        raise SingularSolve("cyclic correction is singular")

    def solve(rhs):
        y = _solve_line(ab, rhs)
        return y - np.multiply.outer(q, (y[0] + w * y[-1]) / denom)

    return solve


def solve_cell_transport(d_row, g_row, dx, dt, rhs):
    """Solve (I - dt*T) u = rhs on the periodic cell (single or multi RHS)."""
    return cell_transport_solver(d_row, g_row, dx, dt)(np.asarray(rhs, dtype=float))


def solve_line_transport(d_row, g_row, dx, dt, rhs):
    """Solve (I - dt*T) u = rhs on the line with zero-flux ends."""
    ab, _, _ = implicit_transport_banded(d_row, g_row, dx, dt, "line")
    return _solve_line(ab, rhs)


# ---------------------------------------------------------------------------
# Generic scalar stepping (coefficients as fields or callables)
# ---------------------------------------------------------------------------

def _coef_at(c, t, x):
    if isinstance(c, CoefficientField):
        return c.evaluate(t, x)
    if callable(c):
        return np.broadcast_to(np.asarray(c(t, x), dtype=float), np.shape(x)).astype(float)
    return np.full(np.shape(x), float(c))


def step_scalar_linear(state, d, g, h, dt):
    """One implicit step of u_t = d u_xx - g u_x + h u on the periodic cell.

    Transport is backward Euler with upwinding (sampled at t + dt); the
    zero-order term acts as the exact nodewise factor exp(dt*h).  The step
    maps nonnegative input to nonnegative output unconditionally.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not isinstance(state, CellState):
        raise TypeError("state must be a CellState")
    t_new = state.t + dt
    x = state.x
    d_row = _coef_at(d, t_new, x)
    g_row = _coef_at(g, t_new, x)
    h_row = _coef_at(h, t_new, x)
    w = solve_cell_transport(d_row, g_row, state.ell / state.nx, dt, state.values)
    return CellState(np.exp(dt * h_row) * w, t_new, state.ell)


def period_map(u0, d, g, h, steps_per_period):
    """Compose step_scalar_linear over one period; linear in u0.

    The period is that of the first coefficient given as a CoefficientField.
    """
    if steps_per_period < 1:
        raise ValueError("steps_per_period must be >= 1")
    for c in (d, g, h):
        if isinstance(c, CoefficientField):
            omega = c.omega
            break
    else:
        raise ValueError("period_map needs at least one coefficient field")
    dt = omega / steps_per_period
    state = u0
    for _ in range(steps_per_period):
        state = step_scalar_linear(state, d, g, h, dt)
    return state


# ---------------------------------------------------------------------------
# Fast linear period map on the cell (row-sampled coefficients)
# ---------------------------------------------------------------------------

class CellTransport:
    """Implicit transport solves (I - dt*T_r) u = rhs on the periodic cell, one per row r.

    The cyclic matrix of row r is tridiagonal plus two corners, and the
    corners are removed by a Sherman-Morrison rank-one correction.  Tables
    built once hold the tridiagonal part with the Sherman-Morrison diagonal
    fix applied, the correction vectors q and the scalars w and denom, so a
    solve is one LAPACK dgtsv call on the row's diagonals (one or many
    right-hand sides) plus the rank-one update.  When d and g do not vary in
    t, one row of tables serves every r; otherwise there is one row per
    coefficient row.  It is bit for bit the solve of cell_transport_solver,
    which calls the same gtsv through solve_banded.
    """

    def __init__(self, d: CoefficientField, g: CoefficientField):
        dt = d.dt
        rows = self._rows = 1 if constant_in_t(d.values, g.values) else d.nt
        lower, diag, upper = _transport_entries(d.values[:rows], g.values[:rows], d.dx)
        nx = d.nx
        self._sub = -dt * lower[:, 1:]
        self._main = 1.0 - dt * diag
        self._sup = -dt * upper[:, :-1]
        corner_tr, corner_bl = -dt * lower[:, 0], -dt * upper[:, -1]
        gamma = -self._main[:, 0]
        self._main[:, 0] -= gamma
        self._main[:, -1] -= corner_tr * corner_bl / gamma
        u = np.zeros((rows, nx))
        u[:, 0] = gamma
        u[:, -1] = corner_bl
        # every row's correction vector in one stacked solve; the zero seams
        # between rows leave each block's elimination exactly as if alone
        seam = np.zeros((rows, 1))
        dl = np.hstack([self._sub, seam]).ravel()[:-1]
        du = np.hstack([self._sup, seam]).ravel()[:-1]
        self._q = _gtsv(dl, self._main.ravel(), du, u.ravel()).reshape(rows, nx)
        self._w = corner_tr / gamma
        self._denom = 1.0 + (self._q[:, 0] + self._w * self._q[:, -1])
        if np.any(np.abs(self._denom) < 1e-300):
            raise SingularSolve("cyclic correction is singular")

    def solve(self, r, rhs):
        """u with (I - dt*T_r) u = rhs; rhs is one vector or stacked columns."""
        r %= self._rows
        y = _gtsv(self._sub[r], self._main[r], self._sup[r], rhs)
        return y - np.multiply.outer(self._q[r], (y[0] + self._w[r] * y[-1]) / self._denom[r])


def _gtsv(dl, d, du, rhs):
    """Tridiagonal solve by LAPACK dgtsv; the inputs are copied, never overwritten."""
    *_, x, info = dgtsv(dl, d, du, rhs)
    if info != 0:
        raise SingularSolve(f"tridiagonal solve failed (info={info})")
    return x


class CellPeriodMap:
    """Linear period map of one tilted scalar problem on the field grid.

    Steps dt = omega/nt, one per coefficient row; step j -> j+1 samples all
    coefficients at row (j+1) mod nt.  Each step is the table-driven cyclic
    solve of CellTransport, the kernel the logistic orbit solver shares,
    followed by the growth factor exp(dt*h).  The orbit solver uses the
    identical split, which makes converged orbits exact discrete
    eigenfunctions of the map built from their own potential.  A growth
    factor, march or power past the float range raises NumericalFailure,
    so no inf or NaN leaves the map.
    """

    def __init__(self, d: CoefficientField, g, h, shift_mean=True):
        for other in (g, h):
            if not d.same_grid(other):
                raise ValueError("period map fields must share one grid")
        self.nt, self.nx = d.nt, d.nx
        self.omega, self.dt = d.omega, d.dt
        # factoring out the mean potential keeps the map at unit scale; the
        # potential-shift identity is exact for this scheme, so no accuracy
        # is lost and huge tilts cannot overflow
        self.shift = float(h.values.mean()) if shift_mean else 0.0
        self._transport = CellTransport(d, g)
        # True when no coefficient varies along the period (every step is one
        # matrix); CellTransport has already scanned d and g
        self.time_independent = self._transport._rows == 1 and constant_in_t(h.values)
        # one row of growth factors serves every step of a t-independent map
        rows = 1 if self.time_independent else self.nt
        with np.errstate(over="ignore"):
            self._growth = np.exp(self.dt * (h.values[:rows] - self.shift))
        if not np.isfinite(self._growth).all():
            raise NumericalFailure(f"step growth factor overflows: dt*max(h - mean h) = "
                                   f"{self.dt * (h.max() - self.shift):.6g}")
        self._matrix = None
        self.start = None  # where eigen.principal_of_map starts; None: the constant vector

    def _step(self, r, v):
        """One step into row r: the transport solve, then the growth factor."""
        growth = self._growth[r % len(self._growth)]
        return (growth if v.ndim == 1 else growth[:, None]) * self._transport.solve(r, v)

    def _march(self, v, source=None, keep=False):
        """March v over one period, w <- E*S*w (+ dt*source[j] when forced).

        source has one row per step j = 0..nt-1, evaluated at the arrival
        time of that step (t_{j+1}).  keep=True returns all states, out[j]
        at t_j for j = 0..nt; otherwise the final state.
        """
        v = np.asarray(v, dtype=float)
        if source is not None:
            source = np.asarray(source, dtype=float)
        if keep:
            out = np.empty((self.nt + 1, self.nx))
            out[0] = v
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(self.nt):
                v = self._step((j + 1) % self.nt, v)
                if source is not None:
                    v = v + self.dt * source[j]
                if keep:
                    out[j + 1] = v
        if not np.isfinite(v).all():  # a non-finite state spreads to every node of a solve
            raise NumericalFailure("period march overflows the float range")
        return out if keep else v

    # perfbench/tracing.py wraps these four by name for its pde.cell_march
    # spans; ROADMAP item 5 moves the tracer onto in-package counters and
    # retires them
    def apply(self, v):
        return self._march(v)

    def apply_with_source(self, v, source_steps):
        """March v with additive forcing: w <- E*S*w + dt*source_steps[j]."""
        return self._march(v, source_steps)

    def snapshots(self, v0):
        """All intermediate states: out[j] at t_j, j = 0..nt."""
        return self._march(v0, keep=True)

    def snapshots_with_source(self, v0, source_steps):
        """Forced marching with all intermediate states retained."""
        return self._march(v0, source_steps, keep=True)

    def matrix(self):
        """Dense monodromy matrix (the map applied to identity columns)."""
        if self._matrix is None:
            if self.time_independent:
                # every step shares one matrix; binary powering is exact
                with np.errstate(over="ignore", invalid="ignore"):
                    power = np.linalg.matrix_power(self._step(0, np.eye(self.nx)), self.nt)
                if not np.isfinite(power).all():
                    raise NumericalFailure("period map power overflows the float range")
                self._matrix = power
            else:
                self._matrix = self._march(np.eye(self.nx))
        return self._matrix


# ---------------------------------------------------------------------------
# Nonlinear two-species evolution on the truncated line
# ---------------------------------------------------------------------------

# widest max(s)/min(s) of the symmetrizing scale S that the symmetric line
# solve accepts, so that z = S^-1 v stays a normal float for states down to
# about 1e-200; wider media keep an LU factorization.  Drift-free media
# spread at most sqrt(2*max d/min d); with drift the spread grows roughly
# like exp(sum of g*dx/(2d)) along the line
MAX_SCALE_SPREAD = 1e100


class LineSystemEvolver:
    """IMEX evolution of the cooperative form of the competition system.

    The state is v1 = u1, v2 = u2* - u2 with the system's own species-2
    orbit, sys.u2_star().

    Transport is implicit: each step solves both species at once as one
    stacked tridiagonal system (species 1 on nodes 0..N-1, species 2 on
    N..2N-1, zero coupling across the seam).  The matrix entries come from
    tables built once on the cell grid, (nt, 2*nx) with both species side by
    side, and are gathered onto the line through the line-to-cell map, so
    memory stays independent of the line length.  When d1, g1, d2 and g2 do
    not vary in t, the stacked matrix A is gathered once from one row of
    tables and factored here: with S diagonal, s_0 = 1 and s_{i+1}/s_i =
    sqrt(dl_i/du_i) (restarted at the species-2 block), T = S^-1 A S is
    symmetric positive definite with off-diagonal -sqrt(dl_i*du_i), dpttrf
    factors it as LDL^T, and each step is one dpttrs.  When S spreads wider
    than MAX_SCALE_SPREAD, A itself is LU-factored (dgttrf) once and each
    step is one dgttrs; when the medium varies in t, each step gathers the
    diagonals and calls dgtsv.  Those two routes take S = I, and dgttrs and
    dgtsv carry out the same elimination of A, so they agree bit for bit.

    A period converts its input once to z = S^-1 v, marches z and returns
    S z.  The reaction advances explicitly through the nodewise factor
    (1 + dt * rate) with rates sampled at the old time level (plus an
    explicit additive source for the second component); with S and dt
    folded into its seven tables it reads, on every route,

        z1 <- z1 * (k1 - p11*z1 + p12*z2)
        z2 <- z2 * (k2 + p22*z2) + p21 * (z1 * (u2z - z2))

    with k1 = 1 + dt*(b1 - a12*u2*), p11 = dt*a11*s1, p12 = dt*a12*s2,
    k2 = 1 + dt*(b2 - 2*a22*u2*), p22 = dt*a22*s2, p21 = dt*a21*s1 and
    u2z = u2*/s2.  The tables are gathered onto the line once when no row
    differs (media constant in t with a u2* orbit whose rows are equal),
    every step otherwise.  The step is the v-frame step conjugated by the
    positive diagonal S, so it preserves order exactly when that one does;
    the dpttrs sweeps add only non-negative terms for non-negative input.
    The explicit reaction and implicit transport carry opposite
    first-order biases that cancel in the front speed at the KPP
    minimizer, where the two exponents coincide.  The reaction Lipschitz
    number dt*L is tracked and must stay below 1 for the step to be order
    preserving and positivity preserving.
    """

    def __init__(self, sys, x_lo, x_hi):
        self.sys = sys
        self.omega = sys.omega
        self.nt = sys.nt
        self.dt = sys.omega / sys.nt
        self.dx = sys.ell / sys.nx
        n_cells = (x_hi - x_lo) / self.dx
        if abs(n_cells - round(n_cells)) > 1e-9 or abs(x_lo / self.dx - round(x_lo / self.dx)) > 1e-9:
            raise ValueError("domain ends must sit on the coefficient grid")
        self.x_lo, self.x_hi = x_lo, x_hi
        self.n_nodes = int(round(n_cells)) + 1
        self.x = x_lo + np.arange(self.n_nodes) * self.dx
        self._offsets = cell_offsets(self.x, sys.ell, sys.nx)
        # stacked node k of the two-species system -> its column in the tables
        self._cells = np.concatenate([self._offsets, self._offsets + sys.nx])
        self._stencil = self._ldl = self._lu = None
        self._scale = np.ones((2, self.n_nodes))
        if constant_in_t(sys.d1.values, sys.g1.values, sys.d2.values, sys.g2.values):
            self._factor(*self._line_diagonals(self._stencil_tables(1)[:, 0]))
        else:
            self._stencil = self._stencil_tables(self.nt)
        self._reaction = self._reaction_tables()
        self._tables = None
        if constant_in_t(*self._reaction):
            self._tables = self._line_tables(0)
            self._reaction = None
        # two state buffers the steps alternate between, and one row of scratch
        self._z = np.empty((2, 2, self.n_nodes))
        self._scratch = np.empty(self.n_nodes)
        bmax = max(sys.b1.max(), sys.b2.max())
        # SystemSpec guarantees a11, a22 > 0
        self.state_bound = bmax / min(sys.a11.min(), sys.a22.min())
        self.guard = 10.0 * self.state_bound
        # z <= z_guard bounds S z by guard; rounded down, so that holds in floats
        self._z_guard = np.nextafter(self.guard / self._scale.max(), 0.0)
        amax = max(sys.a11.max(), sys.a12.max(), sys.a21.max(), sys.a22.max())
        self.reaction_lipschitz = abs(bmax) + 3.0 * amax * self.state_bound
        if self.dt * self.reaction_lipschitz >= 1.0:
            raise StiffReaction(
                f"dt*Lipschitz = {self.dt * self.reaction_lipschitz:.3f} >= 1; refine nt")

    def _reaction_tables(self):
        """The (nt, nx) tables k1, a11, a12, k2, a22, a21, u2* of the reaction,
        with k1 = 1 + dt*(b1 - a12*u2*) and k2 = 1 + dt*(b2 - 2*a22*u2*)."""
        s = self.sys
        u2s = s.u2_star().snapshots[:self.nt]
        a12, a22 = s.a12.values, s.a22.values
        k1 = s.b1.values - a12 * u2s
        k2 = s.b2.values - 2.0 * a22 * u2s
        for k in (k1, k2):
            k *= self.dt
            k += 1.0
        return k1, s.a11.values, a12, k2, a22, s.a21.values, u2s

    def _line_tables(self, r):
        """Row r of the reaction tables on the line with dt and S folded in:
        k1, p11, p12, k2, p22, p21, u2z."""
        k1, p11, p12, k2, p22, p21, u2z = (f[r][self._offsets] for f in self._reaction)
        s1, s2 = self._scale
        for p, s in ((p11, s1), (p12, s2), (p22, s2), (p21, s1)):
            p *= self.dt
            p *= s
        u2z /= s2
        return k1, p11, p12, k2, p22, p21, u2z

    def _react(self, z, j, out):
        """Explicit reaction step from t_j in the frame of S, written into out."""
        tables = self._tables if self._reaction is None else self._line_tables(j % self.nt)
        k1, p11, p12, k2, p22, p21, u2z = tables
        z1, z2 = z
        r1, r2 = out
        tmp = self._scratch
        np.multiply(p11, z1, out=r1)
        np.subtract(k1, r1, out=r1)
        np.multiply(p12, z2, out=tmp)
        r1 += tmp
        r1 *= z1
        np.multiply(p22, z2, out=r2)
        r2 += k2
        r2 *= z2
        np.subtract(u2z, z2, out=tmp)
        tmp *= z1
        tmp *= p21
        r2 += tmp

    def _stencil_tables(self, rows):
        """Entries of I - dt*T on the first `rows` rows of the cell grid, both
        species side by side.

        Returns the (4, rows, 2*nx) array of lower, diag, upper and ghost
        entries: lower and upper multiply the left and right neighbour, ghost
        is the doubled neighbour entry of a zero-flux end row.
        """
        s, dt, nx = self.sys, self.dt, self.sys.nx
        tables = np.empty((4, rows, 2 * nx))
        for k, (d, g) in enumerate(((s.d1, s.g1), (s.d2, s.g2))):
            lower, diag, upper = _transport_entries(d.values[:rows], g.values[:rows], self.dx)
            cols = slice(k * nx, (k + 1) * nx)
            tables[0, :, cols] = -dt * lower
            tables[1, :, cols] = 1.0 - dt * diag
            tables[2, :, cols] = -dt * upper
            tables[3, :, cols] = -dt * (lower + upper)
        return tables

    def _line_diagonals(self, entries):
        """Sub-, main- and super-diagonal of the stacked line matrix from one
        row's (lower, diag, upper, ghost) cell entries."""
        n = self.n_nodes
        cells = self._cells
        lower, diag, upper, ghost = entries
        dl = lower[cells[1:]]
        d = diag[cells]
        du = upper[cells[:-1]]
        # zero-flux ends: the ghost node mirrors the first interior neighbour
        du[0], du[n] = ghost[cells[0]], ghost[cells[n]]
        dl[n - 2], dl[-1] = ghost[cells[n - 1]], ghost[cells[-1]]
        # the species do not couple in transport; a zero seam leaves the
        # elimination of each block exactly as if it were solved alone
        du[n - 1] = dl[n - 1] = 0.0
        return dl, d, du

    def _factor(self, dl, d, du):
        """Factor the stacked matrix A = (dl, d, du) once: _ldl holds the
        L D L^T factors of T and _scale holds s, or, when S spreads wider
        than MAX_SCALE_SPREAD, _lu holds the LU factors of A."""
        n = self.n_nodes
        # s_{i+1}/s_i per species block, each block starting at s = 1: off
        # the zero seam every dl_i and du_i is negative
        ratios = np.ones((2, n))
        ratios[0, 1:] = np.sqrt(dl[:n - 1] / du[:n - 1])
        ratios[1, 1:] = np.sqrt(dl[n:] / du[n:])
        with np.errstate(over="ignore"):  # an infinite s takes the LU route below
            scale = np.cumprod(ratios, axis=1)
        if scale.max() <= MAX_SCALE_SPREAD * scale.min():
            *self._ldl, info = dpttrf(d, -np.sqrt(dl * du))
            self._scale = scale
        else:
            *self._lu, info = dgttrf(dl, d, du, 1, 1, 1)
        if info != 0:
            raise SingularSolve(f"line transport factorization failed (info={info})")

    def _solve(self, b, j):
        """Both species' implicit transport into step j+1 as one stacked solve
        in the frame of S.  b (shape (2, N)) is overwritten, and the solution,
        in its shape, is returned; LAPACK leaves it in b's memory."""
        if self._ldl is not None:
            z, info = dpttrs(*self._ldl, b.ravel(), overwrite_b=1)
        elif self._lu is not None:
            z, info = dgttrs(*self._lu, b.ravel(), overwrite_b=1)
        else:
            diagonals = self._line_diagonals(self._stencil[:, (j + 1) % self.nt])
            *_, z, info = dgtsv(*diagonals, b.ravel(), 1, 1, 1, 1)
        if info != 0:  # pragma: no cover - defensive
            raise SingularSolve(f"line transport solve failed (info={info})")
        return z.reshape(b.shape)

    def period(self, v):
        """Advance one full period; the medium is omega-periodic, so every period is one map.

        Returns a new array and leaves v as it was.
        """
        z = np.divide(v, self._scale, out=self._z[0])
        for j in range(self.nt):
            b = self._z[(j + 1) % 2]  # the buffer z is not in
            self._react(z, j, b)
            z = self._solve(b, j)
            np.maximum(z, 0.0, out=z)
            if not z.max() <= self._z_guard:  # also catches a NaN
                m = (z * self._scale).max()
                if not np.isfinite(m) or m > self.guard:
                    raise BlowupError(f"state exceeded guard {self.guard:.3g} at step {j}")
        return z * self._scale


CSV_CHUNK_ROWS = 1024  # rows formatted at a time, so few float objects are alive at once


def _csv_cell(v):
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path, header, columns):
    """Write a CSV file from 1-d columns (arrays or lists) of equal length.

    Floats, numpy ones included, are written as repr(float(v)) and anything
    else as str(v); the rows are formatted CSV_CHUNK_ROWS at a time.
    """
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            cells = []
            for column in columns:
                part = column[start:start + CSV_CHUNK_ROWS]
                if isinstance(part, np.ndarray):
                    part = part.tolist()
                cells.append([repr(v) if type(v) is float else _csv_cell(v) for v in part])
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def dump_snapshot_csv(path, state: LineState):
    """Write one line state of the cooperative form as CSV rows t, x, v1, v2."""
    write_csv(path, ("t", "x", "v1", "v2"), [[state.t] * state.n_nodes, state.x, *state.values])

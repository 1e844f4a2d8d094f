"""Discretized profile recursion bracketing the nonlinear spreading speeds.

The recursion iterates R[a] = max(floor, shift_{-c omega}(period_map(a)))
on non-increasing two-component profiles over a truncated line, starting
from a compactly supported ramp.  The limit's behaviour at the right end
classifies each candidate speed c: profiles that refill to the carrying
level mean c is below the slow edge c*, profiles that vanish mean c is
above the fast edge cbar.  Bisection on c turns the classes the runs
decide into brackets for both critical speeds without ever linearizing.

Fractional shifts use linear interpolation followed by a pool-adjacent-
violators projection back onto non-increasing profiles, which restores the
monotonicity invariant the comparison argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InconsistentClassification, MonotonicityLost, NotMonostable,
                     ShiftOutOfRange, TooFewNodes)
from .pde import LineSystemEvolver, ceil_to_multiple, rightmost_crossing, write_csv

DEFAULT_CAP = 300
DEFAULT_BISECTION_STEPS = 8
SUP_CHANGE_TOL = 1e-6
MONOTONE_TOL = 1e-9
BETA_BAND = 0.05   # "beta" when within 5% of the plateau estimate
ZERO_BAND = 0.01   # "zero" when below 1% of the plateau estimate

_RANK = {"beta": 2, "intermediate": 1, "zero": 0}


@dataclass
class RecursionResult:
    x: np.ndarray
    values: np.ndarray  # shape (2, N+1), the last iterate
    iterations: int
    reason: str  # why the run stopped: "converged", "station", "ignited" or "cap"
    cls: str  # the run's class: "beta", "intermediate" or "zero"
    station_value: float  # species 1 at the line's station x = A - 2L
    left_value: float  # species 1 at x = -A + 2L

    @property
    def cap_reached(self):
        return self.reason == "cap"


@dataclass
class SpeedBracket:
    """Bracket [c_lo, c_hi] of one critical speed and its tested trace; open edges are infinite."""

    c_lo: float
    c_hi: float
    trace: list
    profiles: dict

    @property
    def width(self):
        return self.c_hi - self.c_lo

    def contains(self, c):
        return self.c_lo <= c <= self.c_hi


def pava_nonincreasing(y):
    """L2 projection onto non-increasing sequences (pool adjacent violators)."""
    y = np.asarray(y, dtype=float)
    if np.all(np.diff(y) <= 0.0):  # typical case: already monotone
        return y.copy()
    n = y.size
    means = np.empty(n)
    counts = np.empty(n, dtype=int)
    m = 0
    for v in y:
        means[m] = v
        counts[m] = 1
        m += 1
        # merge while the tail violates the non-increasing order
        while m > 1 and means[m - 2] < means[m - 1]:
            total = means[m - 2] * counts[m - 2] + means[m - 1] * counts[m - 1]
            counts[m - 2] += counts[m - 1]
            means[m - 2] = total / counts[m - 2]
            m -= 1
    return np.repeat(means[:m], counts[:m])


def _shift_left(x, values, shift, ell):
    """Sample values at x + shift by linear interpolation.

    Queries beyond the right end continue the profile geometrically at the
    decay rate measured over [A-4L, A-2L], clear of the zone the zero-flux
    wall flattens (exact for an exponential tail, a constant extension when
    the profile has levelled off).  A constant extension measured at the
    wall would feed the undrained wall value back in every iteration, and
    the growing tail would spuriously ignite the right end.  Queries beyond
    the left end take the plateau value.
    """
    dx = x[1] - x[0]
    k_b = max(1, x.size - 1 - int(round(2.0 * ell / dx)))
    k_a = max(0, x.size - 1 - int(round(4.0 * ell / dx)))
    span = k_b - k_a
    out = np.empty_like(values)
    for i in range(values.shape[0]):
        v = values[i]
        q = x + shift
        out[i] = np.interp(q, x, v)
        beyond = q > x[-1]
        if beyond.any():
            tail = 0.0
            if v[-1] > 0.0 and v[k_a] > 0.0 and span > 0:
                ratio = min((v[k_b] / v[k_a]) ** (1.0 / span), 1.0)
                tail = v[-1] * ratio ** ((q[beyond] - x[-1]) / dx)
            out[i][beyond] = tail
    return out


class RecursionLine:
    """The truncated line [-A, A] every candidate speed of a bracket runs on.

    Built once per bracket: it checks the monostable precondition, builds
    the line evolver (whose nodes are the profile grid, N = 2A*nx/ell
    intervals, at least 200), and holds the plateau beta of the system's own
    orbits, the floor ramp, the radiation ceiling's tail rate and the
    classification station x = A - 2L.
    """

    def __init__(self, sys, A):
        _check_monostable(sys)
        self.sys, self.A = sys, A
        self.evolver = LineSystemEvolver(sys, -A, A)
        self.x = self.evolver.x
        if self.x.size < 201:
            raise TooFewNodes(f"need N >= 200 profile nodes, got {self.x.size - 1}")
        # plateau beta of both species: the maxima of their orbits at t = 0
        self.beta = np.array([sys.u1_star().snapshots[0].max(), sys.u2_star().snapshots[0].max()])
        # floor and start of every run: a cosine ramp from 0.5*beta for
        # x <= -A/2 down to exactly zero for x >= 0
        shape = np.zeros_like(self.x)
        shape[self.x <= -A / 2] = 1.0
        mid = (self.x > -A / 2) & (self.x < 0)
        shape[mid] = 0.5 * (1.0 + np.cos(np.pi * (self.x[mid] + A / 2) / (A / 2)))
        self.floor = 0.5 * np.outer(self.beta, shape)
        # Decay rate of the radiation ceiling, the linearized invasion tail
        # rate sqrt(growth/diffusion).  This is the neutral choice: an
        # exponential envelope spreads at lambda(mu)/mu, which is minimal
        # (equal to the linear front speed) exactly at the true tail rate, so
        # the ceiling neither outruns nor holds back the genuine front.  A
        # shallower ceiling would itself invade faster than the front; a much
        # steeper one would clip legitimate tail mass.
        self.tail_rate = float(np.sqrt(sys.invaded_eigen().lam / sys.d1.values.mean()))
        self.station = A - 2.0 * sys.ell

    def apply_R(self, values, c):
        """One recursion step: evolve one period, shift by c*omega, clamp, floor.

        The (2, N+1) values are evolved under the cooperative nonlinear
        period map, translated so the frame moves with speed c, projected
        back onto non-increasing profiles, clipped into [0, beta], and
        finally maxed with the floor ramp; the result is a new array.
        """
        shift = c * self.sys.omega
        if abs(shift) > self.A / 4.0:
            raise ShiftOutOfRange(f"|c*omega| = {abs(shift):.3g} exceeds A/4 = {self.A / 4:.3g}")
        shifted = _shift_left(self.x, self.evolver.period(values), shift, self.sys.ell)
        clamped = np.stack([pava_nonincreasing(shifted[i]) for i in range(2)])
        np.clip(clamped, 0.0, self.beta[:, None], out=clamped)
        return np.maximum(clamped, self.floor)


def _half_width(sys, c):
    """Default half width A for speeds up to |c|, rounded up to whole cells.

    At least 12 periods; at least 4|c|*omega + 2 periods, so the shift
    c*omega stays within A/4; and at least 100 cells, so the line holds the
    200 nodes RecursionLine needs on the solver grid.
    """
    A = max(12.0 * sys.ell, 4.0 * abs(c) * sys.omega + 2.0 * sys.ell,
            100.0 * sys.ell / sys.nx)
    return ceil_to_multiple(A, sys.ell)


def recursion_limit(c, line, drift_tol) -> RecursionResult:
    """Iterate the recursion on `line` until the sup change drops below 1e-6
    or DEFAULT_CAP (read at each call) iterations, and classify the run.

    The run starts from the line's floor ramp.  The iteration is
    nondecreasing in the step count (asserted nodewise each step; a drop
    beyond roundoff raises MonotonicityLost), so the limit exists; hitting
    the cap returns the last iterate with reason "cap" instead of raising.
    The run ends early once component 1 reaches the beta band at the
    line's station, which is sound for lower-bound classification because
    the iterates only grow.

    Truncation guard: on a finite domain the zero-flux wall accumulates the
    growing tail of the floor-pinned profile, and the vacuum between front
    and wall eventually ignites no matter how large A is (on the infinite
    line that mass radiates away).  Each iterate is therefore clipped under
    the radiation ceiling beta * exp(-mu_env * (x - front - 4L)), a moving
    envelope far shallower than any admissible tail, which caps the wall
    charge without touching the front dynamics and preserves the exact
    monotonicity of the iteration.  Should ignition still occur the run
    stops with reason "ignited".

    The class is read at the station x = A - 2L: beta within 5% of the
    plateau, zero below 1%, intermediate in between.  An ignited run cannot
    trust that value; it is beta when the median front drift per period
    reaches drift_tol, a steady advance (the monotone iteration's drift
    underestimates the limiting speed), and intermediate otherwise.
    """
    x, beta, ell = line.x, line.beta, line.sys.ell
    beta1 = float(beta[0])
    front_level = 0.4 * beta1
    stop_level = (1.0 - BETA_BAND) * beta1

    def apply_ceiling(values):
        """Clip values under the radiation ceiling and return the front.

        The front is the rightmost crossing of component 1 below front_level
        (-A if none).  The ceiling lowers only nodes past front + 4L, which
        already lie below front_level, so the front is the same before and
        after.
        """
        pos = rightmost_crossing(x, values[0], front_level)
        front = float(x[0]) if pos is None else pos
        decay = np.exp(-line.tail_rate * np.maximum(x - (front + 4.0 * ell), 0.0))
        np.minimum(values, beta[:, None] * decay[None, :], out=values)
        return front

    current = line.floor.copy()
    apply_ceiling(current)
    reason = "cap"
    fronts = []  # one per iteration
    for _ in range(DEFAULT_CAP):
        new = line.apply_R(current, c)
        front = apply_ceiling(new)
        # nondecreasing in m up to the truncated-tail tolerance; the iterate
        # is NOT clipped against its predecessor, a ratchet would keep every
        # boundary-inflated tail value alive and ignite the right end
        worst_drop = float(np.max(current - new))
        if worst_drop > max(MONOTONE_TOL, 1e-7 * float(beta.max())):
            raise MonotonicityLost(f"recursion lost monotonicity by {worst_drop:.3g}")
        sup_change = float(np.max(np.abs(new - current)))
        current = new
        fronts.append(front)
        if current[0, -1] > 0.05 * beta1 and front < line.A - 6.0 * ell:
            reason = "ignited"
            break
        if np.interp(line.station, x, current[0]) >= stop_level:
            reason = "station"
            break
        if sup_change < SUP_CHANGE_TOL:
            reason = "converged"
            break

    value = float(np.interp(line.station, x, current[0]))  # a station exit's stop value
    if reason == "ignited":
        skip = max(5, len(fronts) // 4)
        drift = float(np.median(np.diff(fronts[skip:]))) if len(fronts) - skip >= 5 else 0.0
        cls = "beta" if drift >= drift_tol else "intermediate"
    elif value >= stop_level:
        cls = "beta"
    else:
        cls = "zero" if value < ZERO_BAND * beta1 else "intermediate"
    return RecursionResult(x=x, values=current, iterations=len(fronts), reason=reason, cls=cls,
                           station_value=value,
                           left_value=float(np.interp(-line.A + 2.0 * ell, x, current[0])))


def bracket_speeds(sys, bisection, A=None):
    """Bracket the slow and fast critical speeds by classifying candidate c.

    bisection is the tuple (c_lo, c_hi, steps), with c_lo < c_hi and an
    integer steps >= 0; anything else, a list included, raises ValueError.
    Both ends run first.  Each edge is then bisected `steps` times on the
    runs made so far when the ends straddle it: the beta/not-beta transition
    brackets the slow edge c*, the positive/zero transition the fast edge
    cbar.  A classification trace that is non-monotone along c raises
    InconsistentClassification.  Every candidate is one recursion_limit run
    on one RecursionLine, by default of the half width of _half_width for
    max(|c_lo|, |c_hi|).  Both brackets keep the runs in `profiles`, keyed
    by c, and their (c, cls, station_value, left_value) in `trace`, by c.
    """
    steps = bisection[2] if isinstance(bisection, tuple) and len(bisection) == 3 else None
    if (not isinstance(steps, (int, np.integer)) or isinstance(steps, bool)
            or steps < 0 or not bisection[0] < bisection[1]):
        raise ValueError(f"bisection spec must be (c_lo, c_hi, steps) with c_lo < c_hi "
                         f"and an integer steps >= 0, got {bisection!r}")
    c_lo, c_hi, steps = bisection
    line = RecursionLine(sys, _half_width(sys, max(abs(c_lo), abs(c_hi))) if A is None else A)
    drift_tol = max(1e-4, 0.25 * (c_hi - c_lo) / 2 ** max(steps, 1) * sys.omega)

    runs = {}

    def classify(c):
        if c not in runs:
            runs[c] = recursion_limit(c, line, drift_tol)
        return runs[c].cls

    # "below the edge" for c* and for cbar
    edges = (lambda cls: cls == "beta", lambda cls: cls != "zero")
    ends = classify(c_lo), classify(c_hi)
    for below in edges:
        if below(ends[0]) and not below(ends[1]):
            lo, hi = c_lo, c_hi
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                if below(classify(mid)):
                    lo = mid
                else:
                    hi = mid

    trace = sorted((c, r.cls, r.station_value, r.left_value) for c, r in runs.items())
    ranks = [_RANK[t[1]] for t in trace]
    if any(r2 > r1 for r1, r2 in zip(ranks, ranks[1:])):
        raise InconsistentClassification("classification is non-monotone along c: " + ", ".join(
            f"{c:.6g} {cls}" for c, cls, *_ in trace))

    def bracket(below):
        under = [c for c, cls, *_ in trace if below(cls)]
        over = [c for c, cls, *_ in trace if not below(cls)]
        return SpeedBracket(c_lo=max(under) if under else -np.inf,
                            c_hi=min(over) if over else np.inf, trace=trace,
                            profiles=runs)

    return tuple(bracket(below) for below in edges)


def _check_monostable(sys):
    if min(sys.species1_eigen().lam, sys.species2_eigen().lam) <= 0:
        raise NotMonostable("bracket precondition fails: H1 margin <= 0")
    if sys.invaded_eigen().lam <= 0:
        raise NotMonostable("bracket precondition fails: H2 margin <= 0")


def dump_profile_csv(path, result: RecursionResult):
    """CSV dump of a run's last iterate: x, v1, v2, iteration."""
    write_csv(path, ("x", "v1", "v2", "iteration"),
              [result.x, *result.values, [result.iterations] * result.x.size])


def dump_bracket_trace_csv(path, trace):
    """CSV dump: c, classification, right_end_value, left_plateau."""
    write_csv(path, ("c", "classification", "right_end_value", "left_plateau"), list(zip(*trace)))

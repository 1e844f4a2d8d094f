"""Principal eigenvalues of periodic parabolic problems via the period map.

The eigenproblem

    -psi_t + d psi_xx - g psi_x + h psi = lambda psi,   (omega, ell)-periodic,

is solved through its linear period map K: the principal eigenvalue is
lambda = ln(rho(K)) / omega and the eigenfunction is the positive fixed
direction of K.  K inherits strict positivity from the M-matrix transport
steps, so the Perron root is simple and power iteration converges from any
positive start.

Each iterate psi > 0 encloses the root between the Collatz-Wielandt bounds
min(K psi / psi) <= rho(K) <= max(K psi / psi), and the iteration stops as
soon as that enclosure is POWER_TOL wide.  A solve starts from the map's
`start` vector when one is set: a curve mu -> lambda(mu) (lambda_curve)
starts each solve from the previous one's psi(0).  From a converged psi(0)
the enclosure is met after one map, from a nearby mu's after one or two.

The iteration needs only K's action.  For time-dependent media each product
marches one column over the nt steps of the period, and K is never
assembled; time-independent media share one step matrix, whose nt-th power
costs a few dense products, so there K is formed and applied as a matrix.
A solve keeps no states: eigenfunction(pmap, result) marches its psi(0)
over the period for the one caller that needs the rows, the coupled
eigenfunction at mu0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientField
from .errors import NoConvergence
from .pde import CellPeriodMap, write_csv

POWER_TOL = 1e-12          # width of the Collatz-Wielandt enclosure, relative
RESIDUAL_TOL = 1e-8        # contract: |K psi - rho psi|_inf <= tol * |psi|_inf
POWER_CAP = 10_000
# maps with the enclosure met and no new low in the residual after which the
# residual is taken to sit at its roundoff floor, about 2e-16*rho, which the
# absolute RESIDUAL_TOL cannot reach once rho exceeds about 5e7
STALL_MAPS = 5


@dataclass
class EigenResult:
    """Principal eigenpair of one periodic parabolic problem.

    lam = ln(rho(K))/omega for the period map K.  psi0 is the Perron vector
    of K (sup-normalized), the start of a solve on a nearby map and of
    eigenfunction's march.
    """

    lam: float
    iterations: int
    residual: float
    psi0: np.ndarray = field(repr=False, compare=False)


def _power_iteration(apply, start):
    """Perron root and vector of a positive map by power iteration on its action.

    start is a positive vector.  psi is sup-normalized, so the root is
    rho = |K psi| = |w|, which lies in the Collatz-Wielandt enclosure
    [min(w/psi), max(w/psi)] of the Perron root.  It stops when psi > 0, the
    enclosure is at most POWER_TOL*max(w/psi) wide and |w - rho psi| <=
    RESIDUAL_TOL, with that psi returned: rho is then within POWER_TOL
    (relative) of the Perron root of the discrete map, up to roundoff.  The
    width shrinks like q^k, q = |lambda2/lambda1|; a start at a converged
    Perron vector meets the stop after one map.  Once the enclosure is met
    the residual is at most about POWER_TOL*rho, and when it then makes no
    new low for STALL_MAPS maps it sits at its roundoff floor above
    RESIDUAL_TOL: the iteration raises NoConvergence there instead of
    marching on to POWER_CAP.
    """
    psi = start / np.max(np.abs(start))
    best, since = np.inf, 0  # lowest residual with the enclosure met, maps since it
    for it in range(1, POWER_CAP + 1):
        w = apply(psi)
        rho = np.max(np.abs(w))
        if rho == 0.0 or not np.isfinite(rho):
            raise NoConvergence(f"power iteration produced a degenerate iterate at step {it}")
        resid = float(np.max(np.abs(w - rho * psi)))
        if psi.min() > 0.0:
            ratios = w / psi
            upper = ratios.max()
            if upper - ratios.min() <= POWER_TOL * upper:
                if resid <= RESIDUAL_TOL:
                    return rho, psi, it, resid
                if resid < best:
                    best, since = resid, 0
                else:
                    since += 1
                if since >= STALL_MAPS:
                    raise NoConvergence(
                        f"power iteration residual stalled at {resid:.3g} > {RESIDUAL_TOL:g} "
                        f"after {it} maps with the enclosure met (root {rho:.3g})")
        psi = w / rho
    raise NoConvergence(f"power iteration cap reached ({POWER_CAP} iterations, "
                        f"residual {resid:.3g})")


def principal_eigen(d: CoefficientField, g: CoefficientField, h: CoefficientField) -> EigenResult:
    """Principal eigenpair for (d, g, h).

    Fields must share one grid; d must be strictly positive.  The residual
    contract |K psi(0) - e^{lam omega} psi(0)|_inf <= 1e-8 holds at return.
    """
    return principal_of_map(CellPeriodMap(d, g, h))


def principal_of_map(pmap: CellPeriodMap) -> EigenResult:
    """Principal eigenpair of a linear period map, iterated on its action.

    The map carries its mean potential as a separate exact shift, so the
    power iteration always works at unit scale; the residual is measured on
    that normalized map.  A time-dependent map is applied by one-column
    marches, a time-independent one by its dense matrix, which binary
    powering of the one step matrix makes cheaper than a march.  The
    iteration starts from pmap.start, or from the constant vector when that
    is None.  The Perron vector psi(0) must be positive at return.
    """
    start = np.ones(pmap.nx) if pmap.start is None else pmap.start
    rho_s, psi0, iterations, residual = _power_iteration(
        pmap.matrix().dot if pmap.time_independent else pmap.apply, start)
    if psi0.min() <= 0.0:
        raise NoConvergence("eigenfunction lost positivity")
    return EigenResult(lam=math.log(rho_s) / pmap.omega + pmap.shift, iterations=iterations,
                       residual=float(residual), psi0=psi0)


def eigenfunction(pmap: CellPeriodMap, res: EigenResult) -> np.ndarray:
    """Positive periodic eigenfunction of pmap's solve res: nt rows at t_j, max 1.

    res.psi0 is marched over the period and row j scaled by rho^(-j/nt),
    rho = e^{(lam - shift) omega} being the root of the unit-scale map.
    """
    rho_s = math.exp((res.lam - pmap.shift) * pmap.omega)
    ef = pmap.snapshots(res.psi0)[:-1] * (rho_s ** (-np.arange(pmap.nt) / pmap.nt))[:, None]
    ef /= ef.max()
    if ef.min() <= 0.0:
        raise NoConvergence("eigenfunction lost positivity")
    return ef


def tilted_coefficients(d: CoefficientField, g: CoefficientField,
                        m: CoefficientField, mu: float):
    """Drift and potential of the mu-tilted problem: (2 mu d + g, d mu^2 + g mu + m)."""
    drift = 2.0 * mu * d + g
    potential = d * (mu * mu) + g * mu + m
    return drift, potential


def lambda_of_mu(d: CoefficientField, g: CoefficientField,
                 m: CoefficientField, mu: float, start=None) -> EigenResult:
    """Principal eigenvalue lambda_m(mu) of the tilted problem.

    start, when given, is the positive vector the power iteration starts from.
    """
    pmap = CellPeriodMap(d, *tilted_coefficients(d, g, m, mu))
    pmap.start = start
    return principal_of_map(pmap)


def lambda_curve(d: CoefficientField, g: CoefficientField, m: CoefficientField):
    """mu -> lambda_of_mu(d, g, m, mu), each solve started from the last one's psi(0)."""
    last = None

    def solve(mu):
        nonlocal last
        res = lambda_of_mu(d, g, m, mu, start=last)
        last = res.psi0
        return res
    return solve


def write_lambda_curve(path, mus, results):
    """CSV dump: mu, lambda, residual, iterations."""
    write_csv(path, ("mu", "lambda", "residual", "iterations"),
              [[float(mu) for mu in mus], [r.lam for r in results],
               [r.residual for r in results], [r.iterations for r in results]])

"""Principal eigenvalues of periodic parabolic problems via the period map.

The eigenproblem

    -psi_t + d psi_xx - g psi_x + h psi = lambda psi,   (omega, ell)-periodic,

is solved through its linear period map K: the principal eigenvalue is
lambda = ln(rho(K)) / omega and the eigenfunction is the positive fixed
direction of K.  K inherits strict positivity from the M-matrix transport
steps, so the Perron root is simple and plain power iteration converges.

The iteration needs only K's action.  For time-dependent media each product
marches one column over the nt steps of the period, and K is never
assembled; time-independent media share one step matrix, whose nt-th power
costs a few dense products, so there K is formed and applied as a matrix.
The eigenfunction's rows along the period are built when a caller first
reads them: a time-independent solve marches psi(0) over the period only
then, so a solve whose eigenvalue alone is used costs no march.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coeffs import CoefficientField
from .errors import NoConvergence
from .pde import CellPeriodMap, write_csv

POWER_TOL = 1e-12          # successive-ratio change, relative
RESIDUAL_TOL = 1e-8        # contract: |K psi - rho psi|_inf <= tol * |psi|_inf
POWER_CAP = 10_000


@dataclass
class EigenResult:
    """Principal eigenpair of one periodic parabolic problem.

    lam = ln(rho(K))/omega for the period map K.  eigenfunction[j] is the
    positive periodic eigenfunction at t_j (nt rows, global max normalized
    to 1); its rows are built on first access and then kept.
    """

    lam: float
    iterations: int
    residual: float
    _build_eigenfunction: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def eigenfunction(self) -> np.ndarray:
        return self._build_eigenfunction()


def _power_iteration(apply, n):
    """Perron root and vector of a positive map by plain power iteration on its action.

    psi is sup-normalized, so the root is |K psi| = |w|; it stops when two
    successive roots agree to POWER_TOL and |w - rho psi| <= RESIDUAL_TOL, with
    that psi returned.  The roots converge like q^k, q = |lambda2/lambda1|, so
    the root is good to about POWER_TOL*q/(1 - q) (2e-11 at q = 0.95).
    """
    psi = np.ones(n)
    rho_prev = None
    for it in range(1, POWER_CAP + 1):
        w = apply(psi)
        rho = np.max(np.abs(w))
        if rho == 0.0 or not np.isfinite(rho):
            raise NoConvergence(f"power iteration produced a degenerate iterate at step {it}")
        resid = float(np.max(np.abs(w - rho * psi)))
        if (rho_prev is not None and abs(rho - rho_prev) <= POWER_TOL * max(1.0, rho)
                and resid <= RESIDUAL_TOL):
            return rho, psi, it, resid
        rho_prev = rho
        psi = w / rho
    raise NoConvergence(f"power iteration cap reached ({POWER_CAP} iterations, "
                        f"residual {resid:.3g})")


def principal_eigen(d: CoefficientField, g: CoefficientField, h: CoefficientField) -> EigenResult:
    """Principal eigenvalue and positive eigenfunction for (d, g, h).

    Fields must share one grid; d must be strictly positive.  The residual
    contract |K psi(0) - e^{lam omega} psi(0)|_inf <= 1e-8 holds at return.
    """
    return principal_of_map(CellPeriodMap(d, g, h))


def principal_of_map(pmap: CellPeriodMap) -> EigenResult:
    """Principal eigenpair of a linear period map, iterated on its action.

    The map carries its mean potential as a separate exact shift, so the
    power iteration always works at unit scale; the residual is measured on
    that normalized map.  A time-dependent map is applied by one-column
    marches that keep their states, the last of which give the
    eigenfunction; a time-independent one by its dense matrix, which binary
    powering of the one step matrix makes cheaper than a march, and its
    eigenfunction is marched from psi(0) only when a caller reads it.  The
    Perron vector psi(0) must be positive at return; every other row is
    checked when the eigenfunction is built.
    """
    last = {}

    def march(psi):  # keeps the states of the latest march
        last["states"] = pmap.snapshots(psi)
        return last["states"][-1]

    rho_s, psi0, iterations, residual = _power_iteration(
        pmap.matrix().dot if pmap.time_independent else march, pmap.nx)
    if psi0.min() <= 0.0:
        raise NoConvergence("eigenfunction lost positivity")
    # a marched psi0 is the iterate just mapped, so the last march holds its
    # states; an unmarched one is marched when the eigenfunction is first read
    states = last.get("states")
    snapshots = pmap.snapshots if states is None else None
    nt = pmap.nt

    def eigenfunction():
        raw = (snapshots(psi0) if states is None else states)[:-1]  # rows at t_0 .. t_{nt-1}
        scale = rho_s ** (-np.arange(nt) / nt)
        ef = raw * scale[:, None]
        ef /= ef.max()
        if ef.min() <= 0.0:
            raise NoConvergence("eigenfunction lost positivity")
        return ef

    return EigenResult(lam=math.log(rho_s) / pmap.omega + pmap.shift, iterations=iterations,
                       residual=float(residual), _build_eigenfunction=eigenfunction)


def tilted_coefficients(d: CoefficientField, g: CoefficientField,
                        m: CoefficientField, mu: float):
    """Drift and potential of the mu-tilted problem: (2 mu d + g, d mu^2 + g mu + m)."""
    drift = 2.0 * mu * d + g
    potential = d * (mu * mu) + g * mu + m
    return drift, potential


def lambda_of_mu(d: CoefficientField, g: CoefficientField,
                 m: CoefficientField, mu: float) -> EigenResult:
    """Principal eigenvalue lambda_m(mu) of the tilted problem."""
    drift, potential = tilted_coefficients(d, g, m, mu)
    return principal_eigen(d, drift, potential)


def write_lambda_curve(path, mus, results):
    """CSV dump: mu, lambda, residual, iterations."""
    write_csv(path, ("mu", "lambda", "residual", "iterations"),
              [[float(mu) for mu in mus], [r.lam for r in results],
               [r.residual for r in results], [r.iterations for r in results]])

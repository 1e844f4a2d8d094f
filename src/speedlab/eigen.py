"""Principal eigenvalues of periodic parabolic problems via the period map.

The eigenproblem

    -psi_t + d psi_xx - g psi_x + h psi = lambda psi,   (omega, ell)-periodic,

is solved through its linear period map K: the principal eigenvalue is
lambda = ln(rho(K)) / omega and the eigenfunction is the positive fixed
direction of K.  K inherits strict positivity from the M-matrix transport
steps, so the Perron root is simple and plain power iteration converges;
an Aitken delta-squared estimate accelerates the Rayleigh ratio sequence.

The iteration needs only K's action.  For time-dependent media each product
marches one column over the nt steps of the period, and K is never
assembled; time-independent media share one step matrix, whose nt-th power
costs a few dense products, so there K is formed and applied as a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField
from .errors import NoConvergence
from .pde import CellPeriodMap, write_csv

POWER_TOL = 1e-12          # successive-ratio change, relative
RESIDUAL_TOL = 1e-8        # contract: |K psi - rho psi|_inf <= tol * |psi|_inf
POWER_CAP = 10_000
EVEN_CHECK_MUS = (0.3, 1.0)  # tilts at which lambda(mu) = lambda(-mu) is checked
CONVEXITY_TOL = 1e-8         # most negative second difference that passes
EVENNESS_TOL = 1e-8          # largest |lambda(mu) - lambda(-mu)| that passes


@dataclass
class EigenResult:
    """Principal eigenpair of one periodic parabolic problem.

    eigenfunction[j] is the positive periodic eigenfunction at t_j (nt rows,
    global max normalized to 1); lam = ln(rho(K))/omega for the period map K.
    """

    lam: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float
    omega: float
    ell: float

    @property
    def nt(self):
        return self.eigenfunction.shape[0]

    @property
    def nx(self):
        return self.eigenfunction.shape[1]


def _power_iteration(apply, n):
    """Perron root and vector of a positive map given by its action, sup-norm normalization.

    The residual |K psi - rho psi| is measured on the iterate just mapped, with
    K psi = w, and that psi is returned, so the contract costs no extra map.
    """
    psi = np.ones(n)
    ratio_prev = None
    ratios = []
    for it in range(1, POWER_CAP + 1):
        w = apply(psi)
        nrm = np.max(np.abs(w))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise NoConvergence(f"power iteration produced a degenerate iterate at step {it}")
        ratio = nrm  # psi is sup-normalized, so |K psi| / |psi| = |w|
        ratios.append(ratio)
        rho = ratio
        if len(ratios) >= 3:
            r0, r1, r2 = ratios[-3], ratios[-2], ratios[-1]
            denom = (r2 - r1) - (r1 - r0)
            if abs(denom) > 1e-300:
                accel = r2 - (r2 - r1) ** 2 / denom
                if np.isfinite(accel) and accel > 0:
                    rho = accel
        resid = float(np.max(np.abs(w - rho * psi)))
        if (ratio_prev is not None and abs(ratio - ratio_prev) <= POWER_TOL * max(1.0, ratio)
                and resid <= RESIDUAL_TOL):
            return rho, psi, it, resid
        ratio_prev = ratio
        psi = w / nrm
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
    powering of the one step matrix makes cheaper than a march.
    """
    last = {}

    def march(psi):  # keeps the states of the latest march
        last["states"] = pmap.snapshots(psi)
        return last["states"][-1]

    rho_s, psi0, iterations, residual = _power_iteration(
        pmap.matrix().dot if pmap.time_independent else march, pmap.nx)
    lam = math.log(rho_s) / pmap.omega + pmap.shift
    # a marched psi0 is the iterate just mapped, so the last march holds its states
    raw = (last["states"] if last else pmap.snapshots(psi0))[:-1]  # rows at t_0 .. t_{nt-1}
    scale = rho_s ** (-np.arange(pmap.nt) / pmap.nt)
    ef = raw * scale[:, None]
    ef /= ef.max()
    if ef.min() <= 0.0:
        raise NoConvergence("eigenfunction lost positivity")
    return EigenResult(lam=lam, eigenfunction=ef, iterations=iterations,
                       residual=float(residual), omega=pmap.omega, ell=pmap.ell)


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


@dataclass
class DiagnosticsReport:
    """Tabulated lambda(mu) with structural checks.

    convexity_margin is the most negative second difference; it passes at
    >= -CONVEXITY_TOL.  evenness entries are |lambda(mu) - lambda(-mu)| for
    the checked mu, or None when the symmetry preconditions do not hold.
    monotone_margin is min_mu (lambda_m1 - lambda_m2) when a comparison
    potential was supplied.
    """

    mu_grid: np.ndarray
    lambdas: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    convexity_margin: float
    convexity_ok: bool
    evenness_checked: bool
    evenness_devs: dict
    evenness_ok: bool | None
    monotone_margin: float | None
    monotone_ok: bool | None


def lambda_diagnostics(d, g, m, mu_grid, m2=None):
    """Evaluate lambda(mu) on a grid and check the structural properties.

    Checks discrete convexity on the grid (CONVEXITY_TOL), evenness
    lambda(mu) = lambda(-mu) at EVEN_CHECK_MUS (EVENNESS_TOL) when d and m
    are even in x and g is odd in x, and monotonicity against a
    second potential m2 >= m (supplied as the *smaller* one: m >= m2).
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.size < 3 or np.any(np.diff(mu_grid) <= 0):
        raise ValueError("mu_grid must be sorted with at least 3 points")
    results = [lambda_of_mu(d, g, m, mu) for mu in mu_grid]
    lams = np.array([r.lam for r in results])
    second = lams[:-2] - 2.0 * lams[1:-1] + lams[2:]
    convexity_margin = float(second.min())

    from .coeffs import mean_and_symmetry
    _, sd = mean_and_symmetry(d)
    _, sg = mean_and_symmetry(g)
    _, sm = mean_and_symmetry(m)
    qualifies = sd.even_in_x and sm.even_in_x and sg.odd_in_x
    evenness_devs = {}
    evenness_ok = None
    if qualifies:
        evenness_ok = True
        for mu in EVEN_CHECK_MUS:
            dev = abs(lambda_of_mu(d, g, m, mu).lam - lambda_of_mu(d, g, m, -mu).lam)
            evenness_devs[mu] = dev
            evenness_ok = evenness_ok and dev <= EVENNESS_TOL

    monotone_margin = None
    monotone_ok = None
    if m2 is not None:
        diff = m.values - m2.values
        if np.any(diff < 0) or not np.any(diff > 0):
            raise ValueError("monotonicity check expects m >= m2 with m != m2")
        lams2 = np.array([lambda_of_mu(d, g, m2, mu).lam for mu in mu_grid])
        monotone_margin = float(np.min(lams - lams2))
        monotone_ok = monotone_margin > 0.0

    return DiagnosticsReport(
        mu_grid=mu_grid, lambdas=lams,
        residuals=np.array([r.residual for r in results]),
        iterations=np.array([r.iterations for r in results]),
        convexity_margin=convexity_margin,
        convexity_ok=convexity_margin >= -CONVEXITY_TOL,
        evenness_checked=qualifies, evenness_devs=evenness_devs,
        evenness_ok=evenness_ok,
        monotone_margin=monotone_margin, monotone_ok=monotone_ok,
    )


def write_lambda_curve(path, mus, results):
    """CSV dump: mu, lambda, residual, iterations."""
    write_csv(path, ("mu", "lambda", "residual", "iterations"),
              ((float(mu), r.lam, r.residual, r.iterations) for mu, r in zip(mus, results)))

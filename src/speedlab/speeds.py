"""Spreading-speed formulas and the full certificate machinery.

Rightward speeds come from minimizing mu -> lambda(mu)/mu over mu > 0,
where lambda(mu) is the principal eigenvalue of the mu-tilted problem;
leftward speeds read the same family at negative tilt, as the infimum of
lambda(-mu)/mu over mu > 0.  The linearized speed
of the coupled system at the invaded state is produced the same way from
the potential b1 - a12*u2star, and the second component of the coupled
positive eigenfunction needed for the determinacy ratio test comes from one
resolvent solve, which D1 makes positive; a system that fails D1 gets its
verdict and no second component.

Certificates: H1, H2 (instability eigenvalues), H3 via the envelope
sufficient condition (three-valued, never "fail"), H4, H5 (speed
compatibility), D1, D2 (linear determinacy), P1, P2 (time-periodic
x-independent sufficient set), and the shared-growth symmetric-media
condition M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import minimize_scalar

from . import eigen, orbits
from .coeffs import CoefficientField, build_field, mean_and_symmetry, refine_field
from .errors import (NoInteriorMinimum, NonEllipticError, NotMonostable, NumericalFailure,
                     ValidationError)
from .pde import CellPeriodMap

MU_RANGE = (1e-3, 20.0)
MU_TOL = 1e-6  # absolute tolerance in mu of the Brent search, read at each call

LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # the largest x with exp(x) finite

FIELD_NAMES = ("d1", "d2", "g1", "g2", "b1", "b2", "a11", "a12", "a21", "a22")


# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

@dataclass
class SystemSpec:
    """Coefficient fields of the two-species competition model on one grid."""

    d1: CoefficientField
    d2: CoefficientField
    g1: CoefficientField
    g2: CoefficientField
    b1: CoefficientField
    b2: CoefficientField
    a11: CoefficientField
    a12: CoefficientField
    a21: CoefficientField
    a22: CoefficientField
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        ref = self.d1
        for name in FIELD_NAMES:
            f = getattr(self, name)
            if not ref.same_grid(f):
                raise ValueError(f"field {name} is not on the shared grid")
        for name in ("d1", "d2"):
            if getattr(self, name).min() <= 0.0:
                raise NonEllipticError(f"{name} must be strictly positive")
        for name in ("a11", "a22"):
            if getattr(self, name).min() <= 0.0:
                raise ValidationError(f"{name} must be strictly positive")
        for name in ("a12", "a21"):
            if getattr(self, name).min() < 0.0:
                raise ValidationError(f"{name} must be nonnegative")

    @property
    def omega(self):
        return self.d1.omega

    @property
    def ell(self):
        return self.d1.ell

    @property
    def nt(self):
        return self.d1.nt

    @property
    def nx(self):
        return self.d1.nx

    @classmethod
    def from_expressions(cls, exprs: dict, omega, ell, nt, nx):
        missing = [n for n in FIELD_NAMES if n not in exprs]
        if missing:
            raise ValueError(f"missing coefficient expressions: {missing}")
        built = {n: build_field(str(exprs[n]), omega, ell, nt, nx) for n in FIELD_NAMES}
        return cls(**built)

    def refined(self):
        """The same system sampled on the grid doubled in t and x."""
        built = {n: refine_field(getattr(self, n)) for n in FIELD_NAMES}
        return SystemSpec(**built)

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def u1_star(self) -> orbits.PeriodicOrbit:
        """Species-1 alone periodic orbit (cached)."""
        return self._cached("u1", lambda: orbits.logistic_orbit(
            self.d1, self.g1, self.b1, self.a11, growth=self.species1_eigen()))

    def u2_star(self) -> orbits.PeriodicOrbit:
        """Species-2 alone periodic orbit (cached)."""
        return self._cached("u2", lambda: orbits.logistic_orbit(
            self.d2, self.g2, self.b2, self.a22, growth=self.species2_eigen()))

    def invaded_potential(self) -> CoefficientField:
        """Species-1 potential b1 - a12*u2* at the invaded state (cached)."""
        return self._cached("invaded_potential",
                            lambda: self.b1 - self.a12 * self.u2_star().as_field())

    def species1_eigen(self) -> eigen.EigenResult:
        """Principal eigenpair of species 1 alone, (d1, g1, b1) (cached)."""
        return self._cached("lambda1", lambda: eigen.principal_eigen(self.d1, self.g1, self.b1))

    def species2_eigen(self) -> eigen.EigenResult:
        """Principal eigenpair of species 2 alone, (d2, g2, b2) (cached)."""
        return self._cached("lambda2", lambda: eigen.principal_eigen(self.d2, self.g2, self.b2))

    def invaded_eigen(self) -> eigen.EigenResult:
        """Principal eigenpair at the invaded state, (d1, g1, b1 - a12*u2*) (cached).

        Its eigenvalue is the H2 margin.
        """
        return self._cached("invaded", lambda: eigen.principal_eigen(
            self.d1, self.g1, self.invaded_potential()))

    def speed_estimate(self):
        """Species-1 KPP speed bound 2*sqrt(max d1 * max b1), for sizing domains.

        It ignores the drift g1, which can make the true speed larger; max b1
        is floored at 1e-9.
        """
        return 2.0 * math.sqrt(self.d1.max() * max(self.b1.max(), 1e-9))


# ---------------------------------------------------------------------------
# Speed minimization
# ---------------------------------------------------------------------------

@dataclass
class MinimizeResult:
    c_star: float
    mu0: float
    # read by name by perfbench/tracing.py (speeds.minimize_evals); ROADMAP
    # item 5 moves that count into in-package counters and retires the field
    evaluations: int


def minimize_speed(lambda_eval) -> MinimizeResult:
    """Brent minimization of mu -> lambda(mu)/mu on MU_RANGE.

    Requires an interior minimum, verified by the slope signs at both ends;
    a monotone profile raises NoInteriorMinimum with the endpoint data, since
    the infimum then sits on the boundary and the formula regime fails.
    MU_TOL is Brent's absolute tolerance in mu (xatol), not a relative one;
    the result is the smallest value evaluated, endpoint probes included.
    """
    lo, hi = MU_RANGE
    cache = {}

    def f(mu):
        mu = float(mu)
        if mu not in cache:
            cache[mu] = lambda_eval(mu) / mu
        return cache[mu]

    probe_lo = lo * (1.0 + 1e-2)
    probe_hi = hi * (1.0 - 1e-2)
    data = {"mu_lo": lo, "f_lo": f(lo), "mu_hi": hi, "f_hi": f(hi)}
    if f(probe_lo) >= f(lo):
        raise NoInteriorMinimum("lambda(mu)/mu is nondecreasing at the lower end", data)
    if f(hi) <= f(probe_hi):
        raise NoInteriorMinimum("lambda(mu)/mu is nonincreasing at the upper end", data)

    minimize_scalar(f, bounds=MU_RANGE, method="bounded", options={"xatol": MU_TOL})
    mu0, c_star = min(cache.items(), key=lambda item: item[1])
    return MinimizeResult(c_star=c_star, mu0=mu0, evaluations=len(cache))


def richardson(base, fine):
    """First-order Richardson step across one grid doubling.

    Returns (2*fine - base, 2*|fine - base|): the extrapolated value and the
    estimate that bounds the base-grid error under the first-order model.
    """
    return 2.0 * fine - base, 2.0 * abs(fine - base)


@dataclass
class C0Result:
    c0: float
    mu0: float
    discretization_estimate: float | None = None  # set when Richardson-refined
    eigen_at_mu0: eigen.EigenResult | None = None


def linear_speed_c0(sys: SystemSpec, refine=False) -> C0Result:
    """Linearized speed c0 = inf_{mu>0} lambda0(mu)/mu at the invaded state.

    lambda0 is the tilted eigenvalue with potential b1 - a12*u2star.  The
    positivity of lambda0(0) (the H2 margin) is a precondition; refine=True
    recomputes the whole pipeline, orbit included, on a doubled grid and
    extrapolates c0.  Without refinement the result carries the eigenpair
    the minimization computed at mu0, for the coupled eigenfunction.  Each
    solve of the curve starts from the previous one's psi(0).
    """
    def compute(s):
        margin = s.invaded_eigen().lam
        if margin <= 0.0:
            raise NotMonostable(f"lambda(d1,g1,b1-a12*u2) = {margin:.6g} <= 0")
        curve = eigen.lambda_curve(s.d1, s.g1, s.invaded_potential())
        solved = {}  # each mu's eigenpair, so that mu0's goes to the coupled eigenfunction

        def lam(mu):
            solved[mu] = curve(mu)
            return solved[mu].lam

        res = minimize_speed(lam)
        return res, solved[res.mu0]

    res, eig = compute(sys)
    if not refine:
        return C0Result(res.c_star, res.mu0, eigen_at_mu0=eig)
    res_f, _ = compute(sys.refined())
    c0, estimate = richardson(res.c_star, res_f.c_star)
    return C0Result(c0, res_f.mu0, discretization_estimate=estimate)


# ---------------------------------------------------------------------------
# Coupled eigenfunction (determinacy ratio test)
# ---------------------------------------------------------------------------

@dataclass
class CoupledEigenfunction:
    """Positive periodic eigenfunction (phi1, phi2) of the coupled tilted system.

    phi1 is sup-normalized to 1; phi2 carries the scale induced by phi1
    through the coupling, so the ratio field phi1/phi2 is normalization
    free.  phi2 is None when D1 fails (lambdabar >= lambda0), since the
    coupled problem then has no positive eigenfunction, and identically zero
    when the coupling a21*u2* vanishes.  residual is the sup-norm defect of
    one coupled period-map application against rho1 = e^{lambda0 omega}.
    """

    phi1: np.ndarray
    phi2: np.ndarray | None
    mu0: float
    lambda0: float
    lambdabar: float
    residual: float
    # resolvent solves: 1, or 0 when D1 fails; read
    # by name by perfbench/tracing.py (speeds.coupled_terms); ROADMAP item 5
    # moves that count into in-package counters and retires the field
    series_terms: int


def _second_tilted(sys: SystemSpec, u2f, mu):
    """Drift and potential of the mu-tilted second equation linearized at u2*:
    2 mu d2 + g2 and d2 mu^2 + g2 mu + b2 - 2 a22 u2*."""
    drift, potential = eigen.tilted_coefficients(sys.d2, sys.g2, sys.b2, mu)
    return drift, potential - 2.0 * sys.a22 * u2f


def coupled_eigenfunction(sys: SystemSpec, mu0, eig1=None) -> CoupledEigenfunction:
    """Build (phi1*, phi2*) for the coupled eigenproblem at the tilt mu0.

    The coupling is linearized at the system's own orbit sys.u2_star().
    phi1 is the decoupled first equation's eigenfunction, marched here from
    its psi(0) by eigen.eigenfunction; phi2(0) solves (rho1 - K2) phi2 = F
    in one dense solve, so a zero forcing F (no coupling) gives phi2 = 0.
    D1 (rho(K2) < rho1) makes that resolvent positive; when D1 fails the
    pair comes back with phi2 None and the lambdabar it computed.  K2 is
    the unit-scale map, its mean potential factored out, so the solve runs
    in that frame: rho1, the source and the snapshots carry the same
    factor, which leaves phi2 unchanged.  The snapshots are then
    reconstructed along the period by marching with the coupling source,
    so the pair is an exact discrete eigenpair.  eig1 is the first
    equation's eigenpair at mu0 when the caller already has it (the c0
    minimization evaluated it); it is solved here otherwise.
    A NumericalFailure is raised when rho1 or the shift factor
    e^{shift omega} is past the float range.
    """
    u2f = sys.u2_star().as_field()
    map1 = CellPeriodMap(sys.d1, *eigen.tilted_coefficients(
        sys.d1, sys.g1, sys.invaded_potential(), mu0))
    if eig1 is None:
        eig1 = eigen.principal_of_map(map1)
    lam0 = eig1.lam
    phi1 = eigen.eigenfunction(map1, eig1)

    map2 = CellPeriodMap(sys.d2, *_second_tilted(sys, u2f, mu0))
    lambar = eigen.principal_of_map(map2).lam
    if lambar >= lam0:
        return CoupledEigenfunction(phi1=phi1, phi2=None, mu0=mu0, lambda0=lam0,
                                    lambdabar=lambar, residual=float(eig1.residual),
                                    series_terms=0)

    # the shifted frame: K2 and the forcing carry exp(-shift*omega) per period
    rate = lam0 - map2.shift
    log_scale = max(rate, map2.shift) * sys.omega  # of rho1 and of the shift factor
    if log_scale > LOG_FLOAT_MAX:
        raise NumericalFailure(f"coupled eigenfunction scale exp({log_scale:.6g}) overflows")
    rho1_shifted = math.exp(rate * sys.omega)
    nt, nx = sys.nt, sys.nx
    # running (non-normalized) first component at the arrival time of step j
    powers = np.exp(rate * map2.dt * np.arange(1, nt + 1))
    rows = [(j + 1) % nt for j in range(nt)]
    psi1_arrival = powers[:, None] * phi1[rows]
    coupling = np.array([sys.a21.values[r] * u2f.values[r] for r in rows])
    source = coupling * psi1_arrival

    forcing = map2.apply_with_source(np.zeros(nx), source)
    phi2_start = np.linalg.solve(rho1_shifted * np.eye(nx) - map2.matrix(), forcing)
    raw2 = map2.snapshots_with_source(phi2_start, source)
    scale = np.exp(-rate * map2.dt * np.arange(nt))
    phi2 = raw2[:-1] * scale[:, None]

    # report the defect of the unshifted map: the shifted one times exp(shift*omega)
    resid2 = math.exp(map2.shift * sys.omega) * float(
        np.max(np.abs(raw2[-1] - rho1_shifted * phi2_start)))
    denom = max(np.max(np.abs(phi2_start)), 1e-300)
    residual = max(float(eig1.residual), resid2 / denom)
    return CoupledEigenfunction(phi1=phi1, phi2=phi2, mu0=mu0, lambda0=lam0,
                                lambdabar=lambar, residual=residual, series_terms=1)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    name: str
    verdict: str  # pass | pass(sufficient) | fail | inconclusive | not-applicable
    margin: float | None
    details: dict = dc_field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict.startswith("pass")

    def to_dict(self):
        return {"verdict": self.verdict, "margin": self.margin, "details": self.details}


def _envelope_margins(sys: SystemSpec):
    """Envelope margins of H3's coexistence-exclusion sufficient condition."""
    dt = sys.omega / sys.nt
    b1_lo = sys.b1.values.min(axis=1)
    b2_hi = sys.b2.values.max(axis=1)
    ratio1 = np.max(sys.a12.values.max(axis=1) / sys.a22.values.min(axis=1))
    ratio2 = np.max(sys.a21.values.min(axis=1) / sys.a11.values.max(axis=1))
    i1 = float(np.sum(b1_lo) * dt)
    j2 = float(np.sum(b2_hi) * dt)
    return i1 - ratio1 * j2, ratio2 * i1 - j2, {"int_b1_lo": i1, "int_b2_hi": j2,
                                                "max_a12_over_a22": ratio1,
                                                "max_a21_over_a11": ratio2}


def check_hypotheses(sys: SystemSpec) -> dict:
    """Evaluate H1-H5 and the shared-growth test.

    Returns the Certificates keyed by name: H1-H5 and M.

    H3 is undecidable numerically in general, so only the sufficient
    envelope condition is evaluated, with its four envelope numbers as the
    details, and the verdict is three-valued: pass(sufficient) or
    inconclusive, never fail.  H4's c2- is inf lambda2(-mu)/mu on species
    2's own tilted curve.  H5's slope is the central difference of lambda2
    at mu = 0 on the curve linearized at u2*.
    """
    certs = {}

    lam1 = sys.species1_eigen()
    lam2 = sys.species2_eigen()
    h1_margin = min(lam1.lam, lam2.lam)
    certs["H1"] = Certificate(
        "H1", "pass" if h1_margin > 0 else "fail", h1_margin,
        {"lambda_species1": lam1.lam, "lambda_species2": lam2.lam,
         "residuals": [lam1.residual, lam2.residual]})

    if lam2.lam <= 0:
        certs["H2"] = Certificate("H2", "not-applicable", None,
                                  {"note": "species 2 is extinct, no invaded state"})
    else:
        h2 = sys.invaded_eigen()
        certs["H2"] = Certificate("H2", "pass" if h2.lam > 0 else "fail", h2.lam,
                                  {"residual": h2.residual})

    m1, m2, detail = _envelope_margins(sys)
    certs["H3"] = Certificate("H3", "pass(sufficient)" if m1 > 0 and m2 >= 0 else "inconclusive",
                              min(m1, m2), {"via": "envelope sufficient condition", **detail})

    c1p = c2m = None
    if h1_margin > 0:
        try:
            # H4 needs only species 1 rightward and species 2 leftward; both
            # are assigned together so H5 sees c1p only when H4 is decided
            species1 = eigen.lambda_curve(sys.d1, sys.g1, sys.b1)
            species2 = eigen.lambda_curve(sys.d2, sys.g2, sys.b2)
            c1p, c2m = (minimize_speed(lambda mu: species1(mu).lam).c_star,
                        minimize_speed(lambda mu: species2(-mu).lam).c_star)
            certs["H4"] = Certificate("H4", "pass" if c1p + c2m > 0 else "fail",
                                      c1p + c2m, {"c1_plus": c1p, "c2_minus": c2m})
        except NoInteriorMinimum as exc:
            certs["H4"] = Certificate("H4", "inconclusive", None,
                                      {"reason": str(exc), **exc.endpoint_data})
    else:
        certs["H4"] = Certificate("H4", "not-applicable", None,
                                  {"note": "H1 fails, single-species speeds undefined"})

    if lam2.lam > 0 and c1p is not None:
        pot2 = sys.b2 - sys.a22 * sys.u2_star().as_field()
        curve2 = eigen.lambda_curve(sys.d2, sys.g2, pot2)
        lam2_zero = curve2(0.0).lam
        details = {"lambda2_at_0": lam2_zero}
        if abs(lam2_zero) > 1e-6:
            certs["H5"] = Certificate("H5", "inconclusive", None, {
                **details, "note": "orbit eigenvalue identity failed, slope unreliable"})
        else:
            # a central difference: lambda2(0), the orbit's closure error, cancels
            eps = 1e-3
            at_eps = {mu: curve2(mu).lam for mu in (eps, -eps)}
            slope = (at_eps[eps] - at_eps[-eps]) / (2.0 * eps)
            details.update({"slope": slope, "lambda2_at_eps": at_eps})
            margin = c1p - slope
            certs["H5"] = Certificate("H5", "pass" if margin >= 0 else "fail", margin, details)
    else:
        certs["H5"] = Certificate("H5", "not-applicable", None,
                                  {"note": "requires species-2 orbit and c1_plus"})

    certs["M"] = _condition_m(sys)
    return certs


def _condition_m(sys: SystemSpec) -> Certificate:
    """Shared-growth condition: equal growth fields, unit interactions,
    growth even and non-trivial in x with nonnegative mean."""
    tol = 1e-9
    shape_ok = (np.max(np.abs(sys.b1.values - sys.b2.values)) <= tol
                and all(np.max(np.abs(getattr(sys, n).values - 1.0)) <= tol
                        for n in ("a11", "a12", "a21", "a22"))
                and np.max(np.abs(sys.g1.values)) <= tol
                and np.max(np.abs(sys.g2.values)) <= tol)
    if not shape_ok:
        return Certificate("M", "not-applicable", None,
                           {"note": "system is not of the shared-growth unit-interaction form"})
    mean, rep = mean_and_symmetry(sys.b1)
    nontrivial = not rep.x_independent
    ok = nontrivial and rep.even_in_x and mean >= 0.0
    return Certificate("M", "pass" if ok else "fail", mean,
                       {"even_in_x": rep.even_in_x, "x_dependent": nontrivial, "mean": mean})


def _p_conditions(sys: SystemSpec) -> tuple[Certificate, Certificate]:
    """P1/P2 sufficient set for the x-independent, drift-free normalized model."""
    tol = 1e-9
    x_indep = all(mean_and_symmetry(getattr(sys, n))[1].x_independent for n in FIELD_NAMES)
    d1_unit = np.max(np.abs(sys.d1.values - 1.0)) <= tol
    d2_const = np.max(sys.d2.values) - np.min(sys.d2.values) <= tol
    no_drift = np.max(np.abs(sys.g1.values)) <= tol and np.max(np.abs(sys.g2.values)) <= tol
    if not (x_indep and d1_unit and d2_const and no_drift):
        na = Certificate("P1", "not-applicable", None,
                         {"note": "requires x-independent coefficients, d1 = 1, no drift"})
        return na, Certificate("P2", na.verdict, None, na.details)

    b1bar = float(sys.b1.values.mean())
    b2bar = float(sys.b2.values.mean())
    r12 = float(np.max(sys.a12.values / sys.a22.values))
    r21 = float(np.max(sys.a21.values / sys.a11.values))
    m1 = b1bar - r12 * b2bar
    m2 = r21 * b1bar - b2bar
    p1_ok = (m1 > 0) and (b2bar > 0) and (m2 >= 0)
    p1 = Certificate("P1", "pass" if p1_ok else "fail", min(m1, m2),
                     {"b1_mean": b1bar, "b2_mean": b2bar,
                      "max_a12_over_a22": r12, "max_a21_over_a11": r21})

    d = float(sys.d2.values.mean())
    u1 = sys.u1_star()
    u2 = sys.u2_star()
    if u1.extinct or u2.extinct:
        return p1, Certificate("P2", "not-applicable", None,
                               {"note": "needs both single-species orbits"})
    a = sys.a11.values * u1.snapshots - sys.a12.values * u2.snapshots
    b = sys.a21.values * u1.snapshots - sys.a22.values * u2.snapshots
    md = 1.0 - d
    mab = float(np.min(a - b))
    mb = float(np.min(b))
    p2_ok = (d > 0) and (md >= 0) and (mab >= -1e-10) and (mb >= -1e-10)
    p2 = Certificate("P2", "pass" if p2_ok else "fail", min(md, mab, mb),
                     {"d": d, "min_first_minus_second": mab, "min_second": mb})
    return p1, p2


def check_linear_determinacy(sys: SystemSpec, pair: CoupledEigenfunction) -> dict:
    """Evaluate D1 and D2 on the coupled eigenpair at mu0.

    Returns the Certificates keyed by name.  D1 margin:
    lambda0(mu0) - lambdabar(mu0), both as coupled_eigenfunction computed
    them.  D2 margin: minimum over the period cell of phi1/phi2 -
    max(a12/a11, a22/a21); not applicable without a positive phi2 (D1
    fails) or with zero coupling.  Both positive are the sufficient
    conditions for linear determinacy.
    """
    certs = {}
    d1_margin = pair.lambda0 - pair.lambdabar
    certs["D1"] = Certificate("D1", "pass" if d1_margin > 0 else "fail", d1_margin,
                              {"lambda0": pair.lambda0, "lambdabar": pair.lambdabar,
                               "mu0": pair.mu0})

    if pair.phi2 is None or np.all(pair.phi2 <= 0.0) or sys.a21.min() <= 0.0:
        certs["D2"] = Certificate("D2", "not-applicable", None,
                                  {"note": "degenerate second component or zero coupling"})
    else:
        ratio = pair.phi1 / pair.phi2
        bound = np.maximum(sys.a12.values / sys.a11.values,
                           sys.a22.values / sys.a21.values)
        d2_margin = float(np.min(ratio - bound))
        certs["D2"] = Certificate("D2", "pass" if d2_margin > 0 else "fail", d2_margin,
                                  {"min_ratio": float(ratio.min()),
                                   "max_bound": float(bound.max())})
    return certs


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass
class SpeedReport:
    """c0+ and the certificates.  Every other number sits once, in the details of
    the certificate that reads it: mu0 and lambdabar in D1's, c1+ and c2- in H4's."""

    c0_plus: float | None
    certificates: dict
    linearly_determinate: bool
    notes: list

    def to_dict(self):
        return {
            "c0_plus": self.c0_plus,
            "certificates": {k: v.to_dict() for k, v in sorted(self.certificates.items())},
            "linearly_determinate": self.linearly_determinate,
            "notes": self.notes,
        }


def compute_speed_report(sys: SystemSpec, refine=False) -> SpeedReport:
    """Full pipeline: orbits, speeds, coupled eigenfunction, all certificates."""
    notes = []
    certs = check_hypotheses(sys)

    c0 = None
    determinate = False
    if certs["H1"].passed and certs["H2"].passed:
        res = linear_speed_c0(sys, refine=refine)
        c0 = res.c0
        if res.discretization_estimate is not None:
            notes.append(f"c0 Richardson-refined; discretization estimate "
                         f"{res.discretization_estimate:.3g}")
        pair = coupled_eigenfunction(sys, res.mu0, eig1=res.eigen_at_mu0)
        if pair.phi2 is None:
            notes.append(f"D1 violated: lambdabar({pair.mu0:.6g}) = {pair.lambdabar:.6g} "
                         f">= lambda0 = {pair.lambda0:.6g}")
        elif not pair.phi2.any():
            notes.append("coupled eigenfunction degenerates (zero coupling)")
        certs.update(check_linear_determinacy(sys, pair))
        determinate = certs["D1"].passed and certs["D2"].passed
    else:
        notes.append("H1/H2 not satisfied, linearized speed undefined")
    certs["P1"], certs["P2"] = _p_conditions(sys)

    return SpeedReport(c0_plus=c0, certificates=certs, linearly_determinate=determinate,
                       notes=notes)

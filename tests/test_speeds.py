import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from speedlab import (SystemSpec, check_hypotheses, check_linear_determinacy,
                      coupled_eigenfunction, linear_speed_c0, minimize_speed)
from speedlab.cli import DEMOS
from speedlab.errors import NoInteriorMinimum
from speedlab import eigen, pde, speeds
from speedlab.speeds import compute_speed_report

from conftest import field, make_system


def curve_of(lam):
    """A lambda-curve mu -> EigenResult whose eigenvalue is lam(mu)."""
    return lambda mu: eigen.EigenResult(lam=lam(mu), iterations=0, residual=0.0, psi0=None)


def test_minimize_speed_quadratics():
    r = minimize_speed(curve_of(lambda mu: mu * mu + 1.0))
    assert r.c_star == pytest.approx(2.0, abs=1e-9)
    assert r.mu0 == pytest.approx(1.0, abs=1e-5)

    r = minimize_speed(curve_of(lambda mu: 2.0 * mu * mu + 3.0))
    assert r.c_star == pytest.approx(2.0 * math.sqrt(6.0), abs=1e-9)
    assert r.mu0 == pytest.approx(math.sqrt(1.5), abs=1e-5)

    r = minimize_speed(curve_of(lambda mu: mu * mu + 1.7))
    assert r.c_star == pytest.approx(2.0 * math.sqrt(1.7), abs=1e-9)
    assert r.mu0 == pytest.approx(math.sqrt(1.7), abs=1e-5)


def demo_system(name):
    model, grid = DEMOS[name]["model"], DEMOS[name]["discretization"]
    return SystemSpec.from_expressions(model, model["omega"], model["ell"],
                                       grid["nt"], grid["nx"])


@pytest.mark.parametrize("name,m", [("fisher", 1.0), ("competition-constants", 1.7)])
def test_constant_demo_speed_is_the_closed_form(name, m):
    # constant media: lambda(mu) = d1 mu^2 + m with m = b1 - a12 u2* (u2* = b2/a22
    # = 1), so mu0 = sqrt(m/d1) up to Brent's tolerance and c0 = 2 sqrt(d1 m)
    sys = demo_system(name)
    d1 = float(DEMOS[name]["model"]["d1"])
    res = linear_speed_c0(sys)
    assert abs(res.mu0 - math.sqrt(m / d1)) <= speeds.MU_TOL
    assert res.c0 == pytest.approx(2.0 * math.sqrt(d1 * m), rel=1e-10)


def test_minimize_speed_stable_under_extra_iterations(monkeypatch):
    coarse = minimize_speed(curve_of(lambda mu: mu * mu + 1.3))
    monkeypatch.setattr(speeds, "MU_TOL", 1e-12)
    fine = minimize_speed(curve_of(lambda mu: mu * mu + 1.3))
    assert fine.evaluations > coarse.evaluations
    assert abs(coarse.c_star - fine.c_star) <= 1e-5


def test_minimize_speed_solves_only_brents_points():
    # a successful search solves each point Brent picks once, never an end of
    # MU_RANGE, and returns the curve's own eigenpair at mu0
    solved = {}
    quadratic = curve_of(lambda mu: mu * mu + 1.0)

    def curve(mu):
        assert mu not in solved
        solved[mu] = quadratic(mu)
        return solved[mu]

    r = minimize_speed(curve)
    assert not set(speeds.MU_RANGE) & set(solved)
    assert r.evaluations == len(solved)
    assert r.eigen_at_mu0 is solved[r.mu0]
    assert r.c_star == min(res.lam / mu for mu, res in solved.items())


def assert_no_interior_minimum(lam):
    """minimize_speed on lam raises NoInteriorMinimum with lam/mu at both ends."""
    lo, hi = speeds.MU_RANGE
    with pytest.raises(NoInteriorMinimum) as info:
        minimize_speed(curve_of(lam))
    assert info.value.endpoint_data == {"mu_lo": lo, "f_lo": lam(lo) / lo,
                                        "mu_hi": hi, "f_hi": lam(hi) / hi}


def test_minimize_speed_monotone_raises():
    assert_no_interior_minimum(lambda mu: 1.0)          # lambda/mu decreasing everywhere
    assert_no_interior_minimum(lambda mu: mu * mu)      # lambda/mu increasing everywhere


def times_mu(ratio):
    """The lambda whose lambda/mu is ratio."""
    return lambda mu: mu * ratio(mu)


# lambda/mu with its minimum inside the 1% band at one end of MU_RANGE
END_BANDS = {"lower": lambda mu: ((mu - 1.005e-3) * 1e3) ** 2 + 1.0,
             "upper": lambda mu: (mu - 19.9) ** 2 + 1.0}


@pytest.mark.parametrize("lam_over_mu", END_BANDS.values(), ids=END_BANDS)
def test_minimum_inside_an_end_band_is_not_interior(lam_over_mu):
    # interior means mu0 in (1.01 lo, 0.99 hi); these minima sit inside the
    # 1% band at one end
    assert_no_interior_minimum(times_mu(lam_over_mu))


def scipy_bounded(f, lo, hi, xatol):
    """scipy's bounded Brent search, the reference _brent_bounded ports."""
    minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})


def brent_points(search, lam):
    """The mu, as float hex strings, at which search evaluates lam(mu)/mu on
    MU_RANGE with xatol = MU_TOL, in order."""
    points = []

    def f(mu):
        points.append(float(mu).hex())
        return lam(mu) / mu

    search(f, *speeds.MU_RANGE, speeds.MU_TOL)
    return points


BRENT_CURVES = {
    "quadratic-1": lambda mu: mu * mu + 1.0,
    "quadratic-2-3": lambda mu: 2.0 * mu * mu + 3.0,
    "quadratic-1.7": lambda mu: mu * mu + 1.7,
    "quadratic-1.3": lambda mu: mu * mu + 1.3,
    **{f"end-band-{end}": times_mu(ratio) for end, ratio in END_BANDS.items()},
    "constant": lambda mu: 1.0,
    "square": lambda mu: mu * mu,
    "flat-ratio": lambda mu: 2.0 * mu,  # lambda/mu = 2 exactly: every comparison ties
}


@pytest.mark.parametrize("lam", BRENT_CURVES.values(), ids=BRENT_CURVES)
def test_brent_bounded_evaluates_scipys_points(lam):
    points = brent_points(speeds._brent_bounded, lam)
    assert points == brent_points(scipy_bounded, lam)


def test_brent_bounded_evaluates_scipys_points_on_rough_curves():
    # kinks, plateaus and wiggles reach the point-update branches (ties and
    # coincident points) that the smooth curves above leave untried
    for seed in range(40):
        rng = random.Random(seed)
        c, s, h = rng.uniform(1e-3, 20.0), 10 ** rng.uniform(-3, 3), rng.uniform(-5, 5)
        for ratio in (lambda mu: s * abs(mu - c), lambda mu: round(s * (mu - c) ** 2, 2),
                      lambda mu: math.sin(s * mu) + h * mu):
            lam = times_mu(ratio)
            assert brent_points(speeds._brent_bounded, lam) == brent_points(scipy_bounded, lam), seed


def test_brent_bounded_evaluates_scipys_points_at_a_fine_tolerance(monkeypatch):
    lam = BRENT_CURVES["quadratic-1.3"]
    coarse = brent_points(speeds._brent_bounded, lam)
    monkeypatch.setattr(speeds, "MU_TOL", 1e-12)
    points = brent_points(speeds._brent_bounded, lam)
    assert len(points) > len(coarse)
    assert points == brent_points(scipy_bounded, lam)


def h4_speeds(sys):
    """H4's single-species speeds (c1+, c2-) of the system."""
    details = check_hypotheses(sys)["H4"].details
    return details["c1_plus"], details["c2_minus"]


def both_species(d, g, b):
    """A decoupled system whose two species carry the same (d, g, b)."""
    one, zero = field("1"), field("0")
    return SystemSpec(d1=d, d2=d, g1=g, g2=g, b1=b, b2=b,
                      a11=one, a12=zero, a21=zero, a22=one)


def test_scalar_kpp_constants(fisher_system):
    c1p, c2m = h4_speeds(fisher_system)
    assert c1p == pytest.approx(2.0, abs=1e-6)
    assert c2m == pytest.approx(2.0, abs=1e-6)

    c1p, _ = h4_speeds(make_system(d1="2", b1="3"))
    assert c1p == pytest.approx(2.0 * math.sqrt(6.0), abs=1e-6)


def test_scalar_kpp_drift_shifts_speeds():
    c1p, c2m = h4_speeds(both_species(field("1"), field("1"), field("1")))
    assert c1p == pytest.approx(3.0, abs=1e-6)
    assert c2m == pytest.approx(1.0, abs=1e-6)


def test_scalar_kpp_not_monostable():
    certs = check_hypotheses(make_system(b1="-1"))
    assert certs["H1"].verdict == "fail"
    assert certs["H4"].verdict == "not-applicable"


def reflected(f, sign=1.0):
    """The field (t, x) -> sign * f(t, -x) on the same grid."""
    return type(f)(f.omega, f.ell, sign * f.values[:, (-np.arange(f.nx)) % f.nx])


def test_reflection_duality():
    # c2- by negative tilt is c1+ of the x -> -x reflected equation, whose
    # drift changes sign; the two are separate solves, equal to roundoff
    d = field("1 + 0.2*sin(2*pi*x)")
    g = field("0.6 + 0.3*cos(2*pi*x)")
    b = field("1 + 0.3*cos(2*pi*x) + 0.2*sin(2*pi*x)")
    direct = h4_speeds(both_species(d, g, b))
    swapped = h4_speeds(both_species(reflected(d), reflected(g, -1.0), reflected(b)))
    assert direct[1] == pytest.approx(swapped[0], rel=1e-10)
    assert direct[0] == pytest.approx(swapped[1], rel=1e-10)


def test_linear_speed_c0_constants(constants_system):
    res = linear_speed_c0(constants_system)
    assert res.c0 == pytest.approx(2.0 * math.sqrt(1.7), abs=1e-6)
    assert res.mu0 == pytest.approx(math.sqrt(1.7), abs=1e-4)
    assert res.c0 * res.mu0 == pytest.approx(3.4, abs=1e-5)


def test_linear_speed_c0_decoupled_reduces_to_scalar(fisher_system):
    res = linear_speed_c0(fisher_system)
    c1p, _ = h4_speeds(fisher_system)
    assert res.c0 == pytest.approx(c1p, abs=1e-12)


def test_linear_speed_c0_time_periodic_mean_formula():
    # x-independent coefficients: c0 = 2 sqrt(mean(b1 - a12 u2*)) exactly
    sysp = make_system(nx=8, b1="2 + 0.4*sin(2*pi*t)", b2="1 + 0.5*sin(2*pi*t)")
    res = linear_speed_c0(sysp)
    assert res.c0 == pytest.approx(2.0 * math.sqrt(1.7), abs=1e-6)


def test_coupled_eigenfunction_constants_closed_form(constants_system):
    sys, mu0 = constants_system, math.sqrt(1.7)
    pair = coupled_eigenfunction(
        sys, mu0, eigen.lambda_of_mu(sys.d1, sys.g1, sys.invaded_potential(), mu0))
    # continuum ratio phi2/phi1 = a21 u2* / (lambda0 - lambdabar) = 1.2/3.55
    ratio = pair.phi2 / pair.phi1
    assert np.max(np.abs(ratio - 1.2 / 3.55)) < 5e-3
    assert ratio.max() - ratio.min() < 1e-12  # spatially and temporally constant
    assert pair.lambda0 == pytest.approx(3.4, abs=1e-4)
    assert pair.lambdabar == pytest.approx(-0.15, abs=1e-4)
    assert pair.residual < 1e-11


def test_coupled_eigenfunction_periodic_residual(periodic_b2_system):
    sysp = periodic_b2_system
    res = linear_speed_c0(sysp)
    pair = coupled_eigenfunction(sysp, res.mu0, res.eigen_at_mu0)
    assert pair.residual < 1e-11
    assert pair.phi2.min() > 0.0


def test_coupled_eigenfunction_degenerate_when_uncoupled(fisher_system):
    # a21 = 0: the zero forcing solves to phi2 = 0, with the first equation's residual
    eig1 = eigen.lambda_of_mu(fisher_system.d1, fisher_system.g1,
                              fisher_system.invaded_potential(), 1.0)
    pair = coupled_eigenfunction(fisher_system, 1.0, eig1)
    assert pair.phi2 is not None and not pair.phi2.any()
    assert pair.residual == eig1.residual
    assert pair.series_terms == 1


def test_check_hypotheses_constants(constants_system):
    rep = check_hypotheses(constants_system)
    assert rep["H1"].verdict == "pass"
    assert rep["H1"].margin == pytest.approx(1.0, abs=1e-6)
    assert rep["H2"].margin == pytest.approx(1.7, abs=1e-6)
    assert rep["H3"].verdict == "pass(sufficient)"
    assert rep["H3"].margin == pytest.approx(1.4, abs=1e-9)
    assert rep["H3"].details["int_b1_lo"] == pytest.approx(2.0, abs=1e-12)
    assert rep["H4"].verdict == "pass"
    assert rep["H4"].details["c1_plus"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-5)
    assert rep["H4"].details["c2_minus"] == pytest.approx(math.sqrt(2.0), abs=1e-5)
    assert rep["H5"].verdict == "pass"
    assert abs(rep["H5"].details["slope"]) < 1e-4
    assert rep["M"].verdict == "not-applicable"


def test_check_hypotheses_h1_failure():
    sys_bad = make_system(nt=100, nx=8, b2="-1")
    rep = check_hypotheses(sys_bad)
    assert rep["H1"].verdict == "fail"
    assert rep["H1"].margin == pytest.approx(-1.0, abs=1e-9)
    assert rep["H2"].verdict == "not-applicable"


def test_check_hypotheses_symmetric_media_branch():
    sys_sym = make_system(nt=100, nx=32, b1="2 + 0.2*cos(2*pi*x)",
                          b2="1 + 0.1*cos(2*pi*x)")
    rep = check_hypotheses(sys_sym)
    assert rep["H5"].verdict == "pass"
    # lambda2 is even in mu there, so the central slope is zero up to roundoff
    assert abs(rep["H5"].details["slope"]) <= 1e-9


def test_h5_slope_is_g2_in_constant_media():
    # constant media: the discrete lambda2(mu) is exactly d2 mu^2 + g2 mu
    h5 = check_hypotheses(make_system(g2="0.4"))["H5"]
    assert h5.details["slope"] == pytest.approx(0.4, abs=1e-8)


def test_h5_slope_vanishes_on_the_shared_growth_demo():
    # even media: the slope is zero by structure, although the orbit closes
    # only to CYCLE_TOL, so lambda2(0) is not zero
    h5 = check_hypotheses(demo_system("shared-growth"))["H5"]
    assert h5.verdict == "pass"
    assert abs(h5.details["slope"]) <= 1e-9


def test_h5_slope_matches_a_finer_central_difference():
    sysp = make_system(d2="0.5", g2="-0.5", b2="1 + 0.5*cos(2*pi*x) + 0.3*sin(2*pi*t)")
    slope = check_hypotheses(sysp)["H5"].details["slope"]
    pot2 = sysp.b2 - sysp.a22 * sysp.u2_star().as_field()
    plus, minus = (eigen.lambda_of_mu(sysp.d2, sysp.g2, pot2, mu).lam for mu in (1e-4, -1e-4))
    assert slope == pytest.approx((plus - minus) / 2e-4, abs=1e-8)


def test_determinacy_constants_pass(constants_system):
    res = linear_speed_c0(constants_system)
    pair = coupled_eigenfunction(constants_system, res.mu0, res.eigen_at_mu0)
    det = check_linear_determinacy(constants_system, pair)
    assert det["D1"].passed and det["D2"].passed
    assert det["D1"].margin == pytest.approx(3.55, abs=1e-3)
    assert det["D2"].margin == pytest.approx(2.125, abs=0.05)
    p1, p2 = speeds._p_conditions(constants_system)
    assert p1.verdict == "pass"
    assert p2.verdict == "pass"
    assert p2.margin == pytest.approx(0.3, abs=1e-6)


def test_determinacy_d2_fails_for_fast_second_diffuser():
    # d2 = 2.2 keeps D1 but pushes lambda0 - lambdabar below a22 u2*
    sys_d2 = make_system(d2="2.2")
    res = linear_speed_c0(sys_d2)
    pair = coupled_eigenfunction(sys_d2, res.mu0, res.eigen_at_mu0)
    det = check_linear_determinacy(sys_d2, pair)
    assert det["D1"].verdict == "pass"
    assert det["D2"].verdict == "fail"


def test_determinacy_tiny_a21_still_passes_d2():
    # the ratio phi1/phi2 and the bound a22/a21 both scale as 1/a21, and the
    # scale-free comparison (lambda0 - lambdabar) vs a22 u2* holds here
    sys_tiny = make_system(a21="0.01")
    res = linear_speed_c0(sys_tiny)
    pair = coupled_eigenfunction(sys_tiny, res.mu0, res.eigen_at_mu0)
    det = check_linear_determinacy(sys_tiny, pair)
    assert det["D2"].verdict == "pass"
    assert det["D2"].margin == pytest.approx(355.0 - 100.0, rel=0.05)


def test_p_conditions_not_applicable_for_x_dependent_media():
    sys_x = make_system(nt=100, nx=32, b1="2 + 0.2*cos(2*pi*x)")
    p1, p2 = speeds._p_conditions(sys_x)
    assert p1.verdict == "not-applicable"
    assert p2.verdict == "not-applicable"


def test_speed_report_aggregates(constants_system):
    rep = compute_speed_report(constants_system)
    assert rep.linearly_determinate
    assert rep.c0_plus == pytest.approx(2.0 * math.sqrt(1.7), abs=1e-5)
    h4 = rep.certificates["H4"].details
    assert h4["c1_plus"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-5)
    assert h4["c2_minus"] == pytest.approx(math.sqrt(2.0), abs=1e-5)
    d = rep.to_dict()
    assert sorted(d) == ["c0_plus", "certificates", "linearly_determinate", "notes"]
    assert sorted(d["certificates"]) == ["D1", "D2", "H1", "H2", "H3", "H4", "H5", "M",
                                         "P1", "P2"]
    # the recursion lower bound: c* bracket sits at or above c0 (checked in
    # the acceptance suite at full cost); here just shape and margins
    assert d["certificates"]["D1"]["margin"] > 0


def test_prop_lb_consistency(constants_system):
    # c1_plus (species 1 alone) dominates c0 since b1 > b1 - a12 u2*
    rep = compute_speed_report(constants_system)
    assert rep.certificates["H4"].details["c1_plus"] > rep.c0_plus


def key_maps_by_fields(monkeypatch):
    """Key each CellPeriodMap built from now on by the (d, g, h) it was built from."""
    keys, init = {}, pde.CellPeriodMap.__init__

    def keyed_init(pmap, d, g, h, shift_mean=True):
        init(pmap, d, g, h, shift_mean)
        keys[pmap] = tuple(f.values.tobytes() for f in (d, g, h))

    monkeypatch.setattr(pde.CellPeriodMap, "__init__", keyed_init)
    return keys


def test_speed_report_solves_each_eigenproblem_once(monkeypatch):
    # H4 minimizes only species 1 rightward and species 2 leftward, c0 the
    # third; H2 and the c0 margin share one invaded solve, and the coupled
    # eigenfunction takes the c0 minimization's eigenpair at mu0
    sysp = make_system(nt=50, nx=8)
    minimizations, solves = [], Counter()
    minimize, solve = speeds.minimize_speed, eigen.principal_of_map
    keys = key_maps_by_fields(monkeypatch)

    def counting_minimize(*args, **kwargs):
        minimizations.append(args)
        return minimize(*args, **kwargs)

    def counting_solve(pmap):
        solves[keys[pmap] + (pmap.shift,)] += 1
        return solve(pmap)

    monkeypatch.setattr(speeds, "minimize_speed", counting_minimize)
    monkeypatch.setattr(eigen, "principal_of_map", counting_solve)
    rep = compute_speed_report(sysp)
    assert rep.c0_plus == pytest.approx(2.0 * math.sqrt(1.7), abs=1e-5)
    assert len(minimizations) == 3
    assert solves and set(solves.values()) == {1}


def test_refine_moves_only_c0_and_its_note(monkeypatch):
    # --refine extrapolates c0 alone: every certificate stays the base grid's,
    # D1's mu0 and lambda0 included, and the refined run solves no base-grid
    # eigenproblem that the plain one does not
    nt, nx = 50, 8
    keys = key_maps_by_fields(monkeypatch)
    solve = eigen.principal_of_map
    solves = {False: Counter(), True: Counter()}

    def report(refine):
        def counting_solve(pmap):
            solves[refine][keys[pmap]] += 1
            return solve(pmap)
        monkeypatch.setattr(eigen, "principal_of_map", counting_solve)
        sysp = make_system(nt=nt, nx=nx, b2="1 + 0.5*sin(2*pi*t)")
        return compute_speed_report(sysp, refine=refine).to_dict()

    plain, refined = report(False), report(True)
    assert refined["c0_plus"] != plain["c0_plus"]
    assert ({k: v for k, v in refined.items() if k not in ("c0_plus", "notes")}
            == {k: v for k, v in plain.items() if k not in ("c0_plus", "notes")})
    assert refined["notes"][0].startswith("c0 Richardson-refined")
    assert refined["notes"][1:] == plain["notes"]
    # a map's key starts with the bytes of its d field, nt*nx floats on the base grid
    on_base = Counter({k: n for k, n in solves[True].items() if len(k[0]) == nt * nx * 8})
    assert on_base == solves[False]


def test_d1_violated_report_reuses_the_series_lambdabar(monkeypatch):
    # d2 = 3 makes the second species' tilted problem outgrow the first, so
    # D1 fails and the pair has no second component; the report carries the
    # lambdabar that coupled_eigenfunction computed instead of solving the
    # same problem again
    sysp = make_system(nt=50, nx=8, d2="3")
    pairs, solves = [], Counter()
    coupled, solve = speeds.coupled_eigenfunction, eigen.principal_of_map
    keys = key_maps_by_fields(monkeypatch)

    def recording_coupled(*args, **kwargs):
        pairs.append(coupled(*args, **kwargs))
        return pairs[-1]

    def counting_solve(pmap):
        solves[keys[pmap]] += 1
        return solve(pmap)

    monkeypatch.setattr(speeds, "coupled_eigenfunction", recording_coupled)
    monkeypatch.setattr(eigen, "principal_of_map", counting_solve)
    rep = compute_speed_report(sysp)
    assert rep.certificates["D1"].verdict == "fail"
    assert any(note.startswith("D1 violated") for note in rep.notes)
    assert len(pairs) == 1 and pairs[0].phi2 is None
    assert rep.certificates["D1"].details["lambdabar"] == pairs[0].lambdabar
    assert solves and set(solves.values()) == {1}


def test_near_critical_d1_gets_a_verdict():
    # d2 = 2.5882 puts lambdabar about 6e-5 below lambda0: D1 holds by a hair
    # and the resolvent is nearly singular, yet the pair is a positive one
    rep = compute_speed_report(make_system(nt=50, nx=8, d2="2.5882"))
    d1 = rep.certificates["D1"]
    assert d1.verdict == "pass"
    assert 0.0 < d1.margin < 1e-4
    assert rep.certificates["D2"].verdict == "fail"
    assert not rep.linearly_determinate

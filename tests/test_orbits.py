import numpy as np
import pytest

from speedlab import CoefficientField, logistic_orbit, orbits, principal_eigen
from speedlab.errors import NoConvergence
from speedlab.orbits import CYCLE_TOL
from speedlab.pde import CellTransport, constant_in_t, constant_in_x

from conftest import REPORT_TX_MEDIA, field, make_system

# u*(0) of u' = u(1 + 0.5 sin(2 pi t) - u), frozen from a solve_ivp march to
# the attractor at rtol 1e-12 (the time-periodic logistic oracle)
U_STAR_AT_ZERO = 0.9238518084


def small(expr, nt=200, nx=8):
    return field(expr, nt=nt, nx=nx)


def test_constant_orbit_is_the_ratio():
    orb = logistic_orbit(small("1"), small("0"), small("1"), small("1"))
    np.testing.assert_allclose(orb.snapshots, 1.0, atol=1e-12)
    assert orb.closure_gap <= 1e-10
    assert not orb.extinct


def test_time_periodic_orbit_mean_identity_and_oracle():
    orb = logistic_orbit(small("1"), small("0"), small("1 + 0.5*sin(2*pi*t)"),
                         small("1"))
    # discrete identity: the node mean of c - e*u* telescopes to the closure gap
    assert orb.snapshots[:, 0].mean() == pytest.approx(1.0, abs=5e-8)
    # against the high-accuracy periodic-ODE oracle, first order in dt
    assert orb.snapshots[0, 0] == pytest.approx(U_STAR_AT_ZERO, abs=1e-3)


def test_negative_growth_goes_extinct():
    orb = logistic_orbit(small("1"), small("0"), small("-1"), small("1"))
    assert orb.extinct
    assert np.all(orb.snapshots == 0.0)


def test_a_tiny_start_does_not_pass_as_the_orbit():
    # an absolute closure test accepts u0 = 1e-8 after one period (gap about
    # 2e-9); relative to the state's scale the start must grow to the orbit,
    # whose mean is mean(c) = 0.2 by the discrete mean identity
    c = small("0.2 + 0.5*sin(2*pi*t)")
    orb = logistic_orbit(small("1"), small("0"), c, small("1"), start_value=1e-8)
    assert orb.snapshots.mean() == pytest.approx(0.2, abs=1e-7)
    assert orb.periods_marched > 1


def test_uniqueness_probe_two_starts_agree():
    d, g = small("1"), small("0")
    c, e = small("1 + 0.5*sin(2*pi*t)"), small("1")
    m_hat = 1.5
    a = logistic_orbit(d, g, c, e, start_value=0.1 * m_hat)
    b = logistic_orbit(d, g, c, e, start_value=10.0 * m_hat)
    assert np.max(np.abs(a.snapshots - b.snapshots)) <= 2e-8


def test_reflection_consistency_for_symmetric_media():
    d = field("1", nx=64)
    g = field("0.2*sin(2*pi*x)", nx=64)   # odd drift
    c = field("1 + 0.3*cos(2*pi*x)", nx=64)
    e = field("1", nx=64)
    orb = logistic_orbit(d, g, c, e)
    reflected = orb.snapshots[:, (-np.arange(64)) % 64]
    assert np.max(np.abs(orb.snapshots - reflected)) <= 1e-9


def test_orbit_needs_positive_e():
    # the orbit's self-limitation must be positive at every node: one zero
    # node is refused, as SystemSpec refuses a11 or a22 that touch zero
    values = np.ones((8, 64))
    values[3, 17] = 0.0
    e = CoefficientField(1.0, 1.0, values)
    with pytest.raises(ValueError, match="need e > 0"):
        logistic_orbit(field("1", nt=8, nx=64), field("0", nt=8, nx=64),
                       field("1", nt=8, nx=64), e)


def test_orbit_that_does_not_close_within_the_cap_raises(monkeypatch):
    # one period from the supersolution leaves a t-periodic orbit open
    monkeypatch.setattr(orbits, "PERIOD_CAP", 1)
    with pytest.raises(NoConvergence, match="did not close in 1 periods"):
        logistic_orbit(small("1"), small("0"), small("1 + 0.5*sin(2*pi*t)"), small("1"))


def test_orbit_is_exact_discrete_eigenfunction():
    d, g = small("1"), small("0")
    c, e = small("1 + 0.5*sin(2*pi*t)"), small("1")
    orb = logistic_orbit(d, g, c, e)
    lam = principal_eigen(d, g, c - e * orb.as_field()).lam
    assert abs(lam) <= 1e-6


ORBIT_MEDIA = {
    "constants": {},
    "report-tx": REPORT_TX_MEDIA,
    "x-only": {"d1": "1 + 0.25*cos(2*pi*x)", "g1": "0.2*sin(2*pi*x)",
               "b1": "2 + 0.5*cos(2*pi*x)", "b2": "1 + 0.5*sin(2*pi*x)"},
    "shared-growth": {"d1": "0.25", "d2": "2.5",
                      "b1": "1 + 0.5*cos(2*pi*x) + 0.25*sin(2*pi*t)",
                      "b2": "1 + 0.5*cos(2*pi*x) + 0.25*sin(2*pi*t)", "a12": "1", "a21": "1"},
}


def species_orbits(media):
    """(orbit, its fields) of both species of the make_system instance."""
    sys = make_system(**ORBIT_MEDIA[media])
    return ((sys.u1_star(), (sys.d1, sys.g1, sys.b1, sys.a11)),
            (sys.u2_star(), (sys.d2, sys.g2, sys.b2, sys.a22)))


def plain_orbit(d, g, c, e, start_value=None, tol=CYCLE_TOL):
    """The orbit by plain iteration of the period map: the reference for Anderson mixing.

    Marches from the constant start until a period closes to `tol`; returns
    that period's states and the number of periods marched.
    """
    if start_value is None:
        start_value = c.max() / e.min()
    period = orbits._period_map(CellTransport(d, g).solve, c.values, e.values, d.dt)
    u = np.full(d.nx, float(start_value))
    for marched in range(1, orbits.PERIOD_CAP + 1):
        snaps, u_end = period(u)
        if np.max(np.abs(u_end - u)) < tol:
            return snaps, marched
        u = u_end
    raise AssertionError("the plain iteration did not close")


@pytest.mark.parametrize("media", ["report-tx", "x-only", "shared-growth"])
def test_anderson_orbit_matches_plain_iteration_in_fewer_periods(media):
    for orbit, fields in species_orbits(media):
        # plain iteration to 1e-13 is the orbit; to CYCLE_TOL, the old cost
        reference, _ = plain_orbit(*fields, tol=1e-13)
        assert np.max(np.abs(orbit.snapshots - reference)) <= CYCLE_TOL
        assert orbit.periods_marched < plain_orbit(*fields)[1]
        assert orbit.closure_gap < CYCLE_TOL
        # a medium constant in t has a stationary orbit, with equal rows
        assert constant_in_t(orbit.snapshots) == (media == "x-only")


# media constant in x, as (d, g, c, e): report-tx's species 2, one whose
# every coefficient varies in t, and constants
ONE_NODE_MEDIA = {
    "report-tx-u2": ("0.5", "0", "1 + 0.5*sin(2*pi*t)", "1"),
    "t-only": ("0.5 + 0.2*cos(2*pi*t)", "0.3*sin(2*pi*t)", "1 + 0.5*sin(2*pi*t)",
               "1 + 0.3*cos(2*pi*t)"),
    "constants": ("0.5", "0.2", "1.5", "2"),
}


@pytest.mark.parametrize("media", list(ONE_NODE_MEDIA))
def test_one_node_orbit_matches_the_marched_orbit(monkeypatch, media):
    fields = [field(expr) for expr in ONE_NODE_MEDIA[media]]
    monkeypatch.setattr(orbits, "CellTransport", None)  # a transport solve would fail
    orbit = logistic_orbit(*fields)
    assert constant_in_x(orbit.snapshots) and orbit.closure_gap < CYCLE_TOL
    reference, _ = plain_orbit(*fields, tol=1e-13)
    assert np.max(np.abs(orbit.snapshots - reference)) <= CYCLE_TOL


def test_one_x_dependent_term_takes_the_orbit_march():
    fields = [field(expr) for expr in ("0.5", "0", "1 + 0.5*sin(2*pi*t) + 1e-3*cos(2*pi*x)", "1")]
    orbit = logistic_orbit(*fields)
    assert not constant_in_x(orbit.snapshots)
    reference, _ = plain_orbit(*fields, tol=1e-13)
    assert np.max(np.abs(orbit.snapshots - reference)) <= CYCLE_TOL


def test_a_non_positive_extrapolation_falls_back_to_the_period_end(monkeypatch):
    # from a subsolution start the mixing overshoots below zero, where the
    # Lambert-W step is not the logistic equation's
    d, g = small("1"), small("0")
    c, e = small("1 + 0.5*sin(2*pi*t)"), small("1")
    extrapolated = []
    anderson = orbits._anderson

    def recorded(ends, residuals):
        extrapolated.append(anderson(ends, residuals))
        return extrapolated[-1]

    monkeypatch.setattr(orbits, "_anderson", recorded)
    orbit = logistic_orbit(d, g, c, e, start_value=0.15)
    assert any(u.min() <= 0.0 for u in extrapolated)
    assert orbit.closure_gap < CYCLE_TOL
    reference, _ = plain_orbit(d, g, c, e, start_value=0.15, tol=1e-13)
    assert np.max(np.abs(orbit.snapshots - reference)) <= CYCLE_TOL


def test_orbit_is_the_converged_period_itself(monkeypatch):
    # the returned states are the last period marched, not one more; a
    # medium constant in x marches one node, which the orbit tiles across the cell
    d, g, e = small("1"), small("0"), small("1")
    marched = []
    period_map = orbits._period_map

    def recorded(*args):
        period = period_map(*args)

        def run(u0):
            marched.append(period(u0))
            return marched[-1]
        return run

    monkeypatch.setattr(orbits, "_period_map", recorded)
    for c, nodes in ((small("1 + 0.5*sin(2*pi*t)"), 1),
                     (small("1 + 0.5*sin(2*pi*t) + 0.2*cos(2*pi*x)"), 8)):
        marched.clear()
        orbit = logistic_orbit(d, g, c, e)
        assert len(marched) == orbit.periods_marched
        snaps, u_end = marched[-1]
        assert snaps.shape == (200, nodes)
        np.testing.assert_array_equal(orbit.snapshots, np.tile(snaps, (1, 8 // nodes)))
        assert orbit.closure_gap == np.max(np.abs(u_end - snaps[0]))

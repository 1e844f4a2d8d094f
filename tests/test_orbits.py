import numpy as np
import pytest

from speedlab import logistic_orbit, orbit_residual, principal_eigen
from speedlab.errors import SparseSupport
from speedlab.pde import _transport_entries

from conftest import field, make_system

# u*(0) of u' = u(1 + 0.5 sin(2 pi t) - u), frozen from a solve_ivp march to
# the attractor at rtol 1e-12 (the time-periodic logistic oracle)
U_STAR_AT_ZERO = 0.9238518084


def small(expr, nt=200, nx=8):
    return field(expr, nt=nt, nx=nx)


def test_constant_orbit_is_the_ratio():
    orb = logistic_orbit(small("1"), small("0"), small("1"), small("1"))
    np.testing.assert_allclose(orb.snapshots, 1.0, atol=1e-12)
    assert orb.residual <= 1e-10
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


def test_residual_flags_perturbed_orbit():
    d, g, c, e = small("1"), small("0"), small("1"), small("1")
    orb = logistic_orbit(d, g, c, e)
    perturbed = type(orb)(snapshots=orb.snapshots + 0.01, omega=orb.omega,
                          ell=orb.ell, extinct=False, residual=0.0,
                          closure_gap=orb.closure_gap,
                          periods_marched=orb.periods_marched)
    assert orbit_residual(perturbed, d, g, c, e) >= 0.005
    with pytest.raises(ValueError):
        extinct = logistic_orbit(d, g, small("-1"), e)
        orbit_residual(extinct, d, g, small("-1"), e)


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


def test_support_fraction_guard():
    # e positive on a sliver of the cell only
    e = field("abs(x - 0.5) - 0.47", nt=8, nx=64)
    e = type(e)(e.omega, e.ell, np.maximum(e.values, 0.0), None)
    with pytest.raises(SparseSupport):
        logistic_orbit(field("1", nt=8, nx=64), field("0", nt=8, nx=64),
                       field("1", nt=8, nx=64), e)


def test_orbit_is_exact_discrete_eigenfunction():
    d, g = small("1"), small("0")
    c, e = small("1 + 0.5*sin(2*pi*t)"), small("1")
    orb = logistic_orbit(d, g, c, e)
    lam = principal_eigen(d, g, c - e * orb.as_field()).lam
    assert abs(lam) <= 1e-6


def row_by_row_residual(orbit, d, g, c, e):
    """orbit_residual one step at a time: the reference for the vectorised pass."""
    nt, dt, dx = orbit.nt, d.dt, d.dx
    snaps = orbit.snapshots
    worst = 0.0
    for j in range(nt):
        r = (j + 1) % nt
        u_new, u_old = snaps[r], snaps[j]
        lower, diag, upper = _transport_entries(d.values[r], g.values[r], dx)
        tu = lower * np.roll(u_new, 1) + diag * u_new + upper * np.roll(u_new, -1)
        h = c.values[r] - e.values[r] * u_new
        worst = max(worst, float(np.max(np.abs((u_new - u_old) / dt - tu - h * u_new))))
    return worst + orbit.closure_gap


@pytest.mark.parametrize("media", [
    {},  # the competition constants
    {"d1": "1 + 0.25*cos(2*pi*x)", "g1": "0.2*sin(2*pi*(x - t))",
     "b1": "2 + 0.5*cos(2*pi*x)", "b2": "1 + 0.5*sin(2*pi*t)"},
    {"d1": "0.25", "d2": "2.5", "b1": "1 + 0.5*cos(2*pi*x) + 0.25*sin(2*pi*t)",
     "b2": "1 + 0.5*cos(2*pi*x) + 0.25*sin(2*pi*t)", "a12": "1", "a21": "1"},
], ids=["constants", "report-tx", "shared-growth"])
def test_residual_matches_the_row_by_row_loop(media):
    sys = make_system(**media)
    for orbit, fields in ((sys.u1_star(), (sys.d1, sys.g1, sys.b1, sys.a11)),
                          (sys.u2_star(), (sys.d2, sys.g2, sys.b2, sys.a22))):
        assert orbit.residual == row_by_row_residual(orbit, *fields)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from speedlab import CoefficientField, eigen, lambda_of_mu, principal_eigen
from speedlab.errors import NoConvergence, NonEllipticError
from speedlab.pde import CellPeriodMap
from speedlab.speeds import richardson

from conftest import field

# continuum principal eigenvalue of psi'' + cos(2 pi x) psi = lambda psi on
# the periodic unit cell, frozen from a Fourier spectral eigensolve (65 modes,
# agrees with a 4096-node finite-difference solve to 2.4e-9)
LAMBDA_COS_CONTINUUM = 0.012661594814


def _solved(d, g, h):
    """The eigenpair of (d, g, h) and its eigenfunction, marched on the solved map."""
    pmap = CellPeriodMap(d, g, h)
    r = eigen.principal_of_map(pmap)
    return r, eigen.eigenfunction(pmap, r)


def test_constant_coefficients_exact():
    r, ef = _solved(field("1"), field("0"), field("2"))
    assert r.lam == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(ef, 1.0, atol=1e-9)


def test_x_independent_reduces_to_time_average():
    r = principal_eigen(field("1"), field("0"), field("1 + 0.5*sin(2*pi*t)"))
    assert r.lam == pytest.approx(1.0, abs=1e-12)


def test_cos_potential_positive_gap_and_continuum_value():
    d, g, h = field("1"), field("0"), field("cos(2*pi*x)")
    base = principal_eigen(d, g, h)
    # spatial structure lifts the eigenvalue strictly above the plain average
    assert base.lam > 0.0

    fine = principal_eigen(field("1", nt=400, nx=128), field("0", nt=400, nx=128),
                           field("cos(2*pi*x)", nt=400, nx=128))
    extrapolated, estimate = richardson(base.lam, fine.lam)
    assert extrapolated == pytest.approx(LAMBDA_COS_CONTINUUM, abs=2e-5)
    # Cauchy property: the reported estimate bounds the base-grid error
    assert abs(base.lam - LAMBDA_COS_CONTINUUM) <= 1.5 * estimate


def test_residual_contract_and_positivity():
    r, ef = _solved(field("0.7"), field("0.4*sin(2*pi*x)"),
                    field("cos(2*pi*x) + 0.3*sin(2*pi*t)"))
    assert r.residual <= 1e-8
    assert ef.min() > 0.0
    assert ef.max() == pytest.approx(1.0)


def _count_matrix_calls(monkeypatch):
    calls = []
    matrix = CellPeriodMap.matrix

    def counted(pmap):
        calls.append(pmap)
        return matrix(pmap)

    monkeypatch.setattr(CellPeriodMap, "matrix", counted)
    return calls


def test_time_dependent_solve_is_matrix_free_and_matches_dense_oracle(monkeypatch):
    d, g = field("0.7"), field("0.4*sin(2*pi*x)")
    h = field("cos(2*pi*x) + 0.3*sin(2*pi*t)")
    calls = _count_matrix_calls(monkeypatch)
    r = principal_eigen(d, g, h)
    assert calls == []

    pmap = CellPeriodMap(d, g, h)
    k = pmap.matrix()
    rho = np.max(np.abs(np.linalg.eigvals(k)))
    assert r.lam == pytest.approx(np.log(rho) / pmap.omega + pmap.shift, abs=1e-12)
    psi = eigen.eigenfunction(pmap, r)[0]
    rho_shifted = np.exp((r.lam - pmap.shift) * pmap.omega)
    assert np.max(np.abs(k @ psi - rho_shifted * psi)) <= 1e-8


def test_time_dependent_solve_marches_once_per_iteration(monkeypatch):
    # the solve keeps no states; the eigenfunction is one more march, made
    # only when it is asked for
    marches = []
    inner = CellPeriodMap._march

    def counted(self, *args, **kwargs):
        marches.append(1)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(CellPeriodMap, "_march", counted)
    pmap = CellPeriodMap(field("0.7"), field("0.4*sin(2*pi*x)"),
                         field("cos(2*pi*x) + 0.3*sin(2*pi*t)"))
    r = eigen.principal_of_map(pmap)
    assert len(marches) == r.iterations
    assert r.residual <= 1e-8
    eigen.eigenfunction(pmap, r)
    assert len(marches) == r.iterations + 1


def test_time_independent_solve_powers_the_dense_matrix_once(monkeypatch):
    calls = _count_matrix_calls(monkeypatch)
    r = principal_eigen(field("0.7"), field("0.4*sin(2*pi*x)"), field("cos(2*pi*x)"))
    assert len(calls) == 1
    assert r.residual <= 1e-8


def _count_snapshots(monkeypatch, alter=None):
    calls = []
    snapshots = CellPeriodMap.snapshots

    def counted(pmap, v0):
        calls.append(v0)
        states = snapshots(pmap, v0)
        return states if alter is None else alter(states)

    monkeypatch.setattr(CellPeriodMap, "snapshots", counted)
    return calls


def test_time_independent_eigenfunction_is_marched_when_read(monkeypatch):
    d, g, m, mu = field("0.7"), field("0.4*sin(2*pi*x)"), field("cos(2*pi*x)"), 0.8
    calls = _count_snapshots(monkeypatch)
    r = lambda_of_mu(d, g, m, mu)
    assert calls == []
    # as the coupled eigenfunction does: a map of the same tilt marches the solve's psi(0)
    pmap = CellPeriodMap(d, *eigen.tilted_coefficients(d, g, m, mu))
    ef = eigen.eigenfunction(pmap, r)
    assert len(calls) == 1

    # the same formula on an explicit march of the Perron vector, with the
    # unit-scale root rebuilt from lambda, which is the power iteration's to roundoff
    rho_s, psi0, _, _ = eigen._power_iteration(pmap.matrix().dot, np.ones(pmap.nx))
    np.testing.assert_array_equal(calls[0], psi0)
    rho_lam = math.exp((r.lam - pmap.shift) * pmap.omega)
    assert rho_lam == pytest.approx(rho_s, rel=1e-15)
    expected = pmap.snapshots(psi0)[:-1] * (rho_lam ** (-np.arange(pmap.nt) / pmap.nt))[:, None]
    expected /= expected.max()
    np.testing.assert_array_equal(ef, expected)


@pytest.mark.parametrize("q", [0.95, 0.99])
def test_power_iteration_on_a_slow_spectral_gap(q):
    # M = u u^T + q w w^T with orthonormal u, w is entrywise positive, has
    # rho = 1 with Perron vector u and second eigenvalue q: the ratios close
    # in like q^k, the regime where acceleration would matter most
    u, w = np.array([0.8, 0.6]), np.array([0.6, -0.8])
    m = np.outer(u, u) + q * np.outer(w, w)
    assert m.min() > 0.0
    rho, psi, iterations, residual = eigen._power_iteration(m.dot, np.ones(2))
    assert iterations > 300
    assert abs(rho - 1.0) <= 1e-9
    assert residual <= 1e-8
    np.testing.assert_allclose(psi, u / u.max(), atol=1e-8)


POTENTIALS = {"t-independent": "cos(2*pi*x)", "t-dependent": "cos(2*pi*x) + 0.3*sin(2*pi*t)"}


def _map_and_action(media):
    pmap = CellPeriodMap(field("0.7"), field("0.4*sin(2*pi*x)"), field(POTENTIALS[media]))
    assert pmap.time_independent == (media == "t-independent")
    return pmap, (pmap.matrix().dot if pmap.time_independent else pmap.apply)


def _unit_root(pmap, res):
    """The Perron root of pmap's unit-scale map, rebuilt from res.lam."""
    return math.exp((res.lam - pmap.shift) * pmap.omega)


@pytest.mark.parametrize("media", list(POTENTIALS))
def test_root_lies_in_a_narrow_collatz_wielandt_enclosure(media):
    pmap, apply = _map_and_action(media)
    rho, psi, _, residual = eigen._power_iteration(apply, np.ones(pmap.nx))
    # the enclosure bounds the residual: |w_i - rho psi_i| = psi_i |w_i/psi_i - rho|
    assert psi.min() > 0.0 and residual <= (eigen.POWER_TOL + 1e-15) * rho
    ratios = apply(psi) / psi
    lower, upper = ratios.min(), ratios.max()
    assert lower <= rho <= upper
    assert upper - lower <= eigen.POWER_TOL * upper
    # the enclosure holds the dense Perron root up to the roundoff of the two products
    dense = np.max(np.abs(np.linalg.eigvals(pmap.matrix())))
    assert lower - 1e-14 <= dense <= upper + 1e-14


@pytest.mark.parametrize("media", list(POTENTIALS))
def test_a_start_at_the_converged_vector_closes_after_one_map(media):
    cold = eigen.principal_of_map(_map_and_action(media)[0])
    assert cold.iterations > 1
    pmap = _map_and_action(media)[0]
    pmap.start = cold.psi0
    warm = eigen.principal_of_map(pmap)
    assert warm.iterations == 1
    assert warm.lam == pytest.approx(cold.lam, abs=1e-12)
    assert warm.residual <= (eigen.POWER_TOL + 1e-15) * _unit_root(pmap, warm)


def test_lambda_curve_starts_each_solve_where_the_last_ended():
    # a slow spectral gap (small d, a travelling drift) makes the start matter
    d, g = field("0.05", nt=100, nx=16), field("0.2*sin(2*pi*(x - t))", nt=100, nx=16)
    m = field("1 + 0.5*cos(2*pi*x) + 0.3*sin(2*pi*t)", nt=100, nx=16)
    mus = [0.1 + 0.2 * k for k in range(15)]
    curve = eigen.lambda_curve(d, g, m)
    warm = [curve(mu) for mu in mus]
    cold = [lambda_of_mu(d, g, m, mu) for mu in mus]
    assert warm[0].iterations == cold[0].iterations
    assert all(w.iterations <= c.iterations for w, c in zip(warm, cold))
    assert sum(w.iterations for w in warm) < sum(c.iterations for c in cold)
    for w, c in zip(warm, cold):
        assert w.lam == pytest.approx(c.lam, abs=1e-11)
        assert w.residual <= 1e-8


@pytest.mark.parametrize("h", ["2 + 5*cos(2*pi*x)", "2 + 6*cos(2*pi*x)*(1 + 0.2*sin(2*pi*t))"],
                         ids=["t-independent", "t-dependent"])
def test_ill_scaled_media_solve_in_a_few_maps(monkeypatch, h):
    # at omega = 5 the unit-scale root is about 6.0e8 (5.6e10 with the factor
    # in t), so the residual's roundoff floor, about 2e-16*rho, lies far above
    # 1e-8 in absolute terms; the enclosure alone stops the solve, which must
    # then match the dense Perron root and the potential-shift identity
    maps = []
    power_iteration = eigen._power_iteration

    def counted(apply, start):
        return power_iteration(lambda v: maps.append(1) or apply(v), start)

    monkeypatch.setattr(eigen, "_power_iteration", counted)
    d, g, m = (field(e, omega=5.0) for e in ("0.01", "0", h))
    pmap = CellPeriodMap(d, g, m)
    res = eigen.principal_of_map(pmap)
    assert res.iterations == len(maps) <= 5
    rho = _unit_root(pmap, res)
    assert rho > 1e8
    assert res.residual <= (eigen.POWER_TOL + 1e-15) * rho
    dense = math.log(np.max(np.abs(np.linalg.eigvals(pmap.matrix())))) / pmap.omega + pmap.shift
    assert res.lam == pytest.approx(dense, rel=1e-13)
    shifted = principal_eigen(d, g, field(f"{h} + 1", omega=5.0))
    assert shifted.lam == pytest.approx(res.lam + 1.0, abs=1e-12)
    # at omega = 1 the root is small enough for an absolute 1e-8 as well
    maps.clear()
    res = principal_eigen(*(field(e) for e in ("0.01", "0", h)))
    assert res.residual <= 1e-8 and res.iterations == len(maps)


@pytest.mark.parametrize("h", ["cos(2*pi*x)", "cos(2*pi*x) + 0.3*sin(2*pi*t)"])
def test_non_positive_perron_vector_fails_at_solve_time(monkeypatch, h):
    power_iteration = eigen._power_iteration

    def flipped(apply, start):
        rho, psi, iterations, residual = power_iteration(apply, start)
        psi = psi.copy()
        psi[len(psi) // 2] = 0.0
        return rho, psi, iterations, residual

    monkeypatch.setattr(eigen, "_power_iteration", flipped)
    with pytest.raises(NoConvergence, match="positivity"):
        principal_eigen(field("0.7"), field("0.4*sin(2*pi*x)"), field(h))


def test_non_positive_eigenfunction_row_fails_when_built(monkeypatch):
    def negate_one_row(states):
        states = states.copy()
        states[5] *= -1.0
        return states

    _count_snapshots(monkeypatch, alter=negate_one_row)
    pmap = CellPeriodMap(field("0.7"), field("0.4*sin(2*pi*x)"), field("cos(2*pi*x)"))
    r = eigen.principal_of_map(pmap)
    assert r.residual <= 1e-8
    with pytest.raises(NoConvergence, match="positivity"):
        eigen.eigenfunction(pmap, r)


def test_potential_shift_identity_exact():
    d, g = field("1"), field("0.2*sin(2*pi*x)")
    m = field("cos(2*pi*x)")
    base = principal_eigen(d, g, m).lam
    shifted = principal_eigen(d, g, m + 3.25).lam
    assert shifted - base == pytest.approx(3.25, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), nt=st.integers(2, 8), nx=st.integers(2, 8),
       c=st.floats(-5.0, 5.0))
def test_potential_shift_identity_on_random_fields(data, nt, nx, c):
    def draw(lo, hi):
        values = data.draw(arrays(np.float64, (nt, nx), elements=st.floats(lo, hi)))
        return CoefficientField(1.0, 1.0, values)

    d, g, h = draw(0.1, 2.0), draw(-1.0, 1.0), draw(-2.0, 2.0)
    base = principal_eigen(d, g, h).lam
    assert principal_eigen(d, g, h + c).lam == pytest.approx(base + c, abs=1e-10)


@pytest.mark.parametrize("d,g,m,mu,expected", [
    ("1", "0", "1", 1.0, 2.0),
    ("2", "1", "0", 0.5, 1.0),
])
def test_tilted_constants(d, g, m, mu, expected):
    r = lambda_of_mu(field(d), field(g), field(m), mu)
    assert r.lam == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("mu", [0.3, 1.0])
def test_evenness_for_symmetric_media(mu):
    d = field("1 + 0.2*cos(2*pi*x)")
    g = field("0.2*sin(2*pi*x)")  # odd drift
    m = field("cos(2*pi*x)")
    plus = lambda_of_mu(d, g, m, mu).lam
    minus = lambda_of_mu(d, g, m, -mu).lam
    assert abs(plus - minus) <= 1e-8


def _lambdas(d, g, m, mus):
    return np.array([lambda_of_mu(d, g, m, mu).lam for mu in mus])


def test_diagnostics_constant_parabola():
    grid = np.array([-1.0, 0.0, 1.0])
    d, g, m = field("1", nx=8), field("0", nx=8), field("1", nx=8)
    lams = _lambdas(d, g, m, grid)
    np.testing.assert_allclose(lams, grid**2 + 1.0, atol=1e-9)
    assert lams[0] - 2.0 * lams[1] + lams[2] >= -1e-8  # convex
    for mu in (0.3, 1.0):
        assert abs(lambda_of_mu(d, g, m, mu).lam - lambda_of_mu(d, g, m, -mu).lam) <= 1e-8


def test_diagnostics_potential_bump_is_exact_shift():
    grid = np.linspace(-2.0, 2.0, 9)
    m2 = field("cos(2*pi*x)")
    m1 = m2 + 1.0
    shift = _lambdas(field("1"), field("0"), m1, grid) - _lambdas(field("1"), field("0"), m2, grid)
    np.testing.assert_allclose(shift, 1.0, rtol=0, atol=1e-10)


def test_diagnostics_asymmetric_drift_parabola():
    grid = np.linspace(-2.0, 2.0, 9)
    lams = _lambdas(field("1", nx=8), field("1", nx=8), field("0", nx=8), grid)
    np.testing.assert_allclose(lams, grid**2 + grid, atol=1e-9)
    assert np.min(lams[:-2] - 2.0 * lams[1:-1] + lams[2:]) >= -1e-8  # convex


def test_grid_mismatch_and_ellipticity_guards():
    with pytest.raises(ValueError):
        principal_eigen(field("1", nx=8), field("0", nx=16), field("0", nx=8))
    with pytest.raises(NonEllipticError):
        principal_eigen(field("0.0001 - x*0.001"), field("0"), field("0"))


def test_large_tilt_does_not_overflow():
    r = lambda_of_mu(field("1", nx=16), field("0", nx=16), field("1", nx=16), 20.0)
    assert r.lam == pytest.approx(401.0, rel=1e-10)

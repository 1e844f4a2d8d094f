import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dptsv
from scipy.special import lambertw

from speedlab import (CellState, logistic_orbit, orbits, pde, period_map, principal_eigen,
                      step_scalar_linear)
from speedlab.errors import BlowupError, NonEllipticError, NumericalFailure, StiffReaction
from speedlab.pde import (CellPeriodMap, CellTransport, LineSystemEvolver, cell_offsets,
                          cell_transport_solver, constant_in_t, implicit_transport_banded,
                          solve_cell_transport, solve_line_transport, transport_step_matrix_dense,
                          write_csv)

from conftest import field, make_system, rng


def test_constant_is_stationary_under_pure_transport():
    u = CellState(np.ones(32), 0.0, 1.0)
    out = step_scalar_linear(u, 1.0, 0.0, 0.0, 0.05)
    np.testing.assert_allclose(out.values, 1.0, atol=1e-14)


def test_uniform_potential_step_is_exact_exponential():
    # the zero-order term advances through exp(dt*h), exactly on uniform data
    u = CellState(np.ones(16), 0.0, 1.0)
    out = step_scalar_linear(u, 1.0, 0.0, 0.7, 0.01)
    np.testing.assert_allclose(out.values, np.exp(0.7 * 0.01), rtol=1e-14)


def test_step_matrix_is_m_matrix_and_preserves_positivity():
    # oracle first: assemble the transport matrix and check the sign pattern
    r = rng(3)
    d_row = 0.5 + r.uniform(0, 1, 48)
    g_row = r.uniform(-2, 2, 48)
    for geometry in ("cell", "line"):
        m = transport_step_matrix_dense(d_row, g_row, 1.0 / 48, 0.005, geometry)
        off = m - np.diag(np.diag(m))
        assert np.all(np.diag(m) > 0)
        assert np.all(off <= 1e-15)
        # inverse positivity on random nonnegative data
        rhs = r.uniform(0, 1, 48)
        assert np.all(np.linalg.solve(m, rhs) >= 0)
    u = CellState(r.uniform(0, 1, 48), 0.0, 1.0)
    out = step_scalar_linear(u, lambda t, x: 0.5 + 0.3 * np.sin(2 * np.pi * x),
                             lambda t, x: np.cos(2 * np.pi * x), -1.0, 0.01)
    assert np.all(out.values >= 0)


def test_nonelliptic_guard():
    u = CellState(np.ones(16), 0.0, 1.0)
    with pytest.raises(NonEllipticError):
        step_scalar_linear(u, 0.0, 0.0, 0.0, 0.01)


def test_cyclic_solve_matches_dense():
    r = rng(7)
    d_row = 0.5 + r.uniform(0, 1, 33)
    g_row = r.uniform(-1, 1, 33)
    rhs = r.standard_normal(33)
    m = transport_step_matrix_dense(d_row, g_row, 0.03, 0.004, "cell")
    x_dense = np.linalg.solve(m, rhs)
    x_fast = solve_cell_transport(d_row, g_row, 0.03, 0.004, rhs)
    np.testing.assert_allclose(x_fast, x_dense, rtol=1e-10)


def test_period_map_uniform_mode_exact():
    d, g = field("1"), field("0")
    u = CellState(np.ones(64), 0.0, 1.0)
    out = period_map(u, d, g, field("2"), 200)
    np.testing.assert_allclose(out.values, np.exp(2.0), rtol=1e-12)
    out0 = period_map(u, d, g, field("0"), 200)
    np.testing.assert_allclose(out0.values, 1.0, atol=1e-13)


def test_period_map_linearity():
    d = field("1", nt=50, nx=32)
    g = field("0.5*sin(2*pi*x)", nt=50, nx=32)
    h = field("cos(2*pi*x) + 0.2*sin(2*pi*t)", nt=50, nx=32)
    r = rng(1)
    u = r.standard_normal(32)
    v = r.standard_normal(32)
    a, b = 1.7, -0.4

    def apply(vec):
        return period_map(CellState(vec, 0.0, 1.0), d, g, h, 50).values

    np.testing.assert_allclose(apply(a * u + b * v), a * apply(u) + b * apply(v),
                               atol=1e-12)


def test_evolve_zero_stays_zero(constants_system):
    out = LineSystemEvolver(constants_system, -1.0, 1.0).period(np.zeros((2, 129)))
    assert np.all(out == 0.0)


def test_semitrivial_equilibrium_is_stationary(constants_system):
    # (u1, u2) = (u1*, 0) = (2, 0) for the constants instance, which is
    # (v1, v2) = (u1*, u2*) = (2, 1) in cooperative variables
    v0 = np.vstack([np.full(129, 2.0), np.ones(129)])
    out = LineSystemEvolver(constants_system, -1.0, 1.0).period(v0)
    np.testing.assert_allclose(out[0], 2.0, atol=1e-11)
    np.testing.assert_allclose(out[1], 1.0, atol=1e-11)


def test_cooperative_comparison_stable_under_dt_refinement(constants_system):
    # ordered initial pairs stay ordered, also on brute-force refined grids
    r = rng(11)
    for nt in (200, 400, 800):
        sys_ref = make_system(nt=nt, nx=16)
        n = 65
        lo = r.uniform(0, 1.2, (2, n))
        hi = lo + r.uniform(0, 0.5, (2, n))
        ev = LineSystemEvolver(sys_ref, -2.0, 2.0)
        assert float(np.max(ev.period(lo) - ev.period(hi))) <= 1e-9


def test_translation_equivariance(periodic_b2_system=None):
    # shifting by one period and shifting back only perturbs boundary zones
    sysp = make_system(nx=64, g1="0.3*sin(2*pi*x)", b1="1 + 0.3*cos(2*pi*x)",
                       b2="1", d2="1", a12="0.2", a21="0.5")
    x = np.linspace(-8.0, 8.0, 16 * 64 + 1)
    bump = np.exp(-(x**2))
    v0 = np.vstack([bump, 0.3 * bump])
    ev = LineSystemEvolver(sysp, -8.0, 8.0)
    plain = ev.period(v0)
    shifted0 = np.vstack([np.interp(x - 1.0, x, v0[0]), np.interp(x - 1.0, x, v0[1])])
    moved = ev.period(shifted0)
    back = np.vstack([np.interp(x + 1.0, x, moved[0]), np.interp(x + 1.0, x, moved[1])])
    interior = (x > -5.0) & (x < 5.0)
    assert np.max(np.abs(plain - back)[:, interior]) < 1e-6


def test_first_order_convergence_under_joint_refinement():
    def run_cell(nt, nx):
        d = field("1", nt=nt, nx=nx)
        g = field("1 + 0.4*cos(2*pi*x)*sin(2*pi*t)", nt=nt, nx=nx)
        h = field("0.5*cos(2*pi*x)", nt=nt, nx=nx)
        u0 = CellState(1.0 + 0.5 * np.cos(2 * np.pi * np.arange(nx) / nx), 0.0, 1.0)
        return period_map(u0, d, g, h, nt).values

    ref = run_cell(1600, 512)
    e_coarse = np.max(np.abs(run_cell(100, 32) - ref[::16]))
    e_fine = np.max(np.abs(run_cell(200, 64) - ref[::8]))
    assert 1.6 <= e_coarse / e_fine <= 2.4


def test_blowup_guard(constants_system):
    # cooperative second component above the carrying level grows superlinearly;
    # starting past the a-priori guard trips the abort on the first step
    ev = LineSystemEvolver(constants_system, -1.0, 1.0)
    with pytest.raises(BlowupError, match="at step 0$"):
        ev.period(np.vstack([np.zeros(129), np.full(129, 30.0)]))
    # from a quarter of the guard the state needs 35 steps to pass it
    with pytest.raises(BlowupError, match="at step 35$"):
        ev.period(np.vstack([np.zeros(129), np.full(129, 5.0)]))
    # a reaction too stiff for the time grid is rejected outright
    sys_stiff = make_system(nt=100, nx=16, b1="30")
    with pytest.raises(StiffReaction):
        LineSystemEvolver(sys_stiff, -1.0, 1.0)


def test_banded_assembly_row_sums():
    # transport rows sum to zero, so the implicit matrix has unit row sums
    d_row = np.full(16, 0.8)
    g_row = np.linspace(-1, 1, 16)
    ab, c_tr, c_bl = implicit_transport_banded(d_row, g_row, 0.1, 0.01, "cell")
    m = transport_step_matrix_dense(d_row, g_row, 0.1, 0.01, "cell")
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-13)
    assert c_tr <= 0 and c_bl <= 0


# t- and x-dependent media with sign-changing drifts, so both upwind branches
# of the transport stencil are exercised
VARYING_MEDIA = {"d1": "1 + 0.3*cos(2*pi*(x - t))", "d2": "0.5 + 0.2*sin(2*pi*x)",
                 "g1": "0.8*sin(2*pi*(x - t))", "g2": "0.6*cos(2*pi*(x + t))",
                 "b1": "2 + 0.5*cos(2*pi*x)", "b2": "1 + 0.5*sin(2*pi*t)"}
# the same shapes frozen in t: the line matrix is factored once, and the
# species-2 orbit is stationary, so the reaction is gathered once
X_ONLY_MEDIA = {"d1": "1 + 0.3*cos(2*pi*x)", "d2": "0.5 + 0.2*sin(2*pi*x)",
                "g1": "0.8*sin(2*pi*x)", "g2": "0.6*cos(2*pi*x)",
                "b1": "2 + 0.5*cos(2*pi*x)", "b2": "1 + 0.5*sin(2*pi*x)"}
# transport frozen in t, species-2 growth not: the line matrix is factored
# once and the reaction is gathered per row
T_GROWTH_MEDIA = dict(X_ONLY_MEDIA, b2="1 + 0.5*sin(2*pi*x) + 0.25*sin(2*pi*t)")
# transport frozen in t but drift-dominated: on a 16-cell line species 1's
# symmetrizing scale spreads about 7e109 > pde.MAX_SCALE_SPREAD, so the line
# matrix is LU-factored once and each step solves it by dgttrs
DRIFT_MEDIA = {"d1": "0.05", "g1": "5"}
LINE_MEDIA = {"t-and-x": VARYING_MEDIA, "x-only": X_ONLY_MEDIA,
              "t-growth": T_GROWTH_MEDIA, "constants": {}, "drift": DRIFT_MEDIA}
# the LAPACK routine each medium's line step calls
LINE_SOLVE = {"t-and-x": "dgtsv", "x-only": "dpttrs", "t-growth": "dpttrs",
              "constants": "dpttrs", "drift": "dgttrs"}


def _line_evolver(media):
    """The evolver of a LINE_MEDIA entry at (50, 16), on a line that starts off
    the cell origin so the offsets wrap: 4 cells, or 16 for the drift medium."""
    sys = make_system(nt=50, nx=16, **LINE_MEDIA[media])
    x_lo, x_hi = (-8.25, 7.75) if media == "drift" else (-2.25, 1.75)
    return sys, LineSystemEvolver(sys, x_lo, x_hi)


def _symmetrized_system(d_row, g_row, dx, dt):
    """One species' line matrix M (implicit_transport_banded's) in its symmetric
    frame: S with s_0 = 1 and s_{i+1}/s_i = sqrt(sub_i/sup_i), and the
    diagonal and off-diagonal of T = S^-1 M S, which is -sqrt(sub_i*sup_i)."""
    ab, _, _ = implicit_transport_banded(d_row, g_row, dx, dt, "line")
    sub, diag, sup = ab[2, :-1], ab[1], ab[0, 1:]
    scale = np.cumprod(np.concatenate([[1.0], np.sqrt(sub / sup)]))
    return scale, diag, -np.sqrt(sub * sup)


def _symmetrized_line_transport(d_row, g_row, dx, dt, rhs):
    """The factored line solve for one species alone: x = S dptsv(T, S^-1 rhs).
    dptsv is dpttrf then dpttrs, the evolver's own elimination."""
    scale, diag, off = _symmetrized_system(d_row, g_row, dx, dt)
    *_, y, info = dptsv(diag, off, rhs * (1.0 / scale))
    assert info == 0
    return y * scale


def _v_frame_line_period(sys, x, u2, v, period_index, symmetrized):
    """One period on the line as a step in v = (u1, u2* - u2) reads: the
    reaction formula, then one transport solve per species, symmetrized when
    the evolver solves the medium by dpttrs and by solve_line_transport (gtsv,
    the elimination of dgttrs and dgtsv) when it does not."""
    nt, dt, dx = sys.nt, sys.omega / sys.nt, sys.ell / sys.nx
    offsets = cell_offsets(x, sys.ell, sys.nx)
    solve = _symmetrized_line_transport if symmetrized else solve_line_transport

    def tile(f, r):
        return f.values[r][offsets]

    for j in range(period_index * nt, (period_index + 1) * nt):
        r = j % nt
        v1, v2 = v
        u2s = u2.snapshots[r][offsets]
        a12, a22 = tile(sys.a12, r), tile(sys.a22, r)
        rate1 = tile(sys.b1, r) - a12 * u2s - tile(sys.a11, r) * v1 + a12 * v2
        rate2 = tile(sys.b2, r) - 2.0 * a22 * u2s + a22 * v2
        source2 = tile(sys.a21, r) * v1 * (u2s - v2)
        reacted = [v1 * (1.0 + dt * rate1), v2 * (1.0 + dt * rate2) + dt * source2]
        r_new = (j + 1) % nt
        v = np.stack([solve(tile(d, r_new), tile(g, r_new), dx, dt, w)
                      for (d, g), w in zip(((sys.d1, sys.g1), (sys.d2, sys.g2)), reacted)])
        np.maximum(v, 0.0, out=v)
    return v


def _folded_line_period(sys, x, u2, v, period_index, symmetrized):
    """One period on the line as the evolver marches it, species by species:
    z = S^-1 v, then per step the reaction with S and dt folded into its
    tables and one transport solve per species in the frame of S (dptsv of
    T when the evolver solves the medium by dpttrs; S = I and
    solve_line_transport when it does not), the clip, and S z at the end."""
    nt, dt, dx = sys.nt, sys.omega / sys.nt, sys.ell / sys.nx
    offsets = cell_offsets(x, sys.ell, sys.nx)
    species = ((sys.d1, sys.g1), (sys.d2, sys.g2))

    def tile(f, r):
        return f.values[r][offsets]

    if symmetrized:  # transport is constant in t, so row 0 gives S and T
        systems = [_symmetrized_system(tile(d, 0), tile(g, 0), dx, dt) for d, g in species]
        s1, s2 = (scale for scale, _, _ in systems)
    else:
        s1 = s2 = np.ones(len(x))
    z1, z2 = v[0] / s1, v[1] / s2
    for j in range(period_index * nt, (period_index + 1) * nt):
        r = j % nt
        u2s = u2.snapshots[r][offsets]
        a12, a22 = tile(sys.a12, r), tile(sys.a22, r)
        k1 = 1.0 + dt * (tile(sys.b1, r) - a12 * u2s)
        k2 = 1.0 + dt * (tile(sys.b2, r) - 2.0 * a22 * u2s)
        p11, p12 = dt * tile(sys.a11, r) * s1, dt * a12 * s2
        p22, p21 = dt * a22 * s2, dt * tile(sys.a21, r) * s1
        u2z = u2s / s2
        reacted = [z1 * (k1 - p11 * z1 + p12 * z2),
                   z2 * (k2 + p22 * z2) + p21 * (z1 * (u2z - z2))]
        r_new = (j + 1) % nt
        if symmetrized:
            solved = [dptsv(diag, off, w)[2] for (_, diag, off), w in zip(systems, reacted)]
        else:
            solved = [solve_line_transport(tile(d, r_new), tile(g, r_new), dx, dt, w)
                      for (d, g), w in zip(species, reacted)]
        z1, z2 = (np.maximum(w, 0.0) for w in solved)
    return np.stack([z1 * s1, z2 * s2])


def _two_periods(media, reference):
    """Two evolver periods from a random state, and the same two periods by
    reference (periods 1 and 2 of the medium: the map does not depend on
    which period it runs)."""
    sys, ev = _line_evolver(media)
    u2 = sys.u2_star()
    symmetrized = LINE_SOLVE[media] == "dpttrs"
    r = rng(5)
    v0 = np.vstack([r.uniform(0.0, 2.0, ev.n_nodes), r.uniform(0.0, 0.8, ev.n_nodes)])
    ref = reference(sys, ev.x, u2, v0.copy(), 1, symmetrized)
    ref = reference(sys, ev.x, u2, ref, 2, symmetrized)
    return sys, ev, v0, ref


@pytest.mark.parametrize("media", list(LINE_MEDIA))
def test_line_evolver_matches_per_species_reference(monkeypatch, media):
    # the stacked two-species solve, symmetrized, LU-factored or assembled
    # at every step, must reproduce separate per-species solves by the same
    # elimination and the same folded reaction bit for bit over consecutive
    # periods
    sys, ev, v0, ref = _two_periods(media, _folded_line_period)
    assert constant_in_t(sys.u2_star().snapshots) == (media in ("x-only", "constants", "drift"))
    assert (ev._tables is None) == (media in ("t-and-x", "t-growth"))

    # each step makes exactly one call, to the medium's own routine
    calls = dict.fromkeys(("dpttrs", "dgttrs", "dgtsv"), 0)
    for name in calls:
        def counted(*a, name=name, real=getattr(pde, name), **kw):
            calls[name] += 1
            return real(*a, **kw)
        monkeypatch.setattr(pde, name, counted)
    out = ev.period(ev.period(v0.copy()))
    np.testing.assert_array_equal(out, ref)
    assert not np.array_equal(out, v0)
    assert calls == {name: 2 * sys.nt * (name == LINE_SOLVE[media]) for name in calls}


@pytest.mark.parametrize("media", list(LINE_MEDIA))
def test_line_evolver_matches_the_v_frame_step(media):
    # marching z = S^-1 v with S and dt folded into the reaction is the
    # v-frame step conjugated by S: it moves the result by roundoff only
    _, ev, v0, ref = _two_periods(media, _v_frame_line_period)
    out = ev.period(ev.period(v0.copy()))
    assert np.all(ref > 0.0)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("media", list(LINE_MEDIA))
def test_line_transport_matches_dense_solve(media):
    # each species' transport, by whichever routine its medium takes, against
    # a dense LU solve of its own line matrix, componentwise on positive data
    sys, ev = _line_evolver(media)
    offsets = cell_offsets(ev.x, sys.ell, sys.nx)
    r = rng(8)
    for j in (0, sys.nt // 3):
        rhs = np.vstack([r.uniform(0.1, 2.0, ev.n_nodes), r.uniform(0.1, 0.8, ev.n_nodes)])
        out = ev._solve(rhs / ev._scale, j) * ev._scale
        row = (j + 1) % sys.nt
        for k, (d, g) in enumerate(((sys.d1, sys.g1), (sys.d2, sys.g2))):
            m = transport_step_matrix_dense(d.values[row][offsets], g.values[row][offsets],
                                            ev.dx, ev.dt, "line")
            exact = np.linalg.solve(m, rhs[k])
            assert np.all(np.abs(out[k] - exact) <= 1e-13 * exact)


@pytest.mark.parametrize("media", ["constants", "t-and-x", "drift"])
def test_line_period_leaves_its_input_unchanged(media):
    # the recursion passes its profile's own array; the symmetrized (dpttrs),
    # the LU-factored (dgttrs) and the per-step (dgtsv) transport must all
    # leave it as it was
    _, ev = _line_evolver(media)
    route = LINE_SOLVE[media]
    assert (ev._ldl is not None, ev._lu is not None) == (route == "dpttrs", route == "dgttrs")
    r = rng(6)
    v0 = np.vstack([r.uniform(0.0, 2.0, ev.n_nodes), r.uniform(0.0, 0.8, ev.n_nodes)])
    kept = v0.copy()
    out = ev.period(v0)
    np.testing.assert_array_equal(v0, kept)
    assert not np.shares_memory(out, v0)


def test_line_evolver_nonelliptic_guard():
    bad = make_system(nt=50, nx=16)
    bad.d2 = field("0.5*sin(2*pi*x)", nt=50, nx=16)  # bypasses SystemSpec validation
    with pytest.raises(NonEllipticError):
        LineSystemEvolver(bad, -1.0, 1.0)


@pytest.fixture(scope="module")
def order_evolver():
    # b2 = a22 = 1 keeps u2* == 1, so the cooperative order interval is the
    # box 0 <= v1 <= state_bound, 0 <= v2 <= u2* = 1 at every time
    media = dict(VARYING_MEDIA, b2="1")
    sys = make_system(nt=50, nx=16, **media)
    return LineSystemEvolver(sys, -1.0, 1.0)


@pytest.fixture(scope="module")
def factored_order_evolver():
    # the same box on media frozen in t, whose line matrix is factored once
    sys = make_system(nt=50, nx=16, **dict(X_ONLY_MEDIA, b2="1"))
    return LineSystemEvolver(sys, -1.0, 1.0)


_NODES = 33  # nodes of the line [-1, 1] at nx = 16
_fractions = arrays(np.float64, (2, _NODES), elements=st.floats(0.0, 1.0))


def _assert_period_preserves_order(ev, lo, gap):
    top = np.array([[ev.state_bound], [1.0]])
    v_lo = lo * top
    v_hi = v_lo + gap * (top - v_lo)
    out_lo = ev.period(v_lo)
    out_hi = ev.period(v_hi)
    # monotone in exact arithmetic; allow roundoff only
    assert np.all(out_lo <= out_hi + 1e-12 * ev.state_bound)


@settings(max_examples=30, deadline=None)
@given(lo=_fractions, gap=_fractions)
def test_cooperative_period_preserves_order(order_evolver, lo, gap):
    _assert_period_preserves_order(order_evolver, lo, gap)


@settings(max_examples=30, deadline=None)
@given(lo=_fractions, gap=_fractions)
def test_cooperative_period_preserves_order_on_factored_transport(factored_order_evolver, lo, gap):
    _assert_period_preserves_order(factored_order_evolver, lo, gap)


def test_one_row_cell_transport_matches_the_row_solver():
    # d and g frozen in t: one row of tables serves every r, bit for bit the
    # solve that cell_transport_solver builds from that row's coefficients
    nt, nx = 12, 16
    d = field("1 + 0.3*cos(2*pi*x)", nt=nt, nx=nx)
    g = field("0.8*sin(2*pi*x)", nt=nt, nx=nx)
    transport = CellTransport(d, g)
    assert transport._main.shape == (1, nx)
    r = rng(4)
    one, columns = r.standard_normal(nx), r.standard_normal((nx, nx))
    for row in range(nt):
        solver = cell_transport_solver(d.values[row], g.values[row], d.dx, d.dt)
        np.testing.assert_array_equal(transport.solve(row, one), solver(one))
        np.testing.assert_array_equal(transport.solve(row, columns), solver(columns))


def _csv_reference_line(row):
    return ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                    for v in row)


def test_write_csv_matches_per_cell_formatting(tmp_path):
    values = [np.float64(0.1), 0.1, 7, "beta", -0.0, 1e16, 1e-5, 5e-324, np.inf, np.nan]
    n = len(values)
    columns = [values, np.array(values[::-1], dtype=object), np.arange(n),
               np.linspace(-1.0, 1.0, n), [str(v) for v in values]]
    path = tmp_path / "values.csv"
    write_csv(path, ("a", "b", "c", "d", "e"), columns)
    expected = ["a,b,c,d,e"] + [_csv_reference_line(row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(expected) + "\n"

    # more rows than one chunk, in float, int and list columns
    n = 2 * pde.CSV_CHUNK_ROWS + 3
    columns = [rng(2).standard_normal(n), np.arange(n) * 3, [0.5 * k for k in range(n)]]
    write_csv(path, ("x", "k", "y"), columns)
    expected = ["x,k,y"] + [_csv_reference_line(row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(expected) + "\n"


class _RowByRowTransport:
    """Reference cyclic transport: solve_cell_transport on each row's coefficients."""

    def __init__(self, d, g):
        self.d, self.g = d, g

    def solve(self, r, rhs):
        return solve_cell_transport(self.d.values[r], self.g.values[r], self.d.dx, self.d.dt, rhs)


def _reference_march(pmap, d, g, v, source=None):
    """All states of one period: the row-by-row solve, the growth factor, the source."""
    ref = _RowByRowTransport(d, g)
    states = [v]
    for j in range(pmap.nt):
        r = (j + 1) % pmap.nt
        growth = pmap._growth[r] if v.ndim == 1 else pmap._growth[r][:, None]
        v = growth * ref.solve(r, v)
        if source is not None:
            v = v + pmap.dt * source[j]
        states.append(v)
    return states


@pytest.mark.parametrize("shift_mean, nx", [
    pytest.param(shift_mean, nx, id=str(shift_mean) if nx == 64 else f"{shift_mean}-nx{nx}")
    for nx in (64, 2, 3, 4) for shift_mean in (True, False)])
def test_cell_period_map_matches_row_by_row_reference(shift_mean, nx):
    # the table-driven kernel must reproduce the per-row cyclic solves bit for
    # bit on t- and x-dependent media whose drift changes sign, also on cells
    # so small that the corners touch the band
    nt = 40
    d = field("1 + 0.3*cos(2*pi*(x - t))", nt=nt, nx=nx)
    g = field("0.8*sin(2*pi*(x - t))", nt=nt, nx=nx)
    h = field("2 + 0.5*cos(2*pi*x) + sin(2*pi*t)", nt=nt, nx=nx)
    pmap = CellPeriodMap(d, g, h, shift_mean=shift_mean)
    r = rng(9)
    v0 = r.uniform(0.5, 1.5, nx)
    source = r.standard_normal((nt, nx))
    np.testing.assert_array_equal(pmap.matrix(), _reference_march(pmap, d, g, np.eye(nx))[-1])
    np.testing.assert_array_equal(pmap.snapshots(v0), np.array(_reference_march(pmap, d, g, v0)))
    forced = np.array(_reference_march(pmap, d, g, v0, source))
    np.testing.assert_array_equal(pmap.snapshots_with_source(v0, source), forced)
    np.testing.assert_array_equal(pmap.apply_with_source(v0, source), forced[-1])
    np.testing.assert_array_equal(pmap.apply(v0), pmap.snapshots(v0)[-1])


def test_time_independent_cell_map_keeps_one_growth_row():
    # every step of a t-independent map reads the same growth row; the march
    # must still match the per-row reference built from all nt rows of h
    nt, nx = 40, 16
    d = field("1 + 0.3*cos(2*pi*x)", nt=nt, nx=nx)
    g = field("0.8*sin(2*pi*x)", nt=nt, nx=nx)
    h = field("2 + 0.5*cos(2*pi*x)", nt=nt, nx=nx)
    pmap = CellPeriodMap(d, g, h)
    assert pmap.time_independent and pmap._growth.shape == (1, nx)
    ref = _RowByRowTransport(d, g)
    v = rng(4).uniform(0.5, 1.5, nx)
    states = [v]
    for j in range(nt):
        r = (j + 1) % nt
        v = np.exp(pmap.dt * (h.values[r] - pmap.shift)) * ref.solve(r, v)
        states.append(v)
    np.testing.assert_array_equal(pmap.snapshots(states[0]), np.array(states))


@pytest.mark.parametrize("h, where", [
    ("2e5*cos(2*pi*x)", "step growth factor overflows: dt\\*max\\(h - mean h\\) = 1000"),
    ("1e5*cos(2*pi*x)", "period map power overflows"),  # a t-independent map's power
    ("1000*cos(2*pi*x)*(1 + 0.2*sin(2*pi*t))", "period march overflows")],
    ids=["growth", "power", "march"])
def test_overflowing_cell_map_fails_without_warnings(h, where):
    # each growth factor, the power or the march passes the float range: a
    # NumericalFailure that names it, with no numpy RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=where):
            principal_eigen(field("0.01"), field("0"), field(h))


@pytest.mark.parametrize("nx", [2, 3, 4, 5])
def test_cell_period_map_tiny_cells_match_dense_solves(nx):
    # on cells this small the corners touch the band; the dense solve is the oracle
    nt = 20
    d = field("1 + 0.3*cos(2*pi*(x - t))", nt=nt, nx=nx)
    g = field("5*sin(2*pi*(x - t)) + 2", nt=nt, nx=nx)
    h = field("cos(2*pi*x) + sin(2*pi*t)", nt=nt, nx=nx)
    pmap = CellPeriodMap(d, g, h)
    k = np.eye(nx)
    for j in range(nt):
        row = (j + 1) % nt
        m = transport_step_matrix_dense(d.values[row], g.values[row], d.dx, d.dt, "cell")
        k = pmap._growth[row][:, None] * np.linalg.solve(m, k)
    np.testing.assert_allclose(pmap.matrix(), k, rtol=1e-13, atol=1e-13 * np.abs(k).max())


def _row_by_row_period_map(transport, c, e):
    """Reference logistic period: each step's Lambert-W solve written out from row r of c and e."""
    def period(u0):
        snaps = np.empty((c.nt, c.nx))
        u = u0
        for j in range(c.nt):
            snaps[j] = u
            r = (j + 1) % c.nt
            w = transport.solve(r, u)
            a = c.dt * e.values[r]
            u = np.real(lambertw(a * w * np.exp(c.dt * c.values[r]))) / a
        return snaps, u
    return period


def test_logistic_orbit_matches_row_by_row_reference(monkeypatch):
    # per-row cyclic solves and Lambert-W steps against the tables, at
    # nt = 200, nx = 64: the report-tx species-2 problem (t-periodic growth)
    # and report-tx's species 1 under a self-limitation varying in t and x
    media = [(field("0.5"), field("0"), field("1 + 0.5*sin(2*pi*t)"), field("1")),
             (field("1 + 0.25*cos(2*pi*x)"), field("0.2*sin(2*pi*(x - t))"),
              field("2 + 0.5*cos(2*pi*x)"), field("1 + 0.3*cos(2*pi*(x - t))"))]
    tabled = [logistic_orbit(*fields) for fields in media]
    monkeypatch.setattr(orbits, "CellTransport", _RowByRowTransport)
    monkeypatch.setattr(orbits, "_period_map", _row_by_row_period_map)
    for orbit, fields in zip(tabled, media):
        reference = logistic_orbit(*fields)
        assert orbit.periods_marched == reference.periods_marched
        np.testing.assert_array_equal(orbit.snapshots, reference.snapshots)

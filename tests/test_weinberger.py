import numpy as np
import pytest

from speedlab import Profile, apply_R, bracket_speeds, init_profile, recursion_limit
from speedlab.errors import ShiftOutOfRange, TooFewNodes
from speedlab.pde import LineSystemEvolver
from speedlab.weinberger import classify_profile, pava_nonincreasing

from conftest import make_system, rng


@pytest.fixture(scope="module")
def fisher_small():
    # coarse decoupled instance keeps the recursion cheap in unit tests
    return make_system(nt=100, nx=16, b1="1", d2="1", a12="0", a21="0")


def test_init_profile_shape():
    p = init_profile((2.0, 1.0), 20.0, 400)
    left = p.value_at(-20.0)
    np.testing.assert_allclose(left, [1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(p.value_at(0.0), [0.0, 0.0], atol=1e-12)
    assert np.all(p.values[:, p.x >= 0.0] == 0.0)
    assert np.all(np.diff(p.values, axis=1) <= 1e-12)


def test_init_profile_guards():
    with pytest.raises(TooFewNodes):
        init_profile((1.0, 1.0), 20.0, 100)   # too few nodes
    with pytest.raises(ValueError):
        init_profile((0.0, 1.0), 20.0, 400)   # degenerate plateau


def test_pava_projection_properties():
    r = rng(5)
    y = r.standard_normal(200)
    p = pava_nonincreasing(y)
    assert np.all(np.diff(p) <= 1e-12)
    np.testing.assert_allclose(pava_nonincreasing(p), p, atol=1e-14)
    # projection optimality against random feasible competitors
    for _ in range(10):
        q = np.sort(r.standard_normal(200))[::-1]
        assert np.sum((y - p) ** 2) <= np.sum((y - q) ** 2) + 1e-9
    # order preservation
    z = y + r.uniform(0.0, 1.0, 200)
    assert np.all(pava_nonincreasing(z) - p >= -1e-12)


def test_apply_r_zero_profile_returns_floor(fisher_small):
    sys = fisher_small
    p = init_profile((1.0, 1.0), 12.0, 12 * 2 * sys.nx)
    zero = Profile(p.x, np.zeros_like(p.values), p.beta_est)
    out = apply_R(zero, 0.0, sys)
    np.testing.assert_allclose(out.values, p.values, atol=1e-12)


def test_apply_r_shift_guard(fisher_small):
    p = init_profile((1.0, 1.0), 12.0, 12 * 2 * fisher_small.nx)
    with pytest.raises(ShiftOutOfRange):
        apply_R(p, 4.0, fisher_small)


def test_apply_r_keeps_profile_in_order_interval(fisher_small):
    sys = fisher_small
    # comparison oracle: the plateau estimate is invariant under the map
    p = init_profile((1.0, 1.0), 12.0, 12 * 2 * sys.nx)
    out = apply_R(p, 1.0, sys)
    assert out.values.max() <= 1.0 + 1e-9
    assert out.values.min() >= 0.0
    assert np.all(np.diff(out.values, axis=1) <= 1e-9)


def test_recursion_monotone_in_m(fisher_small):
    sys = fisher_small
    res = recursion_limit(1.0, sys, cap=12, A=12.0)
    p0 = init_profile((1.0, 1.0), 12.0, 12 * 2 * sys.nx)
    # rerun step by step and check nodewise growth
    ev = LineSystemEvolver(sys, -12.0, 12.0)
    cur = p0
    for _ in range(6):
        nxt = apply_R(cur, 1.0, sys, evolver=ev)
        assert float(np.max(cur.values - nxt.values)) <= 1e-9
        cur = nxt
    assert res.iterations >= 1


def test_recursion_zero_speed_fills_to_carrying_level(fisher_small):
    sys = fisher_small
    res = recursion_limit(0.0, sys, cap=80, A=12.0)
    left = res.profile.value_at(-12.0 + 2.0)
    assert left[0] == pytest.approx(1.0, abs=0.05)
    cls, value, _ = classify_profile(res, sys)
    assert cls == "beta"


def test_recursion_supercritical_speed_dies_on_the_right(fisher_small):
    sys = fisher_small
    # |c * omega| <= A/4 guard requires a wide domain for c = 10
    res = recursion_limit(10.0, sys, cap=30, A=44.0)
    right = res.profile.value_at(44.0 - 2.0)
    assert right[0] < 1e-6
    left = res.profile.value_at(-44.0 + 2.0)
    assert left[0] < 1.0  # retreating wave never rebuilds the full plateau


def test_bracket_endpoint_classifications(fisher_small):
    cstar, cbar = bracket_speeds(fisher_small, (0.5, 2.9, 0), cap=60)
    classes = {c: cls for c, cls, _, _ in cstar.trace}
    assert classes[0.5] == "beta"
    assert classes[2.9] == "zero"
    assert cstar.c_lo == 0.5 and cstar.c_hi == 2.9


def test_bracket_takes_only_a_bisection_spec():
    sys = make_system(nt=50, nx=8)
    cstar, _ = bracket_speeds(sys, (0.5, 2.0, 0), cap=2)
    assert sorted(c for c, _, _, _ in cstar.trace) == [0.5, 2.0]
    for spec in ((0.5, 1.0, 2.0), (0.5, 1.0), (2.0, 0.5, 1), (0.5, 2.0, -1), (0.5, 2.0, True),
                 [], [0.5, 2.0]):
        with pytest.raises(ValueError):
            bracket_speeds(sys, spec, cap=2)


def test_bracket_open_ended_flag(fisher_small):
    # both endpoints below the speed: the beta classification never breaks
    cstar, cbar = bracket_speeds(fisher_small, (0.2, 0.7, 0), cap=60)
    assert cstar.open_above and cbar.open_above
    assert np.isinf(cstar.c_hi)


def test_doubling_domain_never_flips_beta_to_zero(fisher_small):
    # decided classifications are stable under widening the truncation
    for c, expected in ((0.5, "beta"), (2.9, "zero")):
        for a_half in (12.0, 24.0):
            res = recursion_limit(c, fisher_small, cap=60, A=a_half)
            cls, _, _ = classify_profile(res, fisher_small)
            assert cls == expected


def test_profile_and_trace_dumps(tmp_path, fisher_small):
    from speedlab.weinberger import dump_bracket_trace_csv, dump_profile_csv
    cstar, _ = bracket_speeds(fisher_small, (0.5, 2.9, 0), cap=60)
    trace_path = tmp_path / "trace.csv"
    dump_bracket_trace_csv(trace_path, cstar.trace)
    trace_lines = trace_path.read_text().splitlines()
    assert trace_lines[0] == "c,classification,right_end_value,left_plateau"
    for line in trace_lines[1:]:
        c, cls, right, left = line.split(",")
        assert cls in ("beta", "intermediate", "zero")
        for cell in (c, right, left):
            float(cell)
    prof, iters = cstar.profiles[0.5]
    prof_path = tmp_path / "profile.csv"
    dump_profile_csv(prof_path, prof, iters)
    prof_lines = prof_path.read_text().splitlines()
    assert prof_lines[0] == "x,v1,v2,iteration"
    assert len(prof_lines) == prof.x.size + 1
    for line in prof_lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells:
            float(cell)  # a plain number, not a numpy scalar repr


def test_bracket_profile_sits_on_the_solver_grid_of_a_coarse_cell():
    # at nx = 8 a slow species' default 12-cell half width holds only 192
    # solver nodes; the domain widens to 13 cells instead of padding the
    # profile to 200 nodes off the evolver's grid
    sys = make_system(nt=100, nx=8, b1="0.3", d2="1", a12="0", a21="0")
    cstar, _ = bracket_speeds(sys, (0.25, 0.5, 0), cap=5)
    prof, _ = cstar.profiles[0.5]
    assert prof.x.size == 2 * 13 * 8 + 1


def test_recursion_default_half_width_fits_grid_and_shift(fisher_small):
    # recursion_limit shares bracket_speeds' default half width: 13 cells
    # give a coarse cell's profile its 200 nodes, and 16 cells keep the
    # shift c*omega = 3.5 within A/4
    coarse = make_system(nt=100, nx=8, b1="0.3", d2="1", a12="0", a21="0")
    res = recursion_limit(0.5, coarse, cap=2)
    assert res.profile.x.size == 2 * 13 * 8 + 1
    assert res.iterations == 2
    fast = recursion_limit(3.5, fisher_small, cap=2)
    assert fast.profile.half_width == 16.0
    assert fast.iterations >= 1

import numpy as np
import pytest

from speedlab import RecursionLine, bracket_speeds, pde, recursion_limit, weinberger
from speedlab.errors import NotMonostable, ShiftOutOfRange, TooFewNodes
from speedlab.weinberger import _half_width, pava_nonincreasing

from conftest import make_system, rng


@pytest.fixture(scope="module")
def fisher_small():
    # coarse decoupled instance keeps the recursion cheap in unit tests
    return make_system(nt=100, nx=16, b1="1", d2="1", a12="0", a21="0")


@pytest.fixture(scope="module")
def fisher_line(fisher_small):
    return RecursionLine(fisher_small, 12.0)


def drift_tol(sys):
    return 0.01 * sys.ell


@pytest.fixture
def cap(monkeypatch):
    """Sets the recursion cap every run of the test reads."""
    return lambda value: monkeypatch.setattr(weinberger, "DEFAULT_CAP", value)


def test_recursion_line_start_ramp_shape():
    # the competition constants have plateaus (2, 1): the start ramp is half of each
    line = RecursionLine(make_system(nt=50, nx=10, a12="0", a21="0"), 20.0)
    assert line.x.size == 401
    np.testing.assert_array_equal(line.x, np.linspace(-20.0, 20.0, 401))
    np.testing.assert_allclose(line.beta, [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(line.floor[:, 0], 0.5 * line.beta, atol=1e-12)
    assert np.all(line.floor[:, line.x >= 0.0] == 0.0)
    assert np.all(np.diff(line.floor, axis=1) <= 1e-12)


def test_recursion_line_guards(fisher_small):
    with pytest.raises(TooFewNodes):
        RecursionLine(fisher_small, 6.0)   # 192 intervals at nx = 16
    with pytest.raises(NotMonostable):
        RecursionLine(make_system(nt=50, nx=8, b2="-1"), 12.0)   # species 2 dies out


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


def test_apply_r_zero_profile_returns_floor(fisher_line):
    out = fisher_line.apply_R(np.zeros_like(fisher_line.floor), 0.0)
    np.testing.assert_allclose(out, fisher_line.floor, atol=1e-12)


def test_apply_r_shift_guard(fisher_line):
    with pytest.raises(ShiftOutOfRange):
        fisher_line.apply_R(fisher_line.floor, 4.0)


def test_apply_r_keeps_profile_in_order_interval(fisher_line):
    # comparison oracle: the plateau estimate is invariant under the map
    np.testing.assert_allclose(fisher_line.beta, [1.0, 1.0], atol=1e-12)
    out = fisher_line.apply_R(fisher_line.floor, 1.0)
    assert out.max() <= 1.0 + 1e-9
    assert out.min() >= 0.0
    assert np.all(np.diff(out, axis=1) <= 1e-9)


def test_recursion_monotone_in_m(fisher_small, fisher_line, cap):
    cap(12)
    res = recursion_limit(1.0, fisher_line, drift_tol(fisher_small))
    # rerun step by step and check nodewise growth
    cur = fisher_line.floor
    for _ in range(6):
        nxt = fisher_line.apply_R(cur, 1.0)
        assert float(np.max(cur - nxt)) <= 1e-9
        cur = nxt
    assert res.iterations >= 1


@pytest.mark.parametrize("c, limit, reason, iterations", [
    (1.0, 12, "cap", 12), (0.0, 300, "station", 12), (3.0, 300, "converged", 7)])
def test_recursion_stop_reason(fisher_small, fisher_line, cap, c, limit, reason, iterations):
    # each run says why it stopped and which class it reached; only a capped
    # run reports cap_reached
    cap(limit)
    res = recursion_limit(c, fisher_line, drift_tol(fisher_small))
    assert res.reason == reason
    assert res.cap_reached == (reason == "cap")
    assert res.iterations == iterations
    assert res.cls == {"cap": "intermediate", "station": "beta", "converged": "zero"}[reason]


def test_recursion_zero_speed_fills_to_carrying_level(fisher_small, fisher_line, cap):
    cap(80)
    res = recursion_limit(0.0, fisher_line, drift_tol(fisher_small))
    left = np.interp(-12.0 + 2.0, res.x, res.values[0])
    assert left == pytest.approx(1.0, abs=0.05)
    assert res.left_value == left
    assert res.station_value == np.interp(fisher_line.station, res.x, res.values[0])
    assert res.cls == "beta"


def test_recursion_supercritical_speed_dies_on_the_right(fisher_small, cap):
    # |c * omega| <= A/4 guard requires a wide domain for c = 10
    cap(30)
    res = recursion_limit(10.0, RecursionLine(fisher_small, 44.0), drift_tol(fisher_small))
    right = np.interp(44.0 - 2.0, res.x, res.values[0])
    assert right < 1e-6
    left = np.interp(-44.0 + 2.0, res.x, res.values[0])
    assert left < 1.0  # retreating wave never rebuilds the full plateau


def test_bracket_endpoint_classifications(fisher_small, cap):
    cap(60)
    cstar, cbar = bracket_speeds(fisher_small, (0.5, 2.9, 0))
    classes = {c: cls for c, cls, _, _ in cstar.trace}
    assert classes[0.5] == "beta"
    assert classes[2.9] == "zero"
    assert cstar.c_lo == 0.5 and cstar.c_hi == 2.9


def test_bracket_takes_only_a_bisection_spec(cap):
    cap(2)
    sys = make_system(nt=50, nx=8)
    cstar, _ = bracket_speeds(sys, (0.5, 2.0, 0))
    assert sorted(c for c, _, _, _ in cstar.trace) == [0.5, 2.0]
    for spec in ((0.5, 1.0, 2.0), (0.5, 1.0), (2.0, 0.5, 1), (0.5, 2.0, -1), (0.5, 2.0, True),
                 [], [0.5, 2.0]):
        with pytest.raises(ValueError):
            bracket_speeds(sys, spec)


def test_bracket_open_ended_flag(fisher_small, cap):
    # both endpoints below the speed: the beta classification never breaks
    cap(60)
    cstar, cbar = bracket_speeds(fisher_small, (0.2, 0.7, 0))
    assert cstar.c_hi == np.inf and cbar.c_hi == np.inf


def test_doubling_domain_never_flips_beta_to_zero(fisher_small, cap):
    # decided classifications are stable under widening the truncation
    cap(60)
    for a_half in (12.0, 24.0):
        line = RecursionLine(fisher_small, a_half)
        for c, expected in ((0.5, "beta"), (2.9, "zero")):
            assert recursion_limit(c, line, drift_tol(fisher_small)).cls == expected


def test_profile_and_trace_dumps(tmp_path, fisher_small, cap):
    from speedlab.weinberger import dump_bracket_trace_csv, dump_profile_csv
    cap(60)
    cstar, _ = bracket_speeds(fisher_small, (0.5, 2.9, 0))
    trace_path = tmp_path / "trace.csv"
    dump_bracket_trace_csv(trace_path, cstar.trace)
    trace_lines = trace_path.read_text().splitlines()
    assert trace_lines[0] == "c,classification,right_end_value,left_plateau"
    for line in trace_lines[1:]:
        c, cls, right, left = line.split(",")
        assert cls in ("beta", "intermediate", "zero")
        for cell in (c, right, left):
            float(cell)
    result = cstar.profiles[0.5]
    prof_path = tmp_path / "profile.csv"
    dump_profile_csv(prof_path, result)
    prof_lines = prof_path.read_text().splitlines()
    assert prof_lines[0] == "x,v1,v2,iteration"
    assert len(prof_lines) == result.x.size + 1
    for line in prof_lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells:
            float(cell)  # a plain number, not a numpy scalar repr


def test_bracket_profile_sits_on_the_solver_grid_of_a_coarse_cell(cap):
    # at nx = 8 a slow species' default 12-cell half width holds only 192
    # solver nodes; the domain widens to 13 cells instead of padding the
    # profile to 200 nodes off the evolver's grid
    cap(5)
    sys = make_system(nt=100, nx=8, b1="0.3", d2="1", a12="0", a21="0")
    cstar, _ = bracket_speeds(sys, (0.25, 0.5, 0))
    assert cstar.profiles[0.5].x.size == 2 * 13 * 8 + 1


def test_recursion_default_half_width_fits_grid_and_shift(fisher_small, cap):
    # bracket_speeds' default half width: 13 cells give a coarse cell's line
    # its 200 nodes, and 16 cells keep the shift c*omega = 3.5 within A/4
    cap(2)
    coarse = make_system(nt=100, nx=8, b1="0.3", d2="1", a12="0", a21="0")
    res = recursion_limit(0.5, RecursionLine(coarse, _half_width(coarse, 0.5)),
                          drift_tol(coarse))
    assert res.x.size == 2 * 13 * 8 + 1
    assert res.iterations == 2
    fast_line = RecursionLine(fisher_small, _half_width(fisher_small, 3.5))
    assert fast_line.A == 16.0
    assert recursion_limit(3.5, fast_line, drift_tol(fisher_small)).iterations >= 1
    # a bracket sizes its line for its fastest candidate in either direction:
    # c_lo = -4 needs 4*|c|*omega + 2 = 18 cells, more than c_hi = 0.5 does
    cstar, _ = bracket_speeds(make_system(nt=50, nx=8), (-4.0, 0.5, 0))
    assert cstar.profiles[-4.0].x[-1] == 18.0


def test_bracket_builds_one_line_evolver(fisher_small, monkeypatch, cap):
    # every candidate of a bracket runs on the same RecursionLine
    built = []
    init = pde.LineSystemEvolver.__init__

    def counting_init(self, *args):
        built.append(args[1:])
        init(self, *args)

    monkeypatch.setattr(pde.LineSystemEvolver, "__init__", counting_init)
    cap(60)
    cstar, _ = bracket_speeds(fisher_small, (0.5, 2.9, 1))
    assert len(cstar.trace) == 3
    assert built == [(-14.0, 14.0)]


def test_bracket_trace_is_the_record_of_its_runs(fisher_small, cap):
    # each trace entry is what its run decided, and both brackets share runs and trace
    cap(60)
    cstar, cbar = bracket_speeds(fisher_small, (0.5, 2.9, 1))
    runs = cstar.profiles
    assert cstar.trace == [(c, runs[c].cls, runs[c].station_value, runs[c].left_value)
                           for c in sorted(runs)]
    assert [c for c, *_ in cstar.trace] == [0.5, 1.7, 2.9]
    assert cbar.trace == cstar.trace and cbar.profiles is runs

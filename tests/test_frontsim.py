import dataclasses

import numpy as np
import pytest

from speedlab import fit_speed, front_position, frontsim, run_front, spreading_verdict
from speedlab.errors import NoCrossing, TooFewPoints
from speedlab.frontsim import FrontTrace
from speedlab.pde import LineState, cell_offsets, rightmost_crossing

from conftest import fixed_line_positions, make_system


@pytest.fixture(scope="module")
def fisher_coarse():
    return make_system(nt=100, nx=32, b1="1", d2="1", a12="0", a21="0")


@pytest.fixture(scope="module")
def fisher_run(fisher_coarse):
    # long enough for the logarithmic front-formation transient to decay
    # below the 5% verdict band
    sys = fisher_coarse
    return sys, run_front(sys, 40)


def _unit_orbit(sys):
    return sys.u1_star()


def test_front_position_synthetic_step(fisher_coarse):
    u1 = _unit_orbit(fisher_coarse)  # constant level 1
    x = np.linspace(-8.0, 8.0, 513)
    vals = np.vstack([(x <= 3.25).astype(float), np.zeros_like(x)])
    st = LineState(vals, 0.0, -8.0, 8.0)
    pos = front_position(st, u1)
    assert abs(pos - 3.25) <= (16.0 / 512) + 1e-9


def test_front_position_no_crossing(fisher_coarse):
    u1 = _unit_orbit(fisher_coarse)
    x = np.linspace(-4.0, 4.0, 257)
    st = LineState(np.zeros((2, 257)), 0.0, -4.0, 4.0)
    with pytest.raises(NoCrossing):
        front_position(st, u1)
    st_full = LineState(np.vstack([np.ones(257), np.zeros(257)]), 0.0, -4.0, 4.0)
    with pytest.raises(NoCrossing):
        front_position(st_full, u1)


def test_front_position_normalization_removes_period_wobble():
    sys = make_system(nt=100, nx=64, b1="1 + 0.5*cos(2*pi*x)", d2="1",
                      a12="0", a21="0")
    u1 = sys.u1_star()
    x = np.linspace(-8.0, 8.0, 16 * 64 + 1)
    dx = x[1] - x[0]
    level = u1.snapshots[0][np.round(x / dx).astype(int) % 64]
    raw_level = 0.5 * u1.snapshots[0].max()
    raw_positions, norm_positions = [], []
    for x0 in np.linspace(2.0, 3.0, 9)[:-1]:
        v1 = level / (1.0 + np.exp((x - x0) / 0.25))
        st = LineState(np.vstack([v1, np.zeros_like(v1)]), 0.0, -8.0, 8.0)
        norm_positions.append(front_position(st, u1) - x0)
        above = v1 >= raw_level
        raw_positions.append(float(x[np.max(np.nonzero(above))]) - x0)
    assert np.ptp(norm_positions) < 0.2
    assert np.ptp(norm_positions) < np.ptp(raw_positions)


def test_fit_speed_exact_line():
    t = np.arange(1.0, 31.0)
    trace = FrontTrace(times=list(t), positions=list(2.0 * t))
    fit = fit_speed(trace)
    assert fit.speed == pytest.approx(2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.ci_halfwidth < 1e-10


def test_fit_speed_with_periodic_wobble():
    t = np.arange(60) * 0.25 + 0.125
    x = 2.0 * t + 0.1 * np.sin(2.0 * np.pi * t)
    trace = FrontTrace(times=list(t), positions=list(x))
    fit = fit_speed(trace)
    # independent oracle for the same least-squares line
    drop = int(np.ceil(0.3 * len(t)))
    slope_oracle = np.polyfit(t[drop:], x[drop:], 1)[0]
    assert fit.speed == pytest.approx(slope_oracle, abs=1e-12)
    assert abs(fit.speed - 2.0) <= 0.02
    assert fit.r2 > 0.999


def test_fit_speed_confidence_halfwidth_by_hand():
    # 20 points keep the last 14 (dof 12); t_{0.975, 12} = 2.1788128296672284
    t = np.arange(1.0, 21.0)
    x = 2.0 * t + 0.05 * np.cos(1.7 * t)
    fit = fit_speed(FrontTrace(times=list(t), positions=list(x)))
    kept_t, kept_x = t[6:], x[6:]
    _, (ss_res,), *_ = np.polyfit(kept_t, kept_x, 1, full=True)
    stt = 14 * (14**2 - 1) / 12.0  # sum of squared deviations of 14 consecutive integers
    assert fit.ci_halfwidth == pytest.approx(
        2.1788128296672284 * np.sqrt(ss_res / 12 / stt), rel=1e-9, abs=0)


def test_fit_speed_too_few_points():
    trace = FrontTrace(times=[1.0, 2.0, 3.0, 4.0, 5.0],
                       positions=[2.0, 4.0, 6.0, 8.0, 10.0])
    with pytest.raises(TooFewPoints):
        fit_speed(trace)


def test_run_front_empty_species(fisher_coarse):
    sys = fisher_coarse
    empty = FrontTrace(times=[], positions=[])
    verdict = spreading_verdict(sys, empty, None)
    assert verdict.verdict == "inconclusive"


def test_fisher_front_speed_and_verdict(fisher_run):
    sys, trace = fisher_run
    fit = fit_speed(trace)
    assert fit.speed == pytest.approx(2.0, rel=0.05)

    verdict = spreading_verdict(sys, trace, 2.0)
    assert verdict.verdict == "pass"
    assert verdict.tail_front < 0.01
    assert verdict.tail_back < 0.05
    assert verdict.relative_gap < 0.05


def test_threshold_invariance_of_measured_speed(fisher_run):
    sys, trace = fisher_run
    u1 = sys.u1_star()
    # the front after 10, 20, 30 and 40 periods, each the final state of its own run
    states = [run_front(sys, periods).final_state for periods in (10, 20, 30)]
    states.append(trace.final_state)
    base = fit_speed(trace)
    allowance = base.ci_halfwidth + 0.3 * sys.ell / sys.omega
    at_half = np.array([front_position(s, u1) for s in states])

    def crossing(state, threshold):  # front_position's crossing at another threshold
        level = u1.snapshots[0][cell_offsets(state.x, u1.ell, u1.nx)]
        return rightmost_crossing(state.x, state.values[0] / level, threshold)

    # front offsets at different thresholds stay parallel: translate at one speed
    for thr in (0.2, 0.5, 0.8):
        offsets = np.array([crossing(s, thr) for s in states]) - at_half
        assert np.ptp(offsets) <= allowance + 0.1


def test_window_matches_a_fixed_line(fisher_run):
    # the fixed line [-180, 180] holds the whole run, so it is the untruncated oracle
    sys, trace = fisher_run
    np.testing.assert_allclose(trace.positions, fixed_line_positions(sys, 180.0, 40),
                               rtol=0, atol=1e-9)
    behind, ahead = frontsim.window_cells(sys, 40)
    assert behind == frontsim.WINDOW_BEHIND and ahead > frontsim.WINDOW_AHEAD  # room for T = 40
    assert trace.final_state.n_nodes == (behind + ahead) * sys.nx + 1
    assert trace.final_state.x_lo > 0.0  # absolute coordinates of a window that moved


@pytest.mark.parametrize("omega, ell, cells", [(1.0, 0.25, (60, 76)), (20.0, 1.0, (15, 116))],
                         ids=["short-cells", "long-period"])
def test_window_sized_in_length_matches_a_fixed_line(omega, ell, cells):
    # short cells: 15 + 40 cells would leave the front 2 length units of room;
    # a long period: the front crosses 40 cells a period, past a 40-cell window
    sys = make_system(nt=100, nx=8, omega=omega, ell=ell, b1="1", d2="1", a12="0", a21="0")
    periods = 6
    assert frontsim.window_cells(sys, periods) == cells
    trace = run_front(sys, periods)
    assert not trace.aborted
    half_width = 2.0 * omega * periods + 100.0
    np.testing.assert_allclose(trace.positions, fixed_line_positions(sys, half_width, periods),
                               rtol=0, atol=1e-9)


def test_widening_the_window_leaves_fit_unchanged(fisher_run, monkeypatch):
    # finite-window control: widening the truncation does not move the fit
    sys, trace = fisher_run
    monkeypatch.setattr(frontsim, "WINDOW_BEHIND", 30)
    monkeypatch.setattr(frontsim, "WINDOW_AHEAD", 80)
    wide = run_front(sys, 40)
    f1 = fit_speed(trace)
    f2 = fit_speed(wide)
    assert abs(f1.speed - f2.speed) <= f1.ci_halfwidth + 1e-6


def test_aborted_run_is_flagged_and_inconclusive(fisher_coarse, monkeypatch):
    # a window with too little room ahead puts the front in the guard zone
    sys = fisher_coarse
    monkeypatch.setattr(frontsim, "window_cells", lambda sys, periods: (frontsim.WINDOW_BEHIND, 6))
    trace = run_front(sys, 22)
    assert trace.aborted
    assert trace.n_points < 22
    verdict = spreading_verdict(sys, trace, None)
    assert verdict.verdict == "inconclusive"


def test_aborted_run_with_a_fit_keeps_its_measurements(fisher_run):
    # a run stopped after enough points for the fit: the tails are measured,
    # no verdict is drawn, and the trace's note comes last
    sys, trace = fisher_run
    stopped = dataclasses.replace(trace, aborted=True, note="front entered the guard zone")
    verdict = spreading_verdict(sys, stopped, 2.0)
    assert verdict.verdict == "inconclusive"
    assert verdict.fitted_speed == fit_speed(trace).speed
    assert verdict.tail_front is not None and verdict.tail_back is not None
    assert verdict.relative_gap is None
    assert verdict.notes[-1] == "front entered the guard zone"


def _hand_built_front(sys, ahead_tail=0.0, behind_gap=0.0, x_hi=60.0):
    """A finished 20-period trace at speed 2 on the window [-10, x_hi] whose
    final state is the carrying pair behind x = 40 and zero ahead of it, so
    the verdict's stations sit at 0.8*2*20 = 32 behind and 1.05*2*20 = 42
    ahead (when x_hi >= 47).  ahead_tail raises v1 on x >= 45 to that
    fraction of beta1; behind_gap lowers v1 on x <= 30 by that fraction of
    beta1."""
    times = np.arange(1.0, 21.0)
    x = np.linspace(-10.0, x_hi, round(x_hi + 10.0) * sys.nx + 1)
    cells = cell_offsets(x, sys.ell, sys.nx)
    beta1 = sys.u1_star().snapshots[0][cells]
    beta2 = sys.u2_star().snapshots[0][cells]
    v1 = np.where(x <= 40.0, beta1, 0.0)
    v1 = np.where(x >= 45.0, ahead_tail * beta1, v1)
    v1 = np.where(x <= 30.0, (1.0 - behind_gap) * beta1, v1)
    v2 = np.where(x <= 40.0, beta2, 0.0)
    state = LineState(np.vstack([v1, v2]), times[-1], -10.0, x_hi)
    return FrontTrace(times=list(times), positions=list(2.0 * times), final_state=state)


def test_a_front_fails_on_either_tail_alone(fisher_coarse):
    # a front at the right speed fails when one tail misses its band by a
    # little: ahead 0.012 against 1%, behind 0.06 against 5%
    sys = fisher_coarse
    clean = spreading_verdict(sys, _hand_built_front(sys), 2.0)
    assert (clean.verdict, clean.tail_front, clean.tail_back) == ("pass", 0.0, 0.0)
    assert clean.relative_gap == pytest.approx(0.0, abs=1e-12)

    ahead = spreading_verdict(sys, _hand_built_front(sys, ahead_tail=0.012), 2.0)
    assert ahead.tail_front == pytest.approx(0.012, rel=1e-12)
    assert ahead.tail_back == 0.0
    assert ahead.verdict == "fail"

    behind = spreading_verdict(sys, _hand_built_front(sys, behind_gap=0.06), 2.0)
    assert behind.tail_back == pytest.approx(0.06, rel=1e-12)
    assert behind.tail_front == 0.0
    assert behind.verdict == "fail"


@pytest.fixture(scope="module")
def periodic_coupled():
    """Orbits that vary in t, and a21 = 0.5: species 2 enters the behind comparison."""
    return make_system(nt=100, nx=32, b1="1 + 0.5*sin(2*pi*t)", d2="1",
                       b2="1 + 0.5*sin(2*pi*t)", a12="0", a21="0.5")


@pytest.mark.parametrize("species", [0, 1])
def test_each_tail_reads_the_carrying_pair_at_t_0(periodic_coupled, species):
    # the final state sits at a whole number of periods, so it is compared
    # with row 0 of the orbits.  An ahead tail at 1% of a level between rows
    # 0 and 1 fails against row 0 and would pass against row 1, and the
    # carrying pair of row 0 behind would not read as 0 there
    sys = periodic_coupled
    trace = _hand_built_front(sys)
    state = trace.final_state
    cells = cell_offsets(state.x, sys.ell, sys.nx)
    beta = (sys.u1_star(), sys.u2_star())[species].snapshots
    assert np.all(beta[1] > beta[0])
    level = 0.5 * (beta[0] + beta[1])[cells]
    ahead = state.x >= 45.0
    state.values[species, ahead] = 0.01 * level[ahead]
    verdict = spreading_verdict(sys, trace, 2.0)
    assert verdict.tail_back == 0.0
    expected = 0.01 * np.max(level[ahead] / beta[0][cells[ahead]])
    assert 0.01 < verdict.tail_front == pytest.approx(expected, rel=1e-12)
    assert verdict.verdict == "fail"


def test_species_2_behind_decides_when_a21_is_positive(periodic_coupled):
    # 0 < a21 <= 1 still couples species 2 to the carrying pair behind the
    # front: v2 6% below beta2 there fails the 5% band on its own
    sys = periodic_coupled
    assert 0.0 < sys.a21.min() <= 1.0
    trace = _hand_built_front(sys)
    state = trace.final_state
    state.values[1, state.x <= 30.0] *= 0.94
    verdict = spreading_verdict(sys, trace, 2.0)
    assert verdict.tail_back == pytest.approx(0.06, rel=1e-12)
    assert verdict.verdict == "fail"
    assert not any(note.startswith("a21 vanishes") for note in verdict.notes)


def test_ahead_station_falls_back_inside_a_short_window(fisher_coarse):
    # on [-10, 44] the frame's 1.05*2*20 = 42 lies in the right guard zone,
    # so the ahead tail is read from x_hi - 5*ell = 39, behind the front
    sys = fisher_coarse
    short = spreading_verdict(sys, _hand_built_front(sys, x_hi=44.0), 2.0)
    assert "ahead station falls back to x_hi - 5*ell = 39" in short.notes
    assert (short.tail_front, short.verdict) == (1.0, "fail")
    clean = spreading_verdict(sys, _hand_built_front(sys), 2.0)
    assert not any(note.startswith("ahead station") for note in clean.notes)


def test_a_zero_c0_is_not_compared(fisher_coarse):
    # c0 = 0 gives no relative gap: the verdict rests on the tails and says so
    verdict = spreading_verdict(fisher_coarse, _hand_built_front(fisher_coarse), 0.0)
    assert (verdict.relative_gap, verdict.verdict) == (None, "pass")
    assert "no nonzero c0: the fitted speed is not compared" in verdict.notes


def test_long_run_checks_behind_on_the_window(fisher_coarse):
    # by T = 80, 0.8*c*T lies left of the window, so the behind station falls back
    sys = fisher_coarse
    trace = run_front(sys, 80)

    verdict = spreading_verdict(sys, trace, 2.0)
    assert verdict.verdict == "pass"
    assert any(note.startswith("behind station falls back") for note in verdict.notes)
    assert verdict.tail_back < 0.05

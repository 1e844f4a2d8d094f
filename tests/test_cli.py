import csv
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from speedlab import cli, eigen, frontsim, pde, speeds, weinberger
from speedlab.cli import (DEMOS, EXIT_INCONCLUSIVE, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                          ScenarioConfig, main, run_scenario)
from speedlab.errors import (Inconclusive, NoConvergence, NumericalFailure, SpeedlabError,
                             ValidationError)

from conftest import REPORT_TX_MEDIA, fixed_line_positions, load_strict_json, make_system

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def fisher_config(outdir, tasks=("speed",), **disc):
    discretization = {"nt": 200, "nx": 64}
    discretization.update(disc)
    return {
        "model": {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "1", "g1": "0", "g2": "0",
                  "b1": "1", "b2": "1", "a11": "1", "a12": "0", "a21": "0", "a22": "1"},
        "discretization": discretization,
        "tasks": list(tasks),
        "output": str(outdir),
    }


def read_report(outdir):
    """report.json parsed as strict JSON: NaN and +-Infinity are rejected."""
    with open(os.path.join(str(outdir), "report.json")) as fh:
        return load_strict_json(fh)


def test_minimal_fisher_speed_task(tmp_path):
    code = run_scenario(fisher_config(tmp_path / "out"), quiet=True)
    assert code == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert abs(rep["speed_report"]["certificates"]["H4"]["details"]["c1_plus"] - 2.0) <= 1e-3
    assert rep["status"] == "ok"


def test_failed_hypothesis_is_a_result_not_an_error(tmp_path):
    cfg = fisher_config(tmp_path / "out", tasks=("check",))
    cfg["model"]["b2"] = "-1"
    code = run_scenario(cfg, quiet=True)
    assert code == EXIT_OK
    rep = read_report(tmp_path / "out")
    h1 = rep["speed_report"]["certificates"]["H1"]
    assert h1["verdict"] == "fail"
    assert h1["margin"] == pytest.approx(-1.0, abs=1e-9)


def test_front_verdict_without_c0_says_the_speed_was_not_compared(tmp_path):
    # b2 = -1 fails H1, so the report has no c0: the verdict rests on the two
    # tails alone, and its notes say so
    cfg = {"model": {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "0.5", "g1": "0", "g2": "0",
                     "b1": "2", "b2": "-1", "a11": "1", "a12": "0.1", "a21": "1", "a22": "1"},
           "discretization": {"nt": 50, "nx": 16, "T": 20}, "tasks": ["front"],
           "output": str(tmp_path / "out")}
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    front = read_report(tmp_path / "out")["front"]
    assert front["verdict"] == "pass"
    assert front["c0"] is None and front["relative_gap"] is None
    assert "no nonzero c0: the fitted speed is not compared" in front["notes"]


def test_ellipticity_guard_is_a_validation_failure(tmp_path):
    cfg = fisher_config(tmp_path / "out")
    cfg["model"]["d1"] = "0"
    assert run_scenario(cfg, quiet=True) == EXIT_VALIDATION


@pytest.mark.parametrize("mutate", [
    lambda c: c.pop("model"),
    lambda c: c.pop("tasks"),
    lambda c: c.update(tasks=[]),
    lambda c: c.update(tasks=["speed", "bogus"]),
    lambda c: c.update(extra_key=1),
    lambda c: c["model"].pop("b1"),
    lambda c: c["model"].update(b1="sin("),
    lambda c: c["discretization"].update(dt=0.005),  # both nt and dt given
    lambda c: c["discretization"].update(T=0),
    # fronts whose window passes (behind + ahead)*nx = 10^6 cells: short
    # cells need more of them per length (past any finite count at 1e-310),
    # and a long run more room ahead
    lambda c: c.update(tasks=["front"], model={**c["model"], "ell": 1e-310}),
    lambda c: c.update(tasks=["front"], model={**c["model"], "ell": 1e-3}),
    lambda c: c.update(tasks=["front"], discretization={"nt": 200, "nx": 256, "T": 10**6}),
    lambda c: c["discretization"].update(T="abc"),
    lambda c: c["discretization"].update(T=2.7),
    lambda c: c["discretization"].update(T="25"),
    lambda c: c.update(discretization={"nt": 200, "dx": float("nan")}),
    # widths that leave fewer than two steps per period
    lambda c: c.update(discretization={"nx": 64, "dt": 0.9}),
    lambda c: c.update(discretization={"nt": 200, "dx": 0.9}),
    lambda c: c.update(discretization={"nt": 200, "dx": 5.0}),
    lambda c: c["model"].update(omega=True),
    # grids past the memory bounds, rejected before any field is built
    lambda c: c.update(discretization={"nx": 64, "dt": 1e-320}),  # period/dt overflows
    lambda c: c.update(discretization={"nx": 64, "dt": 1e-9}),
    lambda c: c["discretization"].update(nt=10**9),
    lambda c: c["discretization"].update(nx=10**9),
    lambda c: c["discretization"].update(nt=2, nx=4096),  # nt*nx is small, nx*nx is not
    # fronts past T = 10^6 periods, or with a line half width that is no longer
    # used (test_given_half_width_is_rejected_with_its_reason checks the reason)
    lambda c: c.update(tasks=["front"], discretization={"nt": 200, "nx": 64, "A": 1e15}),
    lambda c: c.update(tasks=["front"], discretization={"nt": 200, "nx": 64, "T": 10**9}),
    # fronts whose window fits but whose run passes T*nt*nodes = 10^10 node-steps
    lambda c: c.update(tasks=["front"], discretization={"nt": 200, "nx": 64, "T": 10**4}),
    lambda c: c.update(tasks=["front"], discretization={"nt": 200, "nx": 64, "T": 10**5}),
    # a constant division by zero is a non-finite sample, not a ZeroDivisionError
    lambda c: c["model"].update(b1="1/(1-1)"),
])
def test_validation_rejections(tmp_path, mutate):
    cfg = fisher_config(tmp_path / "out")
    mutate(cfg)
    with pytest.raises(ValidationError):
        ScenarioConfig(cfg)


@pytest.mark.parametrize("key, other", [("dt", "nx"), ("dx", "nt")])
def test_too_wide_a_step_is_rejected_by_its_own_key(tmp_path, key, other):
    # the user gave dt or dx, never nt or nx: the reason names the given key
    # and the step count it makes
    cfg = fisher_config(tmp_path / "out")
    cfg["discretization"] = {other: 16, key: 0.9}
    with pytest.raises(ValidationError, match=rf"^{key} = 0.9 makes 1 step\(s\) per period"):
        ScenarioConfig(cfg)


@pytest.mark.parametrize("half_width", [70.0, None])
def test_given_half_width_is_rejected_with_its_reason(tmp_path, half_width):
    # the key is refused, not ignored, even when it is null
    cfg = fisher_config(tmp_path / "out", tasks=("front",), A=half_width)
    assert run_scenario(cfg, quiet=True) == EXIT_VALIDATION
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "validation-failure"
    assert "co-moving window" in rep["reason"]


def test_fast_drifting_front_keeps_up_with_its_window(tmp_path):
    # the drift makes c0 = 7: the front crosses seven cells a period and the
    # window follows it without reaching the guard zone
    cfg = fisher_config(tmp_path / "out", tasks=("front",), nt=50, nx=8, T=12)
    cfg["model"]["g1"] = "5"
    # 12 periods leave 8 points for the fit, too few for a verdict
    assert run_scenario(cfg, quiet=True) == EXIT_INCONCLUSIVE
    rep = read_report(tmp_path / "out")
    assert rep["front"]["notes"][-1] == "8 points retained, need >= 10"
    with open(os.path.join(str(tmp_path / "out"), "front_trace.csv")) as fh:
        positions = [float(row["x_front"]) for row in csv.DictReader(fh)]
    assert len(positions) == 12

    sys = ScenarioConfig(cfg).system
    np.testing.assert_allclose(positions, fixed_line_positions(sys, 140.0, 12), rtol=0, atol=1e-9)
    assert positions[-1] > 7.0 * 12 - 10.0
    assert not frontsim.run_front(sys, 12).aborted


@pytest.mark.parametrize("model", [{}, {"d1": "0"}], ids=["valid", "invalid"])
@pytest.mark.parametrize("output", ["through-a-file", "nul-byte"])
def test_unwritable_output_is_a_validation_failure(tmp_path, capsys, model, output):
    # no report can be written there, so stderr carries the reason even when quiet
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "out" if output == "through-a-file" else tmp_path / "a\0b"
    cfg = fisher_config(path, nt=50, nx=8)
    cfg["model"].update(model)
    assert run_scenario(cfg, quiet=True) == EXIT_VALIDATION
    assert "cannot create output" in capsys.readouterr().err


def test_dt_dx_aliases(tmp_path):
    cfg = fisher_config(tmp_path / "out")
    del cfg["discretization"]["nt"], cfg["discretization"]["nx"]
    cfg["discretization"].update(dt=0.01, dx=1.0 / 32)
    sc = ScenarioConfig(cfg)
    assert sc.nt == 100 and sc.nx == 32


def test_dependency_closure_front_pulls_orbit_and_speed(tmp_path):
    cfg = fisher_config(tmp_path / "out", tasks=("front",),
                        nt=100, nx=32, T=16)
    code = run_scenario(cfg, quiet=True)
    assert code == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert rep["tasks"] == ["orbit", "speed", "front"]
    for name in ("orbit_u1.csv", "orbit_u2.csv", "front_trace.csv",
                 "final_snapshot.csv", "report.json"):
        assert os.path.exists(os.path.join(str(tmp_path / "out"), name))
    assert "speed_report" in rep and "front" in rep
    for name in ("orbit_u1.csv", "orbit_u2.csv", "front_trace.csv", "final_snapshot.csv"):
        with open(os.path.join(str(tmp_path / "out"), name)) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        for row in rows[1:]:
            assert len(row) == len(rows[0])
            for cell in row:
                float(cell)  # a plain number, not a numpy scalar repr


def test_front_without_crossing_is_inconclusive(tmp_path):
    # species 1 cannot invade (H2 fails), so the front dies out
    cfg = fisher_config(tmp_path / "out", tasks=("front",), nt=50, nx=16, T=20)
    cfg["model"].update(a12="3", a21="0.2")
    assert run_scenario(cfg, quiet=True) == EXIT_INCONCLUSIVE
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "inconclusive"
    assert rep["reason"].startswith("NoCrossing")


def test_reaction_too_stiff_for_the_time_grid_is_inconclusive(tmp_path):
    # b1 = 6 at nt = 20: dt * Lipschitz = 0.05 * (6 + 3 * 6) >= 1
    cfg = fisher_config(tmp_path / "out", tasks=("front",), nt=20, nx=16, T=2)
    cfg["model"]["b1"] = "6"
    assert run_scenario(cfg, quiet=True) == EXIT_INCONCLUSIVE
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "inconclusive"
    assert rep["reason"].startswith("StiffReaction")


def test_plain_value_error_is_not_inconclusive(tmp_path, monkeypatch):
    # a ValueError outside the named guards is a bug: it propagates instead
    # of being reported as an inconclusive run
    def broken_report(*args, **kwargs):
        raise ValueError("programming error")

    monkeypatch.setattr(cli, "compute_speed_report", broken_report)
    with pytest.raises(ValueError, match="programming error"):
        run_scenario(fisher_config(tmp_path / "out"), quiet=True)
    assert not os.path.exists(os.path.join(str(tmp_path / "out"), "report.json"))


def test_determinism_modulo_timestamp(tmp_path):
    cfg1 = fisher_config(tmp_path / "a")
    cfg2 = fisher_config(tmp_path / "b")
    assert run_scenario(cfg1, quiet=True) == EXIT_OK
    assert run_scenario(cfg2, quiet=True) == EXIT_OK
    rep1 = read_report(tmp_path / "a")
    rep2 = read_report(tmp_path / "b")
    rep1.pop("generated_at")
    rep2.pop("generated_at")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_cli_run_and_validate_commands(tmp_path):
    cfg = fisher_config(tmp_path / "out")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    runner = CliRunner()
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == EXIT_OK
    res = runner.invoke(main, ["run", str(path), "--quiet"])
    assert res.exit_code == EXIT_OK

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["run", str(bad)])
    assert res.exit_code == EXIT_VALIDATION
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == EXIT_VALIDATION

    # a constant 1/0 is rejected like any other non-finite sample, and run
    # still writes its report
    zero = fisher_config(tmp_path / "zero-out")
    zero["model"]["b1"] = "1/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(zero))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == EXIT_VALIDATION
    assert "invalid:" in res.output
    res = runner.invoke(main, ["run", str(path), "--quiet"])
    assert res.exit_code == EXIT_VALIDATION
    assert read_report(tmp_path / "zero-out")["status"] == "validation-failure"

    # not UTF-8, and JSON nested past the decoder's recursion limit
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(cfg).replace("speed", "sp\u00e9ed").encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for path in (latin1, deep):
        for command in (["run", str(path)], ["validate", str(path)]):
            res = runner.invoke(main, command)
            assert res.exit_code == EXIT_VALIDATION, command


@pytest.mark.parametrize("name, expr, error", [
    ("b1", "1/0", "non-finite value at grid node index (0, 0)"),
    ("a22", "1 +", "expected a value, found 'end of input' (at position 3)"),
])
def test_a_rejected_coefficient_is_named(tmp_path, name, expr, error):
    # with ten coefficients the reason must say which expression failed, on
    # validate's stderr and in the report that run writes
    cfg = fisher_config(tmp_path / "out")
    cfg["model"][name] = expr
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    reason = f"model rejected: {name}: {error}"
    runner = CliRunner()
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == EXIT_VALIDATION
    assert res.stderr == f"invalid: {reason}\n"
    res = runner.invoke(main, ["run", str(path), "--quiet"])
    assert res.exit_code == EXIT_VALIDATION
    report = read_report(tmp_path / "out")
    assert (report["status"], report["reason"]) == ("validation-failure", reason)


def test_demo_configs_all_validate():
    for name, cfg in DEMOS.items():
        ScenarioConfig(json.loads(json.dumps(cfg)))


def test_demo_command_prints_config():
    runner = CliRunner()
    res = runner.invoke(main, ["demo", "fisher"])
    assert res.exit_code == EXIT_OK
    assert json.loads(res.output)["model"]["b1"] == "1"


def test_demo_command_runs_fisher(tmp_path):
    runner = CliRunner()
    out = tmp_path / "demo-out"
    res = runner.invoke(main, ["demo", "fisher", "--run", "--output", str(out)])
    assert res.exit_code == EXIT_OK
    rep = read_report(out)
    assert abs(rep["speed_report"]["certificates"]["H4"]["details"]["c1_plus"] - 2.0) <= 1e-3
    assert rep["speed_report"]["certificates"]["H1"]["verdict"] == "pass"


def test_refine_flag_reports_discretization_estimate(tmp_path):
    cfg = {
        "model": {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "0.5", "g1": "0",
                  "g2": "0", "b1": "2", "b2": "1 + 0.5*sin(2*pi*t)", "a11": "1",
                  "a12": "0.3", "a21": "1.2", "a22": "1"},
        "discretization": {"nt": 200, "nx": 8},
        "tasks": ["speed"],
        "output": str(tmp_path / "out"),
    }
    assert run_scenario(cfg, refine=True, quiet=True) == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert abs(rep["speed_report"]["c0_plus"] - 2.0 * 1.7**0.5) < 1e-6
    assert any("discretization estimate" in n for n in rep["speed_report"]["notes"])


def test_guard_abort_maps_to_inconclusive_exit(tmp_path):
    # weinberger on a sub-monostable system: guard abort, exit 4, reason recorded
    cfg = fisher_config(tmp_path / "out", tasks=("weinberger",), nt=100, nx=16)
    cfg["model"]["b2"] = "-1"
    code = run_scenario(cfg, quiet=True)
    assert code == 4
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "inconclusive"
    assert "NotMonostable" in rep["reason"]


def test_lost_recursion_monotonicity_is_a_numerical_failure(tmp_path, monkeypatch):
    # an evolver that loses half its mass after the first period makes the
    # recursion iterate drop; the run ends with exit 3 and a report
    real_period = pde.LineSystemEvolver.period
    calls = []

    def leaky_period(self, v):
        calls.append(v)
        out = real_period(self, v)
        return out if len(calls) == 1 else 0.5 * out

    monkeypatch.setattr(pde.LineSystemEvolver, "period", leaky_period)
    cfg = fisher_config(tmp_path / "out", tasks=("weinberger",), nt=100, nx=16)
    assert run_scenario(cfg, quiet=True) == EXIT_NUMERICAL == 3
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "numerical-failure"
    assert rep["reason"].startswith("MonotonicityLost")
    assert len(calls) == 2


def _diverging_report(*args, **kwargs):
    raise NoConvergence("power iteration cap reached")


def _package_errors(base=SpeedlabError):
    for cls in base.__subclasses__():
        yield cls
        yield from _package_errors(cls)


def _raising(error):
    def broken_report(*args, **kwargs):
        raise error("injected")

    broken_report.error = error
    return broken_report


@pytest.mark.parametrize("code,status,model,tasks,broken_report", [
    (EXIT_OK, "ok", {}, ("speed",), None),
    (EXIT_VALIDATION, "validation-failure", {"d1": "0"}, ("speed",), None),
    (EXIT_NUMERICAL, "numerical-failure", {}, ("speed",), _diverging_report),
    (EXIT_INCONCLUSIVE, "inconclusive", {"b2": "-1"}, ("weinberger",), None),
] + [pytest.param(cls.exit_code, cls.status, {}, ("speed",), _raising(cls), id=cls.__name__)
     for cls in _package_errors()])
def test_every_exit_code_leaves_a_report_with_its_status(tmp_path, monkeypatch, code, status,
                                                         model, tasks, broken_report):
    if broken_report is not None:
        monkeypatch.setattr(cli, "compute_speed_report", broken_report)
    cfg = fisher_config(tmp_path / "out", tasks=tasks, nt=50, nx=8)
    cfg["model"].update(model)
    assert run_scenario(cfg, quiet=True) == code
    rep = read_report(tmp_path / "out")
    assert rep["status"] == status
    assert "generated_at" in rep
    assert ("reason" in rep) == (code != EXIT_OK)
    error = getattr(broken_report, "error", None)
    if error is not None:
        assert rep["reason"].startswith(f"{error.__name__}: ")


def test_every_package_error_derives_from_one_category():
    categories = (ValidationError, NumericalFailure, Inconclusive)
    for cls in _package_errors():
        assert sum(issubclass(cls, c) for c in categories) == 1, cls


@pytest.mark.parametrize("model", [
    {"b1": "2 + 0/(x - 0.0625)"},  # finite on the base grid, 0/0 on the doubled one
    {"a11": "1 + cos(2*pi*8*x)"},  # 2 on the base grid, 0 at odd nodes of the doubled one
    {"d1": "1 + cos(2*pi*8*x)"},
])
def test_model_rejected_on_the_refined_grid_is_a_validation_failure(tmp_path, model):
    cfg = fisher_config(tmp_path / "out", nt=50, nx=8)
    cfg["model"].update(model)
    assert run_scenario(cfg, refine=True, quiet=True) == EXIT_VALIDATION
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "validation-failure"


def test_eigen_task_writes_lambda_curve(tmp_path):
    cfg = fisher_config(tmp_path / "out", tasks=("eigen",), nt=100, nx=16)
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    path = os.path.join(str(tmp_path / "out"), "lambda_curve_species1.csv")
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "mu,lambda,residual,iterations"


def modules_after_import(module):
    """The names in sys.modules of a fresh process after `import module`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = f"import sys, {module}; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_import_leaves_scipy_stats_unloaded():
    # fit_speed takes its t quantile from scipy.special; scipy.stats costs
    # about half a second and 20 MB at import
    assert "scipy.stats" not in modules_after_import("speedlab")


@pytest.mark.parametrize("module", ["speedlab", "speedlab.cli"])
def test_import_leaves_scipy_optimize_unloaded(module):
    # the bounded Brent search is in-package; scipy.optimize costs about
    # 16 MB and 215 modules at import
    assert "scipy.optimize" not in modules_after_import(module)


def test_every_public_name_resolves():
    import speedlab
    assert [name for name in speedlab.__all__ if not hasattr(speedlab, name)] == []


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # the traced benchmark run wraps speedlab functions and methods by name;
    # a deleted or renamed one makes install() raise here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (cli.run_scenario, eigen.principal_of_map, pde.CellPeriodMap.__init__,
                 pde.CellPeriodMap.matrix)
    tracer = tracing.Tracer()
    monkeypatch.setattr(weinberger, "DEFAULT_CAP", 2)
    try:
        tracer.install()
        assert eigen.principal_of_map is not originals[1]
        # a tiny bracket and report must reach the layers through those names
        weinberger.bracket_speeds(make_system(nt=50, nx=8), (0.5, 1.0, 0))
        speeds.compute_speed_report(make_system(nt=50, nx=8))
        metrics = tracer.op_metrics([None])[None]
    finally:
        tracer.uninstall()
    for name in ("weinberger.candidates", "pde.line_period.calls", "eigen.solves",
                 "speeds.coupled_s"):
        assert metrics[name] > 0, name
    assert (cli.run_scenario, eigen.principal_of_map, pde.CellPeriodMap.__init__,
            pde.CellPeriodMap.matrix) == originals


def test_report_tx_media_on_a_coarse_grid_certify_in_full(tmp_path):
    # the benchmark's report-tx media at (50, 16): d1*mu^2 varies by +-100
    # over the cell at mu = 20, an ill-scaled solve; mu0 is about 1.3, so a
    # search that solves only the points Brent picks never goes there, and
    # the report finishes with every certificate
    cfg = {
        "model": {"omega": 1.0, "ell": 1.0,
                  "d1": "1 + 0.25*cos(2*pi*x)", "d2": "0.5",
                  "g1": "0.2*sin(2*pi*(x - t))", "g2": "0",
                  "b1": "2 + 0.5*cos(2*pi*x)", "b2": "1 + 0.5*sin(2*pi*t)",
                  "a11": "1", "a12": "0.3", "a21": "1.2", "a22": "1"},
        "discretization": {"nt": 50, "nx": 16},
        "tasks": ["check"],
        "output": str(tmp_path / "out"),
    }
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "ok"
    certs = rep["speed_report"]["certificates"]
    assert [certs[name]["verdict"] for name in ("H1", "H2", "D1", "D2")] == ["pass"] * 4


def test_every_report_solve_passes_the_benchmark_wrappers(monkeypatch):
    # the benchmark's residual probe wraps principal_of_map as a function of
    # the map alone and its tracer wraps CellPeriodMap.__init__ with this
    # signature; a solve that took another argument or went round them would
    # raise TypeError or hide its residual from the probe
    solved, built = [], []
    principal_of_map, init = eigen.principal_of_map, pde.CellPeriodMap.__init__

    def probe(pmap):
        result = principal_of_map(pmap)
        solved.append((pmap, result.residual))
        return result

    def traced_init(pmap, d, g, h, shift_mean=True):
        init(pmap, d, g, h, shift_mean)
        built.append(pmap)

    monkeypatch.setattr(eigen, "principal_of_map", probe)
    monkeypatch.setattr(pde.CellPeriodMap, "__init__", traced_init)
    report = speeds.compute_speed_report(make_system(**REPORT_TX_MEDIA))
    assert all(report.certificates[name].passed for name in ("H1", "H2", "D1", "D2"))
    assert len(solved) > 50
    # every solved map was built through the wrapper, by identity and in
    # order; the one map built and not solved is the coupled eigenfunction's
    # phi1 map, which marches the c0 minimization's psi(0) at mu0
    solved_maps = [pmap for pmap, _ in solved]
    unsolved = [pmap for pmap in built if all(pmap is not s for s in solved_maps)]
    assert len(unsolved) == 1
    assert [pmap for pmap in built if pmap is not unsolved[0]] == solved_maps
    assert max(residual for _, residual in solved) <= 1e-8


def test_eigen_task_starts_each_solve_of_the_curve_warm(tmp_path, monkeypatch):
    starts = []
    principal_of_map = eigen.principal_of_map

    def recorded(pmap):
        starts.append(pmap.start)
        return principal_of_map(pmap)

    monkeypatch.setattr(eigen, "principal_of_map", recorded)
    cfg = fisher_config(tmp_path / "out", tasks=("eigen",), nt=100, nx=16)
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    # species 1 and 2 alone, then the 15 points of the curve
    assert len(starts) == 17
    assert starts[2] is None and all(s is not None for s in starts[3:])


def test_fast_invader_speed_report_converges(tmp_path):
    # b1 = 30 puts the second species' tilted map at rho ~ e^29; on the
    # unit-scale map the power iteration converges and D1 is decided
    cfg = fisher_config(tmp_path / "out", nt=100, nx=16)
    cfg["model"]["b1"] = "30"
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "ok"
    speed = rep["speed_report"]
    assert speed["certificates"]["D1"]["verdict"] == "pass"
    # constant media: lambdabar = d2 mu0^2 + b2 - 2 a22 u2* with u2* = 1
    d1 = speed["certificates"]["D1"]["details"]
    assert d1["lambdabar"] == pytest.approx(d1["mu0"] ** 2 - 1.0, rel=1e-8)


def test_receding_species_gets_a_bracket_below_zero(tmp_path):
    # g1 = -3 drifts species 1 back at c0 = -1, so the candidates span
    # [-c_hi, c_hi] with c_hi = 1.2|c0| + 1; the line scheme's own speed
    # misses c0 on drift media, so only where the edges sit is pinned
    cfg = fisher_config(tmp_path / "out", tasks=("weinberger",), nt=50, nx=16)
    cfg["model"]["g1"] = "-3"
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "ok"
    assert rep["speed_report"]["c0_plus"] == pytest.approx(-1.0, abs=1e-3)
    for bracket in ("cstar", "cbar"):
        edges = rep["weinberger"][bracket]
        assert edges["lo"] is not None and edges["hi"] is not None
        assert -2.2 < edges["lo"] < edges["hi"] < 0.0
    tested = rep["weinberger"]["classifications"]
    assert [t["c"] for t in (tested[0], tested[-1])] == pytest.approx([-2.2, 2.2], abs=1e-3)
    ranks = [{"beta": 2, "intermediate": 1, "zero": 0}[t["class"]] for t in tested]
    assert ranks == sorted(ranks, reverse=True)  # classes fall monotonely along c


def test_overflowing_coupled_scale_is_a_numerical_failure(tmp_path):
    # d1 = 40, g1 = 1000 and omega = 5 put rho1 at exp(1053), past the float range
    cfg = fisher_config(tmp_path / "out", nt=50, nx=16)
    cfg["model"].update(DEMOS["competition-constants"]["model"],
                        d1="40", g1="1000", omega=5)
    assert run_scenario(cfg, quiet=True) == EXIT_NUMERICAL
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "numerical-failure"
    assert rep["reason"].startswith("NumericalFailure: coupled eigenfunction scale")


def test_nowhere_positive_growth_gives_the_extinct_orbit(tmp_path):
    # max b1 = 0 bounds lambda1 <= 0, though the solve rounds it to +4e-15
    cfg = fisher_config(tmp_path / "out", tasks=("orbit",), nt=50, nx=8)
    cfg["model"].update(b1="0", d1="1e-8", g1="1e-8", ell=0.25)
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "ok"
    assert rep["orbits"]["u1"] == {"extinct": True, "closure_gap": 0.0,
                                   "periods_marched": 0, "max": 0.0}


def test_ill_scaled_eigen_task_solves(tmp_path):
    # species 1's unit-scale root is about 6.0e8 at omega = 5, so the
    # residual's roundoff floor (about 2e-16*rho) is far above 1e-8 in
    # absolute terms; the solve stops on the enclosure and matches the dense
    # Perron root of the period map, 6.041655895193623
    cfg = fisher_config(tmp_path / "out", tasks=("eigen",))
    cfg["model"].update(omega=5, d1="0.01", b1="2 + 5*cos(2*pi*x)", a12="0.3", a21="1.2")
    assert run_scenario(cfg, quiet=True) == EXIT_OK
    rep = read_report(tmp_path / "out")
    assert rep["status"] == "ok"
    lam = rep["eigen"]["lambda_species1"]
    assert lam == pytest.approx(6.041655895193623, rel=1e-13)
    rho = np.exp((lam - 2.0) * 5)  # the unit-scale root: the map is shifted by mean b1 = 2
    assert 1e-8 < rep["eigen"]["residuals"][0] <= (eigen.POWER_TOL + 1e-15) * rho

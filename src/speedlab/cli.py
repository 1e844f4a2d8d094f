"""Scenario runner: JSON config in, report.json plus CSV artifacts out.

Exit codes: 0 completed (failed hypotheses are results, not errors), otherwise
the code of the error's category in errors.py; an inconclusive front exits as
Inconclusive does.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import datetime
import json
import math
import os

import click

from . import eigen, frontsim, orbits, pde, weinberger
from .errors import Inconclusive, NumericalFailure, SpeedlabError, ValidationError
from .speeds import FIELD_NAMES, SystemSpec, compute_speed_report

TASKS = ("eigen", "orbit", "speed", "check", "weinberger", "front")
_TASK_DEPS = {
    "eigen": set(),
    "orbit": set(),
    "speed": {"orbit"},
    "check": {"orbit"},
    "weinberger": {"orbit", "speed"},
    "front": {"orbit", "speed"},
}

EXIT_OK = 0
EXIT_VALIDATION = ValidationError.exit_code
EXIT_NUMERICAL = NumericalFailure.exit_code
EXIT_INCONCLUSIVE = Inconclusive.exit_code

# memory bounds: ten coefficient fields and the eigenfunctions hold nt*nx
# floats each and the dense monodromy of t-independent media (and of the
# coupled resolvent) nx*nx, checked before any field is built; the front's
# window has (behind + ahead)*nx cells and its trace T positions
MAX_GRID_NODES = 10**6
MAX_NX = 1024
# time bound: a front run steps its (behind + ahead)*nx + 1 window nodes
# T*nt times; 10^10 node-steps take 8 to 18 minutes on one core of a Xeon
# server (the demo's T = 20 is 1.4e7)
MAX_FRONT_NODE_STEPS = 10**10


class ScenarioConfig:
    """Validated scenario: system spec, discretization controls, task list."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        unknown = set(raw) - {"model", "discretization", "tasks", "output"}
        if unknown:
            raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")
        for key in ("model", "tasks", "output"):
            if key not in raw:
                raise ValidationError(f"missing top-level key {key!r}")

        model = raw["model"]
        if not isinstance(model, dict):
            raise ValidationError("model must be an object")
        missing = [n for n in ("omega", "ell", *FIELD_NAMES) if n not in model]
        if missing:
            raise ValidationError(f"model is missing {missing}")
        extra = set(model) - {"omega", "ell", *FIELD_NAMES}
        if extra:
            raise ValidationError(f"unknown model keys: {sorted(extra)}")
        self.omega = _positive_number(model, "omega")
        self.ell = _positive_number(model, "ell")

        disc = raw.get("discretization", {})
        if not isinstance(disc, dict):
            raise ValidationError("discretization must be an object")
        extra = set(disc) - {"nt", "nx", "dt", "dx", "T"}
        if extra:
            why = "; A is no longer used: the front runs on a fixed co-moving window"
            raise ValidationError(f"unknown discretization keys: {sorted(extra)}"
                                  + (why if "A" in extra else ""))
        self.nt = _resolve_steps(disc, "nt", "dt", self.omega, default=200)
        self.nx = _resolve_steps(disc, "nx", "dx", self.ell, default=64)
        if self.nx > MAX_NX or self.nt * self.nx > MAX_GRID_NODES:
            raise ValidationError(f"grid nt = {self.nt}, nx = {self.nx} is too large: "
                                  f"need nx <= {MAX_NX} and nt*nx <= {MAX_GRID_NODES:,}")
        self.periods = _integer(disc.get("T", 30), "T", least=1)
        if self.periods > MAX_GRID_NODES:
            raise ValidationError(f"T = {self.periods} is too large: need T <= {MAX_GRID_NODES:,}")

        tasks = raw["tasks"]
        if (not isinstance(tasks, list) or not tasks
                or any(t not in TASKS for t in tasks)):
            raise ValidationError(f"tasks must be a non-empty subset of {TASKS}")
        self.requested = list(dict.fromkeys(tasks))
        closure = set(self.requested)
        for t in self.requested:
            closure |= _TASK_DEPS[t]
        self.tasks = [t for t in TASKS if t in closure]

        self.output = raw["output"]
        if not isinstance(self.output, str) or not self.output:
            raise ValidationError("output must be a non-empty directory path")

        try:
            self.system = SystemSpec.from_expressions(
                {n: str(model[n]) for n in FIELD_NAMES},
                self.omega, self.ell, self.nt, self.nx)
        except ValidationError as exc:
            raise ValidationError(f"model rejected: {exc}") from exc
        if "front" in self.tasks:
            try:
                behind, ahead = frontsim.window_cells(self.system, self.periods)
            except OverflowError:  # cells so short that their count is not finite
                behind = ahead = math.inf
            if (behind + ahead) * self.nx > MAX_GRID_NODES:
                raise ValidationError(
                    f"the front's window is too large: {behind:.3g} cells behind and {ahead:.3g} "
                    f"ahead at nx = {self.nx}, need (behind + ahead)*nx <= {MAX_GRID_NODES:,}")
            node_steps = self.periods * self.nt * ((behind + ahead) * self.nx + 1)
            if node_steps > MAX_FRONT_NODE_STEPS:
                raise ValidationError(
                    f"the front run is too long: T = {self.periods} periods of nt = {self.nt} "
                    f"steps on {(behind + ahead) * self.nx + 1:,} nodes make {node_steps:.3g} "
                    f"node-steps, need T*nt*nodes <= {MAX_FRONT_NODE_STEPS:.0e}")


def _positive_number(obj, key):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
        raise ValidationError(f"{key} must be a positive number")
    return float(v)


def _integer(v, key, least):
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ValidationError(f"{key} must be an integer >= {least}")
    return v


def _resolve_steps(disc, count_key, width_key, period, default):
    if count_key in disc and width_key in disc:
        raise ValidationError(f"give either {count_key} or {width_key}, not both")
    if width_key not in disc:
        return _integer(disc.get(count_key, default), count_key, least=2)
    width = _positive_number(disc, width_key)
    steps = period / width
    if steps > MAX_GRID_NODES:
        raise ValidationError(f"{width_key} is too small: {steps:.3g} steps per period")
    if round(steps) < 2:
        raise ValidationError(f"{width_key} = {width:g} makes {round(steps)} step(s) per period "
                              f"of length {period:g}; need at least 2")
    return int(round(steps))


def run_scenario(config: dict, refine=False, quiet=False) -> int:
    """Execute the scenario; writes report.json and per-task CSVs.

    A config that fails validation still gets a report, with status
    "validation-failure", when its "output" is a non-empty string.  An output
    directory that cannot be created gets no report: the run exits as a
    validation failure with the reason on stderr, even when quiet.
    """
    def log(msg):
        if not quiet:
            click.echo(msg)

    try:
        cfg = ScenarioConfig(config)
    except ValidationError as exc:
        if not quiet:
            click.echo(f"validation failure: {exc}", err=True)
        output = config.get("output") if isinstance(config, dict) else None
        if isinstance(output, str) and output and _output_ready(output):
            _write_report(output, {"status": exc.status, "reason": str(exc)}, log)
        return exc.exit_code
    if not _output_ready(cfg.output):
        return EXIT_VALIDATION

    report = {
        "tasks": cfg.tasks,
        "requested_tasks": cfg.requested,
        "status": "ok",
    }
    status = EXIT_OK
    sys_spec = cfg.system
    try:
        speed_report = None
        for task in cfg.tasks:
            log(f"[{task}]")
            if task == "orbit":
                report["orbits"] = _task_orbit(cfg, sys_spec)
            elif task == "eigen":
                report["eigen"] = _task_eigen(cfg, sys_spec)
            elif task in ("speed", "check"):
                if speed_report is None:
                    speed_report = compute_speed_report(sys_spec, refine=refine)
                    report["speed_report"] = speed_report.to_dict()
            elif task == "weinberger":
                report["weinberger"] = _task_weinberger(cfg, sys_spec, speed_report)
            elif task == "front":
                frag, inconclusive = _task_front(cfg, sys_spec, speed_report)
                report["front"] = frag
                if inconclusive:
                    status = max(status, EXIT_INCONCLUSIVE)
    except SpeedlabError as exc:
        report["status"] = exc.status
        report["reason"] = f"{type(exc).__name__}: {exc}"
        status = exc.exit_code

    _write_report(cfg.output, report, log)
    return status


def _output_ready(output):
    """Create the output directory; False, with the reason on stderr, if it cannot be."""
    try:
        os.makedirs(output, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        click.echo(f"validation failure: cannot create output {output!r}: {exc}", err=True)
        return False
    return True


def _write_report(output, report, log):
    report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    path = os.path.join(output, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log(f"report written to {path}")


def _task_orbit(cfg, sys_spec):
    frag = {}
    for name, orbit in (("u1", sys_spec.u1_star()), ("u2", sys_spec.u2_star())):
        orbits.dump_orbit_csv(os.path.join(cfg.output, f"orbit_{name}.csv"), orbit)
        frag[name] = {"extinct": orbit.extinct, "closure_gap": orbit.closure_gap,
                      "periods_marched": orbit.periods_marched,
                      "max": orbit.max()}
    return frag


def _task_eigen(cfg, sys_spec):
    lam1, lam2 = sys_spec.species1_eigen(), sys_spec.species2_eigen()
    mus = [round(0.1 + 0.2 * k, 10) for k in range(15)]
    curve = eigen.lambda_curve(sys_spec.d1, sys_spec.g1, sys_spec.b1)
    results = [curve(mu) for mu in mus]
    eigen.write_lambda_curve(os.path.join(cfg.output, "lambda_curve_species1.csv"),
                             mus, results)
    return {"lambda_species1": lam1.lam, "lambda_species2": lam2.lam,
            "residuals": [lam1.residual, lam2.residual]}


def _task_weinberger(cfg, sys_spec, speed_report):
    c0 = speed_report.c0_plus
    if c0 is None:  # H1 or H2 failed: the recursion raises NotMonostable before any run
        c0 = 0.0
    c_hi = 1.2 * abs(c0) + 1.0
    c_lo = -c_hi if c0 < 0.0 else 0.0  # a receding species is bracketed below 0 too
    cstar, cbar = weinberger.bracket_speeds(
        sys_spec, (c_lo, c_hi, weinberger.DEFAULT_BISECTION_STEPS))
    weinberger.dump_bracket_trace_csv(os.path.join(cfg.output, "bracket_trace.csv"),
                                      cstar.trace)
    for label, c_edge in (("lo", cstar.c_lo), ("hi", cstar.c_hi)):
        if c_edge in cstar.profiles:
            weinberger.dump_profile_csv(os.path.join(cfg.output, f"profile_cstar_{label}.csv"),
                                        cstar.profiles[c_edge])
    def edge(c):  # an open edge is infinite, which strict JSON cannot hold
        return None if math.isinf(c) else c
    return {
        "cstar": {"lo": edge(cstar.c_lo), "hi": edge(cstar.c_hi)},
        "cbar": {"lo": edge(cbar.c_lo), "hi": edge(cbar.c_hi)},
        "classifications": [{"c": c, "class": cls} for c, cls, _, _ in cstar.trace],
    }


def _task_front(cfg, sys_spec, speed_report):
    trace = frontsim.run_front(sys_spec, cfg.periods)
    frontsim.dump_trace_csv(os.path.join(cfg.output, "front_trace.csv"), trace)
    if trace.final_state is not None:
        pde.dump_snapshot_csv(os.path.join(cfg.output, "final_snapshot.csv"),
                              trace.final_state)
    verdict = frontsim.spreading_verdict(sys_spec, trace, speed_report.c0_plus)
    return verdict.to_dict(), verdict.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------

DEMOS = {
    "fisher": {
        "model": {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "1", "g1": "0", "g2": "0",
                  "b1": "1", "b2": "1", "a11": "1", "a12": "0", "a21": "0", "a22": "1"},
        "discretization": {"nt": 200, "nx": 64, "T": 20},
        "tasks": ["speed", "check"],
        "output": "out-fisher",
    },
    "competition-constants": {
        "model": {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "0.5", "g1": "0", "g2": "0",
                  "b1": "2", "b2": "1", "a11": "1", "a12": "0.3", "a21": "1.2", "a22": "1"},
        "discretization": {"nt": 200, "nx": 64, "T": 20},
        "tasks": ["speed", "check", "front"],
        "output": "out-competition-constants",
    },
    "competition-periodic": {
        "model": {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "0.5", "g1": "0", "g2": "0",
                  "b1": "2", "b2": "1 + 0.5*sin(2*pi*t)", "a11": "1", "a12": "0.3",
                  "a21": "1.2", "a22": "1"},
        "discretization": {"nt": 200, "nx": 8, "T": 20},
        "tasks": ["orbit", "speed", "check"],
        "output": "out-competition-periodic",
    },
    "shared-growth": {
        "model": {"omega": 1.0, "ell": 1.0, "d1": "0.25", "d2": "2.5", "g1": "0", "g2": "0",
                  "b1": "1 + 0.5*cos(2*pi*x) + 0.25*sin(2*pi*t)",
                  "b2": "1 + 0.5*cos(2*pi*x) + 0.25*sin(2*pi*t)",
                  "a11": "1", "a12": "1", "a21": "1", "a22": "1"},
        "discretization": {"nt": 200, "nx": 64},
        "tasks": ["orbit", "check"],
        "output": "out-shared-growth",
    },
}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Spreading speeds for time-space periodic reaction-advection-diffusion systems."""


def _read_config(config_path):
    """The JSON in a config file; a file that is not UTF-8 JSON exits 2."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        click.echo(f"validation failure: not a UTF-8 JSON file: {exc}", err=True)
        raise SystemExit(EXIT_VALIDATION)


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--refine", is_flag=True, help="Richardson grid-doubling study for c0.")
@click.option("--quiet", is_flag=True, help="Suppress progress output.")
def cmd_run(config_path, refine, quiet):
    """Execute a scenario config."""
    raise SystemExit(run_scenario(_read_config(config_path), refine=refine, quiet=quiet))


@main.command("validate")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def cmd_validate(config_path):
    """Validate a scenario config without running it."""
    try:
        ScenarioConfig(_read_config(config_path))
    except ValidationError as exc:
        click.echo(f"invalid: {exc}", err=True)
        raise SystemExit(exc.exit_code)
    click.echo("ok")
    raise SystemExit(EXIT_OK)


@main.command("demo")
@click.argument("name", type=click.Choice(sorted(DEMOS)))
@click.option("--run", "execute", is_flag=True, help="Run the demo after writing it.")
@click.option("--output", default=None, help="Override the demo's output directory.")
def cmd_demo(name, execute, output):
    """Print (or run) one of the shipped demo scenarios."""
    cfg = json.loads(json.dumps(DEMOS[name]))
    if output:
        cfg["output"] = output
    if not execute:
        click.echo(json.dumps(cfg, indent=2, sort_keys=True))
        raise SystemExit(EXIT_OK)
    raise SystemExit(run_scenario(cfg))


if __name__ == "__main__":
    main()

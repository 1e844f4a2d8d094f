"""Workload instances, operations and correctness checks of the speedlab benchmark.

Every workload is a closed loop of one operation, driven from its seed:

* ``report-tx``: ``compute_speed_report`` on a time-and-space periodic
  competition instance (nt=200, nx=64).  Every eigenproblem depends on t, so
  the nt-step monodromy assembly dominates.
* ``demo-constants``: ``run_scenario`` on the shipped
  ``competition-constants`` demo (speed, check and front), the path users run,
  including the CSV and ``report.json`` writers.
* ``bracket-constants``: ``bracket_speeds`` on the constants competition
  instance with a three-step bisection; the line evolver at small N over many
  recursion periods.

Seed 0 gives exactly the instances above.  Other seeds vary the instance
inside ranges where the same correctness checks hold.  This module imports
speedlab only inside functions, so the parent process stays light.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import shutil
import tempfile

GRID = {"omega": 1.0, "ell": 1.0, "nt": 200, "nx": 64}
CONSTANTS = {"d1": "1", "d2": "0.5", "g1": "0", "g2": "0", "b1": "2", "b2": "1",
             "a11": "1", "a12": "0.3", "a21": "1.2", "a22": "1"}
REPORT_TX = {"d1": "1 + 0.25*cos(2*pi*x)", "d2": "0.5",
             "g1": "0.2*sin(2*pi*(x - t))", "g2": "0",
             "b1": "2 + 0.5*cos(2*pi*x)", "b2": "1 + 0.5*sin(2*pi*t)",
             "a11": "1", "a12": "0.3", "a21": "1.2", "a22": "1"}

A12_RANGE = (0.2, 0.4)
# report-tx seeds map onto this many instances, each with a recorded c0
REPORT_VARIANTS = 16
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
C0_REL_TOL = 1e-6
RESIDUAL_TOL = 1e-8

# Seed-0 bisection (c_lo, c_hi, steps) and the default domain half width it
# implies.  Other seeds scale c_hi with the closed-form c* = 2*sqrt(2 - a12), so
# every candidate keeps its distance to c* (one candidate stays near-critical
# and runs to the recursion cap) and the work per operation stays the same.
BISECTION = (0.0, 4.2, 3)
BRACKET_HALF_WIDTH = 19.0
# classifications must not rise along increasing c
CLASS_RANK = {"beta": 2, "intermediate": 1, "zero": 0}


def report_tx_exprs(seed: int) -> dict:
    """Coefficient expressions of the report-tx instance for `seed`.

    Variant 0 is the reference instance.  The others draw the amplitudes and
    phases of d1, g1, b1 and b2 from ranges on which H1, H2, D1 and D2 pass
    (``make_reference.py`` verifies each variant).
    """
    variant = seed % REPORT_VARIANTS
    if variant == 0:
        return dict(REPORT_TX)
    rng = random.Random(f"report-tx:{variant}")

    def draw(lo, hi):
        return f"{rng.uniform(lo, hi):.4f}"

    exprs = dict(REPORT_TX)
    exprs["d1"] = f"1 + {draw(0.15, 0.35)}*cos(2*pi*(x + {draw(0, 1)}))"
    exprs["g1"] = f"{draw(0.1, 0.3)}*sin(2*pi*(x - t + {draw(0, 1)}))"
    exprs["b1"] = f"2 + {draw(0.3, 0.7)}*cos(2*pi*(x + {draw(0, 1)}))"
    exprs["b2"] = f"1 + {draw(0.3, 0.7)}*sin(2*pi*(t + {draw(0, 1)}))"
    return exprs


def constants_a12(seed: int) -> float:
    """Competition coefficient a12 of the constants instances for `seed`."""
    if seed == 0:
        return 0.3
    return round(random.Random(f"constants:{seed}").uniform(*A12_RANGE), 4)


def closed_form_c0(a12: float) -> float:
    """c0 = 2*sqrt(d1*(b1 - a12*u2*)) with d1 = 1, b1 = 2 and u2* = 1."""
    return 2.0 * math.sqrt(2.0 - a12)


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return {int(k): v for k, v in json.load(fh)["c0"].items()}


def build_system(exprs):
    from speedlab import SystemSpec
    return SystemSpec.from_expressions(exprs, GRID["omega"], GRID["ell"],
                                       GRID["nt"], GRID["nx"])


class ResidualProbe:
    """Largest ``EigenResult.residual`` of the current operation.

    Wraps ``eigen.principal_of_map``, through which every eigen solve of the
    package returns, and reads the residual off the returned object.
    """

    def __init__(self):
        from speedlab import eigen
        self.worst = 0.0
        inner = eigen.principal_of_map

        def principal_of_map(pmap):
            result = inner(pmap)
            self.worst = max(self.worst, result.residual)
            return result

        eigen.principal_of_map = principal_of_map


class Workload:
    """One operation type: set up, run once, check the result."""

    name = ""

    def setup(self):
        """Import speedlab and build the validated system (what set-up time covers)."""
        raise NotImplementedError

    def prepare(self, workdir):
        """Untimed preparation before one operation."""

    def run(self):
        raise NotImplementedError

    def check(self, result, probe) -> list:
        """Problems found in the operation's output (empty when correct)."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Untimed cleanup; returns counters read off the operation's output."""
        return {}


class ReportTx(Workload):
    name = "report-tx"

    def __init__(self, seed):
        self.exprs = report_tx_exprs(seed)
        self.reference = load_references()[seed % REPORT_VARIANTS]

    def setup(self):
        return build_system(self.exprs)

    def run(self):
        from speedlab import speeds
        return speeds.compute_speed_report(build_system(self.exprs))

    def check(self, report, probe):
        problems = [f"{name} is {report.certificates[name].verdict}"
                    for name in ("H1", "H2", "D1", "D2")
                    if not report.certificates[name].passed]
        if probe.worst > RESIDUAL_TOL:
            problems.append(f"eigen residual {probe.worst:.3g} > {RESIDUAL_TOL:g}")
        c0 = report.c0_plus
        if c0 is None or abs(c0 - self.reference) > C0_REL_TOL * abs(self.reference):
            problems.append(f"c0 {c0!r} differs from the reference {self.reference!r}")
        return problems


class DemoConstants(Workload):
    name = "demo-constants"

    def __init__(self, seed):
        self.a12 = constants_a12(seed)
        self.outdir = None

    def _config(self, output):
        from speedlab import cli
        cfg = copy.deepcopy(cli.DEMOS["competition-constants"])
        cfg["model"]["a12"] = str(self.a12)
        cfg["output"] = output
        return cfg

    def setup(self):
        from speedlab import cli
        return cli.ScenarioConfig(self._config("unused"))

    def prepare(self, workdir):
        self.outdir = tempfile.mkdtemp(prefix="demo-", dir=workdir)

    def run(self):
        from speedlab import cli
        return cli.run_scenario(self._config(self.outdir), quiet=True)

    def check(self, status, probe):
        if status != 0:
            return [f"run_scenario exited {status}"]
        with open(os.path.join(self.outdir, "report.json")) as fh:
            report = json.load(fh)
        problems = []
        if report["status"] != "ok":
            problems.append(f"status {report['status']!r}")
        c0 = report["speed_report"]["c0_plus"]
        expected = closed_form_c0(self.a12)
        if c0 is None or abs(c0 - expected) > 1e-3:
            problems.append(f"c0 {c0!r} is not within 1e-3 of {expected!r}")
        front = report["front"]
        if front["verdict"] != "pass":
            problems.append(f"front verdict {front['verdict']!r}")
        gap = front["relative_gap"]
        if gap is None or not gap < 0.05:
            problems.append(f"front relative gap {gap!r} is not below 5%")
        return problems

    def finish(self):
        written = sum(entry.stat().st_size for entry in os.scandir(self.outdir))
        shutil.rmtree(self.outdir)
        return {"write_bytes": written}


class BracketConstants(Workload):
    name = "bracket-constants"

    def __init__(self, seed):
        self.a12 = constants_a12(seed)
        self.exprs = dict(CONSTANTS, a12=str(self.a12))
        c_lo, c_hi, steps = BISECTION
        scale = closed_form_c0(self.a12) / closed_form_c0(0.3)
        self.bisection = (c_lo, round(c_hi * scale, 4), steps)

    def setup(self):
        return build_system(self.exprs)

    def run(self):
        from speedlab import weinberger
        return weinberger.bracket_speeds(build_system(self.exprs), self.bisection,
                                         A=BRACKET_HALF_WIDTH)

    def check(self, brackets, probe):
        cstar, _ = brackets
        problems = []
        expected = closed_form_c0(self.a12)
        if not cstar.contains(expected):
            problems.append(f"c* bracket [{cstar.c_lo}, {cstar.c_hi}] misses {expected!r}")
        ranks = [CLASS_RANK[cls] for _, cls, *_ in cstar.trace]
        if any(later > earlier for earlier, later in zip(ranks, ranks[1:])):
            problems.append("classification trace is not monotone in c")
        return problems


_CLASSES = {cls.name: cls for cls in (ReportTx, DemoConstants, BracketConstants)}


def make(name: str, seed: int) -> Workload:
    return _CLASSES[name](seed)

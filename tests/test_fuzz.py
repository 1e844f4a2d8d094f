"""Random scenario configs through run_scenario: every run ends in a report.

The grammar draws each coefficient from eleven constants, -3 to 1e3 with
1e-8 among them, often with one of six periodic waveforms, and takes
omega, ell, nt, nx and T from small sets, with 1-3 tasks.  Many draws
stop on validation or on a documented verdict (StiffReaction,
NotMonostable, an overflowing march, ...); what is checked is that none
ends in a traceback, and that each writes a strict-JSON report.json whose
status goes with its exit code.
"""

import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from speedlab.cli import (EXIT_INCONCLUSIVE, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, TASKS,
                          run_scenario)
from speedlab.speeds import FIELD_NAMES

from conftest import load_strict_json

CONSTANTS = ("-3", "-1", "0", "1e-8", "1e-3", "0.1", "0.5", "1", "2", "10", "1e3")
WAVEFORMS = ("sin(2*pi*(x - t))", "cos(2*pi*x)", "sin(2*pi*t)", "exp(cos(2*pi*x))",
             "cos(2*pi*(x + t))", "0.5*sin(4*pi*x)*cos(2*pi*t)")
POSITIVE = tuple(c for c in CONSTANTS if float(c) > 0)
# validation needs d1, d2, a11 and a22 positive and a12, a21 nonnegative:
# those fields draw from the constants of that sign and take their waveform
# as the factor exp(wave), so that most draws run rather than fail validation
SIGNED = {"d1": POSITIVE, "d2": POSITIVE, "a11": POSITIVE, "a22": POSITIVE,
          "a12": ("0", *POSITIVE), "a21": ("0", *POSITIVE)}
# (exit code, report status) pairs that cli documents; an inconclusive front
# exits 4 with the report's status still "ok"
DOCUMENTED = {(EXIT_OK, "ok"), (EXIT_INCONCLUSIVE, "ok"),
              (EXIT_VALIDATION, "validation-failure"),
              (EXIT_NUMERICAL, "numerical-failure"),
              (EXIT_INCONCLUSIVE, "inconclusive")}


def coefficient(signed=None):
    """A constant, or a constant with a waveform added; a signed field draws
    from its own constants and takes the waveform as the factor exp(wave)."""
    shape = "{} + {}" if signed is None else "{}*exp({})"
    return st.builds(lambda c, wave: c if wave is None else shape.format(c, wave),
                     st.sampled_from(signed or CONSTANTS),
                     st.one_of(st.none(), st.sampled_from(WAVEFORMS)))


configs = st.fixed_dictionaries({
    "model": st.fixed_dictionaries({
        "omega": st.sampled_from([0.1, 1.0, 5.0]),
        "ell": st.sampled_from([0.25, 1.0, 4.0]),
        **{name: coefficient(SIGNED.get(name)) for name in FIELD_NAMES}}),
    "discretization": st.fixed_dictionaries({
        "nt": st.sampled_from([8, 20, 50]),
        "nx": st.sampled_from([4, 8, 16]),
        "T": st.sampled_from([1, 3, 12])}),
    "tasks": st.lists(st.sampled_from(TASKS), min_size=1, max_size=3),
})


def _competition(T=3, **model):
    """A front run of T periods on competition constants, over `model`."""
    base = {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "0.5", "g1": "0", "g2": "0",
            "b1": "2", "b2": "1", "a11": "1", "a12": "0.1", "a21": "1", "a22": "1"}
    return {"model": dict(base, **model), "discretization": {"nt": 50, "nx": 16, "T": T},
            "tasks": ["front"]}


# random draws rarely get past the bracket and front preconditions, so
# pinned draws run the line solve: drift-free media solve it by dpttrs, and
# g1 = 2 over d1 = 0.1 on the front's 881-node window spreads the
# symmetrizing scale far past pde.MAX_SCALE_SPREAD, so that medium by dgttrs;
# an extinct species 2 (b2 = -1) run long enough for the verdict's fit (the
# grammar's T <= 12 leaves fewer than 10 points) must not divide by u2* = 0;
# and a constant 1/0 must be a validation failure, not a ZeroDivisionError
@example(config=_competition())
@example(config=_competition(d1="0.1", g1="2"))
@example(config=_competition(T=20, b2="-1"))
@example(config=_competition(b1="1/0"))
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs)
def test_every_random_config_ends_in_a_documented_report(config):
    with tempfile.TemporaryDirectory() as out:
        code = run_scenario(dict(config, output=out), quiet=True)
        with open(os.path.join(out, "report.json")) as fh:
            report = load_strict_json(fh)
    assert (code, report["status"]) in DOCUMENTED
    assert ("reason" in report) == (report["status"] != "ok")

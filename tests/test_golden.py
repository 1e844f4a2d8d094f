"""Golden numbers for the four shipped demos and the recursion brackets.

Each case's `report.json` (less `generated_at`) and, for every CSV it writes,
the header, the row count and each numeric column's min, max and sum (a label
column: its values) are compared with `golden/demos.json` at rel 1e-9 /
abs 1e-10.  The abs term covers roundoff-level residuals (about 1e-12) that
differ across BLAS builds.  No demo runs the weinberger task, so the coarse
Fisher model runs it as a fifth case.

Regenerate the golden file (only when a change is meant to move the numbers):

    PYTHONPATH=src python tests/test_golden.py tests/golden/demos.json
"""

import json
import math
import os
import sys

import pytest

from speedlab.cli import DEMOS, run_scenario

from conftest import load_strict_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "demos.json")
REL, ABS = 1e-9, 1e-10
WEINBERGER = {
    "model": {"omega": 1.0, "ell": 1.0, "d1": "1", "d2": "1", "g1": "0", "g2": "0",
              "b1": "1", "b2": "1", "a11": "1", "a12": "0", "a21": "0", "a22": "1"},
    "discretization": {"nt": 100, "nx": 16},
    "tasks": ["weinberger"],
}
CASES = {**DEMOS, "weinberger-fisher": WEINBERGER}


def summarize(output):
    """report.json, parsed as strict JSON, less generated_at, and a summary of
    each CSV in `output`."""
    with open(os.path.join(output, "report.json")) as fh:
        report = load_strict_json(fh)
    report.pop("generated_at")
    csvs = {}
    for name in sorted(os.listdir(output)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(output, name)) as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = [line.rstrip("\n").split(",") for line in fh]
        columns = {col: _column([r[k] for r in rows]) for k, col in enumerate(header)}
        csvs[name] = {"header": header, "rows": len(rows), "columns": columns}
    return {"report": report, "csv": csvs}


def _column(cells):
    try:
        xs = [float(c) for c in cells]
    except ValueError:  # a label column, such as bracket_trace.csv's classification
        return {"values": cells}
    return {"min": min(xs), "max": max(xs), "sum": math.fsum(xs)}


def run_case(name, output):
    cfg = json.loads(json.dumps(CASES[name]))
    cfg["output"] = str(output)
    status = run_scenario(cfg, quiet=True)
    return status, summarize(output)


def assert_close(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=REL, abs_tol=ABS), f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def check_case(name, golden, tmp_path):
    status, summary = run_case(name, tmp_path / name)
    assert status == golden[name]["status"]
    assert_close(summary, golden[name]["summary"])


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_matches_golden(name, golden, tmp_path):
    check_case(name, golden, tmp_path)


def test_weinberger_task_matches_golden(golden, tmp_path):
    check_case("weinberger-fisher", golden, tmp_path)


if __name__ == "__main__":
    import tempfile

    data = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            status, summary = run_case(name, os.path.join(tmp, name))
            data[name] = {"status": status, "summary": summary}
    with open(sys.argv[1], "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")

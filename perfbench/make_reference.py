"""Record the reference c0 of every report-tx instance in reference.json.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a source checkout at the commit whose numbers become
the reference.  Each instance must pass H1, H2, D1 and D2 with every eigen
residual within the contract; the script stops on the first one that does
not.
"""

from __future__ import annotations

import json
import sys

import workloads


def main():
    from speedlab import speeds
    probe = workloads.ResidualProbe()
    references = {}
    for variant in range(workloads.REPORT_VARIANTS):
        probe.worst = 0.0
        exprs = workloads.report_tx_exprs(variant)
        report = speeds.compute_speed_report(workloads.build_system(exprs))
        margins = {name: report.certificates[name].margin
                   for name in ("H1", "H2", "D1", "D2")}
        print(variant, report.c0_plus, margins, probe.worst, flush=True)
        failing = [name for name in margins if not report.certificates[name].passed]
        if failing or probe.worst > workloads.RESIDUAL_TOL:
            sys.exit(f"variant {variant} fails {failing}, residual {probe.worst:.3g}")
        references[str(variant)] = report.c0_plus
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump({"c0": references}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

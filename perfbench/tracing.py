"""Layer spans and counters for the traced benchmark run.

The tracer wraps each speedlab layer's public functions and methods from
outside the package.  A function is replaced in every speedlab module that
binds it, and a method on its class, so internal calls through those names
are caught as well.  Each call records a span: name, start, end, parent span
and operation id.  Counters are read off the returned objects (iterations,
evaluations, periods marched, series terms, cap flags, residuals).  Spans stay
in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, operation id]
        self.op = None
        self._stack = []
        self._counters = defaultdict(Counter)
        self._unique = defaultdict(set)  # operation -> eigenproblem hashes
        self._map_keys = weakref.WeakKeyDictionary()  # CellPeriodMap -> hash
        self._undo = []

    def count(self, **amounts):
        """Add to the current operation's counters."""
        self._counters[self.op].update(amounts)

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, counters=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if counters is not None:
                counters(self, result, *args)
            return result
        return wrapped

    def _replace(self, owner, attr, wrapped):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def wrap_function(self, name, fn, counters=None):
        wrapped = self._span(name, fn, counters)
        for module in [m for key, m in sys.modules.items()
                       if key == "speedlab" or key.startswith("speedlab.")]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapped)

    def wrap_method(self, name, cls, attr, counters=None):
        self._replace(cls, attr, self._span(name, getattr(cls, attr), counters))

    def install(self):
        from speedlab import cli, coeffs, eigen, frontsim, orbits, pde, speeds, weinberger

        fn = self.wrap_function
        fn("cli.scenario", cli.run_scenario)
        for dump in (orbits.dump_orbit_csv, eigen.write_lambda_curve,
                     weinberger.dump_bracket_trace_csv, weinberger.dump_profile_csv,
                     frontsim.dump_trace_csv, pde.dump_snapshot_csv):
            fn("cli.write", dump)
        # report.json is written with json.dump, which only cli calls
        self._replace(json, "dump", self._span("cli.write", json.dump))
        fn("coeffs.fields", coeffs.build_field)

        cell = pde.CellPeriodMap
        self.wrap_method("pde.cell_assemble", cell, "matrix")
        for attr in ("snapshots", "snapshots_with_source", "apply_with_source", "apply"):
            self.wrap_method("pde.cell_march", cell, attr)
        self.wrap_method("pde.line_period", pde.LineSystemEvolver, "period",
                         lambda t, r, ev, *a: t.count(line_steps=ev.nt,
                                                      line_node_steps=ev.nt * ev.n_nodes))
        self._hash_maps(cell)

        fn("eigen.solve", eigen.principal_of_map, Tracer._solved)
        fn("eigen.lambda_of_mu", eigen.lambda_of_mu)
        fn("orbits.orbit", orbits.logistic_orbit,
           lambda t, r, *a: t.count(periods_marched=r.periods_marched))
        fn("speeds.minimize", speeds.minimize_speed,
           lambda t, r, *a: t.count(minimize_evals=r.evaluations))
        fn("speeds.coupled", speeds.coupled_eigenfunction,
           lambda t, r, *a: t.count(coupled_terms=r.series_terms))
        fn("speeds.report", speeds.compute_speed_report)
        fn("weinberger.recursion", weinberger.recursion_limit,
           lambda t, r, *a: t.count(recursion_periods=r.iterations,
                                    cap_hits=int(r.cap_reached)))
        fn("frontsim.front", frontsim.run_front,
           lambda t, r, *a: t.count(front_periods=r.n_points))
        fn("frontsim.verdict", frontsim.spreading_verdict)

    def _hash_maps(self, cls):
        """Key each CellPeriodMap by a hash of the (d, g, h, shift_mean) it was built from."""
        init = cls.__init__

        @functools.wraps(init)
        def __init__(pmap, d, g, h, shift_mean=True):
            init(pmap, d, g, h, shift_mean)
            digest = hashlib.blake2b(str(bool(shift_mean)).encode(), digest_size=16)
            for field in (d, g, h):
                digest.update(field.values.tobytes())
            self._map_keys[pmap] = digest.hexdigest()

        self._replace(cls, "__init__", __init__)

    def _solved(self, result, pmap):
        self._unique[self.op].add(self._map_keys.get(pmap))
        counters = self._counters[self.op]
        counters["power_iterations"] += result.iterations
        counters["max_residual"] = max(counters["max_residual"], result.residual)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)

    def op_metrics(self, ops):
        """Per-layer metrics of each operation in `ops`, keyed by operation id."""
        covered = defaultdict(float)  # span index -> time its children cover
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total = defaultdict(lambda: defaultdict(float))
        self_time = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(Counter)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            total[op][name] += end - start
            self_time[op][name] += end - start - covered[index]
            calls[op][name] += 1
        return {op: _layer_metrics(total[op], self_time[op], calls[op],
                                   self._counters[op], len(self._unique[op]))
                for op in ops}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _layer_metrics(total, self_time, calls, c, unique):
    return {
        "cli.scenario_s": total["cli.scenario"],
        "cli.write_s": total["cli.write"],
        "cli.write_bytes": c["write_bytes"],
        "coeffs.fields_s": total["coeffs.fields"],
        "pde.cell_assemble.calls": calls["pde.cell_assemble"],
        "pde.cell_assemble_s": total["pde.cell_assemble"],
        "pde.cell_march.calls": calls["pde.cell_march"],
        "pde.cell_march_s": total["pde.cell_march"],
        "pde.line_period.calls": calls["pde.line_period"],
        "pde.line_period_s": total["pde.line_period"],
        "pde.line_nodes": _ratio(c["line_node_steps"], c["line_steps"]),
        "pde.line_node_steps_per_s": _ratio(c["line_node_steps"], total["pde.line_period"]),
        "eigen.solves": calls["eigen.solve"],
        "eigen.unique_solves": unique,
        "eigen.useful_ratio": _ratio(unique, calls["eigen.solve"]),
        "eigen.power_iterations": c["power_iterations"],
        "eigen.solve_s": total["eigen.solve"],
        "eigen.self_s": self_time["eigen.solve"],
        "eigen.max_residual": c["max_residual"],
        "orbits.orbits": calls["orbits.orbit"],
        "orbits.periods_marched": c["periods_marched"],
        "orbits.orbit_s": total["orbits.orbit"],
        "speeds.minimizations": calls["speeds.minimize"],
        "speeds.minimize_evals": c["minimize_evals"],
        "speeds.lambda_evals": calls["eigen.lambda_of_mu"],
        "speeds.minimize_s": total["speeds.minimize"],
        "speeds.coupled_s": total["speeds.coupled"],
        "speeds.coupled_terms": c["coupled_terms"],
        "speeds.report_s": total["speeds.report"],
        "weinberger.candidates": calls["weinberger.recursion"],
        "weinberger.recursion_periods": c["recursion_periods"],
        "weinberger.cap_hits": c["cap_hits"],
        "weinberger.recursion_s": total["weinberger.recursion"],
        "weinberger.period_ms": _ratio(total["weinberger.recursion"],
                                       c["recursion_periods"], 1e3),
        "weinberger.overhead_s": self_time["weinberger.recursion"],
        "frontsim.periods": c["front_periods"],
        "frontsim.front_s": total["frontsim.front"],
        "frontsim.period_ms": _ratio(total["frontsim.front"], c["front_periods"], 1e3),
        "frontsim.verdict_s": total["frontsim.verdict"],
    }


def median_metrics(per_op: list) -> dict:
    """Median over operations of each per-layer metric."""
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}

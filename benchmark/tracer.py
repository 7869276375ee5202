"""Spans and counts around the package's public functions, for the traced run.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds every
attribute of every loaded ``valuation_lab`` module that holds the original
function object, because ``bounds``, ``checks``, ``surface``, ``cli`` and
the package ``__init__`` import these functions by name.  ``uninstall``
restores them.  A span is (name, start, end, parent, op); spans live in
flat arrays until the run ends.  A function's time is the sum of its
spans that are not nested inside another span of the same group, so a
group is never counted twice.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

from workloads import run_count


def _record_counts(args, result) -> dict[str, int]:
    return {
        "invariants.record_calls": 1,
        "invariants.points": args[0].size,
        "invariants.runs": run_count(result.multiplicities.values),
        "invariants.genus": len(result.beta_bar) - 2,
    }


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


_PAYLOADS = ("invariants_payload", "bounds_payload", "ensemble_payload",
             "checks_payload", "fuzz_payload", "family_payload")
_RENDERS = ("render_json", "render_invariants_table", "render_bounds_table",
            "render_check_table", "render_fuzz_table", "render_family_table")

# (module, function, group, counts(args, result) -> {metric: increment} or None)
LAYERS: list[tuple[str, str, str, Callable[[tuple, Any], dict[str, int]] | None]] = [
    ("cli", "main", "cli.main", None),
    ("valfile", "parse", "valfile.parse",
     lambda args, r: {"valfile.bytes_in": _utf8_len(args[0])}),
    ("configurations", "build_configuration", "configurations.build_configuration", None),
    ("configurations", "block_decomposition", "configurations.block_decomposition", None),
    ("invariants", "from_maximal_contact", "invariants.from_maximal_contact", None),
    ("invariants", "invariant_record", "invariants.invariant_record", _record_counts),
    ("invariants", "multiplicity_sequence", "invariants.multiplicity_sequence",
     lambda args, r: {"invariants.multiplicity_calls": 1}),
    ("invariants", "maximal_contact_values", "invariants.maximal_contact_values", None),
    ("invariants", "puiseux_exponents", "invariants.puiseux_exponents", None),
    ("invariants", "curvette_vector", "invariants.curvette_vector",
     lambda args, r: {"invariants.curvette_calls": 1}),
    ("surface", "npi_check", "surface.npi_check", None),
    ("surface", "nef_on_generators", "surface.nef_on_generators",
     lambda args, r: {"surface.pairings": len(r)}),
    ("bounds", "tono_family", "bounds.tono_family", None),
    ("bounds", "valuation_bundle", "bounds.valuation_bundle", None),
    ("bounds", "bound_report", "bounds.bound_report", None),
    ("bounds", "multi_valuation", "bounds.multi_valuation", None),
    ("checks", "random_configuration", "checks.random_configuration", None),
    ("checks", "identity_checks", "checks.identity_checks",
     lambda args, r: {"checks.checks_run": len(r),
                      "checks.checks_failed": sum(not c.passed for c in r)}),
    *(("reports", f, "reports.payload", None) for f in _PAYLOADS),
    *(("reports", f, "reports.render",
       lambda args, r: {"reports.bytes_out": _utf8_len(r)}) for f in _RENDERS),
]

# Time metrics: (metric, group, kind).  "total" sums the group's outermost
# spans; "self" sums span durations minus their direct children.
TIME_METRICS = [
    ("cli.main_s", "cli.main", "total"),
    ("cli.overhead_s", "cli.main", "self"),
    ("valfile.parse_s", "valfile.parse", "self"),
    *((f"{group}_s", group, "total") for group in (
        "configurations.build_configuration", "configurations.block_decomposition",
        "invariants.from_maximal_contact", "invariants.invariant_record",
        "invariants.multiplicity_sequence", "invariants.maximal_contact_values",
        "invariants.puiseux_exponents", "surface.npi_check", "surface.nef_on_generators",
        "bounds.tono_family", "bounds.valuation_bundle", "bounds.bound_report",
        "bounds.multi_valuation", "checks.random_configuration",
        "checks.identity_checks", "reports.payload", "reports.render",
    )),
]
COUNT_METRICS = [
    ("valfile.bytes_in", "B", "lower"),
    ("invariants.record_calls", "count", "lower"),
    ("invariants.multiplicity_calls", "count", "lower"),
    ("invariants.curvette_calls", "count", "lower"),
    ("invariants.points", "count", "lower"),
    ("invariants.runs", "count", "lower"),
    ("invariants.genus", "count", "lower"),
    ("surface.pairings", "count", "lower"),
    ("checks.checks_run", "count", "higher"),
    ("checks.checks_failed", "count", "lower"),
    ("reports.bytes_out", "B", "lower"),
]
# Every per-layer metric, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = (
    [(name, "s", "lower") for name, _, _ in TIME_METRICS]
    + COUNT_METRICS
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Collects spans and counts for one traced phase."""

    def __init__(self) -> None:
        self.names = [f"{module}.{func}" for module, func, _, _ in LAYERS]
        self.name = array("H")  # index into LAYERS
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("l")
        self.outer = array("b")  # 1 when no enclosing span has the same group
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, func, nid: int, group: str, counts):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = len(tracer.start)
            outer = tracer._depth[group] == 0
            tracer.name.append(nid)
            tracer.start.append(clock())
            tracer.end.append(0.0)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.outer.append(outer)
            tracer._stack.append(span)
            tracer._depth[group] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end[span] = clock()
                tracer._stack.pop()
                tracer._depth[group] -= 1
            if outer and counts is not None:
                for key, value in counts(args, result).items():
                    tracer.counts[key] += value
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "valuation_lab" or n.startswith("valuation_lab.")]
        for nid, (module_name, func_name, group, counts) in enumerate(LAYERS):
            original = getattr(sys.modules[f"valuation_lab.{module_name}"], func_name)
            wrapper = self._wrap(original, nid, group, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics as means per op over ``ops`` traced ops."""
        n = len(self.start)
        child_time = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        sums = {"total": defaultdict(float), "self": defaultdict(float)}
        for i in range(n):
            group = LAYERS[self.name[i]][2]
            duration = self.end[i] - self.start[i]
            if self.outer[i]:
                sums["total"][group] += duration
            sums["self"][group] += duration - child_time[i]
        out = {name: sums[kind][group] / ops for name, group, kind in TIME_METRICS}
        for name, _, _ in COUNT_METRICS:
            out[name] = self.counts[name] / ops
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("span,name,start_s,end_s,parent,op\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.parent[i]},{self.op[i]}\n"
                )

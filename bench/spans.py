"""Span tracing of ``dyncode`` layers from outside the package.

``Tracer.install`` rebinds each traced function in every ``dyncode``
module namespace that holds it (``in_span`` is bound in gf2, engine,
classify and floquet, for example), so calls between modules and within
one module both go through the wrapper.  ``uninstall`` restores every
binding.  Spans are kept in flat arrays as (op id, name, start, end,
parent) and written out once the run is over; per-name busy time, self
time and call counts are accumulated as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute) -> span name.  Names are <module>.<phase>.
SPANS = {
    ("library", "load_code"): "library.load_code",
    ("engine", "validate_code"): "engine.validate_code",
    ("engine", "measure"): "engine.measure",
    ("engine", "simulate_measurements"): "engine.simulate_measurements",
    ("gf2", "in_span"): "gf2.in_span",
    ("gf2", "rref"): "gf2.rref",
    ("gf2", "span_intersection"): "gf2.span_intersection",
    ("gf2", "nullspace"): "gf2.nullspace",
    ("gf2", "solve_linear"): "gf2.solve_linear",
    ("classify", "run_classification"): "classify.forward",
    ("classify", "_extract_unmasked"): "classify.unmasked",
    ("classify", "_extract_permanently_masked"): "classify.replay",
    ("classify", "_extract_temporarily_masked"): "classify.temporary",
    ("classify", "_check_partition"): "classify.partition_check",
    ("classify", "build_gauge_group"): "classify.gauge",
    ("classify", "_min_weight_outside"): "classify.distance_search",
    ("floquet", "iterate_cycles"): "floquet.iterate_cycles",
    ("floquet", "check_subset_monotonicity"): "floquet.monotonicity",
    ("floquet", "growth_accounting"): "floquet.growth",
    ("floquet", "unmask_cycle_count"): "floquet.unmask_cycles",
    ("errors", "build_logical_trace"): "errors.logical_trace",
    ("errors", "verify_round0_decoding"): "errors.round0_decoding",
    ("errors", "syndrome_of_spacetime_error"): "errors.syndrome",
}
METHOD_SPANS = {("classify", "ClassificationReport", "element_class"): "classify.tagging"}
# Called too often to time: wrapped with a call counter only.
COUNTED = {
    ("pauli", "parse_pauli"): "pauli.parse_pauli.calls",
    ("pauli", "symplectic_product"): "pauli.symplectic_product.calls",
    ("pauli", "product"): "pauli.product.calls",
}
# Work counts read from arguments or results: span name -> (count name, getter).
WORK = {
    "gf2.rref": ("gf2.rref.rows", lambda args, result: len(args[0].rows)),
    "floquet.iterate_cycles": ("floquet.cycles", lambda args, result: len(result.snapshots)),
    "errors.round0_decoding": ("errors.round0_decoding.errors_checked",
                               lambda args, result: result.errors_checked),
}
OP_SPAN = "cli.op"


class Tracer:
    """Span and count recorder for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op_ids = array("i")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._open = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.starts)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.op_ids.append(self.op_id)
        self.name_ids.append(self._ids[name])
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        self._open[name] += 1
        self.calls[name] += 1
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int, name: str) -> None:
        end = time.perf_counter()
        self.ends[index] = end
        duration = end - self.starts[index]
        self._stack.pop()
        self.self_time[name] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration
        self._open[name] -= 1
        if not self._open[name]:  # busy time counts the outermost span only
            self.busy[name] += duration

    def _span(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index, name)
            if work:
                self.counts[work[0]] += work[1](args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "dyncode" or key.startswith("dyncode.")]
        for table, make in ((SPANS, self._span), (COUNTED, self._counted)):
            for (module, attr), name in table.items():
                original = getattr(sys.modules[f"dyncode.{module}"], attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for (module, cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(sys.modules[f"dyncode.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))

    def uninstall(self) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def run_op(self, op_id: int, call):
        """Run one op under an ``cli.op`` span tagged with ``op_id``."""
        self.op_id = op_id
        index = self.open(OP_SPAN)
        try:
            return call()
        finally:
            self.close(index, OP_SPAN)

    def write(self, path) -> None:
        """Columnar span dump: one JSON header line (name table, span
        count), then the op id, name id and parent columns as int32 and the
        start and end columns as float64, in native byte order."""
        header = {"names": self.names, "spans": len(self.starts),
                  "columns": ["op_id:i4", "name_id:i4", "parent:i4", "start:f8", "end:f8"]}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.op_ids, self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)

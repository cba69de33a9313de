"""Spans around calls into nmrqc's layers, recorded from outside the package.

install() replaces every public function of the ten layer modules with a
wrapper, under every name that refers to it: the defining module, modules
that imported it, the package namespace and module-level dicts such as the
CLI's prep-method table. Nothing inside src/ is edited.

A span records name, start, end, parent span and op id. Spans are kept in
memory and aggregated (or written out) when the run ends. Calls made while
no op is active (input generation, checks) are not recorded.

The engine's element kinds get span names of their own when a propagator
or projection is called from run_program or program_propagator:
Rotation, Delay, Couple, FrameShift (rotation_propagator with phase "z"),
Crush and MultiQuantumFilter. The conjugation matmuls stay in the engine
span's self time.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("core", "pulses", "gates", "compiler", "prep", "readout",
          "algorithms", "entangle", "formats", "cli")

ENGINE = ("pulses.run_program", "pulses.program_propagator")
ELEMENT_OF = {
    "pulses.rotation_propagator": "pulses.Rotation",
    "pulses.delay_propagator": "pulses.Delay",
    "pulses.couple_propagator": "pulses.Couple",
    "pulses.crush": "pulses.Crush",
    "pulses.mq_filter": "pulses.MultiQuantumFilter",
}
# Spans that also report time per call for each register size.
KERNELS = ENGINE + tuple(ELEMENT_OF.values()) + (
    "pulses.FrameShift", "core.expand", "readout.read_spectrum",
    "gates.circuit_unitary")


def _register_size(args) -> int:
    """Spin count of a kernel call, read from its arguments."""
    for a in args:
        if hasattr(a, "n_qubits"):
            return a.n_qubits
        if hasattr(a, "couplings"):
            return a.n
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) == 2:
            return int(shape[0]).bit_length() - 1
    return int(args[0])  # rotation_propagator(n, ...)


class Tracer:
    def __init__(self) -> None:
        self.op = None  # id of the op in flight, None outside ops
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op_ids: list[int] = []
        self.size: list[int] = []
        self._stack: list[int] = []

    def install(self, package) -> None:
        """Wrap the layers' public functions under every name that holds them."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not callable(obj)
                        or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [vars(package)] + [vars(sys.modules[f"{package.__name__}.{m}"])
                                        for m in LAYERS]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in wrapped:
                    ns[attr] = wrapped[id(obj)]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]

    def _wrap(self, name: str, fn):
        element = ELEMENT_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = name
            if element and self._stack and self.names[self._stack[-1]] in ENGINE:
                span = element
                if element == "pulses.Rotation" and args[3:4] == ("z",):
                    span = "pulses.FrameShift"
            idx = len(self.names)
            self.names.append(span)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_ids.append(self.op)
            self.size.append(_register_size(args) if span in KERNELS else -1)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def aggregate(self) -> dict:
        """{span name: {"calls", "ms", "self_ms", "ms_by_n": {n: [ms, calls]}}}.

        ms counts only the outermost span of a name, so a function that
        reaches itself again is not counted twice; self_ms is the span's
        duration minus the time its direct children cover.
        """
        count = len(self.names)
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table: dict[str, dict] = {}
        for i in range(count):
            name = self.names[i]
            row = table.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                          "ms_by_n": {}})
            dur = (self.end[i] - self.start[i]) / 1e6
            row["calls"] += 1
            row["self_ms"] += dur - child[i] / 1e6
            p = self.parent[i]
            while p >= 0 and self.names[p] != name:
                p = self.parent[p]
            if p < 0:
                row["ms"] += dur
            if self.size[i] >= 0:
                cell = row["ms_by_n"].setdefault(self.size[i], [0.0, 0])
                cell[0] += dur
                cell[1] += 1
        return table

    def write(self, path) -> None:
        """Spans as CSV: name, start_ns, end_ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.names)):
                fh.write(f"{self.names[i]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.op_ids[i]}\n")

"""Span tracer installed from outside the program.

``Tracer.install`` wraps every public module-level function of the
roofline-lab modules listed in ``MODULES`` and re-binds each wrapper
under every name the package holds for that function, so calls made
through re-exported or imported names (``analysis.throughput_roofline``,
``report.analyze_mapping``, ``roofline_lab.count_accesses``) are seen
too.  Each call records one span (name, start, end, parent) in
in-memory arrays; ``uninstall`` restores the originals.

Optional per-function measures (a callback on the call's arguments and
result) count work done inside the span, such as oracle iterations or
materialized curve samples; they run after the span is closed.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from importlib import import_module

PACKAGE = "roofline_lab"
MODULES = (
    "config_io", "model", "mapping", "transforms", "roofline",
    "analysis", "report", "svgchart", "oracle", "cli",
)
ITEM = "bench.item"


def _iterations(args, kwargs, result) -> int:
    arch, _, mapping = args[:3]
    n = 1
    for _, _, trip in mapping.nest(arch.n_levels):
        n *= trip
    return n


def _samples(args, kwargs, result) -> int:
    # only samples the curve object holds, so a lazily sampled curve
    # is not forced to sample here
    return len(vars(result).get("samples", ()))


def _svg_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])


# work counted inside a span, per function
MEASURES = {
    "oracle.enumerate_accesses": _iterations,
    "oracle.simulate_cycles": _iterations,
    "roofline.throughput_roofline": _samples,
    "roofline.energy_roofline": _samples,
    "model.validate": lambda args, kwargs, result: 0 if result else 1,
    "svgchart.emit_svg": _svg_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [ITEM]
        self._ids = {ITEM: 0}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.measured: dict[str, float] = {}
        self._stack: list[int] = []
        self._item = -1
        self._wrappers: dict[object, object] = {}  # original -> wrapper
        self._patched: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[i] = t0
        self.end[i] = t1

    def begin_item(self, index: int) -> None:
        """Open the root span of one benchmark item."""
        self._item = index
        self._item_span = self._open(0)
        self._item_t0 = time.perf_counter_ns()

    def end_item(self) -> None:
        self._close(self._item_span, self._item_t0, time.perf_counter_ns())
        self._item = -1

    # -- wrapping

    def _wrap(self, qualname: str, fn):
        name_id = self._ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        measure = MEASURES.get(qualname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, t0, clock())
            if measure is not None:
                self.measured[qualname] = (
                    self.measured.get(qualname, 0) + measure(args, kwargs, result)
                )
            return result

        return traced

    def install(self) -> None:
        for short in MODULES:
            mod = import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and obj not in self._wrappers):
                    self._wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    # -- summaries

    def summary(self, items_only: bool) -> dict[str, dict[str, int]]:
        """Per function: calls, inclusive and self nanoseconds, over the
        spans inside items, or over every span."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, int]] = {}
        for i in range(n):
            if items_only and self.item[i] < 0:
                continue
            s = out.setdefault(self.names[self.name[i]], {"calls": 0, "incl_ns": 0, "self_ns": 0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["incl_ns"] += dur
            s["self_ns"] += dur - child[i]
        return out

    def write_tsv(self, path, limit: int) -> int:
        """Write the first ``limit`` spans as TSV; returns how many."""
        n = min(limit, len(self.name))
        with open(path, "w") as f:
            f.write("span\titem\tname\tstart_ns\tend_ns\tparent\n")
            f.writelines(
                f"{i}\t{self.item[i]}\t{self.names[self.name[i]]}\t"
                f"{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                for i in range(n)
            )
        return n

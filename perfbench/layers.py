"""Per-layer counters and spans, recorded from outside the program.

``Instrument`` wraps every public function of each properaffine module and
every function of ``numpy.linalg`` and ``scipy.linalg``, and rebinds each
wrapper wherever the original was bound: properaffine modules import one
another's functions by name (``from .proximal import spectral_split``), so
patching only the defining module would miss most calls.  ``remove()``
restores every binding.

A linalg call counts only when its caller is a properaffine module, so
library-internal calls (scipy calling numpy) are not the program's.

With ``timed=False`` the wrappers only count calls.  With ``timed=True``
they also accumulate inclusive and self seconds (inclusive minus the time of
wrapped callees), outcomes (certificates passed, bytes emitted), caller ->
callee call counts, and spans (id, parent id, name, start, end) for calls
nested at most SPAN_DEPTH deep, so a trace file stays small on the largest
workload; the per-name totals and edges cover every call.
"""

import functools
import importlib
import inspect
import sys
import time

PROGRAM_MODULES = ("core", "group", "proximal", "margulis", "anosov", "reports",
                   "repcatalog", "cli")
LINALG_MODULES = ("numpy.linalg", "scipy.linalg")
SPAN_DEPTH = 4


def _program_functions():
    """(qualified name, function) for the public functions of each module."""
    out = []
    for short in PROGRAM_MODULES:
        mod = importlib.import_module("properaffine." + short)
        for name, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append(("%s.%s" % (short, name), obj))
    return out


def _linalg_functions():
    out = []
    for modname in LINALG_MODULES:
        mod = importlib.import_module(modname)
        for name, obj in sorted(vars(mod).items()):
            if not name.startswith("_") and callable(obj) and not inspect.isclass(obj):
                out.append(("linalg." + name, obj))
    return out


class Instrument:
    """Install with ``Instrument(timed)``; read ``stats``; call ``remove()``."""

    def __init__(self, timed):
        self.timed = timed
        self.stats = {}          # name -> [calls, inclusive s, self s, outcome]
        self.edges = {}          # (caller, callee) -> calls
        self.spans = []
        self._stack = []         # [span id, start, child seconds, name]
        self._next_id = 0
        self._restore = []
        wrappers = {}
        for name, fn in _program_functions():
            wrappers[id(fn)] = (fn, self._wrap(name, fn, program=True))
        for name, fn in _linalg_functions():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(name, fn, program=False))
        targets = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "properaffine"
                                         or n.startswith("properaffine.")
                                         or n in LINALG_MODULES)]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def remove(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore = []

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        return st

    def _wrap(self, name, fn, program):
        clock = time.perf_counter
        stack = self._stack

        def from_program():
            # frame 0 is this helper, 1 the wrapper, 2 the wrapper's caller
            return sys._getframe(2).f_globals.get("__name__", "").startswith(
                "properaffine")

        def counted(*args, **kwargs):
            if program or from_program():
                self._stat(name)[0] += 1
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            if not program and not from_program():
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, clock(), 0.0, name]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                st = self._stat(name)
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if getattr(result, "passed", False) is True:
                    st[3] += 1
                elif isinstance(result, bytes):
                    st[3] += len(result)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                    edge = (parent[3], name)
                    self.edges[edge] = self.edges.get(edge, 0) + 1
                if program and len(stack) < SPAN_DEPTH:
                    self.spans.append((frame[0], parent[0] if parent else 0,
                                       name, frame[1], end))

        return functools.wraps(fn)(traced if self.timed else counted)

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0, 0))[0]

    def seconds(self, name):
        return self.stats.get(name, (0, 0.0, 0.0, 0))[1]

    def self_seconds(self, name):
        return self.stats.get(name, (0, 0.0, 0.0, 0))[2]

    def outcome(self, name):
        """Certificates passed, or bytes returned, summed over calls."""
        return self.stats.get(name, (0, 0.0, 0.0, 0))[3]

    def linalg_calls(self):
        return sum(s[0] for name, s in self.stats.items() if name.startswith("linalg."))

    def linalg_seconds(self):
        return sum(s[1] for name, s in self.stats.items() if name.startswith("linalg."))

"""In-memory spans around calls into hamgeo's public functions.

The tracer wraps, from outside the package, every public function of the
layer modules at every place the package binds it, so calls between
layers are recorded as well as the benchmark's own.  A span holds its
name, start, end, parent span and op id; self time is the span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("expr", "jets", "phase", "geometry", "symmetry", "dynamics", "manifest", "cli")


def _public_functions(package: str):
    """(layer, function) for each function a layer module defines and
    lists in ``__all__``; re-exports belong to the defining layer."""
    seen = set()
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for name in module.__all__:
            fn = getattr(module, name)
            if (
                callable(fn)
                and not isinstance(fn, type)
                and fn.__module__ == module.__name__
                and id(fn) not in seen
            ):
                seen.add(id(fn))
                yield layer, fn


class Tracer:
    """Records spans while installed; ``op`` labels the spans of one op."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id]
        self.spans = []
        self.op = ""
        self._stack = []
        self._patched = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        order_named = name == "jets.jet_lift"

        def traced(*args, **kwargs):
            label = name
            if order_named:
                order = kwargs.get("order", args[2] if len(args) > 2 else 3)
                label = f"{name}.o{order}"
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "hamgeo"):
        wrappers = {
            id(fn): self._wrap(f"{layer}.{fn.__name__}", fn)
            for layer, fn in _public_functions(package)
        }
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self, ops=None) -> list:
        """(name, calls, inclusive s, self s) per span name, most self time
        first; ``ops`` restricts to spans whose op id passes the test."""
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, op = span
            if ops is None or ops(op):
                row = table[name]
                row[0] += 1
                row[1] += end - start
                row[2] += self_s
        return sorted(
            ((name, *row) for name, row in table.items()), key=lambda r: -r[3]
        )

    def write(self, path: Path):
        """One line per span: index, parent, op, name, start and end in us."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("index,parent,op,name,start_us,end_us\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{start * 1e6:.3f},{end * 1e6:.3f}\n")

"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of the `intpoly`
modules, at every module that refers to it, with a wrapper that counts the
call and records a span (name, start, end, parent span, operation index);
`Polynomial.__mul__`/`__rmul__` and `Polynomial.__call__` are traced as
`poly.mul` and `poly.eval`.  `uninstall()` puts the originals back.  The
source files are not touched.  A function's self time is its span minus
the spans of the traced calls made inside it.
"""
from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

from exact import period_exp

LAYERS = ("arith", "poly", "vorder", "sequences", "spectrum", "matrices", "example_lab", "cli")
METHODS = (("poly.mul", ("__mul__", "__rmul__")), ("poly.eval", ("__call__",)))
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.stats = {}  # layer name -> [calls, self_ns]
        self.stack = []  # [child_ns, span id] per open span
        self.spans = []  # (id, parent id, name, start_ns, end_ns, op index)
        self.record_spans = False
        self.next_id = 0
        self.op_index = -1
        self.sqrt_found = 0
        self.comp_sufficient = 0
        self.comp_decided = 0
        self._patches = []
        self._targets = self._collect()

    # -- what to wrap ---------------------------------------------------------------

    def _collect(self):
        """(layer name, owner, attribute names, original) for every target."""
        targets = []
        for short in LAYERS:
            mod = importlib.import_module(f"intpoly.{short}")
            for name, obj in vars(mod).items():
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and not name.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    targets.append((f"{short}.{name}", None, (name,), obj))
        poly_cls = sys.modules["intpoly.poly"].Polynomial
        for layer, attrs in METHODS:
            targets.append((layer, poly_cls, attrs, poly_cls.__dict__[attrs[0]]))
        return targets

    def _observer(self, name):
        if name == "poly.poly_sqrt":
            def seen(args, result):
                self.sqrt_found += result is not None
            return seen
        if name == "spectrum.ideal_membership":
            def seen(args, result):
                f, ideal = args[0], args[1]
                if type(ideal).__name__ == "MaxCompletion":
                    coeffs = tuple(Fraction(c) for c in f.coeffs)
                    if ideal.x.precision >= period_exp(coeffs, ideal.p):
                        self.comp_sufficient += 1
                        self.comp_decided += result.value in ("yes", "no")
            return seen
        return None

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0])
        stack = self.stack
        clock = time.perf_counter_ns
        observe = self._observer(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.next_id += 1
            frame = [0, tracer.next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if tracer.record_spans and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[1], parent, name, start, end, tracer.op_index))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for name, owner, attrs, original in self._targets:
            wrapper = self._wrap(name, original)
            if owner is not None:
                for attr in attrs:
                    self._patches.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        # every module that imported a traced function by name gets the wrapper
        for modname, mod in list(sys.modules.items()):
            if modname != "intpoly" and not modname.startswith("intpoly."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call(self, op):
        """Run one operation under a root span named after its kind."""
        return self._wrap(f"op.{op.kind}", op.call)()

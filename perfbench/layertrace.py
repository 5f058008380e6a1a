"""Outside-in layer tracing for the mrootfinsler package.

The package has no instrumentation of its own, so this module wraps its
functions from the outside and records spans: name, start, end and parent.
A layer is a package module.  Its self time is the time its spans cover
minus the time their child spans cover.

Wrapped are the public module-level functions of every layer module, the
public methods of the classes each module defines, and `cli._emit`.
Constructors and operators are not wrapped, so `SymmetricTensor(...)` built
inside `tensor_at` counts as fields time.  Every wrapped call is counted; a
span is recorded only where a call crosses into another layer (or into emit,
see below), because a call within a layer moves no time between layers.

Names that other modules imported with `from .x import name` are bound twice
(`metric_point` in kropina, spray and flatness, `load_spec` in cli,
`merge_reports` in report, ...), so every binding of a wrapped function in
every package module is patched, not only the one in its home module.

Jet arithmetic (`calculus.Jet2` operators) runs inside
`SymmetricTensor.eval` when the oracle differentiates through a form, so the
symtensor layer's self time includes oracle work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "mrootfinsler"
LAYERS = (
    "specfile", "sampling", "fields", "symtensor", "calculus", "metric",
    "kropina", "spray", "flatness", "report", "cli",
)
# Private functions that are layer boundaries in their own right.
PRIVATE_BOUNDARIES = {"cli": ("_emit",)}
# The emit part of cli, serialising results to stdout and path files.  Its
# calls get spans of their own although they come from within cli.
EMIT_SPANS = ("cli._emit", "cli.write_path_file")
SPAN_GROUPS = LAYERS + ("emit",)


class LayerTracer:
    """Span recorder plus the patches that feed it; install, run, uninstall."""

    def __init__(self):
        self.names = []             # wrapped-function names; spans store the index
        self.layer_of = []          # layer of each name
        self.calls = array("q")     # calls per name, including calls within a layer
        self.span_name = array("i")
        self.span_parent = array("i")   # index of the enclosing span, -1 at a root
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]          # open spans
        self._group_stack = [-1]    # their span groups
        self._wrappers = {}         # original function -> wrapper
        self._class_patches = []    # (class, attribute, original, replacement)
        self._applied = []          # (owner, attribute, original) while installed
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            self._collect(layer, module)

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop the recorded spans and counts in place; patches stay as they are."""
        self.calls[:] = array("q", bytes(8 * len(self.names)))
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[:]

    def _wrap(self, fn, name: str, layer: str):
        index = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        group_id = SPAN_GROUPS.index("emit" if name in EMIT_SPANS else layer)
        clock = time.perf_counter
        calls, span_name, span_parent = self.calls, self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, group_stack = self._stack, self._group_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[index] += 1
            if group_stack[-1] == group_id:
                return fn(*args, **kwargs)
            span = len(span_name)
            span_name.append(index)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(span)
            group_stack.append(group_id)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()
                group_stack.pop()

        return wrapper

    def _collect(self, layer: str, module) -> None:
        private = PRIVATE_BOUNDARIES.get(layer, ())
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr in private):
                self._wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
            elif inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    if isinstance(member, staticmethod):
                        replacement = staticmethod(self._wrap(member.__func__, name, layer))
                    elif inspect.isfunction(member):
                        replacement = self._wrap(member, name, layer)
                    else:
                        continue
                    self._class_patches.append((obj, meth, member, replacement))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Bind every wrapper wherever the package looks its function up."""
        if self._applied:
            raise RuntimeError("tracer already installed")
        for cls, meth, original, replacement in self._class_patches:
            setattr(cls, meth, replacement)
            self._applied.append((cls, meth, original))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._applied.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._applied:
            owner, attr, original = self._applied.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time and calls; per-name calls, spans, self and inclusive time."""
        count = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        root_total = 0.0
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
            else:
                root_total += duration[i]
        name_spans = Counter()
        name_self = Counter()
        name_inclusive = Counter()
        for i in range(count):
            name = self.names[self.span_name[i]]
            name_spans[name] += 1
            name_self[name] += duration[i] - child[i]
            name_inclusive[name] += duration[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for index, name in enumerate(self.names):
            layer_self[self.layer_of[index]] += name_self[name]
            layer_calls[self.layer_of[index]] += self.calls[index]
        return {
            "root_s": root_total,
            "layer_self_s": layer_self,
            "layer_calls": layer_calls,
            "name_calls": dict(zip(self.names, self.calls)),
            "name_spans": dict(name_spans),
            "name_self_s": dict(name_self),
            "name_inclusive_s": dict(name_inclusive),
        }

"""Span tracer that times a program's functions from outside its source.

A span opens when a wrapped function is entered and closes when it returns.
Spans nest on a stack, so a span's self time is its duration minus the time
its child spans cover.  Only per-name aggregates are kept (calls, self time,
total time), which keeps memory flat however many calls a run makes.

`install` replaces every binding of each traced function: the module
attribute that defines it, the modules that imported it with
`from .x import f`, and values of module-level dicts (dispatch tables), so a
call is traced whichever name it goes through.  Generator functions are timed
over their iteration: each resumption is a piece of one span, and the
consumer's work between resumptions stays with the consumer.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Span that counter hooks run in, so their cost is not charged to a layer.
COUNTER_SPAN = "trace.counters"


class Tracer:
    """Stack of open spans plus per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open frames: [name, start, time covered by children, call args]
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)

    def enter(self, name: str, args: tuple = (), count: bool = True) -> None:
        if count:
            self.calls[name] += 1
        self._stack.append([name, self.clock(), 0.0, args])

    def exit(self) -> None:
        name, start, covered, _ = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def parent(self) -> tuple[str, tuple] | None:
        """(name, call args) of the innermost open span that is not a
        counter hook's, if any."""
        for name, _, _, args in reversed(self._stack):
            if name != COUNTER_SPAN:
                return name, args
        return None


def wrap(tracer: Tracer, fn, name, after=None):
    """Traced stand-in for fn.

    name is a string or a callable mapping the call args to one.  after, if
    given, is called as after(tracer, args, kwargs, result) once the span has
    closed, inside a COUNTER_SPAN span.
    """
    span_name = name if callable(name) else (lambda args, kwargs: name)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            label = span_name(args, kwargs)
            it = fn(*args, **kwargs)
            first = True
            while True:
                tracer.enter(label, args, count=first)
                first = False
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(span_name(args, kwargs), args)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            tracer.enter(COUNTER_SPAN)
            try:
                after(tracer, args, kwargs, result)
            finally:
                tracer.exit()
        return result

    return traced


def public_functions(module) -> dict[str, object]:
    """Public functions defined in module, plus __call__ of its public classes.

    Keys are span names "<module short name>.<function>" and
    "<module short name>.<Class>.__call__".
    """
    short = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[f"{short}.{attr}"] = obj
        elif inspect.isclass(obj) and "__call__" in vars(obj):
            found[f"{short}.{attr}.__call__"] = obj
    return found


def install(tracer: Tracer, modules, names=None, hooks=None):
    """Trace the public functions of modules at every binding; return an undo.

    names maps a span name to a replacement name (string or callable of the
    call args); hooks maps a span name to an `after` counter hook.
    """
    names = names or {}
    hooks = hooks or {}
    wrapped = {}  # original function -> wrapper
    class_calls = []
    for module in modules:
        for span, obj in public_functions(module).items():
            if inspect.isclass(obj):
                original = vars(obj)["__call__"]
                obj.__call__ = wrap(tracer, original, names.get(span, span), hooks.get(span))
                class_calls.append((obj, original))
            else:
                wrapped[obj] = wrap(tracer, obj, names.get(span, span), hooks.get(span))

    undo = []
    for module in modules:
        namespace = vars(module)
        for attr, obj in list(namespace.items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
                undo.append((namespace, attr, obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
                        undo.append((obj, key, value))

    def uninstall():
        for target, key, original in undo:
            target[key] = original
        for cls, original in class_calls:
            cls.__call__ = original

    return uninstall

"""Outside-in span tracer for the klsums modules.

The tracer wraps every public function defined in a ``klsums`` module and,
while active, binds the wrapper under every module name that holds the
function, so a call is recorded whichever copy the caller reaches
(``experiments`` and ``bilinear`` import ``z_fiber_count``, ``stratum_scan``
and ``sigma_II`` by name, ``bilinear`` also ``kr_matrix``).  Nothing inside
the library changes, and leaving the ``with`` block restores the original
bindings, so untraced code runs without the wrappers.

Each call becomes a span named ``<defining module>.<function>``.  A span
keeps its wall duration, its self time (duration minus the time of the spans
it called directly) and the name of the span that called it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


def klsums_modules() -> list:
    """The loaded ``klsums`` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "klsums" or name.startswith("klsums."))]


def public_functions() -> dict:
    """Every public function defined in a klsums module, keyed by span name."""
    out = {}
    for mod in klsums_modules():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[f"{mod.__name__.split('.')[-1]}.{obj.__name__}"] = obj
    return out


@dataclass
class Span:
    name: str
    parent: str | None
    dur: float
    self_s: float
    key: object  # value of the span's key function, or None


class Tracer:
    """Span recorder used as ``with tracer: ...``.

    ``keys`` maps a span name to a function of the call's arguments whose
    value is stored with the span (e.g. the field size); ``on_exit`` maps a
    span name to a hook called with (tracer, result) after a call returns.
    Hooks add to ``counters``.
    """

    def __init__(self, keys=None, on_exit=None):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, seconds spent in child spans]
        self._saved: list[tuple] = []
        keys, on_exit = keys or {}, on_exit or {}
        self.wrapped = {fn: self._wrap(name, fn, keys.get(name), on_exit.get(name))
                        for name, fn in public_functions().items()}

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name, fn, key_of, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                key = key_of(*args, **kwargs) if key_of else None
                self.spans.append(Span(name, parent, dur, dur - frame[1], key))
            if hook:
                hook(self, result)
            return result

        return wrapper

    def __enter__(self):
        for mod in klsums_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self.wrapped[obj])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module bindings that hold an original klsums function.

        Empty inside the ``with`` block: every call made through a module
        global or attribute reaches a wrapper."""
        return [f"{mod.__name__}.{attr}" for mod in klsums_modules()
                for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj in self.wrapped]

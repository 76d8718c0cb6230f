"""Span recorder over ``irrev``'s public functions, from outside the program.

:func:`install` replaces every public function and public method of the
``irrev`` modules, in every ``irrev`` namespace that binds it, with a
wrapper that opens a span around the call.  Nothing in ``irrev`` is edited
on disk, and the function :func:`install` returns puts the originals back.
A span's self time is its duration minus that of its traced children.

A profiling hook (``sys.setprofile``) would need no patching, but it also
fires on every call into numpy and more than doubled the command's time;
the wrappers cost one Python call per traced call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "model", "obstacle", "evolution", "diagnostics", "stationary",
           "fracture", "grid", "presets")
#: dunder methods that count as public entry points
METHODS = ("__call__", "__post_init__")


class Recorder:
    """Accumulates total time (outermost calls only), self time and call
    counts per span name, and the PDAS sweeps of the last stationary solve.
    ``reset`` starts a new tally."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.stationary_sweeps = 0
        self._stack = []
        self._depth = defaultdict(int)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._depth[name] += 1
            self.calls[name] += 1
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if name == "stationary.solve_stationary":
                    self.stationary_sweeps = out.iters
                return out
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                self.self_time[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self._depth[name] -= 1
                if self._depth[name] == 0:
                    self.total[name] += dur
        return traced


def _public(short: str, mod):
    """Yield ``(owner, attribute, span name, function)`` for one module."""
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, f"{short}.{name}", obj
        elif inspect.isclass(obj):
            for meth, fn in list(vars(obj).items()):
                if inspect.isfunction(fn) and (not meth.startswith("_") or meth in METHODS):
                    yield obj, meth, f"{short}.{name}.{meth}", fn


def install(recorder: Recorder):
    """Wrap every public function and method of the ``irrev`` modules.

    Returns a function that restores the originals.
    """
    mods = [importlib.import_module("irrev")] + [
        importlib.import_module(f"irrev.{short}") for short in MODULES]
    wrapped = {}
    undo = []
    for short, mod in zip(MODULES, mods[1:]):
        for owner, attr, span, fn in _public(short, mod):
            wrapped[id(fn)] = recorder.wrap(span, fn)
            undo.append((owner, attr, fn))
    # every namespace that binds an original, including the names other
    # modules imported from the defining one
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                undo.append((mod, name, obj))
    for owner, attr, fn in undo:
        setattr(owner, attr, wrapped[id(fn)])

    def restore() -> None:
        for owner, attr, fn in undo:
            setattr(owner, attr, fn)
    return restore

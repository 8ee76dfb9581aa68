"""Outside-in span and counter recorder for the traced benchmark run.

Spans live in memory as ``(name, start, end, parent)`` records; a contextvar
holds the index of the open span so nested calls find their parent.  The
recorder knows nothing about occspot: :mod:`layers` decides what to wrap.

Wrapping is done at every *binding* of a function, not just at its
definition.  ``from .x import y`` copies the name ``y`` into the importing
module, so patching ``x.y`` alone would miss every caller that resolves
``y`` through the importer.  :func:`install` therefore scans every module of
a package for attributes that are the original function object and
replaces each one; :func:`uninstall` puts every original back.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Recorder.spans


class Recorder:
    """Spans and named counters kept in memory until :meth:`to_json`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: per-span scratch space, so hooks can pass facts to a parent's hook
        self.notes: dict[int, dict] = defaultdict(dict)
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("open_span", default=None)

    def open(self, name: str) -> tuple[int, contextvars.Token]:
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._current.get()))
        token = self._current.set(idx)
        self.spans[idx].start = time.perf_counter()
        return idx, token

    def close(self, idx: int, token: contextvars.Token) -> None:
        self.spans[idx].end = time.perf_counter()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str):
        idx, token = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx, token)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "counters": dict(self.counters)}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def wrap(rec: Recorder, name: str, fn, hook=None):
    """`fn` recorded as span `name`; `hook(rec, idx, args, kwargs, result)`
    derives counters afterwards, inside a ``bench.hook`` span so its cost is
    charged to neither `fn` nor the caller."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx, token = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx, token)
        if hook is not None:
            with rec.span("bench.hook"):
                hook(rec, idx, args, kwargs, result)
        return result

    return wrapper


def install(package: str, replacements: dict
            ) -> list[tuple[object, str, object]]:
    """Rebind every attribute of `package`'s loaded modules that *is* a key
    of `replacements` (an original function) to its value (the wrapper).

    Returns the ``(module, attribute, original)`` list :func:`uninstall`
    needs.
    """
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package
                               or mod_name.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = by_id.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for mod, attr, orig in reversed(patched):
        setattr(mod, attr, orig)

"""Span tracer that wraps a package's public functions at their module attributes.

A function is wrapped wherever a module of the package binds it, so calls
between modules (``floer`` calling ``lagrangian.kato_consistency`` through its
own import of it, ``topology`` calling ``linalg.operator_norm``) are caught as
well as calls from outside.  Library entry points of interest (for example
``scipy.sparse.linalg.eigsh``) can be *probed*: a probe opens no span, it only
notes an event on the innermost open span.  Everything is put back by
:meth:`Tracer.restore`.  Spans stay in memory; nothing is written while the
traced code runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Span:
    """One call of a traced function: name, start, end, parent and notes."""

    __slots__ = ("name", "start", "end", "parent", "info", "events")

    def __init__(self, name, start, parent, end=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = None
        self.events = []

    @property
    def duration(self):
        return self.end - self.start


def public_functions(module, exclude=()):
    """Functions defined in ``module`` whose names carry no leading underscore."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    out = {}
    for name, obj in vars(module).items():
        qualified = f"{prefix}.{name}"
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and qualified not in exclude
        ):
            out[obj] = qualified
    return out


def children_of(spans):
    """Index lists of each span's direct children."""
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(i)
    return kids


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval.
    """
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


class Tracer:
    """Wraps functions for the lifetime of one traced run.

    ``targets`` maps each function to trace to its span name.  ``package``
    names the package whose modules are searched for bindings of the
    targets.  ``capture`` maps a span name to ``f(args, kwargs, result)``,
    whose value is kept as the span's ``info``.  ``probes`` is a sequence of
    ``(owner, attribute, note)``; each call of ``owner.attribute`` appends
    ``note(args, kwargs)`` to the events of the innermost open span.
    """

    def __init__(self, targets, package, capture=None, probes=()):
        self.targets = dict(targets)
        self.package = package
        self.capture = dict(capture or {})
        self.probes = tuple(probes)
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.targets.items()}
        owners = [
            mod
            for name, mod in list(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]
        try:
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                    if wrapper is not None:
                        self._patch(owner, attr, wrapper)
            for owner, attr, note in self.probes:
                self._patch(owner, attr, self._probe(getattr(owner, attr), note))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        """Put back every attribute the tracer replaced, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        capture = self.capture.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if capture is not None:
                span.info = capture(args, kwargs, result)
            return result

        return traced

    def _probe(self, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if stack:
                spans[stack[-1]].events.append(note(args, kwargs))
            return fn(*args, **kwargs)

        return probed

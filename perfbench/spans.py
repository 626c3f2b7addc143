"""Span recorder and wrappers for the benchmark.

The recorder keeps spans in memory: name, start, end, parent and scene
id, plus a dict of attributes (row counts, iteration counts, ...). The
benchmark opens spans around its own calls into each varimix layer in
every run. A traced run additionally replaces public names where their
callers look them up (``varimix.solvers.mesma.fcls_core`` is the name
``mesma`` calls), so calls inside a layer show up as child spans. Every
replaced name is put back when the ``installed`` block exits. A name
that does not exist in the program under test is reported as absent
rather than raising, so the benchmark keeps working when a later
version removes it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MB = 1e6    # bytes per reported megabyte


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    scene: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; ``self_times`` derives per-name self time
    (duration minus the part covered by child spans)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.scene = -1

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), parent=parent, scene=self.scene, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def ancestors(self, sp: Span):
        p = sp.parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "scene": s.scene, "attrs": s.attrs}
            for s in self.spans
        ]


def bound_arg(fn, args, kwargs, name):
    """Value of parameter ``name`` in this call, defaults applied; None
    when the function has no such parameter."""
    try:
        ba = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    ba.apply_defaults()
    return ba.arguments.get(name)


@dataclass(frozen=True)
class Site:
    """A public name to wrap: ``module.attr``, recorded as span ``span``.

    ``after(recorder, span, fn, args, kwargs, result)`` runs once the span has
    closed, so work it does (such as a certificate check) is not counted
    in the wrapped call's time. If it raises, because the wrapped function
    now takes or returns something else, the error is recorded on the span
    and counted, and the call's result is returned unchanged.
    ``wrap_args(recorder, fn, args, kwargs)`` rewrites the call's arguments
    before the call (used to wrap callbacks).
    """

    module: str
    attr: str
    span: str
    after: object = None
    wrap_args: object = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self, recorder: Recorder, sites):
        self.rec = recorder
        self.sites = tuple(sites)
        self.absent: set[str] = set()
        self.hook_errors = 0                 # calls whose result a hook could not read

    def _wrapper(self, site: Site, fn):
        rec = self.rec

        def wrapper(*args, **kwargs):
            if site.wrap_args is not None:
                args, kwargs = site.wrap_args(rec, fn, args, kwargs)
            with rec.span(site.span, site=site.qualname) as sp:
                result = fn(*args, **kwargs)
            if site.after is not None:
                try:
                    site.after(rec, sp, fn, args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the scene
                    sp.attrs["after_error"] = repr(exc)
                    self.hook_errors += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every site for the duration of the block and put the
        original objects back afterwards, also when the block raises."""
        saved = []
        try:
            for site in self.sites:
                try:
                    mod = importlib.import_module(site.module)
                except ImportError:
                    self.absent.add(site.qualname)
                    continue
                fn = getattr(mod, site.attr, None)
                if fn is None:
                    self.absent.add(site.qualname)
                    continue
                saved.append((mod, site.attr, fn))
                setattr(mod, site.attr, self._wrapper(site, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


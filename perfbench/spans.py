"""Span tracing around tenserecon's layer boundaries, installed from outside.

Nothing in ``src/`` knows about this module.  ``install`` replaces each
boundary function with a wrapper on every name a caller can resolve it
through: the defining module's attribute and every ``tenserecon`` module
that imported it by name (``pipeline.strains_from_frame``,
``simulator.bend_inverse``, ``pipeline.evaluate``...).  Deferred imports such
as ``from .lstm import predict_strain`` inside a function resolve the
defining module's attribute at call time, so they see the wrapper too.

Spans are aggregated per call path (a calling-context tree): each span has
an id, its parent's id, a name, a call count, total time and the time its
child spans covered, so self time = total - child.  The tree stays small
however many calls are made.  ``sensors.bending_strain`` runs millions of
times per session, so it is only counted, not timed; its time stays in its
caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """In-memory span tree plus plain counters and hook samples."""

    def __init__(self):
        self.spans = [Span(0, None, "root")]
        self._index: dict[tuple[int, str], int] = {}
        self._stack = [0]
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _span_id(self, parent: int, name: str) -> int:
        sid = self._index.get((parent, name))
        if sid is None:
            sid = len(self.spans)
            self.spans.append(Span(sid, parent, name))
            self._index[(parent, name)] = sid
        return sid

    def _enter(self, name: str):
        parent = self._stack[-1]
        sid = self._span_id(parent, name)
        self._stack.append(sid)
        return parent, sid

    def _exit(self, parent: int, sid: int, dt: float) -> None:
        self._stack.pop()
        span = self.spans[sid]
        span.calls += 1
        span.total_s += dt
        self.spans[parent].child_s += dt

    @contextmanager
    def span(self, name: str):
        """A span around a stage of the benchmark itself."""
        parent, sid = self._enter(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(parent, sid, time.perf_counter() - t0)

    def timed(self, name, fn, before=None, after=None):
        """Wrap fn in a span; hooks run outside the span's own timing."""
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent, sid = enter(name)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(parent, sid, clock() - t0)
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing on the program ---------------------------------------

    def install(self, boundaries) -> None:
        """Install wrappers for (name, owner, attr, kind, hooks) boundaries.

        A boundary whose attribute no longer exists is skipped; its metrics
        then read 0, so a refactor that removes or routes around a boundary
        shows in the trace instead of failing the run.
        """
        for name, owner, attr, kind, hooks in boundaries:
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                continue
            if kind == "count":
                wrapper = self.counted(name, original)
            else:
                wrapper = self.timed(name, original, **hooks)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("tenserecon"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading the tree --------------------------------------------------

    def _outermost(self, name: str) -> list[Span]:
        """Spans called name that have no ancestor of the same name."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            p = span.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                out.append(span)
        return out

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return sum(s.calls for s in self.spans if s.name == name)

    def total_s(self, name: str) -> float:
        """Inclusive time under name, not double-counting recursion."""
        return sum(s.total_s for s in self._outermost(name))

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def subtree(self, root: Span) -> list[Span]:
        ids = {root.id}
        out = [root]
        for span in self.spans[root.id + 1:]:
            if span.parent in ids:
                ids.add(span.id)
                out.append(span)
        return out

    def tree_errors(self, tol: float = 1e-9) -> list[str]:
        """Structural problems of the span tree; empty when well formed."""
        errors = []
        if self.spans[0].parent is not None or len(self._stack) != 1:
            errors.append("root span has a parent or spans are still open")
        seen = set()
        for span in self.spans[1:]:
            if span.parent is None or not 0 <= span.parent < span.id:
                errors.append(f"span {span.id} {span.name}: bad parent {span.parent}")
                continue
            key = (span.parent, span.name)
            if key in seen:
                errors.append(f"span {span.id} {span.name}: duplicate sibling")
            seen.add(key)
            if span.calls < 1 or span.total_s < 0 or span.self_s < -tol:
                errors.append(f"span {span.id} {span.name}: calls {span.calls}, "
                              f"total {span.total_s}, self {span.self_s}")
        return errors

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name, "calls": s.calls,
                 "total_s": s.total_s, "self_s": s.self_s} for s in self.spans]

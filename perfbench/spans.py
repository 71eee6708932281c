"""In-memory span recording around the program's public layer methods.

The traced run replaces public methods of each layer's *objects* (never its
classes, never code under ``src/``) with wrappers that record one span per
call: ``(id, name, start, end, parent, request)``.  The parent is the span
open on the same thread when the call began; the request is the load
generator's request id for spans on a sender thread.  Work done on other
threads for a request (a fused batch on a scheduler worker, an HTTP handler)
has no parent there, so its span is *linked* to the requests it served.

Spans stay in memory until the run ends and are written out once.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

from stats import self_time


class Tracer:
    """Span and link store shared by every thread of one traced run."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id or None, request id or None)
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        #: span id -> request ids that span served (fused batches, handlers)
        self.links: dict[int, list[int]] = {}
        #: span name -> work counted at that boundary (plans, write txns)
        self.tallies: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tally_lock = threading.Lock()

    # ------------------------------------------------------------------
    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, span_id: int, request: int) -> Iterator[None]:
        """Make ``span_id`` (a request's root) the parent of spans opened here."""
        stack = self._stack()
        stack.append(span_id)
        previous = getattr(self._local, "request", None)
        self._local.request = request
        try:
            yield
        finally:
            stack.pop()
            self._local.request = previous

    def record(
        self,
        name: str,
        start: float,
        end: float,
        span_id: int | None = None,
        parent: int | None = None,
        request: int | None = None,
    ) -> int:
        """Store a span measured by the caller (request roots, queue waits)."""
        span_id = self.new_id() if span_id is None else span_id
        self.spans.append((span_id, name, start, end, parent, request))
        return span_id

    def wrap(
        self,
        obj: Any,
        method: str,
        name: str,
        link: Callable[..., Iterable[int]] | None = None,
        tally: Callable[..., float] | None = None,
    ) -> None:
        """Record a span for every call of ``obj.method``.

        ``link(*args, **kwargs)`` names the requests a call serves; it is
        consulted only for calls with no enclosing span on their thread.
        ``tally(*args, **kwargs)`` is the work the call does, summed per name.
        """
        original = getattr(obj, method)
        spans = self.spans
        links = self.links
        tallies = self.tallies
        tally_lock = self._tally_lock
        ids = self._ids
        local = self._local
        stack_of = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, getattr(local, "request", None))
                )
                if tally is not None:
                    work = tally(*args, **kwargs)
                    with tally_lock:
                        tallies[name] += work
                if parent is None and link is not None:
                    served = list(link(*args, **kwargs))
                    if served:
                        links[span_id] = served

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> list[tuple[int, str, float, float, int | None, int | None]]:
        return [span for span in self.spans if span[1] == name]

    def children(self) -> dict[int, list[int]]:
        """Parent span id -> child span ids."""
        tree: dict[int, list[int]] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                tree[span[4]].append(span[0])
        return tree

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's cover.

        A span linked to a request also counts as a child of the spans of
        that request (its own, or linked to it) that enclose it: an HTTP
        round trip on the sender thread encloses the server's handling of
        the request on a handler thread, which encloses the fused batch that
        carried it on a scheduler thread.
        Request roots (named ``request``) are left out; what no layer covers
        of them is the unaccounted latency.
        """
        index = {span[0]: span for span in self.spans}
        tree = self.children()
        owned: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[5] is not None and span[1] != "request":
                owned[span[5]].append(span)
        for span_id, requests in self.links.items():
            for request in requests:
                owned[request].append(index[span_id])
        for span_id, requests in self.links.items():
            linked = index[span_id]
            for request in requests:
                for own in owned.get(request, ()):
                    if own[0] != span_id and own[2] <= linked[2] and linked[3] <= own[3]:
                        tree[own[0]].append(span_id)
        result: dict[str, list[float]] = defaultdict(list)
        for span_id, name, start, end, _parent, _request in self.spans:
            if name == "request":
                continue
            kids = [index[kid] for kid in tree.get(span_id, ()) if kid in index]
            result[name].append(
                self_time(start, end, [(kid[2], kid[3]) for kid in kids])
            )
        return result

    def descendants(
        self, roots: Iterable[int], tree: dict[int, list[int]] | None = None
    ) -> list[int]:
        """Every span below (and including) ``roots``."""
        tree = self.children() if tree is None else tree
        found: list[int] = []
        pending = list(roots)
        while pending:
            span_id = pending.pop()
            found.append(span_id)
            pending.extend(tree.get(span_id, ()))
        return found

    def write(self, path: str, extra: dict[str, Any] | None = None) -> None:
        """Write every span and link as JSON (times in seconds, perf_counter)."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "links": {str(key): value for key, value in self.links.items()},
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

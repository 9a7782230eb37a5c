"""In-memory span tracer that wraps the suite's public functions from outside.

A span is ``(id, name, start, end, parent id, request id)``. Spans stay in
memory until the traced process exits; ``summary`` then folds them into
per-name call counts, total and self time (a span's duration minus the
part its direct children cover), plus the per-request duration of the
server span and the self time per layer of spans tagged with a request,
so the load generator can split client latency.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
from time import perf_counter

SERVER_SPAN = "server.handle"
_RID_RE = re.compile(r"[?&]rid=(\d+)")


class _Local(threading.local):
    def __init__(self):
        self.stack: list[tuple[int, str]] = []
        self.rid: int | None = None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = _Local()
        self._count_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        with self._count_lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def current(self) -> str | None:
        stack = self._local.stack
        return stack[-1][1] if stack else None

    def record(self, name: str, start: float, end: float) -> None:
        """A leaf span measured by the caller, parented to the open span."""
        stack = self._local.stack
        self.spans.append((next(self._ids), name, start, end,
                           stack[-1][0] if stack else 0, self._local.rid))

    def call(self, name: str, fn, args, kwargs):
        local = self._local
        stack = local.stack
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, local.rid))

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a traced version of itself."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Trace each step of a generator function as its own span."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            items = 0
            try:
                while True:
                    try:
                        item = tracer.call(name, next, (steps,), {})
                    except StopIteration:
                        return
                    items += 1
                    yield item
            finally:
                tracer.count(f"{name}.items", items)

        setattr(owner, attr, traced)

    def wrap_request(self, handler_cls, attr: str) -> None:
        """Tag every span of one HTTP request with the ``rid`` it carries."""
        fn = getattr(handler_cls, attr)
        local = self._local

        @functools.wraps(fn)
        def tagged(handler, *args, **kwargs):
            match = _RID_RE.search(handler.path)
            local.rid = int(match.group(1)) if match else None
            return fn(handler, *args, **kwargs)

        setattr(handler_cls, attr, tagged)

    def end_request(self) -> None:
        self._local.rid = None

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        per_name: dict[str, dict] = {}
        requests: dict[int, float] = {}
        request_self: dict[str, float] = {}
        for sid, name, start, end, _, rid in self.spans:
            duration = end - start
            self_ms = (duration - child_time.get(sid, 0.0)) * 1e3
            entry = per_name.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                               "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += duration * 1e3
            entry["self_ms"] += self_ms
            if rid is not None:
                layer = name.split(".", 1)[0]
                request_self[layer] = request_self.get(layer, 0.0) + self_ms
                if name == SERVER_SPAN:
                    requests[rid] = duration * 1e3
        return {"spans": per_name, "counters": self.counters,
                "requests": requests, "request_self_ms": request_self,
                "span_count": len(self.spans)}


class TracedLock:
    """A lock whose every acquisition records its wait as a span."""

    def __init__(self, lock, tracer: Tracer, name: str):
        self._lock = lock
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        start = perf_counter()
        self._lock.acquire()
        self._tracer.record(self._name, start, perf_counter())
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


class CountingList(list):
    """A list that counts the items each full iteration walks.

    The count is charged to the innermost open span, so a read path that
    scans every stored shout shows up as shouts examined by that span.
    """

    def __init__(self, items, tracer: Tracer):
        super().__init__(items)
        self._tracer = tracer

    def __iter__(self):
        self._tracer.count(f"examined:{self._tracer.current()}", len(self))
        return super().__iter__()

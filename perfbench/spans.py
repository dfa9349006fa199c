"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: name (``layer.what``), start and end
(``time.perf_counter``, which is the system-wide monotonic clock on
Linux, so spans from forked pool workers share the parent's time
axis), the span that caused it, the request or shard id it served, the
process and thread it ran on, and a few counts (``attrs``).  Spans stay
in memory until the run ends; nothing is written while it is measured.

Parent linkage follows the calling thread.  Work handed to another
thread or process names its parent explicitly: the caller registers
its span under a hand-off key (:meth:`Recorder.hand_off`) and the
callee looks it up (:meth:`Recorder.handed`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "pid",
                 "tid", "attrs")

    def __init__(self, sid, name, start, parent, rid, pid, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.pid = pid
        self.tid = tid
        self.attrs = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_tuple(self) -> tuple:
        return (self.sid, self.name, self.start, self.end, self.parent,
                self.rid, self.pid, self.tid, self.attrs)

    @classmethod
    def from_tuple(cls, t) -> "Span":
        s = cls(t[0], t[1], t[2], t[4], t[5], t[6], t[7])
        s.end = t[3]
        s.attrs = t[8]
        return s

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"sid={self.sid!r}, parent={self.parent!r})")


class Recorder:
    """Collects spans; one per benchmark process (forked pool workers
    inherit a copy and ship their new spans back with each result)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._handoff: dict = {}
        self._lock = threading.Lock()

    # -- the per-thread stack ------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset_thread(self) -> None:
        """Forget the calling thread's open spans (a forked worker
        inherits its parent's stack, which names spans of another
        process)."""
        self._local.stack = []

    def current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -----------------------------------------------------
    def begin(self, name: str, rid=None, parent=None) -> Span:
        """Open a span; *parent* (a span id) overrides the thread's
        current span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
            if rid is None:
                rid = stack[-1].rid
        pid = os.getpid()
        span = Span(f"{pid}-{next(self._ids)}", name, 0.0, parent, rid,
                    pid, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)

    def add(self, spans) -> None:
        """Adopt finished spans recorded elsewhere (a pool worker)."""
        with self._lock:
            self.spans.extend(spans)

    # -- cross-thread hand-off -----------------------------------------
    def hand_off(self, key, span: Span) -> None:
        with self._lock:
            self._handoff[key] = span

    def handed(self, key) -> "Span | None":
        with self._lock:
            return self._handoff.get(key)

    def drop_hand_off(self, key) -> None:
        with self._lock:
            self._handoff.pop(key, None)

    def mark(self) -> int:
        return len(self.spans)

    def since(self, mark: int) -> list:
        return self.spans[mark:]

"""Outside-in span tracing for the benchmark's traced runs.

Spans are recorded around calls into the program's modules by replacing
functions and methods with timing wrappers, so no program source changes.
Each span has a name, a start, an end and the span that was open on the same
thread when it started (its parent). Spans are kept in memory and written
out once, at the end of a run.

A span's self time is its duration minus the time its child spans cover.
Children run synchronously inside their parent on one thread, so they never
overlap and their durations can simply be summed. The self times of all
spans on a thread therefore add up to the duration of that thread's root
spans, and the root's own self time is the uncovered remainder.
"""

from __future__ import annotations

import csv
import itertools
import threading
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from time import perf_counter

# (span id, parent id or -1, thread ident, name, start s, end s)
Span = tuple[int, int, int, str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[int, int, str, float]:
        """Start a span on the calling thread; pass the token to :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, name, perf_counter()

    def close(self, token: tuple[int, int, str, float]) -> None:
        end = perf_counter()
        sid, parent, name, start = token
        self._stack().pop()
        self.spans.append((sid, parent, threading.get_ident(), name, start, end))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[[tuple, dict, object], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``observe(args, kwargs, result)`` runs after each successful call, to
        record counts. A call that raises is counted in ``errors[name]``.
        Wraps nothing when ``owner`` has no such attribute, so a program that
        renames an internal still runs under the tracer.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.close(token)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def self_times(self) -> dict[int, float]:
        """Self seconds per span id: duration minus child coverage."""
        covered: Counter[int] = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return {sid: (end - start) - covered[sid] for sid, _, _, _, start, end in self.spans}

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name, over every thread."""
        totals: dict[str, dict[str, float]] = {}
        self_s = self.self_times()
        for sid, _, _, name, _, _ in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s[sid]
        return totals

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "thread", "name", "start_s", "end_s"])
            for sid, parent, thread, name, start, end in sorted(self.spans):
                writer.writerow([sid, parent, thread, name, repr(start), repr(end)])

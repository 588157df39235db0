"""Outside-in layer trace: spans around the public calls of each layer.

The program itself carries no tracing yet, so the benchmark wraps, from
its own files, the functions each layer exposes (listed in
``verdictbench.install_layer_wrappers``) and records one span per call:
name, start, end, the span that caused it, and the query it belongs to. Spark work is attributed to a span by
a job group (``SparkContext.setJobGroup``); job and task counts per
group are read back from ``statusTracker()``.

Wrappers are installed only for a traced run, which also times an
untraced pass; there they cost one flag test per call while tracing is
switched off.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from measure import covered, self_time

IDLE_GROUP = "perfbench:idle"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    query: str | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1000.0 * (self.end - self.start)


class Tracer:
    """Keeps spans in memory while ``active``; see :meth:`install`."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self.active = False
        self.query: str | None = None
        self._stack: list[int] = []
        self._groups: list[str] = []

    # ---- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, group: str | None = None, **attrs):
        """Record a span; with ``group``, Spark jobs started inside it
        are tagged ``<query>:<group>``."""
        if not self.active:
            yield None
            return
        sp = Span(
            name, time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            query=self.query, attrs=dict(attrs),
        )
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        if group is not None:
            self._groups.append(f"{self.query}:{group}")
            self.sc.setJobGroup(self._groups[-1], self._groups[-1])
        try:
            yield sp
        finally:
            if group is not None:
                self._groups.pop()
                prev = self._groups[-1] if self._groups else IDLE_GROUP
                self.sc.setJobGroup(prev, prev)
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        group: str | None = None,
        record: Callable[[Span, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call
        (and, with ``record``, attributes taken from the arguments and
        result)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            with tracer.span(name, group=group) as sp:
                out = orig(*args, **kwargs)
                if record is not None:
                    record(sp, args, out)
                return out

        setattr(owner, attr, traced)

    # ---- reading the trace --------------------------------------------
    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, sp in enumerate(self.spans):
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(i)
        return out

    def descendants(self, root: int, kids: dict[int, list[int]]) -> list[Span]:
        out, todo = [], list(kids.get(root, []))
        while todo:
            i = todo.pop()
            out.append(self.spans[i])
            todo.extend(kids.get(i, []))
        return out

    def self_ms(self, idx: int, kids: dict[int, list[int]]) -> float:
        sp = self.spans[idx]
        return 1000.0 * self_time(
            sp.start, sp.end, [(self.spans[c].start, self.spans[c].end) for c in kids.get(idx, [])]
        )

    def coverage(self, idx: int, kids: dict[int, list[int]]) -> float:
        """Share of a span's wall time covered by its direct children."""
        sp = self.spans[idx]
        cov = covered(sp.start, sp.end, [(self.spans[c].start, self.spans[c].end) for c in kids.get(idx, [])])
        return cov / (sp.end - sp.start)

    def jobs_and_tasks(self, group: str) -> tuple[int, int]:
        """Spark jobs tagged with ``group`` and the tasks they completed."""
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        tasks = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for s in info.stageIds if info is not None else ():
                stage = st.getStageInfo(s)
                if stage is not None:
                    tasks += stage.numCompletedTasks
        return len(jobs), tasks

    def settle(self, timeout: float = 5.0) -> None:
        """Wait until Spark's listener has seen every job end, so that
        job and task counts are complete."""
        deadline = time.perf_counter() + timeout
        st = self.sc.statusTracker()
        while st.getActiveJobsIds() and time.perf_counter() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)

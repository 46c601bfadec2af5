"""In-memory span recorder for the traced benchmark run.

Each public hardstab function is wrapped at the module attribute its caller
looks it up in (``hardstab.experiments.ce_lqr_gain``, not
``hardstab.synthesis.ce_lqr_gain``), so the package itself is unchanged and
no tracing code runs in an untraced run.  A span is (name, start, end,
parent) plus the outcome fields a layer metric needs; spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr`` is replaced while tracing and its
    calls are recorded under the span ``name``.  ``describe(args, kwargs,
    result)`` returns outcome fields for the span."""

    module: object
    attr: str
    name: str
    describe: Optional[Callable] = None

    @property
    def site(self) -> str:
        return f"{self.module.__name__}.{self.attr}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.hits: Counter = Counter()  # calls per wrapped site
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(target.name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            self.hits[target.site] += 1
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if target.describe is not None:
                span.info.update(target.describe(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace every target by its traced wrapper; restore on exit.  A
        missing attribute raises, so a renamed call site fails loudly."""
        originals = []
        try:
            for target in targets:
                original = getattr(target.module, target.attr)
                originals.append((target, original))
                setattr(target.module, target.attr, self.wrap(target, original))
            yield self
        finally:
            for target, original in reversed(originals):
                setattr(target.module, target.attr, original)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(
                json.dumps(
                    {
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        **span.info,
                    }
                )
                + "\n"
            )

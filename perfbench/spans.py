"""In-memory span recording and self-time computation.

A span is one timed call: name, start, end, the span that was open when it
started (its parent), and a few attributes.  Spans stay in memory while the
benchmark runs and are written out once at the end.

`Tracer.span` times a call the benchmark makes itself.  `Tracer.patch`
replaces a method on one object (never on a class) with a timing wrapper,
which is how the traced run reaches the stages inside a model graph from
outside the program.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one span; `Tracer.span` returns it."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.end = self._tracer.clock()
        self._tracer._stack.pop()


class Tracer:
    """Records spans; `mode` and `step` tag the layer spans of a model pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.mode = "infer"      # "train" or "infer": the pass now running
        self.step = 0            # training steps begun so far

    def span(self, name: str, **attrs) -> _Open:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, 0.0, 0.0, parent, attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = self.clock()
        return _Open(self, s)

    def patch(self, obj, attr: str, name_of: Callable[..., str],
              before: Optional[Callable[..., None]] = None) -> None:
        """Time every call of `obj.attr` under the span name `name_of(*args)`.

        `before(*args, **kwargs)` runs first, outside the span, and may set
        `mode` / `step`.
        """
        inner = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            name = name_of(*args, **kwargs)
            batch = getattr(args[0], "shape", (0,))[0] if args else 0
            with self.span(name, mode=self.mode, step=self.step, batch=int(batch)):
                return inner(*args, **kwargs)

        setattr(obj, attr, wrapper)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its children.

    Spans come from one call stack, so children never overlap one another
    and never outlast their parent.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out

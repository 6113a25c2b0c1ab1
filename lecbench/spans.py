"""In-memory span recorder that wraps lecopt's public functions from outside.

A wrapper is installed at the attribute its caller looks up (for example
`lecopt.scenario.build`, which `run_scenario` calls by that name), so the
package itself is unchanged. Each span records its name, start, end, the
span that was open when it started, and the current request id. Spans stay
in memory until `write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, *args, count: Callable[[Any, tuple], dict] | None = None, **kwargs):
        """Call `fn(*args, **kwargs)` inside a span; `count(result, args)` adds counters."""
        span = Span(len(self.spans), name, 0.0, 0.0, self._open[-1] if self._open else None, self.request)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if count is not None:
            span.counts = count(result, args)
        return result

    def patch(self, module, attr: str, name: str, count: Callable[[Any, tuple], dict] | None = None) -> None:
        """Replace `module.attr` with a traced wrapper until `restore`."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, count=count, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_time(self, span: Span) -> float:
        """Duration of `span` minus the part of it covered by its direct children."""
        children = sorted((s.start, s.end) for s in self.spans if s.parent == span.id)
        covered, reach = 0.0, span.start
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")

"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public attributes of latebind's modules with timing
wrappers, so no program file changes: each call becomes a span with its
name, start, end, parent span and execution id (the index of the enclosing
``bench.execute`` call, -1 outside one).  Spans stay in memory until the run
ends; ``restore`` puts every original attribute back.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

# Span name of the recorder's own work; layer times subtract it.
DIGEST = "perfbench.input_digest"

Observer = Callable[[tuple, Any, Any], Any]   # (args, result, before's value)


@dataclass
class Span:
    name: str
    parent: int           # index into Recorder.spans, -1 for a root span
    exec_id: int
    start_ns: int = 0
    end_ns: int = 0
    payload: Any = None   # what the span's observer kept from args and result
    child_ns: int = 0     # time covered by direct children
    overhead_ns: int = 0  # recorder time (digests) anywhere inside the span

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def net_ns(self) -> int:
        """Duration without the recorder's own work inside the span."""
        return self.dur_ns - self.overhead_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    exec_id: int = -1
    _stack: list[int] = field(default_factory=list)
    _executions: int = 0
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             observe: Optional[Observer] = None,
             before: Optional[Callable[[tuple], Any]] = None) -> Any:
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1, self.exec_id)
        self.spans.append(span)
        self._stack.append(index)
        span.start_ns = time.perf_counter_ns()
        try:
            pre = before(args) if before is not None else None
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
        if observe is not None:
            span.payload = observe(args, result, pre)
        return result

    def wrap(self, owner: object, attr: str, name: str,
             observe: Optional[Observer] = None,
             before: Optional[Callable[[tuple], Any]] = None,
             new_execution: bool = False) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        ``before`` runs inside the span ahead of the wrapped call and hands
        its value to ``observe``.  With ``new_execution`` each call opens a
        new execution id for the spans beneath it."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not new_execution:
                return self.call(name, original, args, kwargs, observe, before)
            outer = self.exec_id
            self.exec_id = self._executions
            self._executions += 1
            try:
                return self.call(name, original, args, kwargs, observe, before)
            finally:
                self.exec_id = outer

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def caller_name(self) -> str:
        """Name of the span that opened the innermost open span."""
        parent = self.spans[self._stack[-1]].parent
        return self.spans[parent].name if parent >= 0 else ""

    def digest(self, arrays: list[np.ndarray]) -> str:
        """Content digest of arrays, recorded as a span of recorder overhead."""
        def run() -> str:
            h = hashlib.sha256()
            for arr in arrays:
                h.update(f"{arr.dtype}:{arr.size};".encode())
                h.update(np.ascontiguousarray(arr))
            return h.hexdigest()
        return self.call(DIGEST, run, (), {})

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def finish(self) -> list[Span]:
        """Fill child and overhead times; call once after the run."""
        spans = self.spans
        for span in spans:
            if span.parent >= 0:
                spans[span.parent].child_ns += span.dur_ns
            if span.name == DIGEST:
                p = span.parent
                while p >= 0:
                    spans[p].overhead_ns += span.dur_ns
                    p = spans[p].parent
        return spans


def write_csv(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("span_id,name,start_ns,end_ns,parent,exec_id\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.start_ns},{s.end_ns},{s.parent},{s.exec_id}\n")

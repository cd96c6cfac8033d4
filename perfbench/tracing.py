"""In-memory spans around the calls into each layer, and the statistics on them.

A `Tracer` replaces a function at the module (or class) attribute its caller
looks it up through with a wrapper that records one `Span` per call: name,
start, end, the span it ran under, and the id of the operation it belongs
to. Spans stay in memory until the run ends. Nothing in the program itself
is edited; `Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Two clock readings can disagree by this much (s) when nested spans are
# compared; the check allows it.
CLOCK_SLACK_S = 1e-6

# A percentile above the median is reported only when at least this many
# samples lie beyond it.
SAMPLES_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one operation id groups the spans of one call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._undo: list = []
        # Time spent in wrappers outside the wrapped calls (s).
        self.overhead_s = 0.0

    @contextmanager
    def operation(self, name: str, **attrs):
        """Root span of one operation; every span inside shares its id."""
        self._op += 1
        with self.span(name, **attrs) as root:
            yield root

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self._op, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Trace every call of `owner.attr` made inside an operation as span `name`.

        `after(span, args, kwargs, result)` runs once the span has ended, so
        the bookkeeping it does is not charged to the traced call.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            entered = time.perf_counter()
            try:
                with self.span(name) as span:
                    result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
            finally:
                self.overhead_s += time.perf_counter() - entered - span.duration
            return result

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self.defer(lambda: setattr(owner, attr, raw))

    def defer(self, undo) -> None:
        """Have `restore` call `undo`; the last deferred runs first."""
        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that leave their parent's interval or whose children outlast them."""
    errors = []
    children = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if not span.end >= span.start:
            errors.append(f"span {i} {span.name} ends before it starts")
        if span.parent is None:
            continue
        parent = spans[span.parent]
        children[span.parent] += span.duration
        if span.op != parent.op:
            errors.append(f"span {i} {span.name} has another operation id than its parent")
        if (span.start < parent.start - CLOCK_SLACK_S
                or span.end > parent.end + CLOCK_SLACK_S):
            errors.append(f"span {i} {span.name} leaves parent {parent.name}")
    for i, (span, covered) in enumerate(zip(spans, children)):
        if covered > span.duration + CLOCK_SLACK_S:
            errors.append(
                f"span {i} {span.name}: children take {covered:.6f} s of {span.duration:.6f} s"
            )
    return errors


def percentile(samples: list[float], q: float) -> float | None:
    """The q-th percentile (0 < q < 1) by linear interpolation.

    The median is always given for a non-empty sample. A higher percentile
    needs at least `SAMPLES_BEYOND` samples above it, otherwise None.
    """
    n = len(samples)
    if n == 0 or (q > 0.5 and n * (1.0 - q) < SAMPLES_BEYOND - 1e-9):
        return None
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
